"""The linear-scan reduction kernel, kept as a reference for the
position index of ``modgb``.

Every reduction of the engine looks its reducers up by the position of
the term (``modgb.lead_index``).  The routines here take the same
arguments but scan the whole basis in basis order, as the engine did
before it had the index: ``reduce`` for ``modgb._reduce``, ``LinearBasis``
for the pair creation and chain criterion of ``modgb._Basis``, and
``reduce_basis`` for ``modgb._reduce_basis``.  ``install`` puts them in
place of the engine's own, so that a test can run the same work under
both kernels and compare the outputs.
"""

import functools
import heapq
from itertools import chain
from operator import itemgetter, or_

from soclelab import modgb, runs
from soclelab.monomials import mono_coprime, mono_lcm


def _in_basis_order(index):
    """The (vector, lead) pairs of a lead index, in basis order."""
    return [(g, lead) for g, lead, _ in sorted(chain.from_iterable(index.values()), key=itemgetter(2))]


def reduce(vec, index, table, p, full):
    """``modgb._reduce``, scanning every element for the first divisor."""
    basis = _in_basis_order(index)
    guard, mask, absorb = table.guard, table.mask, table.absorb
    work = dict(vec)
    heap = list(work)
    heapq.heapify(heap)
    rem = {}
    while heap:
        t = heapq.heappop(heap)
        c = work.get(t)
        if c is None:
            continue
        if t & guard:
            raise modgb._Outgrown("a term outgrew its code table")
        for g, lead in basis:
            if not (t + absorb - lead) & mask:
                break
        else:
            if full:
                rem[t] = c
                del work[t]
                continue
            if functools.reduce(or_, work) & guard:
                raise modgb._Outgrown("a term outgrew its code table")
            return work
        for new in modgb._sub_multiple(work, g, c, t - lead, p):
            heapq.heappush(heap, new)
    return rem


class LinearBasis(modgb._Basis):
    """``modgb._Basis`` whose pair creation and chain criterion scan every
    element, skipping those led in another position."""

    def append(self, v, pairs=True):
        field = self.field
        lt = min(v)
        if v[lt] != field.one:
            v = modgb.vec_scale(v, field.inv(v[lt]), field)
        new_idx = len(self.elements)
        self.elements.append((v, lt))
        pos_new, lm_new = head = self.table.decode(lt)
        self.heads.append(head)
        self.index.setdefault(pos_new, []).append((v, lt, new_idx))
        if not pairs or (self.split is not None and pos_new >= self.split):
            return
        for i, (pos, lm) in enumerate(self.heads[:new_idx]):
            if pos != pos_new:
                continue
            lcm = self.table.encode((pos, mono_lcm(lm, lm_new)))
            if lcm < self.cap:
                continue
            if len(v) == 1 and len(self.elements[i][0]) == 1:
                self.treated.add((i, new_idx))
            else:
                heapq.heappush(self.heap, (-lcm, i, new_idx, lcm))

    def _remainder(self, i, j, lcm):
        basis, heads, treated = self.elements, self.heads, self.treated
        treated.add((i, j))
        if self.use_product and mono_coprime(heads[i][1], heads[j][1]):
            return None
        for k, (_, lead) in enumerate(basis):
            if k == i or k == j or (lcm + self.table.absorb - lead) & self.table.mask:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in treated and b in treated:
                return None
        field = self.field
        p = field.characteristic
        (gi, lti), (gj, ltj) = basis[i], basis[j]
        spoly = {}
        modgb._sub_multiple(spoly, gi, field.neg(field.one), lcm - lti, p)
        modgb._sub_multiple(spoly, gj, field.one, lcm - ltj, p)
        return reduce(spoly, self.index, self.table, p, not self.top)


def reduce_basis(basis, table, field):
    """``modgb._reduce_basis`` as two passes over the whole list: keep the
    minimal leads, then reduce each kept element by all the others."""
    mask, absorb = table.mask, table.absorb
    kept = []
    for g, lt in sorted(basis, key=itemgetter(1), reverse=True):
        if any(not (lt + absorb - lead) & mask for _, lead in kept):
            continue
        kept.append((g, lt))
    for idx, (g, lt) in enumerate(kept):
        others = modgb.lead_index(kept[:idx] + kept[idx + 1 :], table)
        kept[idx] = (reduce(g, others, table, field.characteristic, True), lt)
    return [g for g, _ in kept]


def install(monkeypatch):
    """Run the engine on the linear-scan kernel until ``monkeypatch`` undoes it."""
    monkeypatch.setattr(modgb, "_reduce", reduce)
    monkeypatch.setattr(modgb, "_reduce_basis", reduce_basis)
    monkeypatch.setattr(modgb, "_Basis", LinearBasis)
    monkeypatch.setattr(runs, "_Basis", LinearBasis)
