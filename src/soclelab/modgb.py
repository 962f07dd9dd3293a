"""Buchberger engine for submodules of free modules over a polynomial ring.

A vector is a dict mapping ``(position, exponent tuple)`` to a nonzero
field coefficient; ideals are the rank-one case.  The same loop serves
three jobs:

* reduced Groebner bases of ideals (with the coprimality and chain
  criteria for pair pruning; an input with no tag block and every term
  in position 0 is an ideal),
* reduced Groebner bases of submodules of free modules (chain criterion
  only; the coprimality shortcut is unsound beyond rank one),
* syzygies modulo a submodule (Macaulay2's and Singular's ``modulo``):
  each column gets a unit-vector tag, the submodule's generators enter
  untagged, and in the block order every tagged term is below every
  untagged one.  By Schreyer's theorem the remainders of the S-pairs of
  untagged-led elements, which live on the tag block, generate
  {v : sum_j v_j col_j in the submodule}: a generating set, not a
  reduced Groebner basis.

Orders on module terms put heavier positions first through an optional
degree component so that graded inputs are processed degree by degree.
"""

import heapq

from .errors import StructuralError
from .monomials import (
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class VectorOrder:
    """Term order on (position, monomial) pairs.

    ``split`` marks the boundary of the tag block: positions >= split are
    strictly smaller than every untagged term (only ``syzygies_vectors``
    sets it).  Given ``twists``, the order compares the twisted degree
    first, so homogeneous work proceeds by degree.

    ``rank(term)`` is the sort key: a flat tuple of ints in which a larger
    term has a smaller rank, so ``min`` and a ``heapq`` heap both yield the
    lead first.  Each term's rank is computed once and memoized in a dict
    this object owns.  Create one VectorOrder per run (every caller in this
    module does), so the memo lives for that run only.

    This is a term order: multiplying two terms in one position by the
    same monomial keeps their comparison, through the tag-block split and
    the degree twist too.  Reduction relies on it: subtracting a multiple
    of a basis element whose shifted lead is the current lead term creates
    only terms below that lead.
    """

    def __init__(self, mono_key, twists=None, split=None):
        self.mono_key = mono_key
        self.twists = twists
        self.split = split
        self._ranks = {}

    def rank(self, term):
        r = self._ranks.get(term)
        if r is None:
            pos, e = term
            head = (-1,) if (self.split is None or pos < self.split) else (0,)
            if self.twists is not None:
                head += (-mono_degree(e) - self.twists[pos],)
            # Splicing the monomial key in keeps its comparison: within one
            # run, every key from ``mono_key`` has the same length.
            r = self._ranks[term] = head + tuple(-k for k in self.mono_key(e)) + (pos,)
        return r


def vec_scale(vec, c, field):
    if field.is_zero(c):
        return {}
    return {t: field.mul(c, v) for t, v in vec.items()}


def vec_sub_shifted(work, g, c, shift, field):
    """In place: work -= c * x^shift * g.  Returns the terms that entered work."""
    sub, mul, zero, is_zero = field.sub, field.mul, field.zero, field.is_zero
    entered = []
    for (pos, m), cg in g.items():
        t = (pos, mono_mul(m, shift))
        old = work.get(t)
        acc = sub(zero if old is None else old, mul(c, cg))
        if is_zero(acc):
            work.pop(t, None)
        else:
            work[t] = acc
            if old is None:
                entered.append(t)
    return entered


def vec_degree(vec, twists):
    """Common twisted degree of a homogeneous vector (None for zero)."""
    degs = {mono_degree(m) + twists[pos] for (pos, m) in vec}
    if not degs:
        return None
    if len(degs) > 1:
        raise StructuralError("vector is not homogeneous")
    return degs.pop()


def vec_lead(vec, order):
    return min(vec, key=order.rank)


def normal_form_vec(vec, basis, order, field):
    """Full reduction of ``vec`` by monic basis elements.

    ``basis`` is a list of (vector, lead term) pairs.

    Lead terms come off a heap of ranks: every term is pushed when it
    enters the work vector, and one that has cancelled since is skipped
    when popped.  Because ``order`` is a term order, subtracting
    ``c * x^shift * g`` creates only terms below the popped lead, so the
    heap yields the same leads in the same order as a scan for the largest
    remaining term.
    """
    rank = order.rank
    work = dict(vec)
    heap = [(rank(t), t) for t in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        pos, m = t
        for g, (lp, lm) in basis:
            if lp == pos and mono_divides(lm, m):
                break
        else:
            rem[t] = c
            del work[t]
            continue
        shift = mono_div(m, lm)
        for new in vec_sub_shifted(work, g, c, shift, field):
            heapq.heappush(heap, (rank(new), new))
    return rem


def _push_pairs(heap, basis, new_idx, order):
    g_new, (pos_new, lm_new) = basis[new_idx]
    if order.split is not None and pos_new >= order.split:
        return
    for i in range(new_idx):
        g, (pos, lm) = basis[i]
        if pos != pos_new:
            continue
        lcm = mono_lcm(lm, lm_new)
        # Pairs leave the heap smallest lcm first: order them by the negated rank.
        heapq.heappush(heap, (tuple(-k for k in order.rank((pos, lcm))), i, new_idx, lcm))


def buchberger_vectors(vectors, order, field):
    """Reduced Groebner basis of the submodule generated by ``vectors``.

    With a tag block in ``order``, elements led there (no untagged terms)
    reduce later tag parts but get no S-pairs, and the run returns exactly
    them, unreduced: by Schreyer's theorem they generate the submodule's
    part on the tag block, and they are no basis to minimalize against.
    The coprimality criterion is applied exactly when the input is an
    ideal: no tag block and every term in position 0.  The chain
    criterion is always safe.
    """
    vectors = [v for v in vectors if v]
    use_product = order.split is None and all(pos == 0 for v in vectors for pos, _ in v)
    basis = []
    for v in vectors:
        lt = vec_lead(v, order)
        c = v[lt]
        if c != field.one:
            v = vec_scale(v, field.inv(c), field)
        basis.append((v, lt))

    heap = []
    for idx in range(len(basis)):
        _push_pairs(heap, basis, idx, order)
    treated = set()

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        treated.add((i, j))
        (gi, (pos, lmi)) = basis[i]
        (gj, (_, lmj)) = basis[j]
        if use_product and mono_coprime(lmi, lmj):
            continue
        skip = False
        for k, (gk, (pk, lmk)) in enumerate(basis):
            if k == i or k == j or pk != pos or not mono_divides(lmk, lcm):
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in treated and b in treated:
                skip = True
                break
        if skip:
            continue
        spoly = dict()
        vec_sub_shifted(spoly, gi, field.neg(field.one), mono_div(lcm, lmi), field)
        vec_sub_shifted(spoly, gj, field.one, mono_div(lcm, lmj), field)
        rem = normal_form_vec(spoly, basis, order, field)
        if rem:
            lt = vec_lead(rem, order)
            c = rem[lt]
            if c != field.one:
                rem = vec_scale(rem, field.inv(c), field)
            basis.append((rem, lt))
            _push_pairs(heap, basis, len(basis) - 1, order)

    if order.split is not None:
        return [g for g, (pos, _) in basis if pos >= order.split]
    return _reduce_basis(basis, order, field)


def _reduce_basis(basis, order, field):
    """Minimalize leads, then tail-reduce: the unique reduced basis."""
    rank = order.rank
    basis = sorted(basis, key=lambda gl: rank(gl[1]), reverse=True)
    kept = []
    for g, lt in basis:
        pos, lm = lt
        if any(p == pos and mono_divides(m, lm) for _, (p, m) in kept):
            continue
        kept.append((g, lt))
    out = []
    for idx, (g, lt) in enumerate(kept):
        others = [kept[k] for k in range(len(kept)) if k != idx]
        red = normal_form_vec(g, others, order, field)
        out.append((red, lt))
        kept[idx] = (red, lt)
    return [g for g, _ in out]


# ---------------------------------------------------------------------------
# Polynomial-level wrappers (rank one).


def poly_to_vec(f, pos=0):
    """The polynomial f as the vector f*e_pos."""
    return {(pos, m): c for m, c in f.terms.items()}


def vec_to_poly(ring, vec):
    from .poly import Polynomial

    return Polynomial(ring, {m: c for (_, m), c in vec.items()})


def groebner_polys(polys):
    """Reduced Groebner basis of an ideal, as monic polynomials."""
    live = [f for f in polys if not f.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    vorder = VectorOrder(ring.order.key)
    gb = buchberger_vectors([poly_to_vec(f) for f in live], vorder, ring.field)
    rank = vorder.rank
    gb.sort(key=lambda v: rank(vec_lead(v, vorder)), reverse=True)
    return [vec_to_poly(ring, v) for v in gb]


def poly_normal_form(f, basis_polys):
    """Remainder of f on division by monic polynomials."""
    if f.is_zero() or not basis_polys:
        return f
    ring = f.ring
    vorder = VectorOrder(ring.order.key)
    basis = [(poly_to_vec(g), (0, g.lead_monomial())) for g in basis_polys]
    rem = normal_form_vec(poly_to_vec(f), basis, vorder, ring.field)
    return vec_to_poly(ring, rem)


# ---------------------------------------------------------------------------
# Syzygies via the tag-block construction.


def syzygies_vectors(ring, columns, twists, extra=()):
    """Generators of {v : sum_j v_j columns_j lies in <extra>}.

    ``columns`` and ``extra`` are homogeneous vectors in the free module
    with the given twists over the plain polynomial ring.  Only the
    columns are tagged; ``extra`` enters untagged, so no syzygies among
    the extra vectors are computed.  The result, a Schreyer generating
    set and not a Groebner basis, lives in positions 0..len(columns)-1
    with twists equal to the column degrees.  Correct but not minimal.
    """
    m = len(twists)
    degs = [vec_degree(v, twists) or 0 for v in columns]
    tagged = []
    zero_exps = (0,) * ring.n
    for i, col in enumerate(columns):
        v = dict(col)
        v[(m + i, zero_exps)] = ring.field.one
        tagged.append(v)
    order = VectorOrder(ring.order.key, twists=tuple(twists) + tuple(degs), split=m)
    gens = buchberger_vectors(tagged + list(extra), order, ring.field)
    return [{(pos - m, e): c for (pos, e), c in g.items()} for g in gens]
