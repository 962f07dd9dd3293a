"""Buchberger engine for submodules of free modules over a polynomial ring.

A vector is a dict mapping ``(position, exponent tuple)`` to a nonzero
field coefficient; ideals are the rank-one case.  The same loop serves
four jobs:

* reduced Groebner bases of ideals (with the coprimality and chain
  criteria for pair pruning),
* reduced Groebner bases of submodules of free modules (chain criterion
  only; the coprimality shortcut is unsound beyond rank one),
* syzygies, computed by appending a unit-vector tag block to each
  generator and running a block order in which tagged coordinates are
  incomparably smaller: the Groebner elements supported entirely on the
  tag block generate the syzygy module,
* membership with explicit division quotients, by reducing the tagged
  vector ``(v, 0)``.

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
    strictly smaller than every untagged term.  ``degree_aware`` inserts
    the twisted degree as the leading comparison so homogeneous work
    proceeds by degree.

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

    def __init__(self, mono_key, twists=None, degree_aware=False, split=None):
        self.mono_key = mono_key
        self.twists = twists
        self.degree_aware = degree_aware
        self.split = split
        self._ranks = {}

    def rank(self, term):
        r = self._ranks.get(term)
        if r is None:
            pos, e = term
            head = (-1,) if (self.split is None or pos < self.split) else (0,)
            if self.degree_aware:
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


def normal_form_vec(vec, basis, order, field, track=False):
    """Full reduction of ``vec`` by monic basis elements.

    ``basis`` is a list of (vector, lead term) pairs.  With ``track``,
    also returns quotients as {basis index: {exponents: coeff}} so that
    input = remainder + sum quotient_i * basis_i.

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
    quotients = {} if track else None
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        pos, m = t
        for idx, (g, (lp, lm)) in enumerate(basis):
            if lp == pos and mono_divides(lm, m):
                break
        else:
            rem[t] = c
            del work[t]
            continue
        shift = mono_div(m, lm)
        for new in vec_sub_shifted(work, g, c, shift, field):
            heapq.heappush(heap, (rank(new), new))
        if track:
            q = quotients.setdefault(idx, {})
            q[shift] = field.add(q.get(shift, field.zero), c)
    if track:
        return rem, quotients
    return rem


def _push_pairs(heap, basis, new_idx, order):
    g_new, (pos_new, lm_new) = basis[new_idx]
    for i in range(new_idx):
        g, (pos, lm) = basis[i]
        if pos != pos_new:
            continue
        lcm = mono_lcm(lm, lm_new)
        # Pairs leave the heap smallest lcm first: order them by the negated rank.
        heapq.heappush(heap, (tuple(-k for k in order.rank((pos, lcm))), i, new_idx, lcm))


def buchberger_vectors(vectors, order, field, use_product=False):
    """Reduced Groebner basis of the submodule generated by ``vectors``.

    The coprimality criterion is applied only when the caller vouches for
    it (plain rank-one ideals); the chain criterion is always safe.
    """
    basis = []
    for v in vectors:
        if not v:
            continue
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


def poly_to_vec(f):
    return {(0, m): c for m, c in f.terms.items()}


def vec_to_poly(ring, vec):
    from .poly import Polynomial

    return Polynomial(ring, {m: c for (_, m), c in vec.items()})


def groebner_polys(polys, order=None, use_product=True):
    """Reduced Groebner basis of an ideal, as monic polynomials."""
    live = [f for f in polys if not f.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    mono_key = (order or ring.order).key
    vorder = VectorOrder(mono_key)
    gb = buchberger_vectors([poly_to_vec(f) for f in live], vorder, ring.field,
                            use_product=use_product)
    rank = vorder.rank
    gb.sort(key=lambda v: rank(vec_lead(v, vorder)), reverse=True)
    return [vec_to_poly(ring, v) for v in gb]


def poly_normal_form(f, basis_polys, order=None):
    """Remainder of f on division by monic polynomials."""
    if f.is_zero() or not basis_polys:
        return f
    ring = f.ring
    mono_key = (order or ring.order).key
    vorder = VectorOrder(mono_key)
    basis = [(poly_to_vec(g), (0, g.lead_monomial())) for g in basis_polys]
    rem = normal_form_vec(poly_to_vec(f), basis, vorder, ring.field)
    return vec_to_poly(ring, rem)


def poly_divide_exact(f, g):
    """Quotient f/g when g divides f exactly; raises otherwise."""
    ring = f.ring
    vorder = VectorOrder(ring.order.key)
    basis = [(poly_to_vec(g.monic()), (0, g.lead_monomial()))]
    rem, quot = normal_form_vec(poly_to_vec(f), basis, vorder, ring.field, track=True)
    if rem:
        raise StructuralError("division is not exact")
    terms = quot.get(0, {})
    c = ring.field.inv(g.lead_coeff())
    poly = vec_to_poly(ring, {(0, m): v for m, v in terms.items()})
    return poly.scale(c)


# ---------------------------------------------------------------------------
# Syzygies via the tag-block construction.


def _column_degrees(columns, twists):
    degs = []
    for v in columns:
        d = vec_degree(v, twists)
        degs.append(0 if d is None else d)
    return degs


def syzygies_vectors(ring, columns, twists):
    """Generators of the syzygy module of homogeneous ``columns``.

    Columns live in the free module with the given twists over the plain
    polynomial ring; the result vectors live in positions 0..len(columns)-1
    with twists equal to the column degrees.  Correct but not minimal.
    """
    m = len(twists)
    degs = _column_degrees(columns, twists)
    tagged = []
    zero_exps = (0,) * ring.n
    for i, col in enumerate(columns):
        v = dict(col)
        v[(m + i, zero_exps)] = ring.field.one
        tagged.append(v)
    order = VectorOrder(
        ring.order.key,
        twists=tuple(twists) + tuple(degs),
        degree_aware=True,
        split=m,
    )
    gb = buchberger_vectors(tagged, order, ring.field, use_product=False)
    syz = []
    for g in gb:
        if all(pos >= m for (pos, _) in g):
            syz.append({(pos - m, e): c for (pos, e), c in g.items()})
    return syz, degs
