"""Buchberger engine for submodules of free modules over a polynomial ring.

At the boundary (``buchberger_vectors``, ``syzygies_vectors``,
``groebner_polys`` and ``poly_normal_form``) a vector is a dict mapping
``(position, exponent tuple)`` to a nonzero field coefficient; ideals are
the rank-one case.  Inside the engine every term is one Python int, its
code under the run's ``VectorOrder`` (see there): a smaller code is a
larger term, and multiplying a term by a monomial adds one int.
Coefficients are plain field elements, reduced ``% p`` in the loop over
GF(p) and left as Fractions over QQ, as ``linalg.Span`` does.

The same loop serves three jobs:

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

import functools
import heapq
from itertools import chain
from operator import itemgetter, mul

from .errors import AlgebraError, StructuralError
from .monomials import mono_coprime, mono_degree, mono_lcm

# Exponent fields hold at least this many bits.  A run whose input has a
# larger exponent gets wider fields from the start, and a run in which a
# term outgrows its fields starts over with fields twice as wide.
EXP_BITS = 15


class _Outgrown(AlgebraError):
    """A term of the run has an exponent too large for its code table."""


class VectorOrder:
    """Term order on (position, monomial) pairs, and the codes of its terms.

    ``split`` marks the boundary of the tag block: positions >= split are
    strictly smaller than every untagged term (only ``syzygies_vectors``
    sets it).  Given ``twists``, the order compares the twisted degree
    first, so homogeneous work proceeds by degree.  In all, it compares
    the rank tuples

        (flag, -|e| - twists[pos], -k_1(e), ..., -k_L(e), pos)

    field by field, a smaller rank meaning a larger term.  Here k is
    ``mono_key(e)``, flag is -1 below the split and 0 on the tag block,
    and the flag and the twisted degree are left out when not asked for.

    **The key must be affine in the exponents:** k(e) = k(0) + sum_i e_i
    (k(u_i) - k(0)) for the unit vectors u_i.  Both ``MonomialOrder``
    kinds, with or without a permutation, and ``EliminationOrder`` are
    linear.  Then in one position every rank field is an affine function
    of e, and ``mono_key`` is needed at the zero vector and the n unit
    vectors only: n + 1 calls per order and variable count, whatever the
    run does.  This is also a term order: multiplying two terms in one
    position by the same monomial adds the same amount to both ranks, so
    keeps their comparison, through the tag-block split and the twist
    too.  Reduction relies on it: subtracting a multiple of a basis
    element whose shifted lead is the current lead term creates only
    terms below that lead.

    **Encoding.**  ``table(vectors)`` returns a ``CodeTable`` that packs
    the rank tuple of a term into one int, the fields most significant
    first, each at a fixed bit place and biased to be nonnegative:
    code(pos, e) = sum_f (rank_f(pos, e) + bias_f) << place_f.  A table
    is a function of ``mono_key`` at the zero and unit vectors, the
    twists, the split and its sizes.  One process-wide cache keyed by
    exactly those keeps the last 256 tables, because syzygies and colons
    make a fresh order per call and most calls repeat an earlier one's
    twists: ``gauge`` to e = 3 on the twisted cubic looks up 283 tables
    and builds 30.  No benchmark workload uses more than 58 distinct
    tables, so 256 keeps all of them while bounding what a long scan with
    ever new twists can hold.

    **Why integer order is term order.**  The widths are sized so that
    every field's biased value lies in [0, 2^width) for every term the
    table admits: no field borrows from or carries into another.  So
    comparing two codes as ints compares their fields left to right,
    which is comparing the rank tuples.  A smaller code is a larger term:
    ``min(vec)`` is the lead, and a ``heapq`` heap of codes pops the lead
    first.

    **Why the shift is an addition.**  The code is affine in e too:
    code(pos, e) = code(pos, 0) + sum_i e_i step_i, with step_i the sum
    of the coefficients of e_i in each field at its place.  So code(pos,
    e + s) = code(pos, e) + step(s), one int add per shifted term, and
    when the lead l of a basis element divides a term t in the same
    position, the shift's step is just t - l.

    **Divisibility.**  Each exponent e_i sits unbiased in a field of
    bits + 1 bits: a rank field that is exactly +e_i (degrevlex has one
    for every variable), or else an extra field below the position.  Its
    top bit is a guard, clear for every exponent that fits in ``bits``.
    For two such terms, l divides t in the same position exactly when
    (t + absorb - l) & mask == 0.  The mask covers the guard bits and the
    position field.  ``absorb`` puts half the range of every other field
    into that field, more than any difference there, so no borrow leaves
    one of them; an exponent field that underflows, or takes a borrow at
    zero, sets its own guard bit.
    """

    def __init__(self, mono_key, twists=None, split=None):
        self.mono_key = mono_key
        self.twists = None if twists is None else tuple(twists)
        self.split = split
        self._keys = {}  # n -> mono_key at the zero and the n unit vectors

    def table(self, vectors, bits=EXP_BITS):
        """The code table for the terms of ``vectors`` (tuple-term dicts).

        Its exponent fields hold at least ``bits`` bits and every exponent
        of the input; its positions are the twists' or, without twists,
        those up to the next power of two above the input's largest.
        """
        terms = list(chain.from_iterable(vectors))
        exps = list(map(itemgetter(1), terms))
        n = len(exps[0]) if exps else 0
        top = max(map(max, exps)) if n else 0
        if self.twists is not None:
            npos = len(self.twists)
        else:
            npos = 1 << max(map(itemgetter(0), terms), default=0).bit_length()
        keys = self._keys.get(n)
        if keys is None:
            zero = (0,) * n
            units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
            keys = self._keys[n] = (
                tuple(self.mono_key(zero)),
                tuple(tuple(self.mono_key(u)) for u in units),
            )
        return _code_table(keys, self.twists, self.split, max(bits, top.bit_length()), npos)


@functools.lru_cache(maxsize=256)
def _code_table(keys, twists, split, bits, npos):
    return CodeTable(keys, twists, split, bits, npos)


class CodeTable:
    """Codes of the terms of a ``VectorOrder`` with the given ``twists`` and
    ``split``, whose key at the zero and unit vectors is ``keys``, for
    every exponent below 2^bits and positions below ``npos`` (see
    VectorOrder).

    ``offsets[pos]`` is the code of the zero term in each position and
    ``steps[i]`` the step of x_i.  ``guard`` holds the guard bits of the
    exponent fields, ``mask`` those and the position field, and
    ``absorb`` the borrow absorbers of the other fields.
    """

    def __init__(self, keys, twists, split, bits, npos):
        zero_key, unit_keys = keys
        n = len(unit_keys)
        nothing = (0,) * n
        # [role, constant per position, coefficient per variable]; the role
        # is "rank", "pos" or the index of the variable the field holds.
        fields = []
        if split is not None:
            fields.append(["rank", [-(p < split) for p in range(npos)], nothing])
        if twists is not None:
            fields.append(["rank", [-t for t in twists], (-1,) * n])
        for j, k0 in enumerate(zero_key):
            fields.append(["rank", [-k0] * npos, tuple(k0 - k[j] for k in unit_keys)])
        if npos > 1:
            fields.append(["pos", list(range(npos)), nothing])
        for i in range(n):
            unit = nothing[:i] + (1,) + nothing[i + 1 :]
            for field in fields:
                if field[0] == "rank" and field[2] == unit and not any(field[1]):
                    field[0] = i
                    break
            else:
                fields.append([i, [0] * npos, unit])

        # Rank fields must still order terms whose exponents are sums of two
        # that fit: a shifted term is checked only when it leaves the heap.
        most = (2 << bits) - 1
        self.bits = bits
        self.offsets, self.steps, self.places = [0] * npos, [0] * n, [0] * n
        self.guard = self.absorb = self.pos_place = self.pos_mask = 0
        place = 0
        for role, const, coef in reversed(fields):
            if role == "rank":
                k = (max(map(abs, const)) + most * sum(map(abs, coef))).bit_length()
                bias, width = 1 << k, k + 2
                self.absorb += 2 << (k + place)
            elif role == "pos":
                bias, width = 0, (npos - 1).bit_length()
                self.pos_place, self.pos_mask = place, (1 << width) - 1
            else:
                bias, width = 0, bits + 1
                self.guard |= 1 << (place + bits)
                self.places[role] = place
            self.offsets = [o + ((c + bias) << place) for o, c in zip(self.offsets, const)]
            self.steps = [s + (a << place) for s, a in zip(self.steps, coef)]
            place += width
        self.mask = self.guard | (self.pos_mask << self.pos_place)
        self.exp_mask = (2 << bits) - 1

    def step(self, e):
        """The code difference of multiplying a term by x^e."""
        return sum(map(mul, e, self.steps))

    def encode(self, term):
        pos, e = term
        return self.offsets[pos] + self.step(e)

    def decode(self, code):
        mask = self.exp_mask
        return (
            code >> self.pos_place & self.pos_mask,
            tuple([code >> place & mask for place in self.places]),
        )

    def encode_vec(self, vec):
        offsets, steps = self.offsets, self.steps
        return {offsets[pos] + sum(map(mul, e, steps)): c for (pos, e), c in vec.items()}

    def decode_vec(self, vec):
        decode = self.decode
        return {decode(t): c for t, c in vec.items()}


def _run_packed(order, vectors, run, bits=EXP_BITS):
    """``(table, run(table))`` on a code table that holds ``vectors``, with
    exponent fields of at least ``bits`` bits; when a term of the run
    outgrows the table, the run starts over on one twice as wide."""
    while True:
        table = order.table(vectors, bits)
        try:
            return table, run(table)
        except _Outgrown:
            bits = 2 * table.bits


def vec_scale(vec, c, field):
    if field.is_zero(c):
        return {}
    return {t: field.mul(c, v) for t, v in vec.items()}


def _sub_multiple(work, g, c, step, p):
    """In place: work -= c * x^s * g, where ``step`` is the step of x^s and
    p the characteristic.  Returns the codes that entered work."""
    entered = []
    for u, cg in g.items():
        u += step
        old = work.get(u)
        if old is None:
            work[u] = -c * cg % p if p else -c * cg
            entered.append(u)
        else:
            acc = (old - c * cg) % p if p else old - c * cg
            if acc:
                work[u] = acc
            else:
                del work[u]
    return entered


def vec_degree(vec, twists):
    """Common twisted degree of a homogeneous vector (None for zero)."""
    degs = {mono_degree(m) + twists[pos] for (pos, m) in vec}
    if not degs:
        return None
    if len(degs) > 1:
        raise StructuralError("vector is not homogeneous")
    return degs.pop()


def normal_form_vec(vec, basis, table, field):
    """Full reduction of the coded vector ``vec`` by monic basis elements.

    ``basis`` is a list of (coded vector, lead code) pairs under
    ``table``.  The first element whose lead divides the current lead
    reduces it.

    Lead terms come off a heap of codes: every code is pushed when it
    enters the work vector, and one that has cancelled since is skipped
    when popped.  Because the order is a term order, subtracting
    ``c * x^shift * g`` creates only terms below the popped lead, so the
    heap yields the same leads in the same order as a scan for the largest
    remaining term.  A popped term with an exponent past the table's
    fields raises ``_Outgrown``; every lead and remainder term is checked
    so, which keeps each shifted term within twice the fields.
    """
    p = field.characteristic
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
            raise _Outgrown("a term outgrew its code table")
        t_abs = t + absorb
        for g, lead in basis:
            if not (t_abs - lead) & mask:
                break
        else:
            rem[t] = c
            del work[t]
            continue
        for new in _sub_multiple(work, g, c, t - lead, p):
            heapq.heappush(heap, new)
    return rem


def _push_pairs(heap, heads, new_idx, table, split):
    pos_new, lm_new = heads[new_idx]
    if split is not None and pos_new >= split:
        return
    for i in range(new_idx):
        pos, lm = heads[i]
        if pos != pos_new:
            continue
        lcm = table.encode((pos, mono_lcm(lm, lm_new)))
        # Pairs leave the heap smallest lcm first: the largest code.
        heapq.heappush(heap, (-lcm, i, new_idx, lcm))


def buchberger_vectors(vectors, order, field):
    """Reduced Groebner basis of the submodule generated by ``vectors``,
    smallest lead term first.

    With a tag block in ``order``, elements led there (no untagged terms)
    reduce later tag parts but get no S-pairs, and the run returns exactly
    them, unreduced: by Schreyer's theorem they generate the submodule's
    part on the tag block, and they are no basis to minimalize against.
    The coprimality criterion is applied exactly when the input is an
    ideal: no tag block and every term in position 0.  The chain
    criterion is always safe.
    """
    vectors = [v for v in vectors if v]
    if not vectors:
        return []
    split = order.split
    use_product = split is None and all(pos == 0 for v in vectors for pos, _ in v)

    def run(table):
        return _buchberger(
            [table.encode_vec(v) for v in vectors], table, split, use_product, field
        )

    table, basis = _run_packed(order, vectors, run)
    return [table.decode_vec(g) for g in basis]


def _buchberger(vectors, table, split, use_product, field):
    """The run of ``buchberger_vectors`` on coded vectors."""
    p = field.characteristic
    mask, absorb = table.mask, table.absorb
    basis = []  # (coded vector, lead code)
    heads = []  # the lead of basis[i] as (position, exponents)

    def append(v):
        lt = min(v)
        c = v[lt]
        if c != field.one:
            v = vec_scale(v, field.inv(c), field)
        basis.append((v, lt))
        heads.append(table.decode(lt))

    for v in vectors:
        append(v)
    heap = []
    for idx in range(len(basis)):
        _push_pairs(heap, heads, idx, table, split)
    treated = set()

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        treated.add((i, j))
        if use_product and mono_coprime(heads[i][1], heads[j][1]):
            continue
        lcm_abs = lcm + absorb
        skip = False
        for k, (_, lead) in enumerate(basis):
            if k == i or k == j or (lcm_abs - lead) & mask:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in treated and b in treated:
                skip = True
                break
        if skip:
            continue
        (gi, lti), (gj, ltj) = basis[i], basis[j]
        spoly = {}
        _sub_multiple(spoly, gi, field.neg(field.one), lcm - lti, p)
        _sub_multiple(spoly, gj, field.one, lcm - ltj, p)
        rem = normal_form_vec(spoly, basis, table, field)
        if rem:
            append(rem)
            _push_pairs(heap, heads, len(basis) - 1, table, split)

    if split is not None:
        return [g for (g, _), (pos, _) in zip(basis, heads) if pos >= split]
    return _reduce_basis(basis, table, field)


def _reduce_basis(basis, table, field):
    """Minimalize leads, then tail-reduce: the unique reduced basis,
    smallest lead first."""
    mask, absorb = table.mask, table.absorb
    kept = []
    for g, lt in sorted(basis, key=itemgetter(1), reverse=True):
        lt_abs = lt + absorb
        if any(not (lt_abs - lead) & mask for _, lead in kept):
            continue
        kept.append((g, lt))
    for idx, (g, lt) in enumerate(kept):
        kept[idx] = (normal_form_vec(g, kept[:idx] + kept[idx + 1 :], table, field), lt)
    return [g for g, _ in kept]


# ---------------------------------------------------------------------------
# Polynomial-level wrappers (rank one).


def poly_to_vec(f, pos=0):
    """The polynomial f as the vector f*e_pos."""
    return {(pos, m): c for m, c in f.terms.items()}


def vec_to_poly(ring, vec):
    from .poly import Polynomial

    return Polynomial(ring, {m: c for (_, m), c in vec.items()})


def groebner_polys(polys):
    """Reduced Groebner basis of an ideal, as monic polynomials, smallest
    lead first."""
    live = [f for f in polys if not f.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    vorder = VectorOrder(ring.order.key)
    gb = buchberger_vectors([poly_to_vec(f) for f in live], vorder, ring.field)
    return [vec_to_poly(ring, v) for v in gb]


class PolyReducer:
    """Normal forms modulo fixed monic polynomials of one ring.

    It keeps the term order and the coded basis, one per field width,
    so that repeated reductions (``RingPresentation.nf``) build them
    once.
    """

    def __init__(self, ring, basis_polys):
        self.ring = ring
        self.basis_polys = tuple(basis_polys)
        self.order = VectorOrder(ring.order.key)
        self._gens = [poly_to_vec(g) for g in self.basis_polys]
        self._bits = self.order.table(self._gens).bits if self._gens else EXP_BITS
        self._coded = {}  # field width -> coded basis

    def _coded_basis(self, table):
        basis = self._coded.get(table.bits)
        if basis is None:
            basis = self._coded[table.bits] = [
                (table.encode_vec(v), table.encode((0, g.lead_monomial())))
                for v, g in zip(self._gens, self.basis_polys)
            ]
        return basis

    def reduce(self, f):
        """Remainder of f on division by the basis."""
        if f.is_zero() or not self.basis_polys:
            return f
        vec = poly_to_vec(f)

        def run(table):
            coded = table.encode_vec(vec)
            return normal_form_vec(coded, self._coded_basis(table), table, self.ring.field)

        table, rem = _run_packed(self.order, [vec], run, self._bits)
        return vec_to_poly(self.ring, table.decode_vec(rem))


def poly_normal_form(f, basis_polys):
    """Remainder of f on division by monic polynomials."""
    return PolyReducer(f.ring, basis_polys).reduce(f)


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
