"""Buchberger engine for submodules of free modules over a polynomial ring.

At the boundary (``buchberger_vectors``, ``syzygies_vectors``,
``graded_minimal_subset``, ``groebner_polys`` and ``poly_normal_form``)
a vector is a dict mapping
``(position, exponent tuple)`` to a nonzero field coefficient; ideals are
the rank-one case.  Inside the engine every term is one Python int, its
code under the run's ``VectorOrder`` (see there): a smaller code is a
larger term, and multiplying a term by a monomial adds one int.
Coefficients are plain field elements, reduced ``% p`` in the loop over
GF(p) and left as Fractions over QQ, as ``linalg.Span`` does.

The same pair step serves four jobs:

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
  reduced Groebner basis,
* graded Nakayama (``graded_minimal_subset``): a run truncated at each
  degree in turn decides which candidates are minimal generators.

Orders on module terms put heavier positions first through an optional
degree component so that graded inputs are processed degree by degree.
"""

import functools
import heapq
from itertools import chain
from operator import itemgetter, mul

from .errors import AlgebraError, StructuralError
from .linalg import Span
from .monomials import mono_coprime, mono_lcm

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
    vectors only: n + 1 calls per code table built, whatever the run
    does.  This is also a term order: multiplying two terms in one
    position by the same monomial adds the same amount to both ranks, so
    keeps their comparison, through the tag-block split and the twist
    too.  Reduction relies on it: subtracting a multiple of a basis
    element whose shifted lead is the current lead term creates only
    terms below that lead.

    **Encoding.**  ``table(vectors)`` returns a ``CodeTable`` that packs
    the rank tuple of a term into one int, the fields most significant
    first, each at a fixed bit place and biased to be nonnegative:
    code(pos, e) = sum_f (rank_f(pos, e) + bias_f) << place_f.  A table
    is a function of ``mono_key``, the variable count, the twists, the
    split and its sizes.  One process-wide cache keyed by exactly those
    keeps the last 256 tables, because syzygies, colons and Nakayama
    passes make a fresh order per call and most calls repeat an earlier
    one's twists: one ``gauge_scan`` to e = 3 on the twisted cubic looks
    up 159 tables and builds 49.  The key function is a bound method of
    the ring's order, which the cache compares by identity; every ring
    read from an input file shares the one ``DEGREVLEX``.  No benchmark
    workload uses more than 91 distinct tables (cli-corpus; scan-oracle
    63, gauge-tc2 49, resolve-quadrics 9), so 256 keeps all of them while
    bounding what a long scan with ever new twists can hold.

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

    def table(self, vectors, bits=EXP_BITS):
        """The code table for the terms of ``vectors`` (tuple-term dicts).

        Its exponent fields hold at least ``bits`` bits and every exponent
        of the input; its positions are the twists' or, without twists,
        those up to the next power of two above the input's largest.
        """
        exps = [e for v in vectors for _, e in v]
        n = len(exps[0]) if exps else 0
        top = max(chain.from_iterable(exps), default=0)
        if self.twists is not None:
            npos = len(self.twists)
        else:
            npos = 1 << max((pos for v in vectors for pos, _ in v), default=0).bit_length()
        bits = max(bits, top.bit_length())
        return _code_table(self.mono_key, n, self.twists, self.split, bits, npos)


@functools.lru_cache(maxsize=256)
def _code_table(mono_key, n, twists, split, bits, npos):
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
    keys = (tuple(mono_key(zero)), tuple(tuple(mono_key(u)) for u in units))
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
        # is "rank", "degree" (the twisted degree), "pos" or the index of
        # the variable the field holds.
        fields = []
        if split is not None:
            fields.append(["rank", [-(p < split) for p in range(npos)], nothing])
        if twists is not None:
            fields.append(["degree", [-t for t in twists], (-1,) * n])
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
        self.degree_place = self.degree_bias = 0
        place = 0
        for role, const, coef in reversed(fields):
            if role in ("rank", "degree"):
                k = (max(map(abs, const)) + most * sum(map(abs, coef))).bit_length()
                bias, width = 1 << k, k + 2
                self.absorb += 2 << (k + place)
                if role == "degree":
                    self.degree_place, self.degree_bias = place, bias
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

    def degree_floor(self, d):
        """The least code of a term of twisted degree <= d.

        Without a split the twisted degree is the most significant field,
        stored as bias - degree: a term has degree <= d exactly when its
        code is at least this one.
        """
        return self.degree_bias - d << self.degree_place

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
        return {sum(map(mul, e, steps), offsets[pos]): c for (pos, e), c in vec.items()}

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
    degs = {sum(m) + twists[pos] for (pos, m) in vec}
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
    so, which keeps each shifted term within twice the fields.  With no
    basis the vector is its own normal form.
    """
    if not basis:
        return dict(vec)
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


class _Basis:
    """The growing basis of one engine run and its pending S-pairs.

    ``elements`` holds (coded vector, lead code) pairs, every vector
    monic, and ``heads`` the lead of each as (position, exponents).  A
    pair leaves the heap smallest lcm first, that is largest code first,
    so under a degree-first order in increasing lcm degree.  Pairs whose
    lcm code is below ``cap`` are never pushed, nor pairs of an element
    led in the tag block (position >= ``split``).  Both drivers,
    ``_buchberger`` and ``graded_minimal_subset``, take their pairs through
    ``reduce_pairs``: the coprimality criterion when ``use_product`` is
    set, the chain criterion always, then the S-vector and its normal form.
    """

    def __init__(self, table, field, split=None, use_product=False, cap=0):
        self.table = table
        self.field = field
        self.split = split
        self.use_product = use_product
        self.cap = cap
        self.elements = []
        self.heads = []
        self.heap = []  # (-lcm code, i, j, lcm code)
        self.treated = set()

    def append(self, v, pairs=True):
        """Add the coded vector v, made monic, with its S-pairs unless
        ``pairs`` is false."""
        field = self.field
        lt = min(v)
        c = v[lt]
        if c != field.one:
            v = vec_scale(v, field.inv(c), field)
        self.elements.append((v, lt))
        pos_new, lm_new = head = self.table.decode(lt)
        self.heads.append(head)
        if not pairs or (self.split is not None and pos_new >= self.split):
            return
        encode, heap, cap = self.table.encode, self.heap, self.cap
        new_idx = len(self.heads) - 1
        for i, (pos, lm) in enumerate(self.heads[:new_idx]):
            if pos != pos_new:
                continue
            lcm = encode((pos, mono_lcm(lm, lm_new)))
            if lcm >= cap:
                heapq.heappush(heap, (-lcm, i, new_idx, lcm))

    def reduce_pairs(self, floor=0):
        """Reduce every pending pair whose lcm code is >= ``floor`` (every
        code is >= 0), appending each nonzero remainder."""
        heap = self.heap
        while heap and heap[0][3] >= floor:
            _, i, j, lcm = heapq.heappop(heap)
            rem = self._remainder(i, j, lcm)
            if rem:
                self.append(rem)

    def _remainder(self, i, j, lcm):
        """The normal form of the S-vector of elements i and j, or None when
        a criterion shows that it reduces to zero."""
        basis, heads, treated = self.elements, self.heads, self.treated
        treated.add((i, j))
        if self.use_product and mono_coprime(heads[i][1], heads[j][1]):
            return None
        lcm_abs = lcm + self.table.absorb
        mask = self.table.mask
        for k, (_, lead) in enumerate(basis):
            if k == i or k == j or (lcm_abs - lead) & mask:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in treated and b in treated:
                return None
        field = self.field
        p = field.characteristic
        (gi, lti), (gj, ltj) = basis[i], basis[j]
        spoly = {}
        _sub_multiple(spoly, gi, field.neg(field.one), lcm - lti, p)
        _sub_multiple(spoly, gj, field.one, lcm - ltj, p)
        return normal_form_vec(spoly, basis, self.table, field)


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
    run = _Basis(table, field, split, use_product)
    for v in vectors:
        run.append(v)
    run.reduce_pairs()
    if split is not None:
        return [g for (g, _), (pos, _) in zip(run.elements, run.heads) if pos >= split]
    return _reduce_basis(run.elements, table, field)


def graded_minimal_subset(candidates, rels, order, field, fixed=()):
    """Indices of the candidates that graded Nakayama keeps: in increasing
    degree, then in index order, a candidate is kept exactly when it lies
    outside the submodule generated by ``fixed``, ``rels`` and the
    candidates kept before it.

    All vectors are homogeneous under ``order``, a degree-first order with
    twists and no tag block.  ``fixed`` is a Groebner basis (over a
    quotient ring, the multiples g*e_i of the relation basis): its
    elements enter the basis first, with no S-pairs among themselves.
    Neither ``rels`` nor ``fixed`` are ever candidates, and rels above the
    top candidate degree are dropped.

    One degree-truncated Buchberger run (Macaulay2's ``mingens``/``trim``,
    Singular's ``minbase``).  For each degree d in increasing order:
    reduce the pending S-pairs of lcm degree <= d, take the normal forms
    of the degree-d rels and then of the degree-d candidates against the
    basis, insert them one by one into a ``Span`` whose columns are term
    codes, keep a candidate exactly when it enlarges the span, and append
    the span's rows to the basis.

    **Why the kept list is the graded Nakayama one.**  Let M_<d be the
    submodule generated by ``fixed`` and by the rels and kept candidates
    of degree < d.  When degree d begins, the basis holds generators of
    M_<d and every S-pair of lcm degree <= d has been reduced, so it is a
    Groebner basis of M_<d up to degree d.  Hence in degree d the normal
    form is a linear map on the degree-d piece F_d whose kernel is
    (M_<d)_d, and v lies in M_<d + span(earlier degree-d vectors) exactly
    when its normal form lies in the span of the earlier normal forms of
    degree d: ``Span.add`` returns False.  That is the criterion of a
    degree piece of F_d modulo all multiples, so the kept lists are the
    same.  Each span row is monic with its pivot as its lead code (a
    smaller code is a larger term), the leads are distinct, and no
    earlier lead divides any of their terms, so the new basis again
    generates M_<d' for the next degree d', and every new S-pair has lcm
    degree > d.  Pairs above the top candidate degree are never pushed.
    """
    twists = order.twists
    steps = {}  # degree -> (rels, candidate indices)
    for i, v in enumerate(candidates):
        d = vec_degree(v, twists)
        if d is not None:
            steps.setdefault(d, ([], []))[1].append(i)
    if not steps:
        return []
    top = max(steps)
    for v in rels:
        d = vec_degree(v, twists)
        if d is not None and d <= top:
            steps.setdefault(d, ([], []))[0].append(v)

    def run(table):
        encode = table.encode_vec
        basis = _Basis(table, field, cap=table.degree_floor(top))
        for v in fixed:
            basis.append(encode(v), pairs=False)
        kept = []
        for d in sorted(steps):
            rels_d, idxs = steps[d]
            basis.reduce_pairs(table.degree_floor(d))
            forms = [
                normal_form_vec(encode(v), basis.elements, table, field)
                for v in rels_d + [candidates[i] for i in idxs]
            ]
            span = Span(field, len(set().union(*forms)))
            # k < 0 for the rels, else the candidate's place in idxs.
            for k, form in enumerate(forms, -len(rels_d)):
                if form and span.add(form) and k >= 0:
                    kept.append(idxs[k])
            if d < top:
                for piv, row in span.rows.items():
                    basis.append({piv: field.one, **row})
        return kept

    return _run_packed(order, [*candidates, *rels, *fixed], run)[1]


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
