"""Buchberger engine for submodules of free modules over a polynomial ring.

At the boundary (``buchberger_vectors``, ``groebner_polys``,
``VectorReducer``, ``poly_normal_form`` and the runs of ``soclelab.runs``)
a vector is a dict mapping ``(position, exponent tuple)`` to a nonzero
field coefficient; ideals are the rank-one case.  Inside the engine every
term is one Python int, its code under the run's ``VectorOrder`` (see
there): a smaller code is a larger term, and multiplying a term by a
monomial adds one int.
Coefficients are plain field elements, reduced ``% p`` in the loop over
GF(p) and left as Fractions over QQ, as ``linalg.Span`` does.

The same pair step (``_Basis``) serves four jobs:

* reduced Groebner bases of ideals (with the coprimality and chain
  criteria for pair pruning; an input with every term in position 0 is
  an ideal),
* reduced Groebner bases of submodules of free modules (chain criterion
  only; the coprimality shortcut is unsound beyond rank one),
* syzygies modulo a submodule (Macaulay2's and Singular's ``modulo``,
  ``runs.TaggedRun``): each column gets a unit-vector tag, the
  submodule's generators enter untagged, and in the block order every
  tagged term is below every untagged one.  By Schreyer's theorem the
  remainders of the S-pairs of untagged-led elements, which live on the
  tag block, generate {v : sum_j v_j col_j in the submodule}: a
  generating set, not a reduced Groebner basis,
* graded Nakayama (``runs.HilbertRun``): a run truncated at each degree
  in turn decides which candidates are minimal generators; given the
  Hilbert series of a module that holds them, it also drops the pairs
  of a degree once the lead terms fill it and says whether the
  candidates span the module.  Its basis is never an output and what it
  decides depends only on the leads and on full normal forms of the
  candidates, so its S-pair remainders are only top-reduced (reduced
  until the lead is irreducible); the other runs fully reduce them.

The first two are one-shot calls of ``buchberger_vectors``.  The tag
block and Nakayama runs keep their state in the objects of
``soclelab.runs``, so that a resolution step can stop its kernel's run
after a degree and resume it later.

Orders on module terms put heavier positions first through an optional
degree component so that graded inputs are processed degree by degree.

Every reduction takes a basis as its index (``lead_index``): for each
position, the (coded vector, lead code, number) triples of the elements
led there, in basis order.  The divisibility mask covers the position
field, so the first divisor of a term in basis order is the first in its
position's list: reductions, the chain criterion and pair creation meet
the same elements in the same order as a scan of the whole basis would,
and give the same vectors.  ``_reduce_basis`` keeps an element out of
the index that reduces it, as its own lead would reduce it to zero.
"""

import functools
import heapq
from itertools import chain
from operator import itemgetter, mul, or_

from .errors import AlgebraError, StructuralError
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
    strictly smaller than every untagged term (only ``runs.TaggedRun``
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
    ``steps[i]`` the step of x_i; with a split, ``tag_floor`` is the least
    code of a term in the tag block.  ``guard`` holds the guard bits of the
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
            fields.append(["split", [-(p < split) for p in range(npos)], nothing])
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
        self.degree_place = self.degree_bias = self.degree_mask = self.untagged = 0
        self.tag_floor = None
        place = 0
        for role, const, coef in reversed(fields):
            if role in ("rank", "degree", "split"):
                k = (max(map(abs, const)) + most * sum(map(abs, coef))).bit_length()
                bias, width = 1 << k, k + 2
                self.absorb += 2 << (k + place)
                if role == "degree":
                    self.degree_place, self.degree_bias = place, bias
                    self.degree_mask = (1 << width) - 1
                elif role == "split":
                    self.untagged = bias - 1 << place
                    self.tag_floor = bias << place
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
        """The least code of an untagged term of twisted degree <= d.

        Below the split flag, if any, the twisted degree is the most
        significant field, stored as bias - degree, and every untagged
        term has the same flag (``untagged``, 0 without a split): an
        untagged term has degree <= d exactly when its code is at least
        this one.  Every pair's lcm is untagged.
        """
        return (self.degree_bias - d << self.degree_place) + self.untagged

    def degree_of(self, code):
        """The twisted degree of a term, read off its code."""
        return self.degree_bias - (code >> self.degree_place & self.degree_mask)

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


def normal_form_vec(vec, index, table, field):
    """Full reduction of the coded vector ``vec`` by monic basis elements.

    ``index`` is the basis under ``table`` (``lead_index``).  The first
    element whose lead divides the current lead reduces it, and every
    term left is reduced in turn.  The S-pairs of ``buchberger_vectors``,
    ``runs.TaggedRun`` and ``runs._ImageRun`` are reduced so, and so is
    every candidate that ``runs.HilbertRun`` decides; only that run's
    own S-pairs are top-reduced (``_Basis.top``).

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
    if not index:
        return dict(vec)
    return _reduce(vec, index, table, field.characteristic, True)


def lead_index(coded, table):
    """The index of the (coded vector, lead code) pairs ``coded``: each
    position's (vector, lead, number) triples, in the order given."""
    index = {}
    for k, (g, lead) in enumerate(coded):
        index.setdefault(table.decode(lead)[0], []).append((g, lead, k))
    return index


def _reduce(vec, index, table, p, full):
    """``vec`` reduced by a nonempty ``index`` as in ``normal_form_vec``:
    fully, or, unless ``full``, only until its lead is irreducible (or
    it is zero).

    The tail of a top-reduced remainder never leaves the heap, so its
    terms are checked against the guard bits together before it is
    returned: a term past the fields sets a guard bit of the OR of all
    the codes.  Left unchecked, a later shift of that term could carry
    out of its field into the next one.
    """
    guard, mask, absorb = table.guard, table.mask, table.absorb
    pos_place, pos_mask = table.pos_place, table.pos_mask
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
        for g, lead, _ in index.get(t >> pos_place & pos_mask, ()):
            if not (t_abs - lead) & mask:
                break
        else:
            if full:
                rem[t] = c
                del work[t]
                continue
            if functools.reduce(or_, work) & guard:
                raise _Outgrown("a term outgrew its code table")
            return work
        for new in _sub_multiple(work, g, c, t - lead, p):
            heapq.heappush(heap, new)
    return rem


class _Basis:
    """The growing basis of one engine run and its pending S-pairs.

    ``elements`` holds (coded vector, lead code) pairs, every vector
    monic, ``heads`` the lead of each as (position, exponents), and
    ``index`` the elements by the position of their lead (``lead_index``).  A
    pair leaves the heap smallest lcm first, that is largest code first,
    so under a degree-first order in increasing lcm degree.  Pairs whose
    lcm code is below ``cap`` are never pushed, nor pairs of an element
    led in the tag block (position >= ``split``).  Every run over it
    (``buchberger_vectors`` and the runs of ``soclelab.runs``) takes its
    pairs through ``_remainder``, most through ``reduce_pairs``: the
    coprimality criterion when ``use_product`` is set, the chain
    criterion always, then the S-vector and its normal form.

    That normal form is full (``normal_form_vec``) unless ``top`` is set,
    which only ``runs.HilbertRun`` does: its basis is never an output and
    its stopping rule reads only leads, so each remainder is reduced only
    until its lead is irreducible and joins the basis with its tail as it
    is (``_reduce``; the proof is in the ``HilbertRun`` docstring).
    """

    def __init__(self, table, field, split=None, use_product=False, cap=0):
        self.table = table
        self.field = field
        self.split = split
        self.use_product = use_product
        self.cap = cap
        self.top = False
        self.elements = []
        self.heads = []
        self.index = {}
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
        new_idx = len(self.elements)
        self.elements.append((v, lt))
        pos_new, lm_new = head = self.table.decode(lt)
        self.heads.append(head)
        led_here = self.index.setdefault(pos_new, [])
        led_here.append((v, lt, new_idx))
        if not pairs or (self.split is not None and pos_new >= self.split):
            return
        encode, heap, cap, heads = self.table.encode, self.heap, self.cap, self.heads
        single = len(v) == 1
        for g, _, i in led_here[:-1]:
            lcm = encode((pos_new, mono_lcm(heads[i][1], lm_new)))
            if lcm < cap:
                continue
            if single and len(g) == 1:
                # Two monic terms: the S-vector is exactly zero.  The pair
                # counts as treated for the chain criterion.
                self.treated.add((i, new_idx))
            else:
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
        for _, lead, k in self.index[heads[i][0]]:
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
        if self.top:
            return _reduce(spoly, self.index, self.table, p, False)
        return normal_form_vec(spoly, self.index, self.table, field)


def buchberger_vectors(vectors, order, field, degree=None):
    """Reduced Groebner basis of the submodule generated by ``vectors``,
    smallest lead term first, under an ``order`` with no tag block.

    The coprimality criterion is applied exactly when the input is an
    ideal: every term in position 0.  The chain criterion is always safe.

    ``vectors`` may also be a stopped ``runs.Run`` (``order`` and
    ``field`` are then its own): the call advances it, through ``degree``
    or to its end, and returns it.  Kernels (``runs.TaggedRun``, also
    when taken to their end) and ``HilbertRun`` certificates are started
    and resumed only through this function, so every S-pair of theirs is
    reduced inside it.
    """
    if hasattr(vectors, "advance"):  # a stopped run
        vectors.advance(degree)
        return vectors
    vectors = [v for v in vectors if v]
    if not vectors:
        return []
    use_product = all(pos == 0 for v in vectors for pos, _ in v)

    def run(table):
        basis = _Basis(table, field, use_product=use_product)
        for v in vectors:
            basis.append(table.encode_vec(v))
        basis.reduce_pairs()
        return _reduce_basis(basis.elements, table, field)

    table, basis = _run_packed(order, vectors, run)
    return [table.decode_vec(g) for g in basis]


def _reduce_basis(basis, table, field):
    """Minimalize leads, then tail-reduce: the unique reduced basis,
    smallest lead first.

    Elements come smallest lead first, and each is reduced by the index
    of those kept before it, then joins it.  A divisor of a term is no
    larger than the term, and a reduction meets only terms up to the
    element's lead, so no later element could act; the element itself
    must stay out, as its lead would reduce it to zero.
    """
    mask, absorb = table.mask, table.absorb
    index, kept = {}, []
    for g, lt in sorted(basis, key=itemgetter(1), reverse=True):
        lt_abs = lt + absorb
        led_here = index.setdefault(table.decode(lt)[0], [])
        if any(not (lt_abs - lead) & mask for _, lead, _ in led_here):
            continue
        g = normal_form_vec(g, index, table, field)
        led_here.append((g, lt, len(kept)))
        kept.append(g)
    return kept


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


class VectorReducer:
    """Normal forms modulo a fixed monic Groebner basis under one order.

    It keeps the basis coded, as its ``lead_index``, once per field
    width, so that repeated reductions under equal tables (a ring's
    relations, in ``RingPresentation.nf_terms``; a module's, in its
    pieces) encode the basis once.
    """

    def __init__(self, basis, order, field):
        self.basis = tuple(basis)
        self.order = order
        self.field = field
        self.bits = order.table(self.basis).bits if self.basis else EXP_BITS
        self._coded = {}  # field width -> lead index of the coded basis

    def coded(self, table):
        """The ``lead_index`` of the basis under ``table``."""
        index = self._coded.get(table.bits)
        if index is None:
            coded = [(g, min(g)) for g in map(table.encode_vec, self.basis)]
            index = self._coded[table.bits] = lead_index(coded, table)
        return index

    def lead_terms(self):
        """The lead of each basis element, as (position, exponents)."""
        if not self.basis:
            return []
        table = self.order.table(self.basis, self.bits)
        triples = sorted(chain.from_iterable(self.coded(table).values()), key=itemgetter(2))
        return [table.decode(lead) for _, lead, _ in triples]

    def normal_form(self, vec, bits=EXP_BITS):
        """``(table, remainder)``: the coded normal form of the nonzero
        tuple-term vector ``vec`` under a table that holds it and the
        basis, with exponent fields of at least ``bits`` bits; a run that
        outgrows its table starts over on wider fields."""

        def run(table):
            return normal_form_vec(table.encode_vec(vec), self.coded(table), table, self.field)

        return _run_packed(self.order, [vec], run, max(bits, self.bits))


def poly_normal_form(f, basis_polys):
    """Remainder of f on division by monic polynomials."""
    if f.is_zero() or not basis_polys:
        return f
    ring = f.ring
    reducer = VectorReducer(map(poly_to_vec, basis_polys), VectorOrder(ring.order.key), ring.field)
    table, rem = reducer.normal_form(poly_to_vec(f))
    return vec_to_poly(ring, table.decode_vec(rem))
