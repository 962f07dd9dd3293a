"""The packed-term Buchberger engine against the tuple-term engine it replaced.

The engine codes every term as one int (``modgb.CodeTable``).  The checks
here are that the codes realize the term order and the monomial
arithmetic on every order kind, and that ``buchberger_vectors`` and the
tag-block run ``runs.TaggedRun`` return exactly what the old engine returns (same
vectors, same terms in the same order, same list order).  The old engine,
which keyed terms by ``(position, exponent tuple)`` and ordered them by
rank tuples, is kept below as the reference.
"""

import heapq
import random
from fractions import Fraction

import pytest

from soclelab import modgb
from soclelab.fields import field_of
from soclelab.groebner import Ideal, ideal_power
from soclelab.modgb import (
    EXP_BITS,
    VectorOrder,
    buchberger_vectors,
    poly_normal_form,
    vec_degree,
)
from soclelab.modules import quotient_module
from soclelab.monomials import (
    mono_coprime,
    mono_degree,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)
from soclelab.orders import DEGLEX, DEGREVLEX, EliminationOrder, MonomialOrder
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation
from soclelab.runs import TaggedRun
from span_reference import mono_div, mono_divides

CHARS = [2, 101, 32003, 0]


# ---------------------------------------------------------------------------
# The reference: the tuple-term engine.


def _reference_rank(order, term):
    """The old sort key: a flat tuple, a smaller rank meaning a larger term."""
    pos, e = term
    head = (-1,) if (order.split is None or pos < order.split) else (0,)
    if order.twists is not None:
        head += (-mono_degree(e) - order.twists[pos],)
    return head + tuple(-k for k in order.mono_key(e)) + (pos,)


def _reference_sub_shifted(work, g, c, shift, field):
    """In place: work -= c * x^shift * g.  Returns the terms that entered work."""
    entered = []
    for (pos, m), cg in g.items():
        t = (pos, mono_mul(m, shift))
        old = work.get(t)
        acc = field.sub(field.zero if old is None else old, field.mul(c, cg))
        if field.is_zero(acc):
            work.pop(t, None)
        else:
            work[t] = acc
            if old is None:
                entered.append(t)
    return entered


def _reference_scale(vec, c, field):
    return {t: field.mul(c, v) for t, v in vec.items()}


def _reference_normal_form(vec, basis, rank, field):
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
        for new in _reference_sub_shifted(work, g, c, mono_div(m, lm), field):
            heapq.heappush(heap, (rank(new), new))
    return rem


def _reference_push_pairs(heap, basis, new_idx, rank, split):
    g_new, (pos_new, lm_new) = basis[new_idx]
    if split is not None and pos_new >= split:
        return
    for i in range(new_idx):
        g, (pos, lm) = basis[i]
        if pos != pos_new:
            continue
        lcm = mono_lcm(lm, lm_new)
        heapq.heappush(heap, (tuple(-k for k in rank((pos, lcm))), i, new_idx, lcm))


def _reference_buchberger(vectors, order, field):
    memo = {}

    def rank(term):
        r = memo.get(term)
        if r is None:
            r = memo[term] = _reference_rank(order, term)
        return r

    split = order.split
    vectors = [v for v in vectors if v]
    use_product = split is None and all(pos == 0 for v in vectors for pos, _ in v)
    basis = []
    for v in vectors:
        lt = min(v, key=rank)
        if v[lt] != field.one:
            v = _reference_scale(v, field.inv(v[lt]), field)
        basis.append((v, lt))
    heap = []
    for idx in range(len(basis)):
        _reference_push_pairs(heap, basis, idx, rank, split)
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
        spoly = {}
        _reference_sub_shifted(spoly, gi, field.neg(field.one), mono_div(lcm, lmi), field)
        _reference_sub_shifted(spoly, gj, field.one, mono_div(lcm, lmj), field)
        rem = _reference_normal_form(spoly, basis, rank, field)
        if rem:
            lt = min(rem, key=rank)
            if rem[lt] != field.one:
                rem = _reference_scale(rem, field.inv(rem[lt]), field)
            basis.append((rem, lt))
            _reference_push_pairs(heap, basis, len(basis) - 1, rank, split)
    if split is not None:
        return [g for g, (pos, _) in basis if pos >= split]
    basis = sorted(basis, key=lambda gl: rank(gl[1]), reverse=True)
    kept = []
    for g, lt in basis:
        pos, lm = lt
        if any(p == pos and mono_divides(m, lm) for _, (p, m) in kept):
            continue
        kept.append((g, lt))
    for idx, (g, lt) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        kept[idx] = (_reference_normal_form(g, others, rank, field), lt)
    return [g for g, _ in kept]


def _reference_syzygies(ring, columns, twists, extra=()):
    m = len(twists)
    degs = [vec_degree(v, twists) or 0 for v in columns]
    zero = (0,) * ring.n
    tagged = [col | {(m + i, zero): ring.field.one} for i, col in enumerate(columns)]
    order = VectorOrder(ring.order.key, twists=tuple(twists) + tuple(degs), split=m)
    gens = _reference_buchberger(tagged + list(extra), order, ring.field)
    return [{(pos - m, e): c for (pos, e), c in g.items()} for g in gens]


# ---------------------------------------------------------------------------
# The encoding.


def _orders(n):
    """(name, VectorOrder, positions) over every order kind."""
    perm = tuple(reversed(range(n)))
    kinds = [
        ("degrevlex", DEGREVLEX),
        ("deglex", DEGLEX),
        ("permuted degrevlex", MonomialOrder("degrevlex", perm)),
        ("permuted deglex", MonomialOrder("deglex", perm)),
        ("elimination", EliminationOrder(2)),
    ]
    for name, mono in kinds:
        yield name, VectorOrder(mono.key), 1
        yield name + ", 3 positions", VectorOrder(mono.key), 3
        twists = (0, -3, 2, 1, -1)
        yield name + ", twists", VectorOrder(mono.key, twists=twists), 5
        yield name + ", twists, split", VectorOrder(mono.key, twists=twists, split=2), 5
        yield name + ", split", VectorOrder(mono.key, split=1), 3


def _random_term(rng, n, positions, bits):
    """Small exponents mostly, and some at the top of the exponent fields."""
    top = (1 << bits) - 1
    e = tuple(
        rng.choice((0, 1, 2, 3, 5, top, top - 1, rng.randrange(top + 1))) for _ in range(n)
    )
    return rng.randrange(positions), e


@pytest.mark.parametrize("bits", [EXP_BITS, 67])
def test_codes_realize_the_term_order_and_the_monomial_arithmetic(bits):
    n = 4
    rng = random.Random(1200 + bits)
    for name, order, positions in _orders(n):
        top = (1 << bits) - 1
        table = order.table([{(positions - 1, (top,) * n): 1}])
        assert table.bits == bits, name
        terms = [_random_term(rng, n, positions, bits) for _ in range(60)]
        codes = [table.encode(t) for t in terms]
        for t, code in zip(terms, codes):
            assert table.decode(code) == t, name
        for (t, a), (u, b) in zip(zip(terms, codes), zip(terms[1:], codes[1:])):
            ra, rb = _reference_rank(order, t), _reference_rank(order, u)
            assert (a < b) == (ra < rb) and (a == b) == (ra == rb), name
            # The packed divisibility test of the engine.
            divides = not (b + table.absorb - a) & table.mask
            assert divides == (t[0] == u[0] and mono_divides(t[1], u[1])), name
            assert not (a + table.absorb - a) & table.mask, name
        for (pos, e), code in zip(terms, codes):
            # Shifts reach sums of two exponents that fit the fields.
            s = tuple(rng.randrange(top + 1) for _ in range(n))
            shifted = (pos, mono_mul(e, s))
            assert table.encode(shifted) == code + table.step(s), name
            assert table.decode(code + table.step(s)) == shifted, name
            assert not (table.encode(shifted) + table.absorb - code) & table.mask, name
            if any(s):
                # One degree short in a variable the shift raised.
                i = next(i for i, x in enumerate(s) if x)
                short = (pos, mono_div(shifted[1], tuple(int(k == i) for k in range(n))))
                assert (table.encode(short) + table.absorb - table.encode(shifted)) & table.mask
            other = _random_term(rng, n, positions, bits)
            assert (table.encode(shifted) < table.encode(other)) == (
                _reference_rank(order, shifted) < _reference_rank(order, other)
            ), name


def test_divisibility_across_positions_is_false():
    order = VectorOrder(DEGREVLEX.key, twists=(0, 1, 2, -2), split=2)
    table = order.table([{(3, (1, 1, 1)): 1}])
    e = (1, 0, 2)
    for p in range(4):
        for q in range(4):
            a, b = table.encode((p, e)), table.encode((q, mono_mul(e, (0, 1, 1))))
            assert (not (b + table.absorb - a) & table.mask) == (p == q)


# ---------------------------------------------------------------------------
# Bit-identity with the reference.


def _items(vectors):
    return [list(v.items()) for v in vectors]


def _random_poly_vec(rng, F, n, degree, terms, pos=0, homogeneous=True):
    vec = {}
    for _ in range(terms):
        d = degree if homogeneous else rng.randint(0, degree)
        e = rng.choice(list(monomials_of_degree(n, d)))
        c = F.of(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) if F.characteristic == 0
                 else rng.randint(1, 10**6))
        if not F.is_zero(c):
            vec[(pos, e)] = c
    return vec


def _ideal_runs():
    """(order, field, generators): seeded ideals over every field and order."""
    for char in CHARS:
        F = field_of(char)
        for k, mono in enumerate((DEGREVLEX, DEGLEX, MonomialOrder("degrevlex", (2, 0, 1)),
                                  EliminationOrder(1))):
            rng = random.Random(1300 + 10 * char + k)
            for homogeneous in (True, False):
                gens = [
                    _random_poly_vec(rng, F, 3, rng.randint(2, 3), rng.randint(2, 5),
                                     homogeneous=homogeneous)
                    for _ in range(rng.randint(3, 4))
                ]
                yield VectorOrder(mono.key), F, gens


def test_ideal_bases_equal_the_reference():
    runs = 0
    for order, F, gens in _ideal_runs():
        new = buchberger_vectors(gens, order, F)
        ref = _reference_buchberger(gens, order, F)
        assert _items(new) == _items(ref)
        runs += 1
    assert runs == 32


def test_module_bases_equal_the_reference():
    """Untagged submodules of free modules, twisted and not."""
    for char in CHARS:
        F = field_of(char)
        rng = random.Random(1400 + char)
        for twists in (None, (0, 1, 0)):
            gens = []
            for _ in range(4):
                vec = {}
                for pos in range(3):
                    degree = 2 - (twists[pos] if twists else 0)
                    vec.update(_random_poly_vec(rng, F, 3, degree, 2, pos=pos,
                                                homogeneous=twists is not None))
                gens.append(vec)
            order = VectorOrder(DEGREVLEX.key, twists=twists)
            new = buchberger_vectors(gens, order, F)
            assert new
            assert _items(new) == _items(_reference_buchberger(gens, order, F))


def _single_term_runs():
    """(order, field, generators): seeded inputs whose generators are all
    single terms, or single terms mixed with longer vectors, over one to
    three positions, twisted and not."""
    for char in CHARS:
        F = field_of(char)
        for k, mono in enumerate((DEGREVLEX, DEGLEX, MonomialOrder("degrevlex", (2, 0, 1)))):
            rng = random.Random(1700 + 10 * char + k)
            for positions, twists in ((1, None), (3, None), (3, (0, 1, 0))):
                for mixed in (False, True):
                    gens = []
                    for _ in range(rng.randint(4, 7)):
                        pos = rng.randrange(positions)
                        degree = rng.randint(2, 4) - (twists[pos] if twists else 0)
                        terms = rng.randint(2, 3) if mixed and rng.random() < 0.4 else 1
                        vec = _random_poly_vec(rng, F, 3, degree, terms, pos=pos)
                        if vec:
                            gens.append(vec)
                    yield VectorOrder(mono.key, twists=twists), F, gens, mixed


def test_single_term_inputs_equal_the_reference():
    # Two single-term elements in one position get no S-pair: their
    # S-vector is zero.  The bases stay equal, term for term.
    runs = mixed_runs = 0
    for order, F, gens, mixed in _single_term_runs():
        new = buchberger_vectors(gens, order, F)
        assert _items(new) == _items(_reference_buchberger(gens, order, F))
        runs += 1
        mixed_runs += mixed and any(len(v) > 1 for v in new)
    assert runs == 72 and mixed_runs >= 20


def test_monomial_relation_basis_reduces_no_s_vector(monkeypatch):
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    M = quotient_module(R, ideal_power(Ideal(R, [x * y, y * z, z * x]), 3).generators)
    pairs = []
    original = modgb._Basis._remainder

    def counting(run, i, j, lcm):
        pairs.append((i, j))
        return original(run, i, j, lcm)

    monkeypatch.setattr(modgb._Basis, "_remainder", counting)
    assert len(M.relation_basis().lead_terms()) == 10
    assert pairs == []


def test_tag_block_runs_equal_the_reference():
    """The tag-block run to its end, with and without untagged extra
    vectors: the Schreyer generating sets are equal, term for term."""
    for char in CHARS:
        for names in (("x", "y", "z"), ("a", "b", "c", "d")):
            ring = PolyRing(field_of(char), names)
            F = ring.field
            rng = random.Random(1500 + char + len(names))
            for _ in range(3):
                twists = [rng.randint(0, 1) for _ in range(rng.randint(1, 2))]
                columns, extra = [], []
                for target in (columns, extra):
                    for _ in range(rng.randint(1, 3)):
                        degree = rng.randint(2, 3)
                        vec = {}
                        for pos, tw in enumerate(twists):
                            vec.update(_random_poly_vec(rng, F, ring.n, degree - tw, 2, pos=pos))
                        target.append(vec)
                new = TaggedRun(ring, columns, twists, extra).resume().new_syzygies()
                ref = _reference_syzygies(ring, columns, twists, extra)
                assert _items(new) == _items(ref)


def test_reduced_basis_does_not_depend_on_the_order_of_the_generators():
    for order, F, gens in _ideal_runs():
        gb = buchberger_vectors(gens, order, F)
        rng = random.Random(len(gens) + len(gb))
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert buchberger_vectors(shuffled, order, F) == gb


# ---------------------------------------------------------------------------
# Exponents past the fields.


def test_input_exponents_past_the_default_fields_are_exact():
    F = field_of(101)
    big = 10**20
    gens = [{(0, (big, 1)): 1}, {(0, (0, 2)): 1}]
    order = VectorOrder(DEGREVLEX.key)
    gb = buchberger_vectors(gens, order, F)
    assert gb == _reference_buchberger(gens, order, F)
    assert sorted(map(list, gb)) == [[(0, (0, 2))], [(0, (big, 1))]]


def test_a_term_that_outgrows_its_fields_restarts_the_run_wider():
    # Eliminating u from u^(2^13) by u - x^9 reduces 2^13 times and ends at
    # x^(9 * 2^13): past 2^15, where the run restarts on wider fields, and
    # past 2^16, where the default fields would wrap.
    F = field_of(32003)
    a = 1 << 13
    gens = [{(0, (a, 0)): 1}, {(0, (1, 0)): 1, (0, (0, 9)): F.of(-1)}]
    order = VectorOrder(EliminationOrder(1).key)
    gb = buchberger_vectors(gens, order, F)
    assert _items(gb) == _items(_reference_buchberger(gens, order, F))
    assert {(0, (0, 9 * a)): 1} in gb


def test_ring_normal_forms_reuse_one_order(monkeypatch):
    """RingPresentation.nf keeps its reducer, and the reducer its order:
    the monomial key is called n + 1 times in all and one code table is
    built, both by the first call."""
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S, [x * y - z**2, y**3 - x * z**2])
    calls = []
    key = MonomialOrder.key

    def counted(self, exps):
        calls.append(exps)
        return key(self, exps)

    fs = (x**3 * y, y**4 + z, x * y * z**2)
    expected = [poly_normal_form(f, list(R.relations_groebner())) for f in fs]
    monkeypatch.setattr(MonomialOrder, "key", counted)
    tables = []

    class CountedTable(modgb.CodeTable):
        def __init__(self, *args):
            tables.append(args)
            super().__init__(*args)

    monkeypatch.setattr(modgb, "CodeTable", CountedTable)
    modgb._code_table.cache_clear()
    assert [R.nf(f) for f in fs + fs] == expected + expected
    assert len(calls) == len(set(calls)) == S.n + 1
    assert len(tables) == 1


def test_equal_orders_share_a_table_and_the_reducer_codes_its_basis_once():
    """Two orders with the same definition get the same code table.  A
    reducer keeps one coded basis per field width, so a table evicted
    from the cache and built again adds no second copy."""
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    vec = {(0, (1, 2, 0)): 1, (1, (0, 0, 3)): 2}
    first = VectorOrder(DEGREVLEX.key, twists=(0, 1), split=1).table([vec])
    assert VectorOrder(DEGREVLEX.key, twists=(0, 1), split=1).table([vec]) is first
    assert VectorOrder(DEGREVLEX.key, twists=(1, 0), split=1).table([vec]) is not first
    R = RingPresentation(S, [x * y - z**2, y**3 - x * z**2])
    f = x**3 * y + z**4
    g = R.nf(f)
    modgb._code_table.cache_clear()
    assert R.nf(f) == g
    assert len(R._memo["nf"]._coded) == 1
