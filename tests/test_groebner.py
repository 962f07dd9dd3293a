import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab.errors import DomainError, StructuralError
from soclelab.fields import field_of
from soclelab.groebner import (
    Ideal,
    buchberger,
    contains,
    frobenius_power,
    hilbert_function,
    ideal_colon,
    ideal_intersection,
    ideal_power,
    ideal_sum,
    krull_dimension,
    minimal_generator_degrees,
    minimal_generators,
    normal_form,
)
from soclelab.frobenius import fedder_module
from soclelab.linalg import Span
from soclelab.modgb import (
    VectorOrder,
    buchberger_vectors,
    lead_index,
    normal_form_vec,
    poly_to_vec,
    vec_scale,
    vec_to_poly,
)
from soclelab.monomials import (
    hilbert_coefficient,
    hilbert_numerator,
    mono_mul,
    monomials_of_degree,
    series_dimension,
)
from soclelab.orders import DEGREVLEX, EliminationOrder
from soclelab.poly import PolyRing, Polynomial, parse_polynomial
from soclelab.rings import RingPresentation
from span_reference import mono_div, mono_divides


@pytest.fixture(scope="module")
def S7():
    return PolyRing(field_of(7), ("x", "y"))


@pytest.fixture(scope="module")
def R7(S7):
    return RingPresentation(S7)


def test_monomial_ideal_is_its_own_basis(S7, R7):
    x, y = S7.gens()
    gb = buchberger(Ideal(R7, [x**2, x * y]))
    assert set(gb) == {x**2, x * y}


def test_buchberger_adds_y_cubed(S7, R7):
    x, y = S7.gens()
    gb = buchberger(Ideal(R7, [x**2 + y**2, x * y]))
    assert set(gb) == {x**2 + y**2, x * y, y**3}


def test_zero_ideal_empty_basis(R7):
    assert buchberger(Ideal(R7, [])) == ()


def test_spairs_reduce_to_zero(S7, R7):
    x, y = S7.gens()
    gb = list(buchberger(Ideal(R7, [x**2 + y**2, x * y])))
    from soclelab.monomials import mono_lcm

    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            lm_i, lm_j = gb[i].lead_monomial(), gb[j].lead_monomial()
            lcm = mono_lcm(lm_i, lm_j)
            s = gb[i].shift(mono_div(lcm, lm_i)) - gb[j].shift(mono_div(lcm, lm_j))
            assert normal_form(s, gb).is_zero()


def test_generators_reduce_to_zero(S7, R7):
    x, y = S7.gens()
    ideal = Ideal(R7, [x**3 - x * y**2, x**2 * y + y**3])
    gb = buchberger(ideal)
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero()


def test_reduced_basis_canonical_under_shuffle(S7, R7):
    x, y = S7.gens()
    gens = [x**2 + y**2, x * y, x**3]
    rng = random.Random(7)
    reference = set(buchberger(Ideal(R7, gens)))
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        shuffled = shuffled + [shuffled[0]]
        assert set(buchberger(Ideal(R7, shuffled))) == reference


def test_normal_form_examples(S7, R7):
    x, y = S7.gens()
    gb = buchberger(Ideal(R7, [x**2, x * y]))
    assert normal_form(x**2 * y, gb).is_zero()
    gb2 = buchberger(Ideal(R7, [x**2 + y**2, x * y]))
    assert normal_form(y**3, gb2).is_zero()


def test_normal_form_leaves_outside_variable():
    S = PolyRing(field_of(7), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    gb = buchberger(Ideal(R, [x**2, x * y]))
    assert normal_form(z, gb) == z


def test_contains(S7, R7):
    x, y = S7.gens()
    assert contains(Ideal(R7, [x, y]), x + y)
    assert not contains(Ideal(R7, [x**2]), x)
    assert contains(Ideal(R7, [x**2]), S7.zero)


def test_ideal_power(S7, R7):
    x, y = S7.gens()
    m = Ideal(R7, [x, y])
    assert minimal_generator_degrees(ideal_power(m, 2)) == [2, 2, 2]
    cube = ideal_power(Ideal(R7, [x]), 3)
    assert minimal_generator_degrees(cube) == [3]
    same = ideal_power(m, 1)
    assert set(same.groebner()) == set(m.groebner())


def test_ideal_power_zero_flagged(S7, R7):
    x, _ = S7.gens()
    with pytest.warns(UserWarning):
        unit = ideal_power(Ideal(R7, [x]), 0)
    assert unit.is_unit()


def test_frobenius_power():
    S = PolyRing(field_of(2), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S)
    fp = frobenius_power(Ideal(R, [x, y]), 2)
    assert set(fp.generators) == {x**2, y**2}
    fp2 = frobenius_power(Ideal(R, [x * y]), 2)
    assert set(fp2.generators) == {x**2 * y**2}
    S3 = PolyRing(field_of(3), ("x", "y"))
    x3, y3 = S3.gens()
    fp3 = frobenius_power(Ideal(RingPresentation(S3), [x3 + y3]), 3)
    assert set(fp3.generators) == {x3**3 + y3**3}


def test_frobenius_power_domain_errors(S7, R7):
    x, _ = S7.gens()
    with pytest.raises(DomainError):
        frobenius_power(Ideal(R7, [x]), 4)  # 4 is not a power of 7
    SQ = PolyRing(field_of(0), ("x",))
    with pytest.raises(DomainError):
        frobenius_power(Ideal(RingPresentation(SQ), [SQ.var(0)]), 2)


@pytest.mark.parametrize("q", [0, -2])
def test_frobenius_power_rejects_exponents_below_one(q, S7, R7):
    # q = 0 used to loop forever dividing 0 by the characteristic.
    x, y = S7.gens()
    start = time.perf_counter()
    with pytest.raises(DomainError):
        frobenius_power(Ideal(R7, [x, y]), q)
    assert time.perf_counter() - start < 1
    assert frobenius_power(Ideal(R7, [x, y]), 1).generators == (x, y)


def test_colon_examples(S7, R7):
    x, y = S7.gens()
    col = ideal_colon(Ideal(R7, [x**2 * y]), Ideal(R7, [x * y]))
    assert minimal_generators(col) == [x]
    S2 = PolyRing(field_of(2), ("x", "y"))
    x2, y2 = S2.gens()
    R2 = RingPresentation(S2)
    col2 = ideal_colon(Ideal(R2, [x2**2 * y2**2]), Ideal(R2, [x2 * y2]))
    assert minimal_generators(col2) == [x2 * y2]
    base = Ideal(R7, [x**2 + y**2, x * y])
    col3 = ideal_colon(base, Ideal(R7, [S7.one]))
    assert set(col3.groebner()) == set(base.groebner())


def test_colon_by_zero_is_unit(S7, R7):
    x, _ = S7.gens()
    assert ideal_colon(Ideal(R7, [x]), Ideal(R7, [])).is_unit()


def test_intersection_examples(S7, R7):
    x, y = S7.gens()
    assert minimal_generators(ideal_intersection(Ideal(R7, [x]), Ideal(R7, [y]))) == [
        x * y
    ]
    meet = ideal_intersection(Ideal(R7, [x, y]), Ideal(R7, [x]))
    assert minimal_generators(meet) == [x]
    ii = Ideal(R7, [x**2 + y**2, x * y])
    assert set(ideal_intersection(ii, ii).groebner()) == set(ii.groebner())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_colon_membership_equivalence(a, b, c):
    S = PolyRing(field_of(5), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S)
    I = Ideal(R, [x**3, x * y**2])
    J = Ideal(R, [x * y, y**3])
    col = ideal_colon(I, J)
    f = S.monomial((a, b)) + (S.monomial((c, a + b)) if a + b >= 0 else S.zero)
    if f.is_zero() or not f.is_homogeneous():
        f = S.monomial((a, b))
    inside = contains(col, f)
    direct = all(contains(I, f * g) for g in J.generators)
    assert inside == direct


def test_frobenius_inside_power_inside_ideal():
    S = PolyRing(field_of(2), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    I = Ideal(R, [x * y - z**2, y**2 + x * z])
    fp = frobenius_power(I, 2)
    sq = ideal_power(I, 2)
    for g in fp.generators:
        assert contains(sq, g)
    for g in sq.generators:
        assert contains(I, g)


def test_minimal_generators_examples(S7, R7):
    x, y = S7.gens()
    assert minimal_generator_degrees(Ideal(R7, [x, x**2, y])) == [1, 1]
    assert minimal_generator_degrees(Ideal(R7, [x**2, x * y, y**2, x**3])) == [2, 2, 2]


def test_minimal_generators_count_matches_hilbert(S7, R7):
    x, y = S7.gens()
    I = Ideal(R7, [x**3, x * y**2, y**4, x**2 * y**3])
    count = len(minimal_generators(I))
    mI = Ideal(R7, [v * g for v in S7.gens() for g in I.generators])
    total = 0
    for ell in range(0, 8):
        total += hilbert_function(mI, ell) - hilbert_function(I, ell)
    assert count == total


def test_hilbert_function_examples(S7, R7):
    x, y = S7.gens()
    I = Ideal(R7, [x**2, x * y, y**2])
    assert hilbert_function(I, 1) == 2
    assert hilbert_function(I, 2) == 0
    assert hilbert_function(Ideal(R7, []), 3) == 4
    assert hilbert_function(Ideal(R7, [x * y]), 5) == 2


def test_krull_dimension(S7, R7):
    x, y = S7.gens()
    assert krull_dimension(Ideal(R7, [x * y])) == 1
    S3 = PolyRing(field_of(7), ("x", "y", "z"))
    R3 = RingPresentation(S3)
    assert krull_dimension(Ideal(R3, [S3.var(0)])) == 2
    Sx = PolyRing(field_of(7), ("x",))
    assert krull_dimension(Ideal(RingPresentation(Sx), [Sx.one])) == -1


def test_quotient_ring_ideal_operations():
    # Colon inside a quotient ring: ((x^2) : (x)) in k[x,y]/(x*y).
    S = PolyRing(field_of(7), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S, [x * y])
    col = ideal_colon(Ideal(R, [x**2]), Ideal(R, [x]))
    # f*x in (x^2) + (xy) iff f in (x, y).
    assert contains(col, x)
    assert contains(col, y)
    assert not contains(col, S.one)


# ---------------------------------------------------------------------------
# The reduction core of modgb, against the scan loop it replaced.


def _reference_key(order, term):
    """The term order as a tuple key, bigger key meaning bigger term."""
    pos, e = term
    flag = 1 if (order.split is None or pos < order.split) else 0
    if order.twists is not None:
        return (flag, sum(e) + order.twists[pos], order.mono_key(e), -pos)
    return (flag, order.mono_key(e), -pos)


def _reference_lead(vec, order):
    return max(vec, key=lambda t: _reference_key(order, t))


def _packed_lead(vec, order):
    """The lead term as the engine finds it: the least code."""
    return min(vec, key=order.table([vec]).encode)


def _reference_normal_form(vec, basis, order, F):
    """Reduction that rescans the work vector for its largest term each step."""
    work = dict(vec)
    rem, quotients = {}, {}
    while work:
        t = max(work, key=lambda u: _reference_key(order, u))
        c = work[t]
        pos, m = t
        hit = next(((i, g, lm) for i, (g, (lp, lm)) in enumerate(basis)
                    if lp == pos and mono_divides(lm, m)), None)
        if hit is None:
            rem[t] = c
            del work[t]
            continue
        i, g, lm = hit
        shift = mono_div(m, lm)
        for (gp, gm), cg in g.items():
            u = (gp, mono_mul(gm, shift))
            acc = F.sub(work.get(u, F.zero), F.mul(c, cg))
            if F.is_zero(acc):
                work.pop(u, None)
            else:
                work[u] = acc
        q = quotients.setdefault(i, {})
        q[shift] = F.add(q.get(shift, F.zero), c)
    return rem, quotients


def _random_vector(rng, F, n, positions, terms):
    vec = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        c = F.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if not F.is_zero(c):
            vec[(rng.choice(positions), e)] = c
    return vec


@pytest.mark.parametrize("char", [101, 0])
@pytest.mark.parametrize("tagged", [False, True])
def test_normal_form_matches_scan_reference(char, tagged):
    F = field_of(char)
    n = 3
    rng = random.Random(20 + char + tagged)
    if tagged:
        positions = range(4)
        order = VectorOrder(DEGREVLEX.key, twists=(0, 1, 2, 1), split=2)
    else:
        positions = (0,)
        order = VectorOrder(DEGREVLEX.key)
    for _ in range(12):
        basis = []
        for _ in range(3):
            g = _random_vector(rng, F, n, positions, 4)
            if g:
                lt = _reference_lead(g, order)
                basis.append((vec_scale(g, F.inv(g[lt]), F), lt))
        vec = _random_vector(rng, F, n, positions, 10)
        rem, quotients = _reference_normal_form(vec, basis, order, F)
        # The engine reduces coded vectors: convert through the order.
        table = order.table([vec] + [g for g, _ in basis])
        index = lead_index([(table.encode_vec(g), table.encode(lt)) for g, lt in basis], table)
        assert table.decode_vec(normal_form_vec(table.encode_vec(vec), index, table, F)) == rem
        for (pos, m) in rem:
            assert not any(lp == pos and mono_divides(lm, m) for _, (lp, lm) in basis)
        total = dict(rem)
        for i, q in quotients.items():
            for shift, c in q.items():
                for (pos, m), cg in basis[i][0].items():
                    t = (pos, mono_mul(m, shift))
                    total[t] = F.add(total.get(t, F.zero), F.mul(c, cg))
        assert {t: c for t, c in total.items() if not F.is_zero(c)} == vec


def test_vector_order_compares_twisted_degree_exactly_when_given_twists():
    x2, x = (0, (2, 0, 0)), (1, (1, 0, 0))
    assert _packed_lead({x2: 1, x: 1}, VectorOrder(DEGREVLEX.key)) == x2
    # Twisted degrees 2 + 0 and 1 + 2: the second term leads.
    assert _packed_lead({x2: 1, x: 1}, VectorOrder(DEGREVLEX.key, twists=(0, 2))) == x


def test_buchberger_computes_each_term_key_once():
    F = field_of(32003)
    rng = random.Random(5)
    quads = [{(0, e): rng.randrange(1, 32003) for e in monomials_of_degree(5, 2)}
             for _ in range(4)]
    seen = []

    def recorder(e):
        seen.append(e)
        return DEGREVLEX.key(e)

    gb = buchberger_vectors(quads, VectorOrder(recorder), F)
    assert len(gb) > 4
    # The code table needs the key at the zero vector and the 5 unit
    # vectors only, each once.
    assert 0 < len(seen) <= 5 + 1
    assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# minimal_generators, against the ideal-only Nakayama loop it replaced.


def _reference_minimal_generators(ideal):
    """Degree by degree, keep a candidate iff it enlarges the span of the
    R-multiples of the generators kept so far."""
    ring = ideal.ring
    cands = [(f.degree(), i, ring.nf(f)) for i, f in enumerate(ideal.generators)]
    cands = sorted((d, i, f) for d, i, f in cands if not f.is_zero())
    kept = []
    pos = 0
    while pos < len(cands):
        deg = cands[pos][0]
        index = {m: k for k, m in enumerate(ring.standard_monomials(deg))}
        span = Span(ring.field, len(index))
        for g in kept:
            for m in ring.standard_monomials(deg - g.degree()):
                span.add({index[u]: c for u, c in ring.nf(g.shift(m)).terms.items()})
        while pos < len(cands) and cands[pos][0] == deg:
            f = cands[pos][2]
            if span.add({index[u]: c for u, c in f.terms.items()}):
                kept.append(f)
            pos += 1
    return kept


def _random_form(rng, S, degree):
    F = S.field
    terms = {}
    monos = monomials_of_degree(S.n, degree)
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        c = F.of(rng.randint(-5, 5))
        if not F.is_zero(c):
            terms[m] = c
    return S.from_terms(terms.items())


def _redundant_generators(rng, S):
    """Random forms plus multiples and sums of them, shuffled."""
    gens = [_random_form(rng, S, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    for f in list(gens):
        gens.append(f * S.var(rng.randrange(S.n)))
    if len(gens) > 1:
        f, g = rng.sample(gens, 2)
        if f.degree() == g.degree():
            gens.append(f + g)
    gens.append(_random_form(rng, S, 2))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("char", [2, 101, 0])
@pytest.mark.parametrize("quotient", [False, True])
def test_minimal_generators_matches_ideal_reference(char, quotient):
    S = PolyRing(field_of(char), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    rels = [a * c - b**2, a * d - b * c, b * d - c**2] if quotient else []
    R = RingPresentation(S, rels)
    rng = random.Random(400 + char + quotient)
    for _ in range(15):
        I = Ideal(R, _redundant_generators(rng, S))
        assert minimal_generators(I) == _reference_minimal_generators(I)


# ---------------------------------------------------------------------------
# The Hilbert–Poincaré series, against the enumerator and the 2^n subset
# loop it replaced.


def _reference_hilbert(leads, n, degree):
    """Monomials of the degree divisible by no lead term, counted one by one."""
    if degree < 0:
        return 0
    return sum(
        1
        for m in monomials_of_degree(n, degree)
        if not any(mono_divides(lt, m) for lt in leads)
    )


def _reference_dimension(leads, n):
    """Largest set of variables no lead term lives on; -1 for the unit ideal."""
    if any(sum(lt) == 0 for lt in leads):
        return -1
    best = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size <= best:
            continue
        if all(any(lt[i] and not (mask >> i) & 1 for i in range(n)) for lt in leads):
            best = size
    return best


def _random_monomial_ideals(rng, n):
    """Seeded monomial generator lists, with the edge cases named up front."""
    zero = tuple([0] * n)
    pure = [tuple(k + 1 if i == j else 0 for i in range(n)) for j, k in enumerate(range(n))]
    yield []
    yield [zero]
    yield pure
    yield pure + [zero]
    for _ in range(30):
        gens = [
            tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 7))
        ]
        gens = [g for g in gens if any(g)] or [pure[0]]
        # Non-minimal and repeated generators.
        g = rng.choice(gens)
        gens.append(mono_mul(g, tuple(rng.randint(0, 1) for _ in range(n))))
        gens.append(g)
        if rng.random() < 0.3:
            gens.append(pure[rng.randrange(n)])
        rng.shuffle(gens)
        yield gens


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_series_coefficients_match_enumeration(n):
    rng = random.Random(600 + n)
    for leads in _random_monomial_ideals(rng, n):
        num = hilbert_numerator(leads, n)
        assert not num or num[-1] != 0
        for d in range(-3, 13):
            assert hilbert_coefficient(num, n, d) == _reference_hilbert(leads, n, d), (leads, d)
        assert series_dimension(num, n) == _reference_dimension(leads, n), leads


def test_series_of_named_ideals():
    assert hilbert_numerator([], 3) == (1,)
    assert hilbert_numerator([(0, 0)], 2) == ()
    # (x^2, xy, y^2): 1 + 2t = (1 - 3t^2 + 2t^3)/(1-t)^2.
    assert hilbert_numerator([(2, 0), (1, 1), (0, 2), (2, 1), (1, 1)], 2) == (1, 0, -3, 2)
    # The twisted cubic's lead terms in degrevlex: 1 + 3t + 5t^2 + ...
    leads = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]
    num = hilbert_numerator(leads, 4)
    assert num == (1, 0, -3, 2)
    assert [hilbert_coefficient(num, 4, d) for d in range(5)] == [1, 4, 7, 10, 13]
    assert series_dimension(num, 4) == 2
    assert hilbert_coefficient((), 0, 0) == 0 and hilbert_coefficient((1,), 0, 0) == 1


def _random_quotient(rng, char):
    S = PolyRing(field_of(char), ("a", "b", "c", "d")[: rng.randint(1, 4)])
    rels = [_random_form(rng, S, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    return RingPresentation(S, rels)


@pytest.mark.parametrize("char", [2, 101, 0])
def test_ring_hilbert_and_dimension_match_references(char, twisted_cubic):
    rng = random.Random(700 + char)
    rings = [twisted_cubic] + [_random_quotient(rng, char) for _ in range(12)]
    for R in rings:
        leads = [g.lead_monomial() for g in R.relations_groebner()]
        for d in range(0, 9):
            assert R.hilbert(d) == len(R.standard_monomials(d))
        assert R.hilbert(-1) == R.hilbert(-4) == 0
        assert R.dimension() == _reference_dimension(leads, R.n)
        assert krull_dimension(R) == R.dimension()
        I = Ideal(R, [_random_form(rng, R.ambient, rng.randint(1, 2))])
        ileads = [g.lead_monomial() for g in I.groebner()]
        assert krull_dimension(I) == _reference_dimension(ileads, R.n)
        for d in range(0, 9):
            assert hilbert_function(I, d) == _reference_hilbert(ileads, R.n, d)


def _reference_quotient_generator_degrees(amb, big, small):
    """The old route: H(S/(m*big + small), d) - H(S/big, d) generators in
    degree d, both Hilbert functions enumerated.  The count is zero where
    big has no minimal generator, so only those degrees are enumerated."""
    big_gens = minimal_generators(big)
    mgens = [v * f for f in big_gens for v in amb.ambient.gens()]
    denominator = Ideal(amb, mgens + list(small.generators))
    den_leads = [g.lead_monomial() for g in denominator.groebner()]
    big_leads = [g.lead_monomial() for g in big.groebner()]
    out = []
    for ell in sorted({f.degree() for f in big_gens}):
        count = _reference_hilbert(den_leads, amb.n, ell) - _reference_hilbert(big_leads, amb.n, ell)
        out.extend([ell] * count)
    return tuple(sorted(out))


@pytest.mark.parametrize("e", [1, 2, 3])
def test_quotient_generator_degrees_match_enumeration(e, twisted_cubic_gf2):
    amb = RingPresentation(twisted_cubic_gf2.ambient)
    report = fedder_module(twisted_cubic_gf2, e)
    a_q = frobenius_power(Ideal(amb, list(twisted_cubic_gf2.relations)), report.q)
    expected = _reference_quotient_generator_degrees(amb, report.colon, a_q)
    assert report.generator_degrees == expected
    assert report.mu == len(expected)


# (characteristic, variables, relations, largest e) of the rings the
# Fedder degrees are checked on.
FEDDER_CASES = {
    "twisted-cubic-gf2": (
        2, "abcd", lambda a, b, c, d: [a * c - b**2, a * d - b * c, b * d - c**2], 4
    ),
    "fermat-cubic-gf2": (2, "xyz", lambda x, y, z: [x**3 + y**3 + z**3], 4),
    "fermat-cubic-gf3": (3, "xyz", lambda x, y, z: [x**3 + y**3 + z**3], 3),
    "xyz-gf7": (7, "xyz", lambda x, y, z: [x * y * z], 2),
    "plane-gf2": (2, "xy", lambda x, y: [], 3),
}


@pytest.mark.parametrize("case", list(FEDDER_CASES))
def test_fedder_degrees_match_the_series_reference(case):
    char, names, relations, e_max = FEDDER_CASES[case]
    S = PolyRing(field_of(char), tuple(names))
    ring = RingPresentation(S, relations(*S.gens()))
    amb = RingPresentation(S)
    a = Ideal(amb, list(ring.relations))
    for e in range(e_max + 1):
        report = fedder_module(ring, e)
        a_q = frobenius_power(a, report.q)
        expected = _reference_quotient_generator_degrees(amb, report.colon, a_q)
        assert report.generator_degrees == expected, e
        assert report.mu == len(expected)
        if not ring.relations:
            assert expected == (0,)


# ---------------------------------------------------------------------------
# Colon and intersection, against the auxiliary-variable elimination they
# replaced: both are now one ``syzygies_over`` call.


def _reference_extended_ring(ring):
    return PolyRing(ring.field, ("_u",) + ring.names, ring.order)


def _reference_embed(ext, f):
    return Polynomial(ext, {(0,) + m: c for m, c in f.terms.items()})


def _reference_intersection(a, b):
    """I cap J as <uI, (1-u)J> cap S, under an elimination order for u."""
    ring = a.ring
    amb = ring.ambient
    ext = _reference_extended_ring(amb)
    u = ext.var(0)
    gens = [u * _reference_embed(ext, f) for f in a.generators + ring.relations]
    gens += [(ext.one - u) * _reference_embed(ext, g) for g in b.generators + ring.relations]
    out = []
    gb = buchberger_vectors(
        [poly_to_vec(f) for f in gens], VectorOrder(EliminationOrder(1).key), ext.field
    )
    for v in gb:
        h = vec_to_poly(ext, v)
        if all(m[0] == 0 for m in h.terms):
            # The intersection is homogeneous; keep the graded components.
            comps = {}
            for m, c in h.terms.items():
                comps.setdefault(sum(m), []).append((m[1:], c))
            out.extend(amb.from_terms(terms) for terms in comps.values())
    return Ideal(ring, out)


def _reference_divide_exact(f, g):
    basis = [(poly_to_vec(g.monic()), (0, g.lead_monomial()))]
    rem, quot = _reference_normal_form(
        poly_to_vec(f), basis, VectorOrder(f.ring.order.key), f.ring.field
    )
    assert not rem
    quotient = Polynomial(f.ring, quot.get(0, {}))
    return quotient.scale(f.ring.field.inv(g.lead_coeff()))


def _reference_colon(a, b):
    """(I : J) as the intersection over g in J of (1/g)(lift(I) cap (g))."""
    ring = a.ring
    amb = RingPresentation(ring.ambient, ())
    lift = Ideal(amb, list(a.generators) + list(ring.relations))
    live = [g for g in b.generators if not ring.is_zero_in_quotient(g)]
    if not live:
        return Ideal(ring, [ring.ambient.one])
    result = None
    for g in live:
        meet = _reference_intersection(lift, Ideal(amb, [g]))
        part = Ideal(ring, [_reference_divide_exact(h, g) for h in meet.generators])
        result = part if result is None else _reference_intersection(result, part)
    return result


def _colon_cases(char, quotient):
    """(I, J) pairs: seeded forms, plus J empty, J the unit ideal and J
    holding a generator that is zero in the quotient."""
    S = PolyRing(field_of(char), ("x", "y", "z"))
    x, y, z = S.gens()
    ring = RingPresentation(S, [x * y - z**2] if quotient else [])
    rng = random.Random(7100 + char + quotient)

    def forms(k, top):
        return [_random_form(rng, S, rng.randint(1, top)) for _ in range(k)]

    for _ in range(5):
        yield Ideal(ring, forms(rng.randint(1, 3), 2)), Ideal(ring, forms(rng.randint(1, 2), 2))
    I = Ideal(ring, forms(2, 2))
    yield I, Ideal(ring, [])
    yield I, Ideal(ring, [S.one])
    yield I, Ideal(ring, [(x * y - z**2) * x] + forms(1, 1))
    yield Ideal(ring, []), Ideal(ring, forms(2, 1))


@pytest.mark.parametrize("char", [2, 101, 0])
@pytest.mark.parametrize("quotient", [False, True])
def test_colon_and_intersection_match_the_elimination_references(char, quotient):
    for I, J in _colon_cases(char, quotient):
        assert ideal_colon(I, J).groebner() == _reference_colon(I, J).groebner()
        assert ideal_intersection(I, J).groebner() == _reference_intersection(I, J).groebner()
        assert ideal_intersection(J, I).groebner() == _reference_intersection(I, J).groebner()


def test_colon_is_one_kernel_call_and_no_intersection(monkeypatch, twisted_cubic_gf2):
    import soclelab.groebner as groebner

    calls = {"syzygies_over": 0, "ideal_intersection": 0}

    def counted(name):
        inner = getattr(groebner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(groebner, name, counted(name))
    amb = RingPresentation(twisted_cubic_gf2.ambient, ())
    a = Ideal(amb, list(twisted_cubic_gf2.relations))
    ideal_colon(frobenius_power(a, 4), a)
    assert calls == {"syzygies_over": 1, "ideal_intersection": 0}


def test_ideal_sum_joins_the_generators():
    S = PolyRing(field_of(101), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S)
    total = ideal_sum(Ideal(R, [x**2]), Ideal(R, [x * y, y**2]))
    assert total.ring is R
    assert total.generators == (x**2, x * y, y**2)
    assert hilbert_function(total, 2) == 0


def test_is_zero_on_a_polynomial_ring():
    S = PolyRing(field_of(101), ("x", "y"))
    x, _ = S.gens()
    R = RingPresentation(S)
    assert Ideal(R, []).is_zero()
    assert Ideal(R, [S.zero]).is_zero()
    assert not Ideal(R, [x]).is_zero()


def test_is_zero_over_a_quotient_ring():
    # The ideal's Groebner basis holds the relation xy, so it is never
    # empty here; the ideal is zero exactly when each generator is zero in R.
    S = PolyRing(field_of(101), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S, [x * y])
    assert Ideal(R, []).is_zero()
    assert Ideal(R, [x * y]).is_zero()
    assert Ideal(R, [x**2 * y, 3 * x * y]).is_zero()
    assert not Ideal(R, [x * y, x]).is_zero()
    assert not Ideal(R, [x**2 + x * y]).is_zero()


@pytest.mark.parametrize("operation", [ideal_sum, ideal_intersection, ideal_colon])
def test_ideals_of_different_rings_are_refused(operation):
    S = PolyRing(field_of(101), ("x", "y"))
    x, y = S.gens()
    a = Ideal(RingPresentation(S), [x])
    b = Ideal(RingPresentation(S, [x * y]), [y])
    with pytest.raises(StructuralError, match="different rings"):
        operation(a, b)


def test_negative_ideal_power_is_refused():
    S = PolyRing(field_of(101), ("x", "y"))
    x, _ = S.gens()
    with pytest.raises(DomainError, match="negative"):
        ideal_power(Ideal(RingPresentation(S), [x]), -1)


@pytest.mark.parametrize(
    "ring, generator, message",
    [
        ("ambient", "x", "ideal needs a ring presentation"),
        ("presentation", "z", "generator from a different ambient ring"),
        ("presentation", "x^2 + y", "ideal generators must be homogeneous"),
    ],
)
def test_ideal_constructor_checks(ring, generator, message):
    S = PolyRing(field_of(101), ("x", "y"))
    other = PolyRing(field_of(101), ("x", "y", "z"))
    R = RingPresentation(S)
    f = parse_polynomial(other if generator == "z" else S, generator)
    with pytest.raises(StructuralError, match=message):
        Ideal(S if ring == "ambient" else R, [f])
