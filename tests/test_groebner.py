import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab.errors import DomainError
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
    krull_dimension,
    minimal_generator_degrees,
    minimal_generators,
    normal_form,
)
from soclelab.modgb import VectorOrder, buchberger_vectors, normal_form_vec, vec_lead, vec_scale
from soclelab.monomials import mono_div, mono_divides, mono_mul, monomials_of_degree
from soclelab.orders import DEGREVLEX
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation


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
    from soclelab.monomials import mono_div, mono_lcm

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
    if order.degree_aware:
        return (flag, sum(e) + order.twists[pos], order.mono_key(e), -pos)
    return (flag, order.mono_key(e), -pos)


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
        order = VectorOrder(DEGREVLEX.key, twists=(0, 1, 2, 1), degree_aware=True, split=2)
    else:
        positions = (0,)
        order = VectorOrder(DEGREVLEX.key)
    for _ in range(12):
        basis = []
        for _ in range(3):
            g = _random_vector(rng, F, n, positions, 4)
            if g:
                lt = vec_lead(g, order)
                basis.append((vec_scale(g, F.inv(g[lt]), F), lt))
        vec = _random_vector(rng, F, n, positions, 10)
        rem, quotients = normal_form_vec(vec, basis, order, F, track=True)
        assert (rem, quotients) == _reference_normal_form(vec, basis, order, F)
        for (pos, m) in rem:
            assert not any(lp == pos and mono_divides(lm, m) for _, (lp, lm) in basis)
        total = dict(rem)
        for i, q in quotients.items():
            for shift, c in q.items():
                for (pos, m), cg in basis[i][0].items():
                    t = (pos, mono_mul(m, shift))
                    total[t] = F.add(total.get(t, F.zero), F.mul(c, cg))
        assert {t: c for t, c in total.items() if not F.is_zero(c)} == vec


def test_buchberger_computes_each_term_key_once():
    F = field_of(32003)
    rng = random.Random(5)
    quads = [{(0, e): rng.randrange(1, 32003) for e in monomials_of_degree(5, 2)}
             for _ in range(4)]
    seen = []

    def recorder(e):
        seen.append(e)
        return DEGREVLEX.key(e)

    gb = buchberger_vectors(quads, VectorOrder(recorder), F, use_product=True)
    assert len(gb) > 4
    assert seen and len(seen) == len(set(seen))
