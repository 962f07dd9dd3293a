import gc
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab.errors import StructuralError
from soclelab.fields import field_of
from soclelab.monomials import mono_lcm, monomials_of_degree
from soclelab.orders import DEGLEX, DEGREVLEX, MonomialOrder
from soclelab.poly import NEG_INF, PolyRing, format_polynomial, parse_polynomial
from soclelab.rings import RingPresentation
from span_reference import mono_divides


@pytest.fixture(scope="module")
def SQ():
    return PolyRing(field_of(0), ("x", "y"))


def test_normalize_combines_like_terms(SQ):
    f = SQ.from_terms([((1, 0), 1), ((1, 0), 1)])
    x, _ = SQ.gens()
    assert f == 2 * x


def test_normalize_characteristic_kills():
    S = PolyRing(field_of(5), ("x", "y"))
    f = S.from_terms([((1, 0), 1), ((1, 0), 4), ((0, 1), 1)])
    assert f == S.var(1)


def test_zero_polynomial_degree_sentinel(SQ):
    z = SQ.from_terms([])
    assert z.is_zero()
    assert z.degree() == NEG_INF


def test_wrong_exponent_length_rejected(SQ):
    with pytest.raises(StructuralError):
        SQ.from_terms([((1, 0, 0), 1)])


def test_product_difference_of_squares(SQ):
    x, y = SQ.gens()
    assert (x + y) * (x - y) == x**2 - y**2


def test_frobenius_square_char2():
    S = PolyRing(field_of(2), ("x", "y"))
    x, y = S.gens()
    assert (x + y) ** 2 == x**2 + y**2


def test_mul_by_zero(SQ):
    x, _ = SQ.gens()
    assert (x * SQ.zero).is_zero()


def test_mixed_rings_rejected(SQ):
    other = PolyRing(field_of(7), ("x", "y"))
    with pytest.raises(StructuralError):
        SQ.one * other.one


def test_degrevlex_example():
    # In (x, y, z): y^2 beats x*z in degrevlex.
    assert DEGREVLEX.compare((0, 2, 0), (1, 0, 1)) == 1
    assert DEGREVLEX.compare((1, 0, 1), (0, 2, 0)) == -1


def test_order_equal_on_same_monomial():
    assert DEGREVLEX.compare((1, 2, 3), (1, 2, 3)) == 0


def test_degree_dominates():
    assert DEGREVLEX.compare((3, 0), (0, 2)) == 1
    assert DEGLEX.compare((0, 3), (2, 0)) == 1


def test_permuted_order():
    rev = MonomialOrder("deglex", permutation=(1, 0))
    # With y most significant, y beats x.
    assert rev.compare((1, 0), (0, 1)) == -1


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_order_antisymmetric_and_multiplicative(m1, m2, m):
    for order in (DEGREVLEX, DEGLEX):
        c = order.compare(m1, m2)
        assert c == -order.compare(m2, m1)
        if c != 0:
            shifted = order.compare(
                tuple(a + b for a, b in zip(m1, m)),
                tuple(a + b for a, b in zip(m2, m)),
            )
            assert shifted == c


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 4)
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 4)
        ),
        max_size=5,
    ),
)
def test_mul_commutative_hypothesis(t1, t2):
    S = PolyRing(field_of(13), ("x", "y"))
    f, g = S.from_terms(t1), S.from_terms(t2)
    assert f * g == g * f
    assert (f * g).degree() <= f.degree() + g.degree() or (f * g).is_zero()


def test_parse_roundtrip(SQ):
    f = parse_polynomial(SQ, "x^2*y - 3*y^3")
    assert format_polynomial(f) == "x^2*y - 3*y^3"
    assert parse_polynomial(SQ, format_polynomial(f)) == f


def test_parse_unknown_variable(SQ):
    with pytest.raises(StructuralError):
        parse_polynomial(SQ, "x + w")


def test_parse_no_juxtaposition(SQ):
    with pytest.raises(StructuralError):
        parse_polynomial(SQ, "2x")


def test_monomial_helpers():
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((3, 0), (2, 1))
    assert mono_lcm((1, 2), (2, 0)) == (2, 2)
    assert len(monomials_of_degree(3, 4)) == 15


def test_monomials_of_degree_order():
    assert monomials_of_degree(3, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    )
    assert monomials_of_degree(0, 0) == ((),)
    assert monomials_of_degree(0, 1) == ()
    assert monomials_of_degree(1, 5) == ((5,),)


def test_standard_monomials_are_freed_with_their_ring():
    """A ring keeps its degree pieces in its memo and nothing outside it:
    once the ring is dropped, the memory of a degree-60 piece of
    k[a,b,c,d] (39,711 monomials) is returned."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ring = RingPresentation(PolyRing(field_of(7), ("a", "b", "c", "d")), [])
        assert len(ring.standard_monomials(60)) == comb(63, 3)
        del ring
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda S, T: RingPresentation(RingPresentation(S)), "ambient must be a polynomial ring"),
        (lambda S, T: RingPresentation(S, [T.var(0) ** 2]), "relation from a different ambient ring"),
        (lambda S, T: RingPresentation(S, [S.var(0) ** 2 + S.var(1)]), "homogeneous of degree >= 1"),
        (lambda S, T: RingPresentation(S, [S.one]), "homogeneous of degree >= 1"),
    ],
    ids=["ambient", "foreign-relation", "inhomogeneous", "constant"],
)
def test_ring_presentation_constructor_checks(SQ, build, message):
    T = PolyRing(field_of(0), ("x", "y", "z"))
    with pytest.raises(StructuralError, match=message):
        build(SQ, T)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MonomialOrder("lex"), "unknown order kind 'lex'"),
        (lambda: MonomialOrder("degrevlex", (1, 0)).key((1, 2, 3)), "permutation length"),
        (lambda: DEGREVLEX.compare((1, 0), (1, 0, 0)), "different lengths"),
    ],
    ids=["kind", "permutation", "compare"],
)
def test_monomial_order_checks(call, message):
    with pytest.raises(StructuralError, match=message):
        call()
