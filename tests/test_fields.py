import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab.errors import DomainError
from soclelab.fields import PRIMALITY_BOUND, PrimeField, field_of, is_prime


def test_field_of_caches():
    assert field_of(7) is field_of(7)
    assert field_of(0) is field_of(0)


def test_nonprime_characteristic_rejected():
    with pytest.raises(DomainError):
        PrimeField(6)
    with pytest.raises(DomainError):
        PrimeField(1)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_matches_trial_division():
    def trial(m):
        return m > 1 and all(m % f for f in range(2, int(m**0.5) + 1))

    assert [m for m in range(3000) if is_prime(m)] == [m for m in range(3000) if trial(m)]


def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    # The least strong pseudoprime to every prime base up to 37: base 41
    # is what makes the test exact below PRIMALITY_BOUND.
    assert not is_prime(318665857834031151167461)
    assert is_prime(32003) and is_prime(10**18 + 3)


def test_is_prime_refuses_above_its_bound():
    with pytest.raises(DomainError, match=str(PRIMALITY_BOUND)):
        PrimeField(2**89 - 1)
    assert not is_prime(2**89)


def test_gf7_basic():
    F = field_of(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.of(-1) == 6
    assert F.of(Fraction(1, 2)) == 4


def test_large_prime_inverses_without_table():
    p = 1000003
    F = PrimeField(p)
    assert all(not hasattr(v, "__len__") or len(v) < 16 for v in vars(F).values())
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert a * F.inv(a) % p == 1
        assert F.mul(F.div(a, b), b) == a
        assert F.of(Fraction(a, b)) == F.div(a, b)
        assert F.inv(a + 5 * p) == F.inv(a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(2 * p)
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 3 * p))


def test_rationals_exact():
    Q = field_of(0)
    assert Q.of("1/3") == Fraction(1, 3)
    assert Q.inv(Fraction(2, 5)) == Fraction(5, 2)
    assert Q.sub(Fraction(1, 3), Fraction(1, 3)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_gf_axioms(a, b, c):
    F = field_of(11)
    a, b, c = F.of(a), F.of(b), F.of(c)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
)
def test_rational_axioms(a, b):
    Q = field_of(0)
    assert Q.add(a, b) == Q.add(b, a)
    assert Q.mul(a, b) == Q.mul(b, a)
    if not Q.is_zero(b):
        assert Q.mul(Q.div(a, b), b) == a
