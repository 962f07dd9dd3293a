"""Exact coefficient fields: the rationals and prime fields GF(p).

Elements are plain Python objects (int for GF(p), Fraction for the
rationals); the field object supplies the arithmetic.  Nothing here is
ever approximate.
"""

from fractions import Fraction

from .errors import DomainError


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and Webster).
PRIMALITY_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(m):
    """Deterministic Miller-Rabin test, exact below ``PRIMALITY_BOUND``.

    Raises DomainError for a larger m with no small factor, whose
    primality these bases do not decide.
    """
    if m < 2:
        return False
    for a in _WITNESSES:
        if m % a == 0:
            return m == a
    if m >= PRIMALITY_BOUND:
        raise DomainError(
            f"primality of {m} is not decided at or above {PRIMALITY_BOUND}"
        )
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers with exact Fraction arithmetic."""

    characteristic = 0

    def __repr__(self):
        return "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, a):
        """Coerce an int, Fraction, or rational string into the field."""
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def elements(self):
        raise DomainError("the rationals are not enumerable")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) with elements represented as integers in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        self.p = p
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, a):
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return a.numerator * pow(a.denominator, -1, self.p) % self.p
        return int(a) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


_CACHE = {}


def field_of(characteristic):
    """Return the field of the given characteristic (0 for the rationals)."""
    if characteristic not in _CACHE:
        if characteristic == 0:
            _CACHE[0] = RationalField()
        else:
            _CACHE[characteristic] = PrimeField(characteristic)
    return _CACHE[characteristic]


QQ = field_of(0)
