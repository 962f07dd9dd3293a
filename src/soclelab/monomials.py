"""Monomials as exponent tuples, plus the handful of operations on them."""

from functools import lru_cache


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


@lru_cache(maxsize=None)
def monomials_of_degree(n, d):
    """All exponent tuples of total degree d in n variables, as a tuple."""
    if n == 0:
        return ((),) if d == 0 else ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)
