"""Monomials as exponent tuples, plus the handful of operations on them.

Also the one monomial-ideal kernel: the numerator of the Hilbert–Poincaré
series of S/(monomials), from which Hilbert functions and Krull
dimensions are read.  A graded module's numerator is a sum of such
numerators shifted by the twists, which may be negative: a Laurent
polynomial, kept as a dict from exponent to nonzero coefficient
(``leads_numerator``).  Hilbert functions and dimensions are read off
either format.
"""

from math import comb
from operator import add, le


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_degree(a):
    return sum(a)


def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def monomials_of_degree(n, d):
    """All exponent tuples of total degree d in n variables, as a tuple.

    Built afresh on each call: a ring keeps the ones it needs in its
    memo (its standard monomials per degree), so they go with the ring.
    """
    if n == 0:
        return ((),) if d == 0 else ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


def _minimalize(monos):
    """The minimal generators of the monomial ideal (monos), by degree."""
    kept = []
    for m in sorted(set(monos), key=sum):
        for k in kept:
            if all(map(le, k, m)):
                break
        else:
            kept.append(m)
    return kept


def hilbert_numerator(leads, n):
    """Numerator N(t) of HS(S/(leads)) = N(t)/(1-t)^n, S = k[x_1..x_n].

    ``leads`` are exponent tuples of length n, in any number and order;
    N is returned as a tuple of integers, N[k] the coefficient of t^k,
    with no trailing zeros (the unit ideal gives ()).

    Bigatti's pivot recursion (Bigatti 1997; Bayer–Stillman 1992): for a
    monomial p, 0 -> S/(I:p)(-deg p) -> S/I -> S/(I+p) -> 0 is exact, so
    N(I) = N(I + p) + t^deg(p) N(I : p).  The pivot is x_i^e for the
    variable x_i in the most minimal generators and e the median exponent
    of x_i over the generators that contain it and are not pure powers.
    Both branches then have a smaller sum of generator degrees, and a
    branch whose generators are pairwise coprime (a regular sequence)
    ends with N = prod(1 - t^deg g).  The branches are summed from a
    stack, so the depth of the recursion costs no Python frames.
    """
    if not leads:
        return (1,)
    if len(leads) == 1:
        # One monomial of degree d: 1 - t^d, and 0 for the unit ideal.
        d = sum(leads[0])
        return (1,) + (0,) * (d - 1) + (-1,) if d else ()
    total = [0]
    stack = [(_minimalize(leads), 0)]
    while stack:
        gens, shift = stack.pop()
        columns = list(zip(*gens))
        counts = [len(gens) - column.count(0) for column in columns]
        top = max(counts, default=0)
        if top <= 1:
            leaf = [1]
            for g in gens:
                d = sum(g)
                leaf = [a - b for a, b in zip(leaf + [0] * d, [0] * d + leaf)]
            if len(total) < shift + len(leaf):
                total.extend([0] * (shift + len(leaf) - len(total)))
            for k, c in enumerate(leaf, shift):
                total[k] += c
            continue
        i = counts.index(top)
        exps = sorted(x for x, g in zip(columns[i], gens) if x and x != sum(g))
        e = exps[len(exps) // 2]
        pivot = tuple(e if k == i else 0 for k in range(n))
        stack.append(([g for g in gens if g[i] < e] + [pivot], shift))
        colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens]
        stack.append((_minimalize(colon), shift + e))
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


def _terms(numerator):
    """(exponent, coefficient) pairs of a numerator: a coefficient sequence
    from t^0 up, as ``hilbert_numerator`` returns, or a Laurent dict."""
    return numerator.items() if isinstance(numerator, dict) else enumerate(numerator)


def laurent_add(into, numerator, shift=0, scale=1):
    """In place: into += scale * t^shift * numerator, and return ``into``.

    ``into`` is a Laurent polynomial (a dict from exponent to nonzero
    coefficient); ``numerator`` is in either format (``_terms``).
    """
    for k, c in _terms(numerator):
        if c:
            k += shift
            v = into.get(k, 0) + scale * c
            if v:
                into[k] = v
            else:
                del into[k]
    return into


def leads_numerator(leads, twists, n):
    """Laurent numerator of HS(F/L) over (1-t)^n, F = sum_i S(-twists[i]).

    ``leads`` are the (position, exponent) lead terms of a Groebner basis
    of L.  F/L has the Hilbert function of sum_i S(-a_i)/L_i, L_i the
    monomial ideal of the leads in position i (Macaulay), so the
    numerator is the sum of t^(a_i) times the numerator of S/L_i; {} for
    F = L.
    """
    by_position = [[] for _ in twists]
    for pos, e in leads:
        by_position[pos].append(e)
    out = {}
    for a, ls in zip(twists, by_position):
        laurent_add(out, hilbert_numerator(ls, n), a)
    return out


def hilbert_coefficient(numerator, n, d):
    """Coefficient of t^d in numerator(t)/(1-t)^n: a Hilbert function value.

    ``numerator`` is in either format (``_terms``).
    """
    if n == 0:
        return sum(c for k, c in _terms(numerator) if k == d)
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in _terms(numerator) if k <= d)


def series_dimension(numerator, n):
    """Krull dimension: the order of the pole of numerator(t)/(1-t)^n at t = 1.

    -1 for the zero numerator (the unit ideal).  ``numerator`` is in
    either format (``_terms``).  The pole order is n less the order of
    the zero of the numerator at t = 1, which is the number of times it
    can be differentiated before its value at 1 is nonzero; a Laurent
    numerator differentiates term by term like a polynomial.
    """
    terms = [(k, c) for k, c in _terms(numerator) if c]
    if not terms:
        return -1
    while not sum(c for _, c in terms):
        terms = [(k - 1, k * c) for k, c in terms]
        n -= 1
    return n
