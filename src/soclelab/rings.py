"""Presentations of standard graded rings R = S/a.

The ambient ring S is a :class:`~soclelab.poly.PolyRing`; the relation
ideal is kept as a generator list, and its reduced Groebner basis is
computed once and memoized.  A presentation with no relations is the
polynomial ring itself.
"""

from .errors import StructuralError
from .modgb import PolyReducer, groebner_polys
from .monomials import (
    hilbert_coefficient,
    hilbert_numerator,
    mono_divides,
    monomials_of_degree,
    series_dimension,
)
from .poly import PolyRing


class RingPresentation:
    """R = S/a with homogeneous relations of degree >= 1.

    Instances are immutable apart from their memo (see :func:`memoized`),
    which keeps what is computed on first use: the relation Groebner
    basis ("gb"), the numerator of the Hilbert–Poincaré series
    ("hilbert_numerator"), the standard monomials of each degree
    (("std", d)), the truncated residue-field resolution ("kres"), the
    Fedder report of each Frobenius exponent (("fedder", e)) and the
    reducer behind ``nf`` ("nf"), which keeps the term order and the
    coded relation basis.  No lock guards it.

    ``hilbert`` and ``dimension`` read the series: H(d) is its t^d
    coefficient, the dimension its pole order at t = 1.
    """

    def __init__(self, ambient, relations=()):
        if not isinstance(ambient, PolyRing):
            raise StructuralError("ambient must be a polynomial ring")
        self.ambient = ambient
        rels = []
        for f in relations:
            if f.ring != ambient:
                raise StructuralError("relation from a different ambient ring")
            if f.is_zero():
                continue
            if not f.is_homogeneous() or f.degree() < 1:
                raise StructuralError("relations must be homogeneous of degree >= 1")
            rels.append(f)
        self.relations = tuple(rels)
        self._memo = {}

    @property
    def field(self):
        return self.ambient.field

    @property
    def n(self):
        return self.ambient.n

    def __repr__(self):
        if not self.relations:
            return repr(self.ambient)
        rels = ", ".join(str(f) for f in self.relations)
        return f"{self.ambient}/({rels})"

    def __eq__(self, other):
        return (
            isinstance(other, RingPresentation)
            and other.ambient == self.ambient
            and other.relations == self.relations
        )

    def __hash__(self):
        return hash((self.ambient, self.relations))

    @property
    def is_polynomial_ring(self):
        return not self.relations

    def relations_groebner(self):
        return memoized(self, "gb", lambda: tuple(groebner_polys(list(self.relations))))

    def nf(self, f):
        """Normal form of f modulo the relation ideal."""
        if not self.relations:
            return f
        reducer = memoized(
            self, "nf", lambda: PolyReducer(self.ambient, self.relations_groebner())
        )
        return reducer.reduce(f)

    def is_zero_in_quotient(self, f):
        return self.nf(f).is_zero()

    def standard_monomials(self, degree):
        """Monomial basis of the degree piece of R."""
        if degree < 0:
            return ()

        def build():
            leads = [g.lead_monomial() for g in self.relations_groebner()]
            return tuple(
                m
                for m in monomials_of_degree(self.n, degree)
                if not any(mono_divides(lt, m) for lt in leads)
            )

        return memoized(self, ("std", degree), build)

    def hilbert_numerator(self):
        """Numerator of HS(R) = N(t)/(1-t)^n, from the relation lead terms."""
        return memoized(
            self,
            "hilbert_numerator",
            lambda: hilbert_numerator(
                [g.lead_monomial() for g in self.relations_groebner()], self.n
            ),
        )

    def hilbert(self, degree):
        """dim_k of the degree piece of R."""
        return hilbert_coefficient(self.hilbert_numerator(), self.n, degree)

    def dimension(self):
        """Krull dimension of R: the pole order of its series at t = 1."""
        return series_dimension(self.hilbert_numerator(), self.n)


def memoized(obj, key, build):
    """The object derived from ``obj`` under ``key``: built once, then kept.

    ``obj`` is a ring presentation, an ideal, a module presentation or
    one of its graded pieces; its ``_memo`` dict lives as long as ``obj``
    does.
    """
    memo = obj._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]
