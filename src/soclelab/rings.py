"""Presentations of standard graded rings R = S/a.

The ambient ring S is a :class:`~soclelab.poly.PolyRing`; the relation
ideal is kept as a generator list, and its reduced Groebner basis is
computed once and memoized.  A presentation with no relations is the
polynomial ring itself.
"""

from .errors import StructuralError
from .modgb import VectorOrder, VectorReducer, groebner_polys, poly_to_vec
from .monomials import (
    Staircase,
    hilbert_coefficient,
    hilbert_numerator,
    monomials_of_degree,
    series_dimension,
)
from .poly import Polynomial, PolyRing


class RingPresentation:
    """R = S/a with homogeneous relations of degree >= 1.

    Instances are immutable apart from their memo (see :func:`memoized`),
    which keeps what is computed on first use: the relation Groebner
    basis ("gb"), the numerator of the Hilbert–Poincaré series
    ("hilbert_numerator"), the standard monomials of each degree
    (("std", d)), the truncated residue-field resolution ("kres"), the
    Fedder report of each Frobenius exponent (("fedder", e)) and that
    basis coded as a ``modgb.VectorReducer`` ("nf").  The basis is the one
    form in which the relations reach the engine; only the fold over S
    (``modules.s_presentation``) and ``frobenius`` read the generators.
    No lock guards it.

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
        if not self.relations or f.is_zero():
            return f
        return Polynomial(self.ambient, self.nf_terms(f.terms))

    def nf_terms(self, terms):
        """``nf`` of a nonzero {exponents: coefficient} dict over R != S, as
        such a dict, decoded straight off the codes of the remainder."""

        def build():
            basis = [poly_to_vec(g) for g in self.relations_groebner()]
            return VectorReducer(basis, VectorOrder(self.ambient.order.key), self.field)

        reducer = memoized(self, "nf", build)
        table, rem = reducer.normal_form({(0, m): c for m, c in terms.items()})
        return {table.decode(t)[1]: c for t, c in rem.items()}

    def is_zero_in_quotient(self, f):
        return self.nf(f).is_zero()

    def standard_monomials(self, degree):
        """Monomial basis of the degree piece of R."""
        if degree < 0:
            return ()

        def build():
            monos = monomials_of_degree(self.n, degree)
            if not self.relations:
                return monos
            leads = [g.lead_monomial() for g in self.relations_groebner()]
            return tuple(Staircase(leads).outside(monos, degree))

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
