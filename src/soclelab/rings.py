"""Presentations of standard graded rings R = S/a.

The ambient ring S is a :class:`~soclelab.poly.PolyRing`; the relation
ideal is kept as a generator list with a cached reduced Groebner basis.
A presentation with no relations is the polynomial ring itself.
"""

from .errors import StructuralError
from .modgb import groebner_polys, poly_normal_form
from .monomials import mono_divides, monomials_of_degree
from .poly import PolyRing


class RingPresentation:
    """R = S/a with homogeneous relations of degree >= 1.

    Instances are immutable apart from what they compute on first use
    and keep: the relation Groebner basis, the standard monomials per
    degree, and the memo (see :func:`memoized`) holding the truncated
    residue-field resolution; no lock guards them.
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
        self._gb = None
        self._std = {}
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
        if self._gb is None:
            self._gb = tuple(groebner_polys(list(self.relations)))
        return self._gb

    def nf(self, f):
        """Normal form of f modulo the relation ideal."""
        if not self.relations:
            return f
        return poly_normal_form(f, self.relations_groebner())

    def is_zero_in_quotient(self, f):
        return self.nf(f).is_zero()

    def standard_monomials(self, degree):
        """Monomial basis of the degree piece of R."""
        if degree < 0:
            return ()
        if degree not in self._std:
            leads = [g.lead_monomial() for g in self.relations_groebner()]
            out = tuple(
                m
                for m in monomials_of_degree(self.n, degree)
                if not any(mono_divides(lt, m) for lt in leads)
            )
            self._std[degree] = out
        return self._std[degree]

    def hilbert(self, degree):
        return len(self.standard_monomials(degree))

    def dimension(self):
        """Krull dimension of R via independent variable sets."""
        gb = self.relations_groebner()
        if any(g.degree() == 0 for g in gb):
            return -1
        leads = [g.lead_monomial() for g in gb]
        n = self.n
        best = 0
        for mask in range(1 << n):
            size = bin(mask).count("1")
            if size <= best:
                continue
            ok = True
            for lt in leads:
                if all(lt[i] == 0 or (mask >> i) & 1 for i in range(n)):
                    ok = False
                    break
            if ok:
                best = size
        return best


def memoized(obj, key, build):
    """The object derived from ``obj`` under ``key``: built once, then kept.

    ``obj`` is a ring or module presentation; its ``_memo`` dict lives
    as long as ``obj`` does.
    """
    memo = obj._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]
