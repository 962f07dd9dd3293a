"""Ideals in a graded ring presentation and the ideal-theoretic toolkit.

An ideal of R = S/a is stored by homogeneous generator lifts.  Its memo
holds the reduced Groebner basis of the full preimage (generators plus
relations), which membership reduces against, and the numerator of the
Hilbert–Poincaré series of R/I read off that basis's lead terms.
"""

import itertools
import warnings

from .errors import DomainError, StructuralError
from .modgb import groebner_polys, poly_normal_form, poly_to_vec, vec_to_poly
from .modules import nakayama_minimal_subset, syzygies_over
from .monomials import hilbert_coefficient, hilbert_numerator, series_dimension
from .rings import RingPresentation, memoized


class Ideal:
    """Homogeneous ideal of a ring presentation, given by generator lifts.

    Its memo (see :func:`~soclelab.rings.memoized`) keeps the Groebner
    basis ("gb") and the Hilbert–Poincaré numerator of R/I
    ("hilbert_numerator").
    """

    def __init__(self, ring, generators):
        if not isinstance(ring, RingPresentation):
            raise StructuralError("ideal needs a ring presentation")
        self.ring = ring
        gens = []
        for f in generators:
            if f.ring != ring.ambient:
                raise StructuralError("generator from a different ambient ring")
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise StructuralError("ideal generators must be homogeneous")
            gens.append(f)
        self.generators = tuple(gens)
        self._memo = {}

    def __repr__(self):
        gens = ", ".join(str(f) for f in self.generators) or "0"
        return f"Ideal({gens})"

    def groebner(self):
        """Reduced Groebner basis of the generators and the relation basis, memoized."""
        return memoized(
            self,
            "gb",
            lambda: tuple(groebner_polys([*self.generators, *self.ring.relations_groebner()])),
        )

    def hilbert_numerator(self):
        """Numerator of HS(R/I) = N(t)/(1-t)^n, from the basis's lead terms."""
        return memoized(
            self,
            "hilbert_numerator",
            lambda: hilbert_numerator(
                [g.lead_monomial() for g in self.groebner()], self.ring.n
            ),
        )

    def is_zero(self):
        """True when I = 0 in R: every generator lies in the relations."""
        return all(self.ring.is_zero_in_quotient(f) for f in self.generators)

    def is_unit(self):
        gb = self.groebner()
        return any(g.degree() == 0 for g in gb)


def normal_form(f, basis):
    """Remainder of f modulo a Groebner basis (or any monic reducer list)."""
    return poly_normal_form(f, list(basis))


def buchberger(ideal):
    """Reduced Groebner basis of an ideal; see Ideal.groebner."""
    return ideal.groebner()


def contains(ideal, f):
    """Membership f in I, decided by normal form against the cached basis."""
    if f.is_zero():
        return True
    return poly_normal_form(f, list(ideal.groebner())).is_zero()


def ideal_sum(a, b):
    if a.ring != b.ring:
        raise StructuralError("ideals in different rings")
    return Ideal(a.ring, list(a.generators) + list(b.generators))


def ideal_power(ideal, t):
    """I^t, generated by t-fold products of generators, then minimalized."""
    if t < 0:
        raise DomainError("negative ideal power")
    if t == 0:
        warnings.warn("I^0 is the unit ideal by convention", stacklevel=2)
        return Ideal(ideal.ring, [ideal.ring.ambient.one])
    if t == 1:
        return ideal
    prods = []
    for combo in itertools.combinations_with_replacement(ideal.generators, t):
        f = combo[0]
        for g in combo[1:]:
            f = f * g
        prods.append(f)
    kept = minimal_generators(Ideal(ideal.ring, prods))
    return Ideal(ideal.ring, kept)


def frobenius_power(ideal, q):
    """Bracket power I^[q]: the ideal of q-th powers, q a power of char."""
    p = ideal.ring.field.characteristic
    if p == 0:
        raise DomainError("Frobenius powers need positive characteristic")
    m = q
    while m > 1 and m % p == 0:
        m //= p
    if m != 1:
        raise DomainError(f"{q} is not a power of the characteristic {p}")
    return Ideal(ideal.ring, [f**q for f in ideal.generators])


def ideal_intersection(a, b):
    """I cap J = {sum_j v_j f_j : v in modulo(f, J)}, f the generators of I.

    One ``syzygies_over`` call, over the ring, with I's generators as the
    columns of R^1 and J's generators as the relations: v is in the
    kernel exactly when sum_j v_j f_j lies in J.  These combinations,
    reduced modulo the relations and made monic, generate I cap J.
    """
    if a.ring != b.ring:
        raise StructuralError("ideals in different rings")
    ring = a.ring
    amb = ring.ambient
    gens = a.generators
    kernel = syzygies_over(
        ring, [poly_to_vec(f) for f in gens], (0,), [poly_to_vec(g) for g in b.generators]
    )
    out = []
    for v in kernel:
        h = amb.zero
        for j, f in enumerate(gens):
            h = h + f * vec_to_poly(amb, {t: c for t, c in v.items() if t[0] == j})
        out.append(ring.nf(h).monic())
    return Ideal(ring, out)


def ideal_colon(a, b):
    """(I : J) = {f : f J in I}, as one ``syzygies_over`` call.

    With g_1..g_k the generators of J, the column (g_1, ..., g_k) into
    the free module with twists -deg g_i has degree zero, and f lies in
    (I : J) exactly when f * (g_1, ..., g_k) lies in the span of the
    vectors I*e_i (and, over R = S/a, of a*e_i, which the routine adds).
    J = 0 gives the unit ideal.
    """
    if a.ring != b.ring:
        raise StructuralError("ideals in different rings")
    ring = a.ring
    gens = b.generators
    if not gens:
        return Ideal(ring, [ring.ambient.one])
    column = {t: c for i, g in enumerate(gens) for t, c in poly_to_vec(g, i).items()}
    rels = [poly_to_vec(f, i) for i in range(len(gens)) for f in a.generators]
    twists = tuple(-g.degree() for g in gens)
    kernel = syzygies_over(ring, [column], twists, rels)
    return Ideal(ring, [vec_to_poly(ring.ambient, v) for v in kernel])


def minimal_generators(ideal):
    """A minimal homogeneous generating subset, greedily by degree.

    Degree by degree, a candidate is kept iff it falls outside the ideal
    generated by the generators already kept (and the relations): graded
    Nakayama, by ``nakayama_minimal_subset`` on the generators as vectors
    of R^1, which decides each candidate by its normal form against a
    degree-truncated Groebner basis of the kept ones.  The survivors are
    returned as normal forms modulo the relations, in (degree, input
    index) order; their degrees are a canonical multiset even though the
    survivors themselves depend on the input order.
    """
    ring = ideal.ring
    gens = ideal.generators
    vectors = [poly_to_vec(f) for f in gens]
    return [ring.nf(gens[i]) for i in nakayama_minimal_subset(ring, (0,), vectors)]


def minimal_generator_degrees(ideal):
    return sorted(f.degree() for f in minimal_generators(ideal))


def hilbert_function(obj, degree):
    """dim_k of the degree piece of a ring presentation, of R/I for an
    Ideal, or of a module presentation: the t^degree coefficient of its
    memoized Hilbert–Poincaré series.  No degree piece is built."""
    return hilbert_coefficient(*_series(obj), degree)


def krull_dimension(obj):
    """Dimension of a ring presentation, of R/I for an Ideal, or of a module
    presentation: the pole order at t = 1 of its Hilbert–Poincaré series;
    -1 for the unit ideal and the zero module."""
    return series_dimension(*_series(obj))


def _series(obj):
    """The Hilbert numerator of ``obj`` and its ambient variable count."""
    ring = obj if isinstance(obj, RingPresentation) else obj.ring
    return obj.hilbert_numerator(), ring.n
