"""Characteristic-p layer: Fedder modules, gauge degrees, and the socle identity.

For R = S/a in characteristic p the module Hom(F^e_* R, R) is computed
as the colon quotient (a^[q] : a)/a^[q] with q = p^e; its minimal
generator degrees D, normalized to alpha = (D - n(q-1))/q, are the gauge
degrees of the Cartier generators under the 1/q-grading of F^e_*.  The
normalization is pinned by requiring the exact identity

    socle_begin(d, omega^[q]) = q * (-max(alpha - a))

to hold on regular and Gorenstein calibration cases, and is then applied
unchanged everywhere.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .groebner import Ideal, frobenius_power, ideal_colon
from .localcoh import canonical_ideal, ideal_as_module, socle_begin
from .modgb import poly_to_vec
from .modules import nakayama_minimal_subset
from .rings import RingPresentation, memoized


@dataclass
class FedderReport:
    """Colon data of one Frobenius stage: (a^[q] : a) over a^[q]."""

    e: int
    q: int
    colon: Ideal
    generator_degrees: tuple
    mu: int


@dataclass
class GaugeRecord:
    """Gauge degrees and canonical socle data for one exponent."""

    e: int
    q: int
    fedder: FedderReport
    alphas: tuple
    max_alpha: Fraction
    socle_begin_canonical: int
    identity_lhs: int
    identity_rhs: int
    identity_holds: bool
    elapsed_ms: int = 0


def fedder_module(ring, e):
    """Minimal generator degrees of (a^[q] : a)/a^[q], with the colon ideal.

    Defined over the ambient polynomial ring.  By graded Nakayama the
    minimal generators of big/small are those of big/(m*big + small).
    One ``nakayama_minimal_subset`` call, with the colon generators as
    candidates and a^[q] as relations, keeps in increasing degree each
    generator whose normal form against a degree-truncated Groebner basis
    of a^[q] and the generators kept before it is not in the span of the
    earlier normal forms of its degree; the kept degrees come out in
    increasing order.  No degree piece of S is built, so the cost follows
    the Groebner basis, not the dimension of S in degree about nq: on the
    GF(2) twisted cubic, e = 7 (three generators of degree 424) takes
    about a second.  Without relations the colon is the unit ideal, with
    degrees (0,).  The report is memoized on ``ring`` under ("fedder", e),
    so a scan and its identity check share one colon computation per
    exponent.
    """
    p = ring.field.characteristic
    if p == 0:
        raise DomainError("Fedder modules need positive characteristic")
    if e < 0:
        raise DomainError("Frobenius exponent must be >= 0")
    return memoized(ring, ("fedder", e), lambda: _fedder_report(ring, e, p**e))


def _fedder_report(ring, e, q):
    amb = RingPresentation(ring.ambient, ())
    a_ideal = Ideal(amb, list(ring.relations))
    a_q = frobenius_power(a_ideal, q)
    colon = ideal_colon(a_q, a_ideal)
    gens = colon.generators
    rels = [poly_to_vec(g) for g in a_q.generators]
    kept = nakayama_minimal_subset(amb, (0,), [poly_to_vec(f) for f in gens], rels)
    degrees = tuple(gens[i].degree() for i in kept)
    return FedderReport(
        e=e, q=q, colon=colon, generator_degrees=degrees, mu=len(degrees)
    )


def cartier_degrees(report, n):
    """Gauge degrees alpha = (D - n(q-1))/q as exact rationals."""
    q = report.q
    return tuple(
        sorted(Fraction(d - n * (q - 1), q) for d in report.generator_degrees)
    )


def canonical_frobenius_socle(ring, omega_ideal, e):
    """socle_begin(d, omega^[q]) for the canonical ideal, as an S-module."""
    p = ring.field.characteristic
    if p == 0:
        raise DomainError("Frobenius powers need positive characteristic")
    q = p**e
    wq = frobenius_power(omega_ideal, q)
    module = ideal_as_module(wq)
    d = ring.dimension()
    return socle_begin(d, module)


def socle_gauge_identity(ring, canonical, e):
    """Both sides of the exact socle/gauge-degree identity at exponent e.

    Returns (holds, lhs, rhs) where lhs is the least socle degree of the
    top cohomology of omega^[q] and rhs = q * (-max(alpha - a)).
    Inequality is reported, never asserted.
    """
    lhs = canonical_frobenius_socle(ring, canonical.ideal, e)
    report = fedder_module(ring, e)
    alphas = cartier_degrees(report, ring.n)
    a = canonical.shift
    rhs_frac = report.q * (-(max(alphas) - a))
    if rhs_frac.denominator != 1:
        raise DomainError("gauge identity right side is not an integer")
    rhs = int(rhs_frac)
    return lhs == rhs, lhs, rhs


@dataclass
class GaugeVerdict:
    consistent: bool
    witness: Fraction
    attained_at: int
    note: str


def gauge_scan(ring, e_max, canonical=None):
    """Gauge records for e = 1..e_max plus a boundedness verdict.

    The verdict can only say "consistent": the witness constant is the
    measured maximum of the gauge degrees, the sequence is checked to
    attain it early and not increase afterwards, and the note says
    explicitly that finite data cannot decide the asymptotic property.
    """
    if e_max < 1:
        raise DomainError("e_max must be >= 1")
    if ring.field.characteristic == 0:
        raise DomainError("gauge scans need positive characteristic")
    if canonical is None:
        canonical = canonical_ideal(ring)
    import time

    records = []
    for e in range(1, e_max + 1):
        started = time.monotonic()
        report = fedder_module(ring, e)
        alphas = cartier_degrees(report, ring.n)
        holds, lhs, rhs = socle_gauge_identity(ring, canonical, e)
        records.append(
            GaugeRecord(
                e=e,
                q=report.q,
                fedder=report,
                alphas=alphas,
                max_alpha=max(alphas),
                socle_begin_canonical=lhs,
                identity_lhs=lhs,
                identity_rhs=rhs,
                identity_holds=holds,
                elapsed_ms=int((time.monotonic() - started) * 1000),
            )
        )
    seq = [r.max_alpha for r in records]
    witness = max(seq)
    attained = seq.index(witness) + 1
    early = attained <= max(1, (e_max + 1) // 2)
    tail_ok = all(seq[k] <= seq[k - 1] for k in range(attained, len(seq)))
    consistent = early and tail_ok
    if consistent:
        note = (
            f"consistent with gauge-boundedness: measured max gauge degree "
            f"{witness} attained at e={attained} and non-increasing afterwards; "
            f"finite data cannot decide the asymptotic property"
        )
    else:
        note = (
            "scan does not certify boundedness: the measured max gauge degree "
            "is still moving at the end of the computed range"
        )
    verdict = GaugeVerdict(
        consistent=consistent, witness=witness, attained_at=attained, note=note
    )
    return records, verdict
