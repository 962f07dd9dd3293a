"""Experiment scans over power families and Frobenius families.

Rows are computed one t (or e) value after another, in one thread, so
reports are deterministic; elapsed times are recorded per row but
excluded from any determinism contract.  Every
fitted constant these scans report is a measurement on the computed
range, nothing more.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, HypothesisError
from .groebner import ideal_power, krull_dimension
from .localcoh import (
    _koszul_stage,
    alpha_max,
    ext_dual,
    ext_k_begin,
    ideal_as_module,
    koszul_piece,
    kres_for,
    lc_end,
    socle_begin,
    socle_piece,
)
from .modules import quotient_module
from .poly import NEG_INF, POS_INF
from .resolutions import minimal_free_resolution


@dataclass
class ScanRow:
    """One (t, j) row of a power or criterion scan; sentinel degrees stay as floats."""

    t: int
    j: int
    lc_end: object
    socle_beg: object
    ext_k: tuple = ()
    oracle_checked: bool = False
    elapsed_ms: int = 0


@dataclass
class ScanSummary:
    kind: str
    witnesses: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _fit_max(values):
    """max over finite entries of value(t)/t, as an exact Fraction."""
    finite = [Fraction(v, t) for t, v in values if v not in (POS_INF, NEG_INF)]
    return max(finite) if finite else None


def scan_powers(ring, ideal, t_max, oracle=False, s_max=10):
    """lc_end and socle_begin of H^j(R/I^t) for t = 1..t_max, all j.

    With ``oracle`` on, each row is checked against the Koszul-limit
    route (``_oracle_spot_check``).  A vanishing H^j is proved by depth:
    H^j_m(M) = 0 for j < depth M (Bruns-Herzog 3.5.7), with depth M read
    off the Koszul homology on the variables (1.6.17), while H^depth and
    H^dim never vanish and are refused.  A vanishing row with
    depth M < j < dim M has no finite proof and keeps
    ``oracle_checked=False``.  The Betti window lo..reg that the rule
    reads is its only datum shared with the duality route.
    """
    if t_max < 1:
        raise HypothesisError("t_max must be >= 1")

    rows = []
    for t in range(1, t_max + 1):
        it = ideal_power(ideal, t)
        module = quotient_module(ring, list(it.generators))
        d = module.krull_dimension()
        for j in range(0, max(d, 0) + 1):
            row_start = time.monotonic()
            e_val = lc_end(j, module)
            s_val = socle_begin(j, module)
            checked = False
            if oracle:
                checked = _oracle_spot_check(module, j, s_val, e_val, s_max)
            rows.append(
                ScanRow(
                    t=t,
                    j=j,
                    lc_end=e_val,
                    socle_beg=s_val,
                    oracle_checked=checked,
                    elapsed_ms=int((time.monotonic() - row_start) * 1000),
                )
            )
    summary = ScanSummary(kind="powers")
    js = sorted({r.j for r in rows})
    for j in js:
        c_j = _fit_max([(r.t, -r.socle_beg) for r in rows if r.j == j])
        slope = _fit_max([(r.t, r.lc_end) for r in rows if r.j == j])
        summary.witnesses[f"c_{j}"] = c_j
        summary.witnesses[f"end_slope_{j}"] = slope
    summary.notes.append(
        "witness constants are measured on the computed range only"
    )
    return rows, summary


def _oracle_spot_check(module, j, socle_val, end_val, s_max=10):
    """Cross-check duality values against the Koszul-limit oracle: nonzero
    at the end and socle degrees, zero just past the end and no socle
    just below its begin.  Raises HypothesisError on a disagreement.

    A vanishing H^j is decided by depth.  The Koszul homology on the
    variables detects it: depth M = n - max{i : H_i(x; M) != 0}
    (Bruns-Herzog, Cohen-Macaulay Rings, 1.6.17), and H^j_m(M) vanishes
    for j < depth M, but not at j = depth M nor at j = dim M (3.5.7).
    H_i(x; M)_a is stage 1 of the oracle at index n - i in degree a - n,
    with no stage cap, and its dimension is beta_{i,a}, zero outside
    lo + i <= a <= reg + i.  So the rule reads i = n, n - 1, ..., n - j
    in turn over that window, and the first nonzero H_i decides:

    * none: depth M > j, so H^j vanishes and the row is proved (True);
    * i = n - j: j = depth M, where H^j never vanishes; raises;
    * i > n - j with j = dim M (Hilbert series): H^dim never vanishes;
      raises;
    * otherwise depth M < j < dim M, where no finite probe is known to
      decide H^j = 0: the row stays unchecked (False).

    At j = 0 the rule reads Soc(M) = H_n(x; M)(-n) in degrees lo..reg.
    lo, the least twist of F_0, and reg are read off the minimal free
    resolution; they are the only datum the rule shares with the
    duality route.
    """
    if socle_val in (POS_INF, NEG_INF) or end_val in (POS_INF, NEG_INF):
        n = module.ring.n
        entries = minimal_free_resolution(module).betti().entries
        low = min((a for i, a in entries if i == 0), default=0)
        reg = max((a - i for i, a in entries), default=low - 1)
        for i in range(n, n - j - 1, -1):
            for ell in range(low + i - n, reg + i - n + 1):
                if _koszul_stage(module, n - i, ell, 1).dim:
                    if i > n - j and j != module.krull_dimension():
                        return False
                    raise HypothesisError(
                        f"oracle disagrees with duality route at j={j}: H^{j} vanishes "
                        f"at j = {'depth' if i == n - j else 'dim'} M (H^{n - i}(x; M) "
                        f"is nonzero in degree {ell}, so depth M = {n - i})"
                    )
        return True
    top, _ = koszul_piece(j, module, end_val, s_max)
    past, _ = koszul_piece(j, module, end_val + 1, s_max)
    soc, _ = socle_piece(j, module, socle_val, s_max)
    below, _ = socle_piece(j, module, socle_val - 1, s_max)
    ok = top > 0 and past == 0 and soc > 0 and below == 0
    if not ok:
        raise HypothesisError(
            f"oracle disagrees with duality route at j={j}: "
            f"end {end_val} -> ({top},{past}), socle {socle_val} -> ({soc},{below})"
        )
    return True


@dataclass
class CriterionVerdict:
    t: int
    c_prime: object
    alpha_d: object
    bound: object
    socle_beg_top: object
    passed: bool
    vacuous: bool


def criterion_check(ring, ideal, t_max, truncation=None):
    """Check the spectral-sequence lower bound on top socle degrees.

    For each t: measure beg Ext^i(k, H^j(R/I^t)) for j < d, i < d + 2,
    fit c'(t) as the largest -value/t, and test

        socle_begin(d, R/I^t) >= min(-c'(t) t, -alpha_d).

    The inequality is a theorem, so a failed row indicates a pipeline
    bug; rows are reported either way.
    """
    if t_max < 1:
        raise HypothesisError("t_max must be >= 1")
    if truncation is not None and truncation < 0:
        raise DomainError("truncation must be >= 0")
    d = krull_dimension(ideal)
    if d < 0:
        raise HypothesisError("criterion scan needs a proper ideal")
    depth_steps = truncation if truncation is not None else d + 2
    kres_for(ring, max(depth_steps, 1))
    a_d = alpha_max(ring, d, steps=depth_steps)

    rows, verdicts = [], []
    for t in range(1, t_max + 1):
        it = ideal_power(ideal, t)
        module = quotient_module(ring, list(it.generators))
        for j in range(d + 1):
            row_start = time.monotonic()
            # Ext^i(k, H^j) for i < d + 2 below the top index, none at j = d.
            evals = tuple(
                ext_k_begin(i, j, module, truncation=depth_steps)
                for i in range(d + 2 if j < d else 0)
            )
            rows.append(
                ScanRow(
                    t=t,
                    j=j,
                    lc_end=lc_end(j, module),
                    socle_beg=socle_begin(j, module),
                    ext_k=evals,
                    elapsed_ms=int((time.monotonic() - row_start) * 1000),
                )
            )
        finite_cs = [Fraction(-v, t) for r in rows[-d - 1:] for v in r.ext_k
                     if v not in (POS_INF, NEG_INF)]
        top_socle = rows[-1].socle_beg
        c_prime = max(finite_cs) if finite_cs else None
        candidates = []
        if c_prime is not None:
            candidates.append(Fraction(-c_prime * t))
        if a_d is not None:
            candidates.append(Fraction(-a_d))
        bound = min(candidates) if candidates else NEG_INF
        verdicts.append(
            CriterionVerdict(
                t=t,
                c_prime=c_prime,
                alpha_d=a_d,
                bound=bound,
                socle_beg_top=top_socle,
                passed=top_socle >= bound,
                vacuous=c_prime is None,
            )
        )
    return rows, verdicts, d


@dataclass
class PairedRow:
    t: int
    socle_beg_quotient: object
    socle_beg_ideal: object
    difference: object
    elapsed_ms: int = 0


def lemma37_scan(ring, ideal, t_max):
    """Paired socle sequences: H^{d-1}(R/I^t) against H^d(I^t).

    Requires H^{d-1}(R) to be finitely generated; the check is exact:
    the dual Ext module must have finite length, that is Krull dimension
    at most 0, read off its Hilbert series.  Refusal raises
    HypothesisError.
    """
    if t_max < 1:
        raise HypothesisError("t_max must be >= 1")
    d = ring.dimension()
    n = ring.n
    if d >= 1 and ext_dual(n - (d - 1), quotient_module(ring, [])).krull_dimension() > 0:
        raise HypothesisError(
            f"H^{d-1} of the ring is not finitely generated "
            f"(dual Ext module has positive dimension); scan refused"
        )

    rows = []
    for t in range(1, t_max + 1):
        started = time.monotonic()
        it = ideal_power(ideal, t)
        quotient = quotient_module(ring, list(it.generators))
        s_quot = socle_begin(d - 1, quotient) if d >= 1 else POS_INF
        ideal_module = ideal_as_module(it)
        s_ideal = socle_begin(d, ideal_module)
        if s_quot in (POS_INF, NEG_INF) or s_ideal in (POS_INF, NEG_INF):
            diff = None
        else:
            diff = s_quot - s_ideal
        rows.append(
            PairedRow(
                t=t,
                socle_beg_quotient=s_quot,
                socle_beg_ideal=s_ideal,
                difference=diff,
                elapsed_ms=int((time.monotonic() - started) * 1000),
            )
        )
    c_quot = _fit_max([(r.t, -r.socle_beg_quotient) for r in rows])
    c_ideal = _fit_max([(r.t, -r.socle_beg_ideal) for r in rows])
    both_bounded = (c_quot is None) == (c_ideal is None)
    summary = ScanSummary(kind="lemma37")
    summary.witnesses["c_quotient"] = c_quot
    summary.witnesses["c_ideal"] = c_ideal
    summary.witnesses["equivalent_within_range"] = both_bounded
    summary.notes.append(
        "both sequences measured on the computed range; the equivalence "
        "statement is about linear boundedness and finite data can only "
        "report consistency"
    )
    return rows, summary
