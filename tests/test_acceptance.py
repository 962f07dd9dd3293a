"""Acceptance suite: one test per acceptance criterion, zero tolerance.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s);
every equality is exact integer or exact rational arithmetic.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from soclelab.fields import field_of
from soclelab.frobenius import (
    canonical_frobenius_socle,
    socle_gauge_identity,
)
from soclelab.groebner import Ideal, frobenius_power, ideal_power
from soclelab.localcoh import (
    alpha_max,
    canonical_ideal,
    ext_dual,
    ext_k_piece,
    ideal_as_module,
    koszul_piece,
    kres_for,
    lc_end,
    regularity,
    socle_begin,
    socle_piece,
)
from soclelab.modules import free_module, module_hilbert, quotient_module
from soclelab.monomials import monomials_of_degree
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation
from soclelab.scans import criterion_check


def report(number, ok, text):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    """The named module corpus used by criteria 1, 5, and 6."""
    F = field_of(101)
    S2 = PolyRing(F, ("x", "y"))
    R2 = RingPresentation(S2)
    S3 = PolyRing(F, ("x", "y", "z"))
    R3 = RingPresentation(S3)
    S4 = PolyRing(F, ("a", "b", "c", "d"))
    a, b, c, d = S4.gens()
    TC = RingPresentation(S4, [a * c - b**2, a * d - b * c, b * d - c**2])
    x, y = S2.gens()

    def truncation(t):
        return quotient_module(R2, [S2.monomial(m) for m in monomials_of_degree(2, t)])

    entries = [
        ("S/m^1", truncation(1)),
        ("S/m^2", truncation(2)),
        ("S/m^3", truncation(3)),
        ("S/(xy)", quotient_module(R2, [x * y])),
        ("S/(x^2)", quotient_module(R2, [x**2])),
        ("S/(x^3)", quotient_module(R2, [x**3])),
        ("twisted cubic cone", quotient_module(TC, [])),
        ("S, n=2", free_module(R2, (0,))),
        ("S, n=3", free_module(R3, (0,))),
    ]
    return entries


def nonvanishing_indices(module):
    n = module.ring.ambient.n
    out = []
    for j in range(0, n + 1):
        if not ext_dual(n - j, module).is_zero():
            out.append(j)
    return out


def test_criterion_1_duality_vs_oracle(corpus):
    assert len(corpus) >= 8
    checked = 0
    for label, module in corpus:
        n = module.ring.ambient.n
        for j in nonvanishing_indices(module):
            sb = socle_begin(j, module)
            le = lc_end(j, module)
            dual = ext_dual(n - j, module)
            koszul_nonzero = []
            socle_nonzero = []
            for ell in range(sb - 2, le + 3):
                dim = koszul_piece(j, module, ell, s_max=12)[0]
                assert dim == module_hilbert(dual, -ell), (label, j, ell)
                if dim > 0:
                    koszul_nonzero.append(ell)
                if socle_piece(j, module, ell, s_max=12)[0] > 0:
                    socle_nonzero.append(ell)
            assert max(koszul_nonzero) == le, (label, j)
            assert min(socle_nonzero) == sb, (label, j)
            checked += 1
    report(
        1,
        checked >= len(corpus),
        f"duality route equals oracle in every window degree on {checked} (module, j) pairs "
        f"across {len(corpus)} corpus modules, exact",
    )


def brute_force_socle_begin_of_truncation(S2, cutoff):
    """Independent oracle: least degree of a socle element of S/m^cutoff.

    Works directly on monomial bases: a class of degree ell is socle iff
    multiplying by each variable lands in m^cutoff.
    """
    for ell in range(0, cutoff):
        dims = 0
        for m in monomials_of_degree(2, ell):
            if all(sum(m) + 1 >= cutoff for _ in range(2)):
                dims += 1
        if dims:
            return ell
    return None


def test_criterion_2_truncation_socle_formula():
    F = field_of(101)
    S2 = PolyRing(F, ("x", "y"))
    R2 = RingPresentation(S2)
    ok = True
    for t in range(1, 6):
        module = quotient_module(
            R2, [S2.monomial(m) for m in monomials_of_degree(2, 2 * t)]
        )
        value = socle_begin(0, module)
        oracle = brute_force_socle_begin_of_truncation(S2, 2 * t)
        ok = ok and value == oracle == 2 * t - 1
    report(2, ok, "socle_begin(0, S/m^(2t)) == 2t-1 for t = 1..5, exact")


def test_criterion_3_a_invariants(twisted_cubic):
    F = field_of(101)
    values = []
    for n in range(1, 5):
        S = PolyRing(F, tuple(f"x{i}" for i in range(n)))
        values.append(lc_end(n, free_module(RingPresentation(S), (0,))))
    S2 = PolyRing(F, ("x", "y"))
    x, y = S2.gens()
    hyper = lc_end(1, quotient_module(RingPresentation(S2), [x * y]))
    tc = lc_end(2, quotient_module(twisted_cubic, []))
    ok = values == [-1, -2, -3, -4] and hyper == 0 and tc == -1
    report(
        3,
        ok,
        f"lc_end(n, S) = {values}, lc_end(1, S/(xy)) = {hyper}, "
        f"lc_end(2, twisted cubic) = {tc}, all exact",
    )


def test_criterion_4_ext_lower_bound_randomized():
    rng = random.Random(991)
    F = field_of(7)
    S = PolyRing(F, ("x", "y"))
    x, y = S.gens()
    rings = [
        RingPresentation(S),
        RingPresentation(S, [x * y]),
        RingPresentation(S, [x**2 + y**2]),
        RingPresentation(S, [x**2]),
    ]
    instances = 0
    for ring in rings:
        kres_for(ring, 5)
        for _ in range(5):
            degree = rng.randrange(1, 3)
            gens = [
                S.monomial(m)
                for m in monomials_of_degree(2, degree)
                if rng.random() < 0.7
            ]
            shift = rng.randrange(-2, 3)
            module = quotient_module(ring, gens).twist(shift)
            if module.is_zero():
                continue
            beg = module.begin()
            for i in range(0, 4):
                alpha = alpha_max(ring, i, steps=5)
                if alpha is None:
                    continue
                bound = beg - alpha
                assert ext_k_piece(ring, i, module, bound - 1) == 0
                first = None
                for ell in range(bound, bound + 4):
                    if ext_k_piece(ring, i, module, ell) > 0:
                        first = ell
                        break
                if first is not None:
                    assert first >= bound
                instances += 1
    report(
        4,
        instances >= 20,
        f"beg Ext^i(k, M) >= beg(M) - alpha_i on {instances} randomized "
        f"(R, M, i) instances, no violations",
    )


def test_criterion_5_socle_count_certificate(corpus):
    checked = 0
    for label, module in corpus:
        n = module.ring.ambient.n
        for j in nonvanishing_indices(module):
            dual = ext_dual(n - j, module)
            mu = len(dual.generator_degrees)
            sb = socle_begin(j, module)
            le = lc_end(j, module)
            total = 0
            for ell in range(sb, le + 1):
                total += socle_piece(j, module, ell, s_max=12)[0]
            assert mu == total, (label, j, mu, total)
            checked += 1
    report(
        5,
        checked > 0,
        f"minimal generator count of the dual Ext module equals the "
        f"oracle's total socle dimension on {checked} (module, j) pairs",
    )


def test_criterion_6_regularity_double_computation(corpus):
    values = {}
    for label, module in corpus:
        # regularity() raises on any disagreement between its two routes.
        values[label] = regularity(module)
    expected = {
        "S/m^1": 0,
        "S/m^2": 1,
        "S/m^3": 2,
        "S/(xy)": 1,
        "S/(x^2)": 1,
        "S/(x^3)": 2,
        "twisted cubic cone": 1,
        "S, n=2": 0,
        "S, n=3": 0,
    }
    ok = values == expected
    report(6, ok, f"both regularity computations agree on the corpus: {values}")


def test_criterion_7_gauge_identity(twisted_cubic_gf2):
    checks = []
    for p in (2, 3):
        S = PolyRing(field_of(p), ("x", "y"))
        R = RingPresentation(S)
        can = canonical_ideal(R)
        for e in (1, 2):
            holds, lhs, rhs = socle_gauge_identity(R, can, e)
            checks.append(((f"k[x,y] p={p}", e), holds, lhs, rhs))
    S2 = PolyRing(field_of(2), ("x", "y"))
    x, y = S2.gens()
    hyper = RingPresentation(S2, [x * y])
    can_h = canonical_ideal(hyper)
    for e in (1, 2):
        holds, lhs, rhs = socle_gauge_identity(hyper, can_h, e)
        checks.append((("k[x,y]/(xy) p=2", e), holds, lhs, rhs))
    can_tc = canonical_ideal(twisted_cubic_gf2)
    for e in (1, 2):
        holds, lhs, rhs = socle_gauge_identity(twisted_cubic_gf2, can_tc, e)
        checks.append((("twisted cubic GF(2)", e), holds, lhs, rhs))
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} e={e}: {l}={r}" for (name, e), h, l, r in checks)
    report(7, ok, f"socle/gauge identity exact on all calibration cases ({detail})")


def test_criterion_8_criterion_check_corpus():
    F = field_of(101)
    S2 = PolyRing(F, ("x", "y"))
    x, y = S2.gens()
    R2 = RingPresentation(S2)
    S3 = PolyRing(F, ("x", "y", "z"))
    x3, y3, z3 = S3.gens()
    R3 = RingPresentation(S3)
    hyper = RingPresentation(S2, [x * y])
    cases = [
        ("k[x,y], m^2", R2, Ideal(R2, [x**2, x * y, y**2])),
        ("k[x,y], (x)", R2, Ideal(R2, [x])),
        ("k[x,y], (x^2,xy)", R2, Ideal(R2, [x**2, x * y])),
        ("k[x,y,z], (xy,xz)", R3, Ideal(R3, [x3 * y3, x3 * z3])),
        ("k[x,y]/(xy), (x)", hyper, Ideal(hyper, [x])),
    ]
    all_ok = True
    summary = []
    for label, ring, ideal in cases:
        rows, verdicts, d = criterion_check(ring, ideal, 3)
        ok = all(v.passed for v in verdicts)
        all_ok = all_ok and ok
        summary.append(f"{label} (d={d}): {'pass' if ok else 'FAIL'}")
    report(8, all_ok, "; ".join(summary))


def test_criterion_9_frobenius_canonical_bound(twisted_cubic_gf2):
    ring = twisted_cubic_gf2
    can = canonical_ideal(ring)
    ratios = []
    for e in (1, 2, 3):
        value = canonical_frobenius_socle(ring, can.ideal, e)
        ratios.append(Fraction(value, 2**e))
    witness = min(ratios)
    bounded = all(r >= witness for r in ratios)
    square = ideal_power(can.ideal, 2)
    bracket = frobenius_power(can.ideal, 2)
    s_power = socle_begin(2, ideal_as_module(square))
    s_bracket = socle_begin(2, ideal_as_module(bracket))
    ok = bounded and s_power == s_bracket
    report(
        9,
        ok,
        f"socle(omega^[q])/q ratios {[str(r) for r in ratios]} bounded below "
        f"by measured witness {witness}; omega^2 vs omega^[2] socle: "
        f"{s_power} == {s_bracket}",
    )


def test_criterion_10_determinism(tmp_path):
    path = tmp_path / "demo.ring"
    path.write_text(
        'field 101\nvars x, y\nideal I = "x^2", "x*y", "y^2"\n'
    )

    def run():
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "soclelab.cli",
                "scan-powers",
                str(path),
                "--ideal",
                "I",
                "--t-max",
                "4",
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0
        return proc.stdout

    def strip_timing(text):
        out = []
        for line in text.strip().split("\n"):
            if line.startswith("#") or "," not in line:
                out.append(line)
            else:
                out.append(",".join(line.split(",")[:-1]))
        return "\n".join(out)

    first, second = run(), run()
    ok = strip_timing(first) == strip_timing(second)
    report(10, ok, "two scan-powers runs byte-identical after dropping the timing column")
