import time
from types import SimpleNamespace

import pytest

from soclelab.errors import HypothesisError
from soclelab.fields import field_of
from soclelab.groebner import Ideal, krull_dimension
from soclelab.localcoh import lc_end, socle_begin
from soclelab.modules import quotient_module
from soclelab.poly import NEG_INF, POS_INF, PolyRing
from soclelab.rings import RingPresentation
from soclelab.scans import criterion_check, lemma37_scan, scan_powers


@pytest.fixture(scope="module")
def setting():
    S = PolyRing(field_of(101), ("x", "y"))
    return S, RingPresentation(S)


def test_scan_powers_truncation_family(setting):
    S, R = setting
    x, y = S.gens()
    msquare = Ideal(R, [x**2, x * y, y**2])
    rows, summary = scan_powers(R, msquare, 4)
    values = {(r.t, r.j): r.socle_beg for r in rows}
    assert [values[(t, 0)] for t in range(1, 5)] == [1, 3, 5, 7]
    assert summary.witnesses["c_0"] is not None
    assert any("measured" in note for note in summary.notes)


def test_scan_powers_principal(setting):
    S, R = setting
    x, _ = S.gens()
    rows, _ = scan_powers(R, Ideal(R, [x]), 3)
    ends = {(r.t, r.j): r.lc_end for r in rows}
    # H^1 of S/(x^t) tops out at t - 2 (duality on the cyclic resolution).
    assert [ends[(t, 1)] for t in (1, 2, 3)] == [-1, 0, 1]
    assert all(ends[(t, 0)] == NEG_INF for t in (1, 2, 3))


def _oracle_nonzero_at_h0(monkeypatch):
    """Make the oracle see a socle class of M in every degree, where the
    duality route says H^0 of S/(x^t) vanishes."""
    from soclelab import scans

    true_stage = scans._koszul_stage

    def wrong(module, j, ell, s):
        return SimpleNamespace(dim=1) if j == 0 else true_stage(module, j, ell, s)

    monkeypatch.setattr(scans, "_koszul_stage", wrong)


def test_an_oracle_class_on_a_vanishing_row_raises(setting, monkeypatch):
    S, R = setting
    x, _ = S.gens()
    # H^0 of S/(x) vanishes; every row passes with the true oracle.
    rows, _ = scan_powers(R, Ideal(R, [x]), 2, oracle=True)
    assert [(r.j, r.lc_end, r.oracle_checked) for r in rows if r.t == 1] == [
        (0, NEG_INF, True),
        (1, -1, True),
    ]
    _oracle_nonzero_at_h0(monkeypatch)
    with pytest.raises(HypothesisError, match=r"j=0.*degree 0"):
        scan_powers(R, Ideal(R, [x]), 2, oracle=True)


def _curve():
    S = PolyRing(field_of(32003), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S)
    return R, Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])


def test_a_vanishing_row_at_the_depth_raises(monkeypatch):
    # depth S/I^2 = 1 on the twisted cubic, so H^1 cannot vanish: the
    # Koszul homology H_3(x; S/I^2) is nonzero, which the degree-0
    # sample of H^1 did not see.
    from soclelab import scans

    R, curve = _curve()
    true_end, true_socle = scans.lc_end, scans.socle_begin
    monkeypatch.setattr(scans, "lc_end", lambda j, m: NEG_INF if j == 1 else true_end(j, m))
    monkeypatch.setattr(
        scans, "socle_begin", lambda j, m: POS_INF if j == 1 else true_socle(j, m)
    )
    with pytest.raises(HypothesisError, match=r"j=1: H\^1 vanishes at j = depth M"):
        scan_powers(R, curve, 2, oracle=True)


def _unchecked_row_cases():
    S3 = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S3.gens()
    R3 = RingPresentation(S3)
    S4 = PolyRing(field_of(101), ("x", "y", "z", "w"))
    x4, y4, z4, w4 = S4.gens()
    R4 = RingPresentation(S4)
    yield "curve", *_curve(), 2, []
    yield "xy,yz,zx", R3, Ideal(R3, [x * y, y * z, z * x]), 4, []
    # S/I^t has depth 0 (x^(2t-1) is a socle class) and dimension 3, while
    # H^1 and H^2 vanish: I^t = x^t m^t has saturation (x^t).
    yield "x2,xy,xz,xw", R4, Ideal(R4, [x4**2, x4 * y4, x4 * z4, x4 * w4]), 2, [
        (1, 1), (1, 2), (2, 1), (2, 2)
    ]


@pytest.mark.parametrize("case", list(_unchecked_row_cases()), ids=lambda case: case[0])
def test_rows_between_depth_and_dimension_stay_unchecked(case):
    # A vanishing H^j with depth < j < dim has no finite proof; every
    # other row is proved or raises.
    _, R, ideal, t_max, expected = case
    rows, _ = scan_powers(R, ideal, t_max, oracle=True)
    unchecked = [(r.t, r.j) for r in rows if not r.oracle_checked]
    assert unchecked == expected
    assert all(r.lc_end == NEG_INF for r in rows if not r.oracle_checked)


def test_scan_rows_match_direct_calls(setting):
    S, R = setting
    x, y = S.gens()
    ideal = Ideal(R, [x**2, x * y])
    rows, _ = scan_powers(R, ideal, 1)
    module = quotient_module(R, list(ideal.generators))
    for row in rows:
        assert row.socle_beg == socle_begin(row.j, module)
        assert row.lc_end == lc_end(row.j, module)


def _dimension_cases():
    S3 = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S3.gens()
    R3 = RingPresentation(S3)
    S4 = PolyRing(field_of(101), ("a", "b", "c", "d"))
    a, b, c, d = S4.gens()
    curve = [a * c - b**2, a * d - b * c, b * d - c**2]
    R4 = RingPresentation(S4)
    tc = RingPresentation(S4, curve)
    yield "unit", Ideal(R3, [S3.one]), -1
    yield "zero", Ideal(R3, []), 3
    yield "m", Ideal(R3, [x, y, z]), 0
    yield "xy,yz,zx", Ideal(R3, [x * y, y * z, z * x]), 1
    yield "curve", Ideal(R4, curve), 2
    yield "(b,c) in S/curve", Ideal(tc, [b, c]), 1


@pytest.mark.parametrize("case", list(_dimension_cases()), ids=lambda case: case[0])
def test_module_dimension_equals_the_ideal_dimension(case):
    # scan_powers reads dim R/I^t off the module's relation basis, which
    # the oracle builds anyway, not off a second Groebner run of I^t.
    _, ideal, expected = case
    module = quotient_module(ideal.ring, list(ideal.generators))
    assert krull_dimension(ideal) == module.krull_dimension() == expected


def test_scan_powers_oracle_mode(setting):
    S, R = setting
    x, y = S.gens()
    rows, _ = scan_powers(R, Ideal(R, [x**2, x * y, y**2]), 2, oracle=True)
    assert all(r.oracle_checked for r in rows)


def test_criterion_check_passes_on_edge_case(setting):
    S, R = setting
    x, y = S.gens()
    rows, verdicts, d = criterion_check(R, Ideal(R, [x**2, x * y, y**2]), 2)
    assert d == 0
    assert all(v.passed for v in verdicts)
    assert all(v.vacuous for v in verdicts)


def test_criterion_check_non_vacuous(setting):
    S, R = setting
    x, y = S.gens()
    rows, verdicts, d = criterion_check(R, Ideal(R, [x**2, x * y]), 3)
    assert d == 1
    assert all(v.passed for v in verdicts)
    assert not any(v.vacuous for v in verdicts)
    by_t = {v.t: v for v in verdicts}
    assert by_t[1].c_prime == 1


def test_criterion_rows_shape(setting):
    S, R = setting
    x, y = S.gens()
    rows, verdicts, d = criterion_check(R, Ideal(R, [x**2, x * y]), 2)
    for row in rows:
        if row.j < d:
            assert len(row.ext_k) == d + 2
        else:
            assert row.ext_k == ()


def test_lemma37_principal(setting):
    S, R = setting
    x, _ = S.gens()
    rows, summary = lemma37_scan(R, Ideal(R, [x]), 3)
    assert [r.socle_beg_quotient for r in rows] == [-1, 0, 1]
    assert [r.socle_beg_ideal for r in rows] == [-1, 0, 1]
    assert all(r.difference == 0 for r in rows)
    assert summary.witnesses["equivalent_within_range"] is True


def test_lemma37_regular_base_trivial_hypothesis(setting):
    S, R = setting
    x, y = S.gens()
    rows, summary = lemma37_scan(R, Ideal(R, [x**2, x * y, y**2]), 1)
    module = quotient_module(R, [x**2, x * y, y**2])
    assert rows[0].socle_beg_quotient == socle_begin(1, module)
    assert rows[0].socle_beg_ideal is not None


def test_lemma37_refuses_infinite_h_lower():
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S, [x * y, x * z])
    with pytest.raises(HypothesisError):
        lemma37_scan(R, Ideal(R, [y]), 2)


def test_lemma37_accepts_hypersurface():
    S = PolyRing(field_of(101), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S, [x * y])
    rows, summary = lemma37_scan(R, Ideal(R, [x]), 2)
    assert len(rows) == 2


def test_lemma37_accepts_two_planes_meeting_in_a_point(monkeypatch):
    # H^1_m(R) = k in degree 0, so its dual Ext module has one generator,
    # in degree 0, and finite length.  The scan reads that off the dual's
    # Hilbert series and builds no resolution of the dual.
    from soclelab import localcoh, resolutions, scans

    duals, resolved = [], []
    true_ext_dual, true_resolution = scans.ext_dual, resolutions.minimal_free_resolution

    def recording_ext_dual(i, module):
        duals.append(true_ext_dual(i, module))
        return duals[-1]

    def recording_resolution(module):
        resolved.append(module)
        return true_resolution(module)

    monkeypatch.setattr(scans, "ext_dual", recording_ext_dual)
    for owner in (resolutions, localcoh, scans):
        monkeypatch.setattr(owner, "minimal_free_resolution", recording_resolution, raising=False)
    S = PolyRing(field_of(101), ("x", "y", "z", "w"))
    x, y, z, w = S.gens()
    R = RingPresentation(S, [x * z, x * w, y * z, y * w])
    rows, _ = lemma37_scan(R, Ideal(R, [x + z]), 2)
    assert [(r.t, r.socle_beg_quotient, r.socle_beg_ideal, r.difference) for r in rows] == [
        (1, 0, -1, 1),
        (2, 0, 0, 0),
    ]
    [dual] = duals
    assert dual.generator_degrees == (0,) and dual.krull_dimension() == 0
    assert resolved and not any(module is dual for module in resolved)


# Seconds budgeted for the oracle scan of the twisted cubic's powers to
# t = 3 over GF(32003); the assert allows five times that.  It is the one
# tier-1 run of the oracle on a non-monomial ideal: about 0.58 s on the
# Span-based pieces and 0.30-0.35 s on pieces read off the relation
# basis (2 cores, CPython 3.11.7).
CURVE_ORACLE_BUDGET_S = 0.4


def test_oracle_scan_of_the_twisted_cubic_powers():
    S = PolyRing(field_of(32003), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S)
    curve = Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])
    start = time.perf_counter()
    rows, _ = scan_powers(R, curve, 3, oracle=True)
    elapsed = time.perf_counter() - start
    assert [(r.t, r.j, r.lc_end, r.socle_beg, r.oracle_checked) for r in rows] == [
        (1, 0, NEG_INF, POS_INF, True),
        (1, 1, NEG_INF, POS_INF, True),
        (1, 2, -1, -1, True),
        (2, 0, NEG_INF, POS_INF, True),
        (2, 1, 2, 2, True),
        (2, 2, 1, 1, True),
        (3, 0, NEG_INF, POS_INF, True),
        (3, 1, 4, 4, True),
        (3, 2, 2, 2, True),
    ]
    assert elapsed < 5 * CURVE_ORACLE_BUDGET_S


# Seconds for the default oracle scan of the twisted cubic's powers to
# t = 6 over GF(32003): about 3.8 s (2 cores, CPython 3.11.7); the assert
# allows three times that.  Before the H^0 rows were proved on Soc(M),
# their degree-0 sample needed Koszul stage 11 at t = 6 and the scan
# raised UnstableLimitError.
CURVE_T6_BUDGET_S = 4.0


def test_the_default_oracle_scan_of_the_twisted_cubic_reaches_t6():
    S = PolyRing(field_of(32003), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S)
    curve = Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])
    start = time.perf_counter()
    rows, _ = scan_powers(R, curve, 6, oracle=True)
    elapsed = time.perf_counter() - start
    assert all(r.oracle_checked for r in rows)
    assert [(r.t, r.j, r.lc_end, r.socle_beg) for r in rows if r.t >= 4] == [
        (4, 0, NEG_INF, POS_INF),
        (4, 1, 6, 6),
        (4, 2, 4, 4),
        (5, 0, NEG_INF, POS_INF),
        (5, 1, 8, 8),
        (5, 2, 5, 5),
        (6, 0, NEG_INF, POS_INF),
        (6, 1, 10, 10),
        (6, 2, 7, 6),
    ]
    assert elapsed < 3 * CURVE_T6_BUDGET_S


def test_the_oracle_scan_of_the_triangle_ideal_to_t8():
    # (xy, yz, zx), the edge ideal of a triangle, over GF(101): every row
    # is checked by the Koszul oracle.  H^0(S/I^t) ends and begins its
    # socle at 2t - 1 from t = 2 on, H^1 ends at 2t - 2 and begins its
    # socle at floor(3t/2) - 1.  At t = 1, S/I is Cohen-Macaulay of
    # dimension 1: H^0 vanishes and H^1 is (0, 0).  About 0.25 s (2 cores,
    # CPython 3.11.7).
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    rows, _ = scan_powers(R, Ideal(R, [x * y, y * z, z * x]), 8, oracle=True)
    assert all(r.oracle_checked for r in rows)
    expected = [(1, 0, NEG_INF, POS_INF), (1, 1, 0, 0)]
    for t in range(2, 9):
        expected += [(t, 0, 2 * t - 1, 2 * t - 1), (t, 1, 2 * t - 2, 3 * t // 2 - 1)]
    assert [(r.t, r.j, r.lc_end, r.socle_beg) for r in rows] == expected


@pytest.mark.parametrize("scan", [scan_powers, criterion_check, lemma37_scan])
def test_scans_refuse_t_max_zero(setting, scan):
    S, R = setting
    x, _ = S.gens()
    with pytest.raises(HypothesisError, match="t_max must be >= 1"):
        scan(R, Ideal(R, [x]), 0)


def test_criterion_check_refuses_the_unit_ideal(setting):
    S, R = setting
    with pytest.raises(HypothesisError, match="proper ideal"):
        criterion_check(R, Ideal(R, [S.one]), 1)
