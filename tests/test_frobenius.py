import time
from fractions import Fraction

import pytest

import soclelab.groebner
from soclelab.errors import DomainError
from soclelab.fields import field_of
from soclelab.frobenius import (
    canonical_frobenius_socle,
    cartier_degrees,
    fedder_module,
    gauge_scan,
    socle_gauge_identity,
)
from soclelab.groebner import Ideal, contains, frobenius_power, ideal_power
from soclelab.localcoh import canonical_ideal, ideal_as_module, socle_begin
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation


@pytest.fixture(scope="module")
def S2():
    return PolyRing(field_of(2), ("x", "y"))


@pytest.fixture(scope="module")
def RS2(S2):
    return RingPresentation(S2)


@pytest.fixture(scope="module")
def hypersurface(S2):
    x, y = S2.gens()
    return RingPresentation(S2, [x * y])


def test_fedder_polynomial_ring(RS2):
    rep = fedder_module(RS2, 1)
    assert rep.q == 2
    assert rep.colon.is_unit()
    assert rep.generator_degrees == (0,)
    assert rep.mu == 1


def test_fedder_hypersurface(S2, hypersurface):
    rep = fedder_module(hypersurface, 1)
    assert rep.generator_degrees == (2,)
    assert rep.mu == 1
    x, y = S2.gens()
    from soclelab.groebner import minimal_generators

    amb = RingPresentation(S2)
    assert minimal_generators(rep.colon) == [x * y]


def test_fedder_principal_char3():
    S = PolyRing(field_of(3), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S, [x])  # a = (x); (x^3 : x) = (x^2)
    rep = fedder_module(R, 1)
    assert rep.generator_degrees == (2,)


def test_fedder_char_zero_rejected():
    S = PolyRing(field_of(0), ("x",))
    with pytest.raises(DomainError):
        fedder_module(RingPresentation(S), 1)


def test_fedder_colon_contains_bracket_and_multiplies_in(twisted_cubic_gf2):
    ring = twisted_cubic_gf2
    amb = RingPresentation(ring.ambient)
    a_ideal = Ideal(amb, list(ring.relations))
    for e in (1, 2):
        rep = fedder_module(ring, e)
        bracket = frobenius_power(a_ideal, rep.q)
        for g in bracket.generators:
            assert contains(rep.colon, g)
        from soclelab.groebner import minimal_generators

        for f in minimal_generators(rep.colon):
            for g in a_ideal.generators:
                assert contains(bracket, f * g)


def test_fedder_degrees_independent_of_generating_set(twisted_cubic_gf2):
    ring = twisted_cubic_gf2
    f1, f2, f3 = ring.relations
    fat = RingPresentation(ring.ambient, [f1, f2, f3, f1 + f2, f2 + f3])
    for e in (1, 2):
        assert (
            fedder_module(ring, e).generator_degrees
            == fedder_module(fat, e).generator_degrees
        )


def test_cartier_degrees_normalization(RS2, hypersurface):
    rep = fedder_module(RS2, 1)
    assert cartier_degrees(rep, 2) == (Fraction(-1),)
    rep2 = fedder_module(hypersurface, 1)
    assert cartier_degrees(rep2, 2) == (Fraction(0),)


def test_cartier_degrees_degenerate_exponent_zero(RS2):
    rep = fedder_module(RS2, 0)
    assert rep.q == 1
    assert cartier_degrees(rep, 2) == tuple(
        Fraction(d) for d in rep.generator_degrees
    )


def test_canonical_frobenius_socle_gorenstein(S2, hypersurface):
    can = canonical_ideal(hypersurface)
    assert canonical_frobenius_socle(hypersurface, can.ideal, 1) == socle_begin(
        1, ideal_as_module(Ideal(hypersurface, [S2.one]))
    )
    assert canonical_frobenius_socle(hypersurface, can.ideal, 1) == 0


def test_identity_regular_calibration():
    for p in (2, 3):
        S = PolyRing(field_of(p), ("x", "y"))
        R = RingPresentation(S)
        can = canonical_ideal(R)
        for e in (1, 2):
            holds, lhs, rhs = socle_gauge_identity(R, can, e)
            assert holds and lhs == rhs == -2


def test_identity_three_variables():
    S = PolyRing(field_of(2), ("x", "y", "z"))
    R = RingPresentation(S)
    can = canonical_ideal(R)
    for e in (1, 2):
        holds, lhs, rhs = socle_gauge_identity(R, can, e)
        assert holds and lhs == rhs == -3


def test_identity_gorenstein_hypersurfaces(hypersurface):
    can = canonical_ideal(hypersurface)
    for e in (1, 2):
        holds, lhs, rhs = socle_gauge_identity(hypersurface, can, e)
        assert holds and lhs == rhs == 0
    S = PolyRing(field_of(2), ("x", "y", "z"))
    x, y, z = S.gens()
    cubic = RingPresentation(S, [x**3 + y**2 * z + y * z**2])
    can2 = canonical_ideal(cubic)
    for e in (1, 2):
        holds, lhs, rhs = socle_gauge_identity(cubic, can2, e)
        assert holds


def test_identity_twisted_cubic(twisted_cubic_gf2):
    can = canonical_ideal(twisted_cubic_gf2)
    for e in (1, 2):
        holds, lhs, rhs = socle_gauge_identity(twisted_cubic_gf2, can, e)
        assert holds


def test_power_vs_bracket_socle_twisted_cubic(twisted_cubic_gf2):
    can = canonical_ideal(twisted_cubic_gf2)
    square = ideal_power(can.ideal, 2)
    bracket = frobenius_power(can.ideal, 2)
    s_power = socle_begin(2, ideal_as_module(square))
    s_bracket = socle_begin(2, ideal_as_module(bracket))
    assert s_power == s_bracket


def test_gauge_scan_regular(RS2):
    records, verdict = gauge_scan(RS2, 3)
    assert [r.max_alpha for r in records] == [
        Fraction(-1),
        Fraction(-3, 2),
        Fraction(-7, 4),
    ]
    assert verdict.consistent
    assert all(r.identity_holds for r in records)
    assert "measured" in verdict.note
    assert "prove" not in verdict.note


def test_gauge_scan_hypersurface(hypersurface):
    records, verdict = gauge_scan(hypersurface, 3)
    assert [r.max_alpha for r in records] == [Fraction(0)] * 3
    assert verdict.consistent
    assert verdict.witness == 0


def test_gauge_scan_twisted_cubic(twisted_cubic_gf2):
    records, verdict = gauge_scan(twisted_cubic_gf2, 3)
    assert all(r.identity_holds for r in records)
    assert verdict.consistent
    assert [r.max_alpha for r in records] == [
        Fraction(0),
        Fraction(-1, 2),
        Fraction(-1, 2),
    ]


def test_gauge_scan_char_zero_rejected():
    S = PolyRing(field_of(0), ("x",))
    with pytest.raises(DomainError):
        gauge_scan(RingPresentation(S), 2)


def test_fedder_module_is_computed_once_per_exponent(monkeypatch):
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    tc = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    calls = []
    colon = soclelab.groebner.ideal_colon

    def counting(*args):
        calls.append(args)
        return colon(*args)

    monkeypatch.setattr("soclelab.frobenius.ideal_colon", counting)
    records, _ = gauge_scan(tc, 2)
    assert len(calls) == 2
    assert [r.fedder for r in records] == [fedder_module(tc, 1), fedder_module(tc, 2)]
    assert fedder_module(tc, 2) is records[1].fedder
    assert len(calls) == 2


def test_fedder_module_is_one_kernel_and_one_nakayama_pass(monkeypatch):
    # The degrees come from graded Nakayama on the colon's generators over
    # a^[q]: no Groebner basis or Hilbert series of its own, so the one
    # engine run is the colon's kernel.
    import sys

    import soclelab.modgb
    import soclelab.modules

    calls = {}

    def count(name, original, modules):
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)

    package = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "soclelab"]
    # Ideal.groebner's runs; the ambient ring's empty relation basis in
    # ``rings`` never reaches the engine.
    count("groebner_polys", soclelab.modgb.groebner_polys, [soclelab.groebner])
    count("buchberger_vectors", soclelab.modgb.buchberger_vectors, package)
    count("syzygies_over", soclelab.modules.syzygies_over, package)
    count("nakayama_minimal_subset", soclelab.modules.nakayama_minimal_subset, package)
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    tc = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    for e in (1, 2, 3):
        calls.update(dict.fromkeys(calls, 0))
        fedder_module(tc, e)
        assert calls == {
            "groebner_polys": 0,
            "buchberger_vectors": 1,
            "syzygies_over": 1,
            "nakayama_minimal_subset": 1,
        }


def test_fedder_module_e5_on_the_twisted_cubic():
    # (a^[32] : a) on the GF(2) twisted cubic: one kernel call, three
    # minimal generators of degree 104 over a^[32].
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    tc = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    report = fedder_module(tc, 5)
    assert (report.q, report.generator_degrees, report.mu) == (32, (104, 104, 104), 3)


# Seconds budgeted for fedder_module at e = 6 and 7 on the GF(2) twisted
# cubic; the asserts allow five times that.  Before the degree-truncated
# Nakayama run they took 6.7 s and 37 s (5.3 GB), building the degree-210
# and degree-424 pieces of S.
FEDDER6_BUDGET_S = 0.3
FEDDER7_BUDGET_S = 1.0


def _timed_fedder(e):
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    tc = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    start = time.perf_counter()
    report = fedder_module(tc, e)
    return report, time.perf_counter() - start


def test_fedder_module_e6_on_the_twisted_cubic():
    report, elapsed = _timed_fedder(6)
    assert elapsed < 5 * FEDDER6_BUDGET_S
    assert (report.q, report.generator_degrees, report.mu) == (64, (210,), 1)


def test_fedder_module_e7_on_the_twisted_cubic():
    report, elapsed = _timed_fedder(7)
    assert elapsed < 5 * FEDDER7_BUDGET_S
    assert (report.q, report.generator_degrees, report.mu) == (128, (424, 424, 424), 3)
