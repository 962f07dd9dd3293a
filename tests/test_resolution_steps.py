"""Hilbert-driven syzygy steps against the step loop they replaced.

``_reference_resolve`` is the loop of ``resolutions._resolve`` as it was
before the steps read the Hilbert series: every step runs its tagged
Buchberger run to the end (``syzygies_over``) and takes graded Nakayama
of all it found.  The new steps stop that run where the series proves
that no minimal syzygy is left, so they must return the same matrices,
entry for entry.  Also here: the certificate on its own
(``runs.HilbertRun``), Hilbert numerators of twisted modules, and the
typed errors of modules that become zero only after minimalization.
"""

import random
import sys
from math import comb

import pytest

from soclelab import modgb, resolutions, runs
from soclelab.errors import DomainError, StructuralError
from soclelab.fields import QQ, field_of
from soclelab.frobenius import frobenius_power
from soclelab.groebner import Ideal, ideal_power
from soclelab.localcoh import canonical_ideal, ideal_as_module, module_depth, regularity
from soclelab.modules import (
    _nakayama_run,
    ModulePresentation,
    block_columns,
    free_module,
    matrix_from_vectors,
    minimalize_presentation,
    nakayama_minimal_subset,
    quotient_module,
    s_presentation,
    syzygies_over,
)
from soclelab.monomials import laurent_add, monomials_of_degree
from soclelab.poly import PolyRing
from soclelab.resolutions import (
    _free_numerator,
    minimal_free_resolution,
    residue_field_resolution,
    syzygy,
    truncated_resolution,
)
from soclelab.rings import RingPresentation

# -- the reference: the step loop before the Hilbert series ------------------


def _reference_syzygy(matrix):
    ring = matrix.ring
    raw = syzygies_over(ring, block_columns(matrix), matrix.target)
    keep = nakayama_minimal_subset(ring, matrix.source, raw)
    return matrix_from_vectors(ring, matrix.source, [raw[i] for i in keep])


def _reference_resolve(module, steps=None):
    pres = minimalize_presentation(module)
    matrices = []
    if pres.matrix.cols and steps != 0:
        matrices.append(pres.matrix)
        while steps is None or len(matrices) < steps:
            nxt = _reference_syzygy(matrices[-1])
            if nxt.cols == 0:
                break
            matrices.append(nxt)
    return matrices


def _assert_same_matrices(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert (a.target, a.source) == (b.target, b.source)
        assert a.entries == b.entries


def _assert_resolution_matches(module):
    res = minimal_free_resolution(module)
    _assert_same_matrices(res.matrices, _reference_resolve(s_presentation(module)))
    assert res.check_complex() and res.check_minimal()


# -- inputs -----------------------------------------------------------------


def _random_form(rng, S, degree, terms):
    monos = monomials_of_degree(S.n, degree)
    f = S.zero
    field = S.field
    for _ in range(terms):
        m = S.one
        for v, k in zip(S.gens(), rng.choice(monos)):
            m = m * v**k
        f = f + m.scale(field.of(rng.randint(1, 9)))
    return f


def _random_ideals():
    """Seeded homogeneous ideals in 3-4 variables over GF(2), GF(101), QQ."""
    for char in (2, 101, 0):
        field = QQ if char == 0 else field_of(char)
        rng = random.Random(1600 + char)
        for n in (3, 4):
            S = PolyRing(field, ("x", "y", "z", "w")[:n])
            for _ in range(3):
                gens = [
                    _random_form(rng, S, rng.choice((2, 2, 3)), rng.randint(1, 3))
                    for _ in range(rng.randint(2, 4))
                ]
                gens = [f for f in gens if not f.is_zero()]
                yield pytest.param(RingPresentation(S, []), gens, id=f"{char}-{n}-{len(gens)}")


@pytest.mark.parametrize("R, gens", list(_random_ideals()))
def test_random_ideals_resolve_as_before(R, gens):
    _assert_resolution_matches(quotient_module(R, gens))


@pytest.mark.parametrize("char", [2, 101, 0])
def test_twisted_cubic_and_its_powers_resolve_as_before(char):
    field = QQ if char == 0 else field_of(char)
    S = PolyRing(field, ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S, [])
    curve = Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])
    for t in (1, 2, 3) if char else (1, 2):
        _assert_resolution_matches(quotient_module(R, list(ideal_power(curve, t).generators)))


def test_monomial_powers_twists_and_quotient_ring_modules_resolve_as_before(twisted_cubic):
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S, [])
    ideal = Ideal(R, [x * y, y * z, z * x])
    for t in (1, 2, 3):
        M = quotient_module(R, list(ideal_power(ideal, t).generators))
        _assert_resolution_matches(M)
        _assert_resolution_matches(M.twist(3))
        _assert_resolution_matches(M.twist(-2))
    # Modules over R = S/curve are folded into S-modules first.
    a, b, c, d = twisted_cubic.ambient.gens()
    for module in (
        quotient_module(twisted_cubic, []),
        quotient_module(twisted_cubic, [b, c]),
        quotient_module(twisted_cubic, [a**2, d]).twist(1),
        ideal_as_module(Ideal(twisted_cubic, [a, b])),
    ):
        _assert_resolution_matches(module)


def test_residue_field_over_the_twisted_cubic_truncates_as_before(twisted_cubic):
    res = residue_field_resolution(twisted_cubic, 4)
    k = quotient_module(twisted_cubic, twisted_cubic.ambient.gens())
    _assert_same_matrices(res.matrices, _reference_resolve(k, 4))
    a, b, c, d = twisted_cubic.ambient.gens()
    M = quotient_module(twisted_cubic, [b, c**2])
    _assert_same_matrices(truncated_resolution(M, 3).matrices, _reference_resolve(M, 3))


def _record_runs(monkeypatch):
    """Every ``Run.resume`` of a step: (kind, degree asked, certificate's answer)."""
    calls = []
    original = runs.Run.resume

    def resume(run, degree=None):
        out = original(run, degree)
        deficient = getattr(run, "deficient", None)
        calls.append((type(run).__name__, degree, deficient))
        return out

    monkeypatch.setattr(runs.Run, "resume", resume)
    return calls


def test_a_step_with_syzygies_in_two_degrees_resumes_once(twisted_cubic_gf2, monkeypatch):
    """The rank-2 module that gauge_scan resolves at e = 3 on the GF(2)
    twisted cubic: omega^[8] as an S-module.  Its second step keeps 4
    syzygies of degree 11 and 3 of degree 12.  The certificate of the
    first four finds degree 12 short, the tagged run resumes there once,
    and the second certificate holds."""
    omega = canonical_ideal(twisted_cubic_gf2).ideal
    M = ideal_as_module(frobenius_power(omega, 8))
    calls = _record_runs(monkeypatch)
    res = minimal_free_resolution(M)
    assert res.betti().rows() == [
        (0, 8, 2), (1, 10, 6), (1, 11, 2), (2, 11, 4), (2, 12, 3), (3, 14, 1)
    ]
    short = [c for c in calls if c[0] == "HilbertRun" and c[2] is not None]
    assert short == [("HilbertRun", None, 12)]
    resumed = [c for c in calls if c[0] == "TaggedRun" and c[1] == 12]
    assert len(resumed) == 1
    monkeypatch.undo()
    _assert_same_matrices(res.matrices, _reference_resolve(s_presentation(M)))


def test_stopped_runs_that_outgrow_their_code_tables_start_over(monkeypatch):
    """Exponents near 2^15: terms outgrow the first code table inside the
    tagged runs, the image runs and the certificates, which start over on
    wider fields and still give the reference matrices."""
    kinds = set()
    original = modgb._Outgrown.__init__

    def outgrown(error, *args):
        frame = sys._getframe(1)
        while frame is not None:
            kinds.add(type(frame.f_locals.get("self")).__name__)
            frame = frame.f_back
        original(error, *args)

    monkeypatch.setattr(modgb._Outgrown, "__init__", outgrown)
    S = PolyRing(field_of(101), ("x", "y", "z", "w"))
    x, y, z, w = S.gens()
    R = RingPresentation(S, [])
    e = 20000
    for gens in (
        [x**e * y + y**e * z, y**e * z + z**e * w, x * z, y * w],
        [x**e * y**2 + x**2 * y**e, z**e * x + z * y**e, x * y * z * w],
    ):
        _assert_resolution_matches(quotient_module(R, gens))
    assert {"TaggedRun", "_ImageRun", "HilbertRun"} <= kinds


def test_the_certificate_names_the_degree_of_a_missing_syzygy():
    """Mutation check: fed the kept syzygies of a step but one, the
    certificate returns that syzygy's degree (every kept one is a minimal
    generator, so without it the span is short in its degree and in no
    lower one); fed all of them it certifies, keeping each."""
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S, [])
    M = quotient_module(R, [x**2, x * y, y**3, y * z**2])
    d1 = minimalize_presentation(M).matrix
    kept = _reference_syzygy(d1)
    degrees = kept.source
    assert len(set(degrees)) > 1
    # HS(Z_1) = HS(F_1) - HS(F_0) + HS(M).
    kernel = _free_numerator(R, d1.source)
    laurent_add(kernel, _free_numerator(R, d1.target), scale=-1)
    laurent_add(kernel, M.hilbert_numerator())
    columns = block_columns(kept)
    for j, degree in enumerate(degrees):
        run = _nakayama_run(R, d1.source, (), kernel)
        run.add(columns[:j] + columns[j + 1 :])
        assert run.resume().deficient == degree
    run = _nakayama_run(R, d1.source, (), kernel)
    run.add(columns)
    assert run.resume().deficient is None
    assert run.kept == list(range(len(columns)))


def test_the_certificate_restarts_when_later_candidates_outgrow_its_table():
    """Fed the degree-4 syzygy of a step whose other syzygies have
    exponents above 2^15, the certificate runs on a 15-bit table and names
    degree 40002; the rest, added later, do not fit that table, so the run
    starts over on 16 bits and certifies, keeping what graded Nakayama
    keeps on the whole list."""
    S = PolyRing(field_of(101), ("x", "y", "z", "w"))
    x, y, z, w = S.gens()
    R = RingPresentation(S, [])
    e = 40000
    M = quotient_module(R, [x**e * y + y**e * z, y**e * z + z**e * w, x * z, y * w])
    d1 = minimalize_presentation(M).matrix
    kernel = _free_numerator(R, d1.source)
    laurent_add(kernel, _free_numerator(R, d1.target), scale=-1)
    laurent_add(kernel, M.hilbert_numerator())
    raw = syzygies_over(R, block_columns(d1), d1.target)
    degrees = [modgb.vec_degree(v, d1.source) for v in raw]
    assert degrees == sorted(degrees) and degrees[:2] == [4, 40002]
    run = _nakayama_run(R, d1.source, (), kernel)
    run.add(raw[:1])
    assert run.resume().deficient == 40002
    assert run.table.bits == 15
    run.add(raw[1:])
    assert run.resume().deficient is None
    assert run.table.bits == 16
    assert run.kept == nakayama_minimal_subset(R, d1.source, raw) == [0, 1, 2, 4, 5, 6]


def test_a_certificate_that_does_not_advance_raises(monkeypatch):
    """Mutation check: with span pivots no longer lowering D, the
    certificate names a degree that the tagged run has passed.  The step
    raises instead of resuming there again and again; the resumes are
    bounded so that a step that loops fails the test."""
    original_decide = runs.HilbertRun._decide

    def decide_without_lowering(run, *args):
        run._lower = lambda code: None
        try:
            original_decide(run, *args)
        finally:
            del run._lower

    resumes = []
    original_resume = runs.TaggedRun.resume

    def bounded_resume(run, degree=None):
        resumes.append(degree)
        if len(resumes) > 50:
            pytest.fail("the tagged run resumed more than 50 times")
        return original_resume(run, degree)

    monkeypatch.setattr(runs.HilbertRun, "_decide", decide_without_lowering)
    monkeypatch.setattr(runs.TaggedRun, "resume", bounded_resume)
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    curve = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    with pytest.raises(StructuralError, match="does not advance"):
        residue_field_resolution(curve, 3)


def _four_quadrics():
    """d_1 of S/(four seeded quadrics) in GF(32003)[a..e], with no image
    numerator in its memo, so that its syzygy step reads the kernel's
    Hilbert series off the tagged run and then certifies."""
    S = PolyRing(field_of(32003), ("a", "b", "c", "d", "e"))
    rng = random.Random(5)
    gens = [_random_form(rng, S, 2, 6) for _ in range(4)]
    d1 = minimalize_presentation(quotient_module(RingPresentation(S, []), gens)).matrix
    assert d1.source == (2, 2, 2, 2) and "image_numerator" not in d1._memo
    return d1


def test_a_kernel_series_that_misses_the_first_syzygies_raises(monkeypatch):
    """Mutation check: with the image's numerator off by one at t^1, the
    kernel's series starts in degree 1, below the first syzygies the
    tagged run found in degree 4."""
    d1 = _four_quadrics()
    original = runs.TaggedRun.quotient_numerator

    def off_by_one(run, n):
        numerator = dict(original(run, n))
        numerator[1] = numerator.get(1, 0) + 1
        return {k: v for k, v in numerator.items() if v}

    monkeypatch.setattr(runs.TaggedRun, "quotient_numerator", off_by_one)
    with pytest.raises(StructuralError, match="misses its first syzygies"):
        syzygy(d1)
    monkeypatch.undo()
    assert syzygy(d1).source == (4,) * 6


def test_a_certificate_numerator_too_low_raises(monkeypatch):
    """Mutation check: given the kernel's numerator lowered by one at its
    least degree, the certificate finds more leading terms there than the
    series allows."""
    d1 = _four_quadrics()
    original = resolutions._nakayama_run

    def lowered(ring, twists, rels, kernel):
        kernel = dict(kernel)
        kernel[min(kernel)] -= 1
        return original(ring, twists, rels, {k: v for k, v in kernel.items() if v})

    monkeypatch.setattr(resolutions, "_nakayama_run", lowered)
    with pytest.raises(StructuralError, match="outgrow the Hilbert series"):
        syzygy(d1)
    monkeypatch.undo()
    assert syzygy(d1).source == (4,) * 6


def _assert_certificates_keep_what_nakayama_keeps(matrices):
    """Every raw syzygy of each step's full tagged run, fed at once to the
    certificate with the kernel's true numerator HS(F_k) - HS(F_(k-1)) +
    HS(coker d_k): it certifies, keeping what the run without a series
    keeps on the same list.  Returns the fixed counts of the certificates."""
    fixed = []
    for d in matrices:
        ring = d.ring
        raw = syzygies_over(ring, block_columns(d), d.target)
        kernel = _free_numerator(ring, d.source)
        laurent_add(kernel, _free_numerator(ring, d.target), scale=-1)
        laurent_add(kernel, ModulePresentation(ring, d).hilbert_numerator())
        run = _nakayama_run(ring, d.source, (), kernel)
        run.add(raw)
        assert run.resume().deficient is None
        assert run.kept == nakayama_minimal_subset(ring, d.source, raw)
        fixed.append(run.nfixed)
    return fixed


@pytest.mark.parametrize("R, gens", list(_random_ideals()))
def test_certificates_keep_what_nakayama_keeps(R, gens):
    matrices = _reference_resolve(s_presentation(quotient_module(R, gens)))
    assert matrices
    _assert_certificates_keep_what_nakayama_keeps(matrices)


def test_certificates_over_the_twisted_cubic_keep_what_nakayama_keeps(twisted_cubic):
    matrices = residue_field_resolution(twisted_cubic, 3).matrices
    fixed = _assert_certificates_keep_what_nakayama_keeps(matrices)
    # Over R = S/curve the multiples of the curve's basis enter as ``fixed``.
    assert len(fixed) == 3 and min(fixed) > 0


# -- satellites ---------------------------------------------------------------


def _series_coefficient(laurent, n, d):
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in laurent.items() if k <= d)


def test_hilbert_numerators_of_negative_twists(twisted_cubic):
    R = twisted_cubic
    ring_numerator = R.hilbert_numerator()
    F = free_module(R, (-2,))
    assert F.hilbert_numerator() == {k - 2: c for k, c in enumerate(ring_numerator) if c}
    a, b, c, d = R.ambient.gens()
    M = quotient_module(R, [b, c])
    shifted = M.twist(3)
    assert shifted.hilbert_numerator() == {k - 3: v for k, v in M.hilbert_numerator().items()}
    for module in (F, M, shifted):
        for degree in range(-5, 6):
            assert _series_coefficient(module.hilbert_numerator(), R.n, degree) == module.piece(
                degree
            ).dim
    assert shifted.krull_dimension() == M.krull_dimension() == 1
    assert F.krull_dimension() == 2


def test_a_module_that_minimalizes_to_zero_has_no_regularity(presentation_xy, ring_xy):
    M = quotient_module(presentation_xy, [ring_xy.one])
    assert not M.is_zero()
    with pytest.raises(DomainError):
        regularity(M)


def test_a_module_that_minimalizes_to_zero_has_no_depth(presentation_xy, ring_xy):
    M = quotient_module(presentation_xy, [ring_xy.one])
    with pytest.raises(DomainError):
        module_depth(M)
