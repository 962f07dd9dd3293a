import pytest

from soclelab.errors import StructuralError, TruncationError
from soclelab.fields import field_of
from soclelab.groebner import Ideal, minimal_generator_degrees
from soclelab.localcoh import ideal_as_module
from soclelab.modules import (
    GradedMatrix,
    ModulePresentation,
    block_columns,
    free_module,
    matrix_from_vectors,
    module_hilbert,
    quotient_module,
    s_presentation,
)
from soclelab.monomials import monomials_of_degree
from soclelab.poly import Polynomial, PolyRing
from soclelab.resolutions import (
    minimal_free_resolution,
    module_hom,
    module_kernel_image,
    residue_field_resolution,
    syzygy,
    tor_residue_field,
    truncated_resolution,
)
from soclelab.rings import RingPresentation


def hf_free(twists, ell, n):
    return sum(
        len(monomials_of_degree(n, ell - t)) if ell - t >= 0 else 0 for t in twists
    )


def test_koszul_resolution(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    res = minimal_free_resolution(quotient_module(presentation_xy, [x, y]))
    assert res.twist_lists() == [(0,), (1, 1), (2,)]
    assert res.check_complex() and res.check_minimal()


def test_syzygy_of_two_variables(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    mat = GradedMatrix(presentation_xy, (0,), (1, 1), [[x, y]])
    sz = syzygy(mat)
    assert sz.cols == 1
    col = [sz.entries[0][0], sz.entries[1][0]]
    # The Koszul relation up to a scalar: (y, -x).
    assert {f.monic() for f in col} == {y, x}
    assert (mat.compose(sz)).is_zero()


def test_syzygy_of_single_variable_over_univariate():
    S = PolyRing(field_of(101), ("x",))
    R = RingPresentation(S)
    mat = GradedMatrix(R, (0,), (1,), [[S.var(0)]])
    assert syzygy(mat).cols == 0


def test_syzygy_of_quadratic_monomials(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    mat = GradedMatrix(presentation_xy, (0,), (2, 2, 2), [[x**2, x * y, y**2]])
    sz = syzygy(mat)
    assert sz.cols == 2
    assert all(t == 3 for t in sz.source)
    assert mat.compose(sz).is_zero()


def test_free_module_resolves_trivially(presentation_xy):
    res = minimal_free_resolution(free_module(presentation_xy, (0, 3)))
    assert res.length == 0
    assert res.twist_lists() == [(0, 3)]


def test_twisted_cubic_resolution(twisted_cubic):
    module = quotient_module(twisted_cubic, [])
    res = minimal_free_resolution(module)
    assert res.twist_lists() == [(0,), (2, 2, 2), (3, 3)]
    assert res.check_complex() and res.check_minimal()
    for ell in range(0, 7):
        alt = sum(
            (-1) ** i * hf_free(tw, ell, 4) for i, tw in enumerate(res.twist_lists())
        )
        assert alt == module_hilbert(module, ell)


def test_hilbert_series_exactness(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    module = quotient_module(presentation_xy, [x**3 - x * y**2, x**2 * y])
    res = minimal_free_resolution(module)
    assert res.check_complex() and res.check_minimal()
    for ell in range(0, 8):
        alt = sum(
            (-1) ** i * hf_free(tw, ell, 2) for i, tw in enumerate(res.twist_lists())
        )
        assert alt == module_hilbert(module, ell)


def test_resolution_terminates_by_variable_count(presentation_xyz, ring_xyz):
    x, y, z = ring_xyz.gens()
    module = quotient_module(presentation_xyz, [x * y, y * z, x * z, x**2 - y**2])
    res = minimal_free_resolution(module)
    assert res.length <= 3


def test_betti_zero_row_matches_ideal_generator_degrees(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    ideal = Ideal(presentation_xy, [x**2, x * y, y**3, x**3])
    module = ideal_as_module(ideal)
    assert sorted(module.generator_degrees) == minimal_generator_degrees(ideal)


def test_residue_field_resolution_hypersurface():
    S = PolyRing(field_of(101), ("x",))
    x = S.var(0)
    R = RingPresentation(S, [x**2])
    kres = residue_field_resolution(R, 5)
    assert [kres.module_twists(i) for i in range(6)] == [
        (0,),
        (1,),
        (2,),
        (3,),
        (4,),
        (5,),
    ]
    assert kres.check_complex()


def test_residue_field_resolution_regular(presentation_xy):
    kres = residue_field_resolution(presentation_xy, 3)
    assert kres.module_twists(1) == (1, 1)
    assert kres.module_twists(2) == (2,)
    assert kres.module_twists(3) == ()
    assert kres.complete


def test_residue_field_resolution_zero_steps(presentation_xy):
    kres = residue_field_resolution(presentation_xy, 0)
    assert kres.length == 0
    assert kres.f0_twists == (0,)


def test_tor_residue_field_koszul(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    k = quotient_module(presentation_xy, [x, y])
    kres = residue_field_resolution(presentation_xy, 3)
    assert tor_residue_field(presentation_xy, 0, k, kres) == {0: 1}
    assert tor_residue_field(presentation_xy, 1, k, kres) == {1: 2}
    assert tor_residue_field(presentation_xy, 2, k, kres) == {2: 1}
    assert tor_residue_field(presentation_xy, 3, k, kres) == {}


def test_tor_zero_is_nakayama(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    module = quotient_module(presentation_xy, [x**2, x * y, y**2])
    kres = residue_field_resolution(presentation_xy, 2)
    assert tor_residue_field(presentation_xy, 0, module, kres) == {0: 1}


def test_tor_periodic_hypersurface():
    S = PolyRing(field_of(101), ("x",))
    x = S.var(0)
    R = RingPresentation(S, [x**2])
    kres = residue_field_resolution(R, 3)
    k = quotient_module(R, [x])
    assert tor_residue_field(R, 1, k, kres) == {1: 1}


def test_tor_truncation_error():
    S = PolyRing(field_of(101), ("x",))
    x = S.var(0)
    R = RingPresentation(S, [x**2])
    kres = residue_field_resolution(R, 1)
    k = quotient_module(R, [x])
    with pytest.raises(TruncationError):
        tor_residue_field(R, 2, k, kres)


def test_module_hom_cyclic(presentation_xy, ring_xy):
    x, _ = ring_xy.gens()
    A = quotient_module(presentation_xy, [x])
    hom, wits = module_hom(A, A)
    assert hom.generator_degrees == (0,)
    assert module_hilbert(hom, 0) == 1
    assert module_hilbert(hom, 1) == 1
    assert wits[0][(0, 0)] == ring_xy.one


def test_module_hom_twist_duality(presentation_xy):
    hom, _ = module_hom(free_module(presentation_xy, (2,)), free_module(presentation_xy, (0,)))
    assert hom.generator_degrees == (-2,)
    assert hom.matrix.cols == 0


def test_module_hom_rank_one_torsion_free(twisted_cubic):
    # Hom(Omega, R) for the twisted cubic cone: rank one, so the Hilbert
    # function eventually agrees with R's up to a constant shift.
    from soclelab.localcoh import canonical_module

    omega = canonical_module(twisted_cubic)
    hom, _ = module_hom(omega, quotient_module(twisted_cubic, []))
    diffs = {
        module_hilbert(hom, ell) - twisted_cubic.hilbert(ell) for ell in range(3, 7)
    }
    assert len(diffs) == 1


def test_kernel_of_injective_multiplication(presentation_xy, ring_xy):
    x, _ = ring_xy.gens()
    S_mod = free_module(presentation_xy, (0,))
    target = free_module(presentation_xy, (-1,))
    phi = GradedMatrix(presentation_xy, (-1,), (0,), [[x]])
    ker, img, _ = module_kernel_image(S_mod, target, phi)
    assert ker.is_zero()
    assert img.generator_degrees == (0,)


def test_kernel_over_hypersurface(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    R = RingPresentation(ring_xy, [x * y])
    M = quotient_module(R, [])
    target = free_module(R, (-1,))
    phi = GradedMatrix(R, (-1,), (0,), [[x]])
    ker, img, _ = module_kernel_image(M, target, phi)
    # Kernel is the cyclic module (y)/(xy) = k[y](-1).
    assert ker.generator_degrees == (1,)
    assert [module_hilbert(ker, l) for l in range(4)] == [0, 1, 1, 1]


def test_image_of_zero_map(presentation_xy):
    M = free_module(presentation_xy, (0,))
    target = free_module(presentation_xy, (0,))
    phi = GradedMatrix(
        presentation_xy, (0,), (0,), [[presentation_xy.ambient.zero]]
    )
    ker, img, _ = module_kernel_image(M, target, phi)
    assert img.is_zero()
    assert ker.generator_degrees == (0,)


def test_degree_incompatible_map_rejected(presentation_xy, ring_xy):
    x, _ = ring_xy.gens()
    with pytest.raises(StructuralError):
        GradedMatrix(presentation_xy, (0,), (0,), [[x]])


def test_s_presentation_folds_relations(ring_xy):
    x, y = ring_xy.gens()
    R = RingPresentation(ring_xy, [x * y])
    module = quotient_module(R, [x**2])
    folded = s_presentation(module)
    assert folded.ring.is_polynomial_ring
    for ell in range(5):
        assert module_hilbert(folded, ell) == module_hilbert(module, ell)


def test_composition_of_resolution_maps_is_zero(twisted_cubic):
    res = minimal_free_resolution(quotient_module(twisted_cubic, []))
    for a, b in zip(res.matrices, res.matrices[1:]):
        assert a.compose(b).is_zero()


def test_truncated_resolution_matches_residue_field_case():
    from soclelab.resolutions import truncated_resolution

    S = PolyRing(field_of(101), ("x",))
    x = S.var(0)
    R = RingPresentation(S, [x**2])
    k = quotient_module(R, [x])
    res = truncated_resolution(k, 4)
    kres = residue_field_resolution(R, 4)
    assert [res.module_twists(i) for i in range(5)] == [
        kres.module_twists(i) for i in range(5)
    ]
    assert res.check_complex() and res.check_minimal()


def test_truncated_resolution_zero_steps(presentation_xy, ring_xy):
    from soclelab.resolutions import truncated_resolution

    x, y = ring_xy.gens()
    res = truncated_resolution(quotient_module(presentation_xy, [x, y]), 0)
    assert res.length == 0
    assert res.f0_twists == (0,)


def test_truncated_resolution_over_regular_stops(presentation_xy, ring_xy):
    from soclelab.resolutions import truncated_resolution

    x, y = ring_xy.gens()
    res = truncated_resolution(quotient_module(presentation_xy, [x, y]), 6)
    assert res.length == 2
    assert res.complete


def _reference_grid(amb, target, vectors):
    """The entries as the old loop built them: one scan of every vector
    per cell."""
    return [
        [Polynomial(amb, {m: c for (pos, m), c in v.items() if pos == i}) for v in vectors]
        for i in range(len(target))
    ]


@pytest.mark.parametrize("char", [2, 101, 0])
def test_matrix_from_vectors_equals_the_cell_by_cell_grid(char):
    S = PolyRing(field_of(char), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    res = minimal_free_resolution(quotient_module(R, [a**2, b * d]))
    seen = 0
    for mat in res.matrices:
        vectors = block_columns(mat) + [{}]
        built = matrix_from_vectors(R, mat.target, vectors, mat.source + (0,))
        ref = _reference_grid(S, mat.target, vectors)
        assert [[f.terms for f in row] for row in built.entries] == [
            [f.terms for f in row] for row in ref
        ]
        assert [[list(f.terms) for f in row] for row in built.entries] == [
            [list(f.terms) for f in row] for row in ref
        ]
        # Without a source list the degrees are read off the vectors.
        assert matrix_from_vectors(R, mat.target, vectors[:-1]).source == mat.source
        seen += len(vectors) * len(mat.target)
    assert seen >= 20
    # Validation still runs: a column of mixed degrees is refused.
    with pytest.raises(StructuralError):
        matrix_from_vectors(R, (0, 0), [{(0, (1, 0, 0, 0)): 1, (1, (2, 0, 0, 0)): 1}], (1,))


def _other_ring():
    return RingPresentation(PolyRing(field_of(7), ("x", "y")))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda R, x: GradedMatrix(R, (0, 0), (1,), [[x]]), "row count"),
        (lambda R, x: GradedMatrix(R, (0,), (1, 1), [[x]]), "column count"),
        (lambda R, x: GradedMatrix(R, (0,), (1,), [[x]]).compose(
            GradedMatrix(R, (0,), (1,), [[x]])
        ), "do not compose"),
        (lambda R, x: ModulePresentation(
            _other_ring(), GradedMatrix(R, (0,), (1,), [[x]])
        ), "different ring"),
    ],
    ids=["rows", "columns", "compose", "ring"],
)
def test_matrices_and_presentations_refuse_mismatched_shapes(presentation_xy, ring_xy, build, message):
    x, _ = ring_xy.gens()
    with pytest.raises(StructuralError, match=message):
        build(presentation_xy, x)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda M: truncated_resolution(M, -1), "steps must be >= 0"),
        (lambda M: module_hom(M, free_module(_other_ring(), (0,))), "one ring"),
        (lambda M: module_kernel_image(
            M, M, GradedMatrix(M.ring, (0,), (1,), [[M.ring.ambient.var(0)]])
        ), "does not match the presentations"),
    ],
    ids=["negative-steps", "hom-across-rings", "map-mismatch"],
)
def test_resolution_builders_refuse_bad_arguments(presentation_xy, ring_xy, build, message):
    x, y = ring_xy.gens()
    with pytest.raises(StructuralError, match=message):
        build(quotient_module(presentation_xy, [x * y]))
