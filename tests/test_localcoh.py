import dataclasses
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from soclelab.errors import (
    AlgebraError,
    DomainError,
    HypothesisError,
    TruncationError,
    UnstableLimitError,
)
from soclelab.fields import field_of
from soclelab.groebner import Ideal, ideal_power, minimal_generator_degrees
import soclelab.localcoh as localcoh
import soclelab.modules as modules
import soclelab.resolutions as resolutions
from soclelab.localcoh import (
    _class_nonzero_in_hom,
    _koszul_stage,
    _limit_stage,
    alpha_max,
    alpha_table,
    canonical_ideal,
    canonical_module,
    endomorphism_check,
    ext_dual,
    ext_k_begin,
    ext_k_piece,
    ideal_as_module,
    koszul_piece,
    kres_for,
    lc_end,
    module_depth,
    module_dimension,
    regularity,
    socle_begin,
    socle_piece,
    socle_report,
)
from soclelab.modules import (
    GradedMatrix,
    GradedPiece,
    ModulePresentation,
    block_columns,
    free_module,
    module_hilbert,
    present_subquotient,
    quotient_module,
    s_presentation,
    syzygies_over,
)
from soclelab.linalg import Span, nullspace
from soclelab.modgb import vec_degree
from soclelab.poly import NEG_INF, POS_INF, PolyRing, format_polynomial
from soclelab.rings import RingPresentation
from soclelab.scans import scan_powers
from span_reference import RowQuotientSpace, rank, transpose


def powers_of_maximal_ideal(ring_presentation, t):
    amb = ring_presentation.ambient
    from soclelab.monomials import monomials_of_degree

    gens = [amb.monomial(m) for m in monomials_of_degree(amb.n, t)]
    return quotient_module(ring_presentation, gens)


# -- ext_dual -----------------------------------------------------------------


def test_ext_dual_of_free(presentation_xy):
    dual = ext_dual(0, free_module(presentation_xy, (0,)))
    assert dual.generator_degrees == (2,)


def test_ext_dual_hypersurface(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    dual = ext_dual(1, quotient_module(presentation_xy, [x * y]))
    assert dual.generator_degrees == (0,)
    # The dual of the Hilbert-Burch style complex is again cyclic mod (xy).
    assert [module_hilbert(dual, l) for l in range(4)] == [1, 2, 2, 2]


def test_ext_dual_twisted_cubic(twisted_cubic):
    dual = ext_dual(2, quotient_module(twisted_cubic, []))
    assert tuple(sorted(dual.generator_degrees)) == (1, 1)


def test_ext_dual_out_of_range(presentation_xy, ring_xy):
    x, _ = ring_xy.gens()
    M = quotient_module(presentation_xy, [x])
    assert ext_dual(2, M).is_zero()
    assert ext_dual(5, M).is_zero()


# -- lc_end / socle_begin ------------------------------------------------------


def test_lc_end_regular_rings():
    for n in range(1, 5):
        S = PolyRing(field_of(101), tuple(f"x{i}" for i in range(n)))
        R = RingPresentation(S)
        assert lc_end(n, quotient_module(R, [])) == -n
        assert socle_begin(n, quotient_module(R, [])) == -n


def test_lc_end_truncation(presentation_xy):
    M = powers_of_maximal_ideal(presentation_xy, 3)
    assert lc_end(0, M) == 2
    assert socle_begin(0, M) == 2


def test_lc_end_hypersurface(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    M = quotient_module(presentation_xy, [x * y])
    assert lc_end(1, M) == 0
    assert socle_begin(1, M) == 0


def test_socle_truncated_powers(presentation_xy):
    for t in (1, 2, 3):
        M = powers_of_maximal_ideal(presentation_xy, 2 * t)
        assert socle_begin(0, M) == 2 * t - 1


def test_vanishing_sentinels(presentation_xy):
    S_mod = free_module(presentation_xy, (0,))
    assert lc_end(1, S_mod) == NEG_INF
    assert socle_begin(1, S_mod) == POS_INF
    assert socle_begin(0, S_mod) == POS_INF


def test_socle_report_shape(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    M = quotient_module(presentation_xy, [x * y])
    rep = socle_report(M, label="S/(xy)")
    assert rep.dimension == 1
    assert rep.entries[1] == (0, 0)
    assert rep.socle_beg(1) <= rep.end(1)


def test_grothendieck_vanishing_bounds(presentation_xyz, ring_xyz):
    x, y, z = ring_xyz.gens()
    M = quotient_module(presentation_xyz, [x * y, x * z])
    dim = module_dimension(M)
    depth = module_depth(M)
    assert (dim, depth) == (2, 1)
    for j in range(0, 4):
        if j < depth or j > dim:
            assert lc_end(j, M) == NEG_INF


# -- the Koszul-limit oracle ----------------------------------------------------


def test_oracle_truncated_ring(presentation_xy):
    M = powers_of_maximal_ideal(presentation_xy, 2)
    assert koszul_piece(0, M, 1)[0] == 2
    assert socle_piece(0, M, 1)[0] == 2
    assert socle_piece(0, M, 0)[0] == 0


def test_oracle_regular_ring(presentation_xy):
    S_mod = free_module(presentation_xy, (0,))
    assert koszul_piece(2, S_mod, -2)[0] == 1
    assert koszul_piece(2, S_mod, -3)[0] == 2
    assert koszul_piece(1, S_mod, -1)[0] == 0
    assert koszul_piece(1, S_mod, 0)[0] == 0
    assert socle_piece(2, S_mod, -2)[0] == 1
    assert socle_piece(2, S_mod, -3)[0] == 0


def test_oracle_zero_module(presentation_xy):
    zero = ModulePresentation(
        presentation_xy, GradedMatrix(presentation_xy, (), (), [])
    )
    assert koszul_piece(0, zero, 0)[0] == 0
    assert socle_piece(1, zero, -1)[0] == 0


def test_socle_piece_builds_one_multiplication_matrix_per_variable(
    presentation_xy, ring_xy, monkeypatch
):
    # The two reps of the stage share the source piece's matrix of each
    # variable, and a second call finds both in the piece's memo.
    x, y = ring_xy.gens()
    M = quotient_module(presentation_xy, [x * y])
    j, ell = 1, -1
    s = _limit_stage(j, M, ell, 10)
    assert _koszul_stage(M, j, ell, s).dim == 2
    _koszul_stage(M, j, ell + 1, s)
    builds = _count_multiplication_builds(monkeypatch)
    assert socle_piece(j, M, ell) == (0, s)
    assert builds == [(ell + j * s, x), (ell + j * s, y)]
    assert socle_piece(j, M, ell) == (0, s)
    assert len(builds) == 2


def _count_multiplication_builds(monkeypatch):
    """Record each multiplication matrix a piece builds (a miss of its memo)."""
    builds = []
    original = GradedPiece._multiplication_columns

    def counting(piece, f):
        builds.append((piece.degree, f))
        return original(piece, f)

    monkeypatch.setattr(GradedPiece, "_multiplication_columns", counting)
    return builds


def test_oracle_matches_duality_on_window(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    M = quotient_module(presentation_xy, [x * y])
    j = 1
    sb, le = socle_begin(j, M), lc_end(j, M)
    dual = ext_dual(2 - j, M)
    for ell in range(sb - 2, le + 3):
        assert koszul_piece(j, M, ell)[0] == module_hilbert(dual, -ell), ell
    koszul_nonzero = [
        ell for ell in range(sb - 2, le + 3) if koszul_piece(j, M, ell)[0] > 0
    ]
    socle_nonzero = [
        ell for ell in range(sb - 2, le + 3) if socle_piece(j, M, ell)[0] > 0
    ]
    assert max(koszul_nonzero) == le
    assert min(socle_nonzero) == sb


def test_oracle_unstable_raises(presentation_xy):
    S_mod = free_module(presentation_xy, (0,))
    with pytest.raises(UnstableLimitError):
        # The limit is reached only at stage 1 + 0 - 2 + 7 = 6 >= s_max.
        koszul_piece(2, S_mod, -7, s_max=3)


def _twisted_cubic_cube():
    """S/I^3 for the twisted cubic I = (ac - b^2, ad - bc, bd - c^2) over
    GF(32003): dim H^2_m in degree ell is 18 per step down for ell << 0."""
    S = PolyRing(field_of(32003), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S)
    I = Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])
    return quotient_module(R, ideal_power(I, 3).generators)


def test_koszul_piece_on_the_cube_of_the_twisted_cubic():
    # The old rule accepted two agreeing zero stages below the limit and
    # returned 0 at ell = -4 and -3; the stage dimensions at ell = -4
    # read 0, 0, 0, 26, 74, 106, 118, 106, ... for s = 2, 3, ...
    M = _twisted_cubic_cube()
    dual = ext_dual(2, M)
    expected = {-4: 106, -3: 88, -2: 70, -1: 52, 0: 35, 1: 20, 2: 8}
    for ell, dim in expected.items():
        assert module_hilbert(dual, -ell) == dim
        assert koszul_piece(2, M, ell) == (dim, 5 - ell)
    assert _reference_koszul_piece(2, M, -4) == (0, 2)
    assert _reference_koszul_piece(2, M, -3) == (0, 2)
    with pytest.raises(UnstableLimitError, match="stage 10"):
        koszul_piece(2, M, -5)


@pytest.mark.parametrize("oracle", [koszul_piece, socle_piece])
def test_h0_piece_is_zero_where_the_module_is(oracle):
    """H^0_m(M)_ell lies in M_ell.  On S/(xy, yz, zx)^4 the twist 10 of F_3
    puts s0 at 10..14 for ell = -6..-2, where M itself is zero: every
    stage is zero, so the answer is (0, 2) and nothing raises."""
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    M = quotient_module(R, ideal_power(Ideal(R, [x * y, y * z, z * x]), 4).generators)
    for ell in range(-6, -1):
        assert M.piece(ell).dim == 0
        assert oracle(0, M, ell) == (0, 2)
    # Where M is not zero the twists decide the stage, as before.
    assert oracle(0, M, 0)[1] == 8


@pytest.mark.parametrize("oracle", [koszul_piece, socle_piece])
@pytest.mark.parametrize("s_max", [2, 0, -1])
def test_oracle_rejects_s_max_below_three(presentation_xy, oracle, s_max):
    S_mod = free_module(presentation_xy, (0,))
    with pytest.raises(DomainError, match="s_max must be at least 3"):
        oracle(2, S_mod, -2, s_max=s_max)


@pytest.mark.parametrize("oracle", [koszul_piece, socle_piece])
def test_an_unstable_limit_names_the_s_max_keyword(presentation_xy, oracle):
    S_mod = free_module(presentation_xy, (0,))
    with pytest.raises(UnstableLimitError, match=r"not below s_max=3; increase s_max$"):
        oracle(2, S_mod, -7, s_max=3)


@pytest.mark.parametrize("oracle", [koszul_piece, socle_piece])
def test_oracle_rejects_a_negative_cohomological_index(presentation_xy, oracle):
    S_mod = free_module(presentation_xy, (0,))
    with pytest.raises(DomainError, match="cohomological index"):
        oracle(-1, S_mod, 0)


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda R, M: ext_k_piece(R, 3, M, 0, truncation=2), "truncated below the requested index"),
        (lambda R, M: alpha_max(R, 3, steps=2), "truncated before step 3"),
    ],
    ids=["ext_k_piece", "alpha_max"],
)
def test_reads_past_a_truncated_residue_field_resolution_raise(read, message):
    # Over the twisted cubic the resolution of k is infinite; a fresh ring
    # keeps no deeper one in its memo.
    S = PolyRing(field_of(101), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    with pytest.raises(TruncationError, match=message):
        read(R, quotient_module(R, []))
    assert not kres_for(R, 2).complete


# -- Ext against k --------------------------------------------------------------


def test_ext_k_begin_is_socle_begin_at_zero(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    for M in (
        powers_of_maximal_ideal(presentation_xy, 2),
        quotient_module(presentation_xy, [x * y]),
    ):
        for j in range(0, 3):
            sb = socle_begin(j, M)
            assert ext_k_begin(0, j, M) == sb


def test_ext_k_begin_vanishing(presentation_xy):
    S_mod = free_module(presentation_xy, (0,))
    assert ext_k_begin(1, 1, S_mod) == POS_INF


def test_ext_k_begin_first_index(presentation_xy):
    # M is artinian, so H^0 = M and the Tor-duality route must agree with
    # the direct degreewise Hom-complex computation of Ext(k, M).
    M = powers_of_maximal_ideal(presentation_xy, 2)
    value = ext_k_begin(1, 0, M)
    first = None
    for ell in range(-3, 5):
        if ext_k_piece(presentation_xy, 1, M, ell) > 0:
            first = ell
            break
    assert value == first == 0


def test_alpha_invariants(presentation_xy):
    assert [alpha_max(presentation_xy, i) for i in range(3)] == [0, 1, 2]
    S = PolyRing(field_of(101), ("x",))
    R = RingPresentation(S, [S.var(0) ** 2])
    assert [alpha_max(R, i, steps=4) for i in range(4)] == [0, 1, 2, 3]
    assert alpha_max(R, 0) == 0


def test_alpha_table(presentation_xy):
    table = alpha_table(presentation_xy, 2)
    assert table[0] == 0
    assert table.values == (0, 1, 2)
    assert table.truncation == 2


def test_alpha_table_reuses_a_deeper_residue_field_resolution(monkeypatch):
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    kres = kres_for(R, 5)
    builds = []
    original = localcoh.residue_field_resolution

    def counting(ring, steps):
        builds.append(steps)
        return original(ring, steps)

    monkeypatch.setattr(localcoh, "residue_field_resolution", counting)
    assert alpha_table(R, 2).values == (0, 1, 2)
    assert kres_for(R, 3) is kres
    assert builds == []
    # A deeper truncation than the memo holds is built anew.
    assert kres_for(R, 6).length == 6
    assert builds == [6]


def test_ext_begin_lower_bound_randomized():
    # beg Ext^i(k, M) >= beg(M) - alpha_i on randomized small instances.
    rng = random.Random(12345)
    F = field_of(7)
    S = PolyRing(F, ("x", "y"))
    x, y = S.gens()
    rings = [
        RingPresentation(S),
        RingPresentation(S, [x * y]),
        RingPresentation(S, [x**2 + y**2]),
    ]
    checked = 0
    for ring in rings:
        kres = kres_for(ring, 5)
        for _ in range(8):
            shift = rng.randrange(-2, 3)
            degree = rng.randrange(1, 3)
            from soclelab.monomials import monomials_of_degree

            monos = list(monomials_of_degree(2, degree))
            gens = [
                S.monomial(m)
                for m in monos
                if rng.random() < 0.6
            ]
            module = quotient_module(ring, gens).twist(shift)
            if module.is_zero():
                continue
            beg = module.begin()
            for i in range(0, 4):
                alpha = alpha_max(ring, i, steps=5)
                if alpha is None:
                    continue
                bound = beg - alpha
                below = ext_k_piece(ring, i, module, bound - 1)
                assert below == 0
                first = None
                for ell in range(bound, bound + 5):
                    if ext_k_piece(ring, i, module, ell) > 0:
                        first = ell
                        break
                if first is not None:
                    assert first >= bound
                checked += 1
    assert checked >= 20


# -- canonical modules and ideals ------------------------------------------------


def test_canonical_module_of_polynomial_ring(presentation_xy):
    omega = canonical_module(presentation_xy)
    assert omega.generator_degrees == (2,)
    assert omega.matrix.cols == 0


def test_canonical_module_gorenstein_hypersurface():
    S = PolyRing(field_of(7), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S, [x**3 + y**3 + z**3])
    omega = canonical_module(R)
    assert omega.generator_degrees == (0,)


def test_canonical_module_twisted_cubic(twisted_cubic):
    omega = canonical_module(twisted_cubic)
    assert tuple(sorted(omega.generator_degrees)) == (1, 1)


def test_canonical_ideal_gorenstein():
    S = PolyRing(field_of(7), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S, [x**3 + y**3 + z**3])
    data = canonical_ideal(R)
    assert minimal_generator_degrees(data.ideal) == [0]
    assert data.a_invariant == 0
    assert data.shift == data.a_invariant


def test_canonical_ideal_twisted_cubic(twisted_cubic):
    data = canonical_ideal(twisted_cubic)
    assert data.a_invariant == -1
    assert min(minimal_generator_degrees(data.ideal)) == 1
    assert data.shift == 1 + data.a_invariant
    assert lc_end(2, quotient_module(twisted_cubic, [])) == -1
    cert = endomorphism_check(twisted_cubic, data.ideal)
    assert cert.ok


def _coordinate_axes(p, names):
    S = PolyRing(field_of(p), names)
    gens = S.gens()
    return RingPresentation(S, [u * v for i, u in enumerate(gens) for v in gens[i + 1 :]])


def _skew_lines(p):
    S = PolyRing(field_of(p), ("x", "y", "z", "w"))
    x, y, z, w = S.gens()
    return RingPresentation(S, [x * z, x * w, y * z, y * w])


def _twisted_cubic_over(p):
    S = PolyRing(field_of(p), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    return RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])


@pytest.mark.parametrize(
    "ring, generators, shift, a_invariant",
    [
        (lambda: _coordinate_axes(2, "xyz"), ["y + z", "x + y"], 1, 0),
        (lambda: _coordinate_axes(101, "xyz"), ["5*y + 91*z", "10*x + 5*y"], 1, 0),
        (lambda: _coordinate_axes(0, "xyz"), ["5*y + 91*z", "10*x + 5*y"], 1, 0),
        (lambda: _coordinate_axes(3, "xyzw"), ["x + z", "y + 2*z", "2*z + w"], 1, 0),
        (lambda: _skew_lines(5), ["2*z + w", "x + y"], -1, -2),
        (lambda: _twisted_cubic_over(2), ["c", "d"], 0, -1),
        (lambda: _twisted_cubic_over(101), ["c", "100*d"], 0, -1),
    ],
    ids=["axes3-gf2", "axes3-gf101", "axes3-qq", "axes4-gf3", "skew-lines-gf5",
         "twisted-cubic-gf2", "twisted-cubic-gf101"],
)
def test_canonical_ideal_search_order(ring, generators, shift, a_invariant):
    # Pins the candidate order: on the coordinate axes and the skew lines
    # no single Hom generator is injective, so the search reaches the
    # combinations over a small field and the seeded random tries.
    data = canonical_ideal(ring())
    assert [format_polynomial(g) for g in data.ideal.generators] == generators
    assert (data.shift, data.a_invariant, data.embedding_degree) == (shift, a_invariant, shift)


@pytest.mark.parametrize(
    "ring, candidates",
    [(lambda: _coordinate_axes(2, "xyz"), 7), (lambda: _coordinate_axes(3, "xyzw"), 27)],
    ids=["axes3-gf2", "axes4-gf3"],
)
def test_canonical_ideal_tests_one_candidate_per_line(ring, candidates, monkeypatch):
    # c*phi and phi have the same kernel, so the GF(p) tier tries one
    # tuple per line through the origin and no multiple of a witness it
    # tried alone: 7 candidates in place of 10 on the axes over GF(2), 27
    # in place of 44 on the four axes over GF(3).
    drawn = []
    search = localcoh._search_coefficients

    def counted(*args):
        for combo in search(*args):
            drawn.append(combo)
            yield combo

    monkeypatch.setattr(localcoh, "_search_coefficients", counted)
    canonical_ideal(ring())
    assert len(drawn) == candidates
    assert len(set(drawn)) == len(drawn)


def test_canonical_ideal_draws_no_coefficient_before_it_needs_one(twisted_cubic_gf2, monkeypatch):
    draws = []
    original = random.Random.randrange

    def randrange(rng, *args):
        draws.append(args)
        return original(rng, *args)

    monkeypatch.setattr(random.Random, "randrange", randrange)
    data = canonical_ideal(twisted_cubic_gf2)
    assert [format_polynomial(g) for g in data.ideal.generators] == ["c", "d"]
    assert draws == []


def test_endomorphism_check_maximal_ideal(presentation_xy, ring_xy):
    # End(m) over k[x,y] is the whole ring with the identity generating,
    # so the stated certificate legitimately holds.
    x, y = ring_xy.gens()
    cert = endomorphism_check(presentation_xy, Ideal(presentation_xy, [x, y]))
    assert cert.generator_degrees == (0,)
    assert cert.ok


def test_endomorphism_check_fails_for_small_support():
    # omega = (x) over k[x,y]/(xy) is killed by y, so End(omega) = k[x]
    # and the Hilbert functions disagree with R on the window.
    S = PolyRing(field_of(101), ("x", "y"))
    x, y = S.gens()
    R = RingPresentation(S, [x * y])
    cert = endomorphism_check(R, Ideal(R, [x]))
    assert not cert.ok
    assert cert.hom_dims != cert.ring_dims


def _identity_in_hom0(mod):
    degs = mod.generator_degrees
    r = len(degs)
    twists = [g - a for a in degs for g in degs]
    identity = {(i * r + i, (0,) * mod.ring.n): mod.ring.field.one for i in range(r)}
    return identity, twists


def test_class_nonzero_in_hom_identity_on_canonical_ideal(twisted_cubic):
    mod = ideal_as_module(canonical_ideal(twisted_cubic).ideal)
    identity, _ = _identity_in_hom0(mod)
    assert _class_nonzero_in_hom(twisted_cubic, mod, identity)


def test_class_nonzero_in_hom_relation_column_is_zero(presentation_xy, ring_xy):
    # Generators in degrees 1 and 3 and the relation x^2 e_1: in Hom(F0, M)
    # the relation sent into the degree-3 slot is a degree-0 column.
    x, _ = ring_xy.gens()
    mat = GradedMatrix(presentation_xy, (1, 3), (3,), [[x**2], [ring_xy.zero]])
    mod = ModulePresentation(presentation_xy, mat)
    _, twists = _identity_in_hom0(mod)
    _, rels = resolutions._hom_free_into(mod, mod.matrix.target)
    degree_zero = [v for v in rels if vec_degree(v, tuple(twists)) == 0]
    assert degree_zero
    for vec in degree_zero:
        assert not _class_nonzero_in_hom(presentation_xy, mod, vec)


# -- regularity -------------------------------------------------------------------


def test_regularity_values(presentation_xy, twisted_cubic):
    assert regularity(free_module(presentation_xy, (0,))) == 0
    for t in (1, 2, 3):
        assert regularity(powers_of_maximal_ideal(presentation_xy, t)) == t - 1
    assert regularity(quotient_module(twisted_cubic, [])) == 1


def test_pipeline_over_rationals():
    # Exact Fraction arithmetic end to end on the twisted cubic.
    S = PolyRing(field_of(0), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    module = quotient_module(R, [])
    assert lc_end(2, module) == -1
    assert socle_begin(2, module) == -1
    assert regularity(module) == 1
    data = canonical_ideal(R)
    assert data.a_invariant == -1 and data.shift == 0
    assert endomorphism_check(R, data.ideal).ok


def test_begin_additivity_for_short_exact_sequences(presentation_xy, ring_xy):
    # 0 -> m -> S -> k -> 0 and friends: beg of the middle is the min.
    x, y = ring_xy.gens()
    m = ideal_as_module(Ideal(presentation_xy, [x, y]))
    S_mod = free_module(presentation_xy, (0,))
    k_mod = quotient_module(presentation_xy, [x, y])
    assert S_mod.begin() == min(m.begin(), k_mod.begin())
    zero = ModulePresentation(
        presentation_xy, GradedMatrix(presentation_xy, (), (), [])
    )
    assert k_mod.begin() == min(zero.begin(), k_mod.begin())


@pytest.mark.parametrize(
    "ideal, syzygies", [((), 2), (("b", "c"), 3)], ids=["R", "R/(b,c)"]
)
def test_lc_end_and_socle_begin_resolve_each_module_once(
    twisted_cubic_gf2, ideal, syzygies, monkeypatch
):
    R = twisted_cubic_gf2
    names = dict(zip(("a", "b", "c", "d"), R.ambient.gens()))
    M = quotient_module(R, [names[v] for v in ideal])
    calls = []
    original = resolutions.syzygy

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(resolutions, "syzygy", counting)
    for j in range(5):
        lc_end(j, M)
        socle_begin(j, M)
    assert len(calls) == syzygies
    regularity(M)
    resolutions.minimal_free_resolution(M)
    assert len(calls) == syzygies


# -- the Hom-complex routine, against the loops it replaced -------------------


class _ReferenceQuotientSpace:
    """The old ker/im quotient: the image, then a kernel basis from
    ``nullspace``, inserted into one tracked Span.  ``reps`` are the
    kernel vectors that enlarged the span of the image, and coordinates
    are taken on them."""

    def __init__(self, fieldobj, width, image_vectors, kernel_vectors):
        self.span = Span(fieldobj, width, track=True)
        for v in image_vectors:
            self.span.add(v)
        self.reps = []
        self.rep_slots = []
        for v in kernel_vectors:
            if self.span.add(v):
                self.reps.append(v)
                self.rep_slots.append(self.span.n_inserted - 1)

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, vec):
        combo = self.span.coordinates(vec)
        if combo is None:
            raise AlgebraError("vector escapes the cohomology subquotient")
        return {h: combo[k] for h, k in enumerate(self.rep_slots) if k in combo}


def _map_blockwise(stage, poly_for_subset, target):
    """Matrix of a chain map given per subset, from one stage into another
    with the same subset layout: the columns, in the target's
    coordinates, of the images of the stage's reps, block T of a rep
    multiplied by ``poly_for_subset(T)``.  The stages need ``module``,
    ``j``, ``ell``, ``s``, ``subsets``, ``block_dim``, ``quotient`` and
    ``dim``, as ``_ReferenceKoszulPiece`` and ``_stage_view`` have."""
    if not stage.dim:
        return []
    src_piece = stage.module.piece(stage.ell + stage.j * stage.s)
    mms = [src_piece.multiplication_matrix(poly_for_subset(T)) for T in stage.subsets]
    cols = []
    for rep in stage.quotient.reps:
        out = {}
        for src, c in rep.items():
            tk, b = divmod(src, stage.block_dim)
            base = tk * target.block_dim
            for r, v in mms[tk][b].items():
                out[base + r] = out.get(base + r, 0) + c * v
        cols.append(target.quotient.coords(out))
    return cols


def _stage_view(module, j, ell, s):
    """The stage ``_koszul_stage`` memoizes, with the layout that
    ``_map_blockwise`` reads."""
    quotient = _koszul_stage(module, j, ell, s)
    return SimpleNamespace(
        module=module,
        j=j,
        ell=ell,
        s=s,
        subsets=list(itertools.combinations(range(module.ring.ambient.n), j)),
        block_dim=module.piece(ell + j * s).dim,
        quotient=quotient,
        dim=quotient.dim,
    )


class _ReferenceKoszulPiece:
    """The old stage: the delta^j rows and the delta^{j-1} columns, each
    built by its own loop over the subsets, with one multiplication
    matrix per variable and per differential."""

    map_blockwise = _map_blockwise

    def __init__(self, module, j, ell, s):
        self.module = module
        self.j = j
        self.ell = ell
        self.s = s
        ring = module.ring
        F = ring.field
        n = ring.ambient.n
        self.subsets = list(itertools.combinations(range(n), j))
        self.block_dim = module.piece(ell + j * s).dim
        width = len(self.subsets) * self.block_dim
        up_subsets = list(itertools.combinations(range(n), j + 1))
        up_dim = module.piece(ell + (j + 1) * s).dim
        powers = {}
        for i in range(n):
            e = [0] * n
            e[i] = s
            powers[i] = ring.ambient.monomial(tuple(e))
        mult = {}
        for i in range(n):
            mult[i] = module.piece(ell + j * s).multiplication_matrix(powers[i])
        rows = [{} for _ in range(len(up_subsets) * up_dim)]
        up_index = {T: k for k, T in enumerate(up_subsets)}
        for tk, T in enumerate(self.subsets):
            for i in range(n):
                if i in T:
                    continue
                U = tuple(sorted(T + (i,)))
                sign = (-1) ** U.index(i)
                base = up_index[U] * up_dim
                for b, col in enumerate(mult[i]):
                    src = tk * self.block_dim + b
                    for r, c in col.items():
                        rows[base + r][src] = c if sign > 0 else F.neg(c)
        self.kernel = nullspace(F, rows, width) if width else []
        image = {}
        if j >= 1:
            down_subsets = list(itertools.combinations(range(n), j - 1))
            down_dim = module.piece(ell + (j - 1) * s).dim
            multd = {}
            for i in range(n):
                multd[i] = module.piece(ell + (j - 1) * s).multiplication_matrix(
                    powers[i]
                )
            t_index = {T: k for k, T in enumerate(self.subsets)}
            for tk, T in enumerate(down_subsets):
                for i in range(n):
                    if i in T:
                        continue
                    U = tuple(sorted(T + (i,)))
                    sign = (-1) ** U.index(i)
                    base = t_index[U] * self.block_dim
                    for b, col in enumerate(multd[i]):
                        vec = image.setdefault(tk * down_dim + b, {})
                        for r, c in col.items():
                            vec[base + r] = c if sign > 0 else F.neg(c)
        self.image = [image[k] for k in sorted(image)]
        self.quotient = _ReferenceQuotientSpace(F, width, self.image, self.kernel)

    @property
    def dim(self):
        return self.quotient.dim


def _reference_ext_k_piece(ring, i, module, ell, truncation=None):
    """The old ext_k_piece: its own Hom map, kernel dimension minus image rank."""
    kres = kres_for(ring, (truncation if truncation is not None else i + 1))

    def hom_piece_basis(step):
        twists = kres.module_twists(step)
        return twists, [module.piece(ell + a).dim for a in twists]

    def hom_map(step):
        mat = kres.matrices[step - 1]
        src_twists, src_dims = hom_piece_basis(step - 1)
        dst_twists, dst_dims = hom_piece_basis(step)
        dst_off = [0]
        for d in dst_dims:
            dst_off.append(dst_off[-1] + d)
        cols = []
        for u in range(len(src_twists)):
            piece_u = module.piece(ell + src_twists[u])
            vecs = [{} for _ in range(src_dims[u])]
            for v in range(len(dst_twists)):
                f = mat.entries[u][v]
                if f.is_zero():
                    continue
                for b, col in enumerate(piece_u.multiplication_matrix(f)):
                    for r, c in col.items():
                        vecs[b][dst_off[v] + r] = c
            cols.extend(vecs)
        return cols, dst_off[-1]

    F = ring.field
    width = sum(hom_piece_basis(i)[1])
    if width == 0:
        return 0
    if i + 1 <= kres.length:
        out_cols, w_dst = hom_map(i + 1)
        ker_dim = len(nullspace(F, transpose(out_cols, w_dst), width))
    else:
        ker_dim = width
    img_rank = rank(F, hom_map(i)[0], width) if i >= 1 else 0
    return ker_dim - img_rank


def _hom_complex_rings(char):
    F = field_of(char)
    S2 = PolyRing(F, ("x", "y"))
    S3 = PolyRing(F, ("x", "y", "z"))
    S4 = PolyRing(F, ("a", "b", "c", "d"))
    a, b, c, d = S4.gens()
    tc = RingPresentation(S4, [a * c - b**2, a * d - b * c, b * d - c**2])
    return [RingPresentation(S2), RingPresentation(S3), tc]


def _hom_complex_modules(char):
    """Per ring: R itself and two seeded cyclic quotients by forms of
    degree 1 or 2, some twisted."""
    from soclelab.monomials import monomials_of_degree

    rng = random.Random(8800 + char)
    for ring in _hom_complex_rings(char):
        amb = ring.ambient
        F = amb.field
        yield ring, quotient_module(ring, [])
        for count in (1, 2):
            gens = []
            for _ in range(count):
                monos = monomials_of_degree(amb.n, rng.randint(1, 2))
                terms = {m: F.of(rng.randint(1, 9)) for m in rng.sample(monos, 2)}
                gens.append(amb.from_terms(terms.items()))
            yield ring, quotient_module(ring, gens).twist(rng.randint(-1, 1))


def _matmul(F, a, b):
    """a times b, matrices given as lists of sparse columns."""
    out = []
    for col in b:
        v = {}
        for k, c in col.items():
            for r, x in a[k].items():
                v[r] = F.add(v.get(r, F.zero), F.mul(c, x))
        out.append({r: x for r, x in v.items() if x})
    return out


def _change_of_basis(new, ref):
    """P: column h holds new rep h in the reference's coordinates.

    Asserts that P is invertible: the reference reps in the new
    coordinates give its exact inverse on both sides.
    """
    F = new.module.ring.field
    P = [ref.quotient.coords(rep) for rep in new.quotient.reps]
    back = [new.quotient.coords(rep) for rep in ref.quotient.reps]
    identity = [{h: F.one} for h in range(new.dim)]
    assert _matmul(F, P, back) == identity
    assert _matmul(F, back, P) == identity
    return P


@pytest.mark.parametrize("char", [2, 101, 0])
def test_koszul_stage_matches_the_old_loops(char):
    # The stage's reps and maps depend on the chosen basis of H, so they
    # are compared after the change of basis P from the new reps to the
    # reference's: ref_map . P == Q . new_map, Q the same for the target.
    rng = random.Random(8900 + char)
    nonzero = 0
    for ring, M in _hom_complex_modules(char):
        n = ring.ambient.n
        F = ring.field
        gens = ring.ambient.gens()

        def multiplier(T):
            f = ring.ambient.one
            for i in T:
                f = f * gens[i]
            return f

        for j in range(n + 1):
            for ell in sorted(rng.sample(range(-2 * n, 3), 2)):
                for s in (2, 3, 4):
                    new = _stage_view(M, j, ell, s)
                    ref = _ReferenceKoszulPiece(M, j, ell, s)
                    assert new.dim == ref.dim
                    assert (new.subsets, new.block_dim) == (ref.subsets, ref.block_dim)
                    P = _change_of_basis(new, ref)
                    twists = (j * s,) * len(new.subsets)
                    width = sum(M.piece(ell + a).dim for a in twists)
                    if width:
                        out_cols, w_out = localcoh._hom_map(
                            M, localcoh._koszul_matrix(ring, s, j + 1), ell
                        )
                        assert nullspace(F, transpose(out_cols, w_out), width) == ref.kernel
                        if j:
                            in_cols, _ = localcoh._hom_map(
                                M, localcoh._koszul_matrix(ring, s, j), ell
                            )
                            assert in_cols == ref.image
                    nonzero += new.dim > 0
                    if not new.dim:
                        continue
                    # The stage transition and one socle multiplication.
                    var = gens[rng.randrange(n)]
                    for mult, shift in ((multiplier, (0, 1)), (lambda T: var, (1, 0))):
                        new_t = _stage_view(M, j, ell + shift[0], s + shift[1])
                        ref_t = _ReferenceKoszulPiece(M, j, ell + shift[0], s + shift[1])
                        Q = _change_of_basis(new_t, ref_t)
                        new_map = _map_blockwise(new, mult, new_t)
                        ref_map = ref.map_blockwise(mult, ref_t)
                        assert _matmul(F, ref_map, P) == _matmul(F, Q, new_map)
    assert nonzero >= 20


def _reference_socle_piece(j, module, ell, s):
    """The old socle count at stage s: the reference stage's maps by each
    variable into the stage of degree ell + 1, transposed into rows and
    stacked, and dim H_ell minus their rank."""
    ring = module.ring
    a = _ReferenceKoszulPiece(module, j, ell, s)
    if not a.dim:
        return 0
    b = _ReferenceKoszulPiece(module, j, ell + 1, s)
    rows = []
    for var in ring.ambient.gens():
        rows.extend(transpose(a.map_blockwise(lambda T, f=var: f, b), b.dim))
    return a.dim - rank(ring.field, rows, a.dim)


@pytest.mark.parametrize("char", [2, 101, 0])
def test_socle_piece_matches_the_old_route(char):
    # Every (module, j, ell) with a stage; where a rule answers with no
    # stage, socle_piece gives (0, 2).
    staged = socles = 0
    for ring, M in _hom_complex_modules(char):
        n = ring.ambient.n
        for j in range(n + 1):
            for ell in range(-2 * n - 2, 4):
                s = _limit_stage(j, M, ell, 20)
                dim = socle_piece(j, M, ell, s_max=20)
                if s is None:
                    assert dim == (0, 2)
                    continue
                assert dim == (_reference_socle_piece(j, M, ell, s), s), (j, ell)
                staged += 1
                socles += dim[0] > 0
    assert staged >= 150 and socles >= 8, (staged, socles)


def _coords_socle_piece(j, module, ell, s_max=10):
    """The socle count ``socle_piece`` made before it read the stage of
    degree ell + 1 by remainders: each x_i h written in the coordinates
    of that stage's reps (``QuotientSpace.coords``, which solves it), the
    images stacked into one Span, and dim H_ell minus their rank."""
    s = _limit_stage(j, module, ell, s_max)
    if s is None:
        return 0, 2
    a0 = _koszul_stage(module, j, ell, s)
    if a0.dim == 0:
        return 0, s
    b0 = _koszul_stage(module, j, ell + 1, s)
    source = module.piece(ell + j * s)
    block, tgt_block = source.dim, module.piece(ell + 1 + j * s).dim
    mults = [source.multiplication_matrix(x) for x in module.ring.ambient.gens()]
    images = Span(module.ring.field, len(mults) * b0.dim)
    for rep in a0.reps:
        stacked = {}
        for i, mm in enumerate(mults):
            out = {}
            for k, c in rep.items():
                subset, b = divmod(k, block)
                for r, v in mm[b].items():
                    out[subset * tgt_block + r] = out.get(subset * tgt_block + r, 0) + c * v
            for h, c in b0.coords(out).items():
                stacked[i * b0.dim + h] = c
        images.add(stacked)
    return a0.dim - images.rank, s


@pytest.mark.parametrize("char", [2, 101, 0])
def test_socle_piece_equals_the_coords_route(char):
    # Each degree of the window, upwards on one copy of the corpus and
    # downwards on another, so the stage of degree ell + 1 is read both
    # before and after it is solved.  socle_piece runs first: the
    # reference solves every stage it reads.
    calls = {False: 0, True: 0}
    socles = 0
    for window in (range(-6, 8), range(7, -7, -1)):
        for ring, M in _duality_corpus(char):
            n = ring.ambient.n
            for j in range(M.krull_dimension() + 1):
                for ell in window:
                    s = _limit_stage(j, M, ell, 12)
                    above = M._memo.get(("koszul", j, ell + 1, s))
                    solved = above is not None and above._reps is not None
                    dim = socle_piece(j, M, ell, s_max=12)
                    if s is not None and _koszul_stage(M, j, ell, s).dim:
                        calls[solved] += 1
                    assert dim == _coords_socle_piece(j, M, ell, s_max=12), (j, ell)
                    socles += dim[0] > 0
    assert calls[False] >= 100 and calls[True] >= 15 and socles >= 20, (calls, socles)


def test_a_stage_read_only_from_below_is_never_solved(monkeypatch):
    # socle_piece solves its own stage and reads the stage of degree
    # ell + 1 only by remainders modulo its image: one tracked Span in
    # all.  Reading the dimension of the stage above solves it.
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    M = quotient_module(R, ideal_power(Ideal(R, [x * y, y * z, z * x]), 2).generators)
    ell = socle_begin(1, M)
    s = _limit_stage(1, M, ell, 10)
    tracked = []
    original = Span.__init__

    def recording(span, field, width, track=False):
        tracked.append(track)
        original(span, field, width, track)

    monkeypatch.setattr(Span, "__init__", recording)
    assert socle_piece(1, M, ell) == (3, s)
    above = M._memo[("koszul", 1, ell + 1, s)]
    assert tracked.count(True) == 1 and above._reps is None
    assert above.dim == koszul_piece(1, M, ell + 1)[0]
    assert tracked.count(True) == 2


@pytest.mark.parametrize("solved", [False, True])
def test_a_multiplication_column_off_the_kernel_raises(presentation_xy, ring_xy, solved):
    # H^1 of S/(xy) in degree -1, stage 2: the rep at block {x} and basis
    # term 0 of M_1 is sent by x to column 0 of x's multiplication matrix.
    # Mutated to a unit vector that A does not kill, x h is no cocycle of
    # the stage above, whether that stage is solved or not.
    x, y = ring_xy.gens()
    M = quotient_module(presentation_xy, [x * y])
    j, ell, s = 1, -1, 2
    assert _limit_stage(j, M, ell, 10) == s
    a0 = _koszul_stage(M, j, ell, s)
    assert a0.reps[0] == {0: 1}
    out_cols, _ = localcoh._hom_map(M, localcoh._koszul_matrix(M.ring, s, j + 1), ell + 1)
    [r] = [r for r in range(M.piece(ell + 1 + j * s).dim) if out_cols[r]]
    if solved:
        assert koszul_piece(j, M, ell + 1) == (1, s)
    assert socle_piece(j, M, ell) == (0, s)
    M.piece(ell + j * s).multiplication_matrix(x)[0] = {r: 1}
    with pytest.raises(AlgebraError, match="escapes"):
        socle_piece(j, M, ell)
    assert (M._memo[("koszul", j, ell + 1, s)]._reps is not None) == solved


def test_coords_of_a_non_cocycle_raises(presentation_xy, ring_xy):
    x, y = ring_xy.gens()
    M = quotient_module(presentation_xy, [x * y])
    stage = _koszul_stage(M, 1, -1, 2)
    assert stage.dim == 2
    out_cols, _ = localcoh._hom_map(M, localcoh._koszul_matrix(M.ring, 2, 2), -1)
    escaping = [k for k, col in enumerate(out_cols) if col]
    assert escaping
    for k in escaping:
        with pytest.raises(AlgebraError, match="escapes"):
            stage.coords({k: 1})
    # A cocycle still has coordinates: each rep is its own unit vector.
    for h, rep in enumerate(stage.reps):
        assert stage.coords(rep) == {h: 1}


def test_the_oracle_builds_no_kernel_basis(monkeypatch):
    # Each stage reads its reps off the relations of the dependent columns
    # of A|C as it inserts them; the row route built the reduced kernel
    # basis of the rows of A|C (Span.kernel) for them.  The reps are the
    # same vectors.
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    M = quotient_module(R, ideal_power(Ideal(R, [x * y, y * z, z * x]), 2).generators)
    builds = []
    monkeypatch.setattr(Span, "kernel", lambda span: builds.append(span))
    for ell in range(-4, 3):
        koszul_piece(1, M, ell)
    ell = socle_begin(1, M)
    dim, s = socle_piece(1, M, ell)
    assert dim > 0 and builds == []
    monkeypatch.undo()
    stages = {k[1:]: v for k, v in M._memo.items() if k[0] == "koszul"}
    assert len(stages) >= 8 and sum(stage.dim > 0 for stage in stages.values()) >= 2
    for (j, ell, s), stage in stages.items():
        width = math.comb(3, j) * M.piece(ell + j * s).dim
        image = localcoh._hom_map(M, localcoh._koszul_matrix(R, s, j), ell)[0] if j and width else []
        out = localcoh._hom_map(M, localcoh._koszul_matrix(R, s, j + 1), ell) if width else ([], 0)
        ref = RowQuotientSpace(R.field, width, image, *out)
        assert (stage.reps, stage.unit) == (ref.reps, ref.unit)


# Seconds budgeted per field for the degree-by-degree comparison with
# duality below; the assert allows five times that.  Measured at 0.35 s
# over GF(2) and over GF(101) and 0.95 s over QQ (2 cores, CPython
# 3.11.7), most of it on the curve's S/I^2.
ORACLE_DUALITY_BUDGET_S = {2: 0.6, 101: 0.6, 0: 1.8}


def _duality_corpus(char):
    """The modules of ``_hom_complex_modules``, then S/(xy, yz, zx)^2 and
    the square of the twisted cubic's ideal, each with its ring."""
    F = field_of(char)
    S3 = PolyRing(F, ("x", "y", "z"))
    x, y, z = S3.gens()
    R3 = RingPresentation(S3)
    S4 = PolyRing(F, ("a", "b", "c", "d"))
    a, b, c, d = S4.gens()
    R4 = RingPresentation(S4)
    return list(_hom_complex_modules(char)) + [
        (R3, quotient_module(R3, ideal_power(Ideal(R3, [x * y, y * z, z * x]), 2).generators)),
        (R4, quotient_module(
            R4, ideal_power(Ideal(R4, [a * c - b**2, a * d - b * c, b * d - c**2]), 2).generators
        )),
    ]


@pytest.mark.parametrize("char", [2, 101, 0])
def test_oracle_equals_duality_degree_by_degree(char):
    # dim H^j_m(M)_ell is dim Ext^{n-j}(M, S(-n))_{-ell}, and by Matlis
    # duality the socle of H^j in degree ell is dual to Ext/m Ext in
    # degree -ell: the minimal generators of the dual in that degree.
    corpus = _duality_corpus(char)
    start = time.perf_counter()
    pairs = nonzero = socles = 0
    for ring, M in corpus:
        n = ring.ambient.n
        for j in range(M.krull_dimension() + 1):
            dual = ext_dual(n - j, M)
            for ell in range(-6, 8):
                dim = koszul_piece(j, M, ell, s_max=12)[0]
                soc = socle_piece(j, M, ell, s_max=12)[0]
                assert dim == module_hilbert(dual, -ell), (j, ell)
                assert soc == dual.generator_degrees.count(-ell), (j, ell)
                pairs += 1
                nonzero += dim > 0
                socles += soc > 0
    elapsed = time.perf_counter() - start
    assert pairs >= 350 and nonzero >= 60 and socles >= 10, (pairs, nonzero, socles)
    assert elapsed < 5 * ORACLE_DUALITY_BUDGET_S[char]


@pytest.mark.parametrize("char", [2, 101, 0])
def test_betti_numbers_are_koszul_homology(char):
    # beta_{i,a} = dim Tor_i(k, M)_a = dim H_i(x; M)_a, and the Koszul
    # complex on x_1..x_n is self-dual: H_i(x; M)_a = H^{n-i}(x; M)_{a-n},
    # stage 1 of the oracle.  The stages read only degree pieces of M and
    # multiplication by the variables, so this checks the resolution
    # without its syzygy and Nakayama runs; one degree past reg + i shows
    # the zeros above the table.  It shares M's relation basis and the
    # modgb normal forms with the resolution, and leaves open a Betti
    # number above reg + i + 1, outside the window read here.
    checked = nonzero = 0
    # _duality_corpus holds the modules of _hom_complex_modules.
    for ring, M in _duality_corpus(char):
        n = ring.ambient.n
        betti = resolutions.minimal_free_resolution(M).betti().entries
        low = min(a for i, a in betti if i == 0)
        reg = max(a - i for i, a in betti)
        for i in range(n + 1):
            for a in range(low + i, reg + i + 2):
                dim = _koszul_stage(M, n - i, a - n, 1).dim
                assert dim == betti.get((i, a), 0), (i, a)
                checked += 1
                nonzero += dim > 0
    assert checked >= 140 and nonzero >= 30, (checked, nonzero)


# -- Ext generators first, relations on demand -------------------------------


def _eager_ext_dual(i, module):
    """Ext^i_S(M, S(-n)) built in one pass, as ``ext_dual`` once did: the
    kernel generators of d_{i+1}^T presented modulo im(d_i^T) by one
    ``present_subquotient`` call, on the module's memoized resolution."""
    ring = module.ring
    base = s_presentation(module).ring
    n = base.n
    res = resolutions.minimal_free_resolution(module)
    if i < 0 or i > res.length or module.is_zero():
        return ModulePresentation(ring, GradedMatrix(ring, (), (), []))
    dual_i = tuple(n - a for a in res.module_twists(i))
    if i < res.length:
        dual_next = tuple(n - a for a in res.module_twists(i + 1))
        gens = syzygies_over(base, block_columns(res.matrices[i].transpose()), dual_next)
    else:
        gens = [{(p, (0,) * n): base.field.one} for p in range(len(dual_i))]
    rels = block_columns(res.matrices[i - 1].transpose()) if i >= 1 else []
    mat = present_subquotient(base, dual_i, gens, rels)[0].matrix
    return ModulePresentation(
        ring, GradedMatrix(ring, mat.target, mat.source, mat.entries, check=False)
    )


def _matrix_data(module):
    mat = module.matrix
    return mat.target, mat.source, mat.entries


def _fresh(module):
    """The same presentation with an empty memo."""
    return ModulePresentation(module.ring, module.matrix)


def _degree_readers(module):
    """Every reader of Ext generator degrees, over all j."""
    n = module.ring.n
    values = [module_dimension(module), socle_report(module).entries]
    values += [(lc_end(j, module), socle_begin(j, module)) for j in range(n + 1)]
    if not module.is_zero():
        values.append(regularity(module))
    return values


@pytest.mark.parametrize("char", [2, 101, 0])
def test_ext_generators_are_the_eager_presentations_generators(char):
    for ring, M in _duality_corpus(char):
        n = ring.ambient.n
        for i in range(-1, n + 2):
            eager = _eager_ext_dual(i, M)
            assert localcoh._ext_generators(i, M).degrees == eager.generator_degrees, i


def _count_relation_runs(monkeypatch):
    """Calls that present relations: ``present_subquotient`` and
    ``present_generators`` where localcoh calls them, and
    ``syzygies_over`` where modules calls it, which only the relations
    half does."""
    calls = []
    for owner, name in (
        (localcoh, "present_subquotient"),
        (localcoh, "present_generators"),
        (modules, "syzygies_over"),
    ):
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("char", [2, 101, 0])
def test_degree_readers_start_no_relation_run(char, monkeypatch):
    corpus = _duality_corpus(char)
    for _, M in corpus:
        resolutions.minimal_free_resolution(M)
    calls = _count_relation_runs(monkeypatch)
    for ring, M in corpus:
        _degree_readers(M)
        assert calls == []
    # The counters see the relation run when a caller asks for the module.
    ring, M = corpus[-1]
    n = ring.ambient.n
    ext_dual(n - M.krull_dimension(), M)
    assert "present_generators" in calls and "syzygies_over" in calls


@pytest.mark.parametrize("char", [2, 101, 0])
def test_ext_dual_is_the_same_in_every_order_of_calls(char):
    for ring, M in _duality_corpus(char):
        n = ring.ambient.n
        degrees_first, presentation_first = _fresh(M), _fresh(M)
        _degree_readers(degrees_first)
        for i in range(-1, n + 2):
            expected = _matrix_data(_eager_ext_dual(i, M))
            late = ext_dual(i, degrees_first)
            early = ext_dual(i, presentation_first)
            assert _matrix_data(late) == _matrix_data(early) == expected, i
            assert localcoh._ext_generators(i, presentation_first).degrees == expected[0]
            assert ext_dual(i, degrees_first) is late
        assert _degree_readers(presentation_first) == _degree_readers(M)
        degrees_only, d = _fresh(M), M.krull_dimension()
        _degree_readers(degrees_only)
        assert ext_k_begin(1, d, degrees_only) == ext_k_begin(1, d, _fresh(M))
    # The canonical module after a degrees-only call on R itself.
    for ring in _hom_complex_rings(char):
        R = quotient_module(ring, [])
        d = ring.dimension()
        socle_begin(d, R)
        omega = canonical_module(ring)
        expected = _matrix_data(_eager_ext_dual(ring.n - d, R))
        assert _matrix_data(ext_dual(ring.n - d, R)) == _matrix_data(omega) == expected


@pytest.mark.parametrize("char", [2, 101, 0])
def test_one_nakayama_pass_per_module_and_index(char, monkeypatch):
    passes = []
    original = localcoh.subquotient_generators

    def counting(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(localcoh, "subquotient_generators", counting)
    for ring, M in _duality_corpus(char):
        n = ring.ambient.n
        length = resolutions.minimal_free_resolution(M).length
        for i in range(-1, n + 2):
            before = len(passes)
            localcoh._ext_generators(i, M)
            ext_dual(i, M)
            lc_end(n - i, M)
            socle_begin(n - i, M)
            ext_dual(i, M)
            assert len(passes) - before == (0 <= i <= length and not M.is_zero())
        before = len(passes)
        _degree_readers(M)
        ext_k_begin(1, M.krull_dimension(), M)
        assert len(passes) == before


def test_dropping_the_last_ext_generator_fails_the_oracle_scan(presentation_xyz, ring_xyz, monkeypatch):
    # Mutation check: with the generators half one generator short, the
    # duality route's degrees should disagree with the Koszul oracle.
    # Of the Ext modules the scan reads, only Ext^3 of S/I^2 (one
    # generator, in degree -3) changes its least or largest degree: the
    # row t = 2, j = 0 turns vanishing, and the oracle finds Soc(M) in
    # degree 3.
    original = localcoh._ext_generators

    def dropping(i, module):
        ext = original(i, module)
        return dataclasses.replace(ext, kept=ext.kept[:-1], degrees=ext.degrees[:-1])

    monkeypatch.setattr(localcoh, "_ext_generators", dropping)
    x, y, z = ring_xyz.gens()
    with pytest.raises(HypothesisError, match=r"j=0.*degree 3"):
        scan_powers(presentation_xyz, Ideal(presentation_xyz, [x * y, y * z, z * x]), 3, oracle=True)


@pytest.mark.parametrize("char", [2, 101, 0])
def test_ext_k_piece_matches_the_old_hom_map(char):
    nonzero = 0
    for ring, M in _hom_complex_modules(char):
        for i in range(3):
            for ell in range(-i - 3, 2):
                value = ext_k_piece(ring, i, M, ell)
                assert value == _reference_ext_k_piece(ring, i, M, ell)
                nonzero += value > 0
    assert nonzero >= 10


def test_koszul_stage_builds_n_multiplication_matrices_per_differential(
    presentation_xyz, monkeypatch
):
    # One matrix per variable and differential: the signs and the repeated
    # x_i^s entries share it.  A cache per row or per signed entry builds more.
    n = 3
    builds = _count_multiplication_builds(monkeypatch)
    for j in range(n + 1):
        builds.clear()
        _koszul_stage(free_module(presentation_xyz, (0,)), j, 0, 2)
        assert len(builds) == n * ((j > 0) + (j < n))
    # The pieces keep their matrices: a second stage whose differential
    # multiplies the same degree by the same x_i^s builds none, and one
    # that shares one of its two differentials builds only the other's.
    M = free_module(presentation_xyz, (0,))
    _koszul_stage(M, 1, 0, 2)
    builds.clear()
    _koszul_stage(M, 0, 2, 2)
    assert builds == []
    _koszul_stage(M, 2, 0, 2)
    assert sorted(d for d, _ in builds) == [4] * n
    # Every stage with the same s and j shares one differential.
    d = localcoh._koszul_matrix(presentation_xyz, 2, 2)
    assert localcoh._koszul_matrix(presentation_xyz, 2, 2) is d


# -- the stage s0, against the search it replaced -----------------------------


def _reference_informative(module, j, ell, s):
    """The old guard: a zero stage counted as evidence only for j = 0 or
    once degree ell + j*s reached the module's least generator degree."""
    if module.is_zero() or j == 0:
        return True
    block_dim = module.piece(ell + j * s).dim
    return block_dim > 0 or ell + j * s >= min(module.generator_degrees)


def _reference_transition_is_iso(ring, a, b):
    """Is the transition from stage a to stage b, block T times x_T, an
    isomorphism?"""
    gens = ring.ambient.gens()

    def multiplier(T):
        f = ring.ambient.one
        for i in T:
            f = f * gens[i]
        return f

    cols = _map_blockwise(a, multiplier, b)
    if not cols:
        return b.dim == 0
    return rank(ring.field, cols, b.dim) == b.dim


def _reference_stable_stage(module, j, ell, s):
    """The old acceptance: stages s and s + 1 agree."""
    a, b = _stage_view(module, j, ell, s), _stage_view(module, j, ell, s + 1)
    if a.dim != b.dim:
        return None
    if a.dim == 0:
        both = _reference_informative(module, j, ell, s) and _reference_informative(
            module, j, ell, s + 1
        )
        return a if both else None
    return a if _reference_transition_is_iso(module.ring, a, b) else None


def _reference_koszul_piece(j, module, ell, s_max=10):
    """The old koszul_piece: the first stage that agrees with the next."""
    for s in range(2, s_max):
        a = _reference_stable_stage(module, j, ell, s)
        if a is not None:
            return a.dim, s
    raise UnstableLimitError(f"no two agreeing stages below s_max={s_max}")


@pytest.mark.parametrize("char", [2, 101, 0])
def test_stage_s0_is_not_too_small(char):
    # A too small s0 shows as a later stage of another dimension, or as a
    # transition that is not an isomorphism.  For j > dim M the oracle
    # answers (0, 2) with no stage; there the stage the twists give must
    # pass the same checks and be 0.
    rng = random.Random(9000 + char)
    nonzero = vanishing = 0
    for ring, M in _hom_complex_modules(char):
        n = ring.ambient.n
        for j in range(n + 1):
            for ell in sorted(rng.sample(range(-n - 2, 3), 3)):
                dim, s0 = koszul_piece(j, M, ell, s_max=12)
                if j > module_dimension(M):
                    assert (dim, s0) == (0, 2)
                    s0 = _twist_stage(j, M, ell)
                    vanishing += 1
                stages = [_stage_view(M, j, ell, s) for s in (s0, s0 + 1, s0 + 2)]
                assert len({st.dim for st in stages}) == 1, (j, ell, s0)
                for a, b in zip(stages, stages[1:]):
                    assert _reference_transition_is_iso(ring, a, b), (j, ell, s0)
                assert stages[0].dim == dim, (j, ell, s0)
                nonzero += stages[0].dim > 0
    assert nonzero >= 10 and vanishing >= 5


def _twist_stage(j, module, ell):
    """s0 = max(2, 1 + b - n - ell) from the resolution's twists alone."""
    n = module.ring.ambient.n
    res = resolutions.minimal_free_resolution(module)
    twists = [b for k in (n - j - 1, n - j, n - j + 1) for b in res.module_twists(k)]
    return max([2] + [1 + b - n - ell for b in twists])


def _zero_modules(ring):
    """The zero module, presented with no generator and as R/(1)."""
    empty = ModulePresentation(ring, GradedMatrix(ring, (), (), []))
    return [empty, quotient_module(ring, [ring.ambient.one])]


def test_module_dimension_of_the_zero_module(presentation_xy):
    for zero in _zero_modules(presentation_xy):
        assert module_dimension(zero) == zero.krull_dimension() == -1


def test_regularity_of_the_zero_module_is_refused(presentation_xy):
    for zero in _zero_modules(presentation_xy):
        with pytest.raises(DomainError, match="zero module"):
            regularity(zero)
