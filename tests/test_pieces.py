"""Degree pieces from the relation basis, against the Span-based reference.

``modules.GradedPiece`` reads the piece (F/N)_d of a presented module off
the reduced Groebner basis of N: the standard terms are its basis and
``project`` reads coordinates off the normal form.  The Span-based piece
it replaced (``span_reference.ReferencePiece``) uses no module Groebner
basis.  The bases differ, so the tests compare what does not depend on
them: dimensions, which vectors project to zero, ranks of projected
families, and ranks of multiplication matrices.  Inputs are seeded, over
GF(2), GF(101) and QQ, the polynomial ring k[a,b,c,d] and the twisted
cubic quotient, ranks 1 to 3 with negative twists, and Ext modules from
the duality route.  The staircase lookup that finds the standard terms
is held to the divisor scan it replaced (``span_reference.divisor_scan``),
term for term and code for code.
"""

import gc
import random
import time
import weakref

import pytest

import soclelab.modules as modules

from soclelab.errors import UnstableLimitError
from soclelab.fields import field_of
from soclelab.groebner import Ideal, hilbert_function, ideal_power, krull_dimension
from soclelab.localcoh import (
    canonical_module,
    ext_dual,
    koszul_piece,
    module_dimension,
    socle_piece,
)
from soclelab.modules import (
    GradedMatrix,
    GradedPiece,
    ModulePresentation,
    Staircase,
    module_hilbert,
    quotient_module,
    s_presentation,
)
from soclelab.monomials import mono_mul, monomials_of_degree
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation
from span_reference import ReferencePiece, divisor_scan, rank

CHARS = [2, 101, 0]


def _ring(char, quotient):
    S = PolyRing(field_of(char), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    return RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2] if quotient else [])


def _random_form(rng, S, degree):
    if degree < 0 or rng.random() < 0.2:
        return S.zero
    monos = list(monomials_of_degree(S.n, degree))
    terms = {m: S.field.of(rng.randint(1, 7)) for m in rng.sample(monos, min(len(monos), 3))}
    return S.from_terms(terms.items())


def _modules(char, quotient):
    """Seeded presentations of rank 1 to 3, twists in -2..1, a seeded
    cyclic quotient and its nonzero Ext modules Ext^{n-1} and Ext^{n-2}."""
    ring = _ring(char, quotient)
    S = ring.ambient
    rng = random.Random(4100 + char + 13 * quotient)
    for _ in range(4):
        target = tuple(rng.randint(-2, 1) for _ in range(rng.randint(1, 3)))
        source = tuple(max(target) + rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
        entries = [[_random_form(rng, S, b - a) for b in source] for a in target]
        yield ModulePresentation(ring, GradedMatrix(ring, target, source, entries)), False
    gens = [_random_form(rng, S, 2) for _ in range(2)] + [S.var(rng.randrange(S.n)) ** 3]
    cyclic = quotient_module(ring, gens)
    yield cyclic, False
    n = S.n
    for i in (n - 1, n - 2):
        dual = ext_dual(i, cyclic)
        if not dual.is_zero():
            yield dual, True


def _random_vector(rng, module, degree):
    """A random vector of the given degree over all monomials, standard or not."""
    S = module.ring.ambient
    vec = {}
    for i, a in enumerate(module.matrix.target):
        monos = list(monomials_of_degree(S.n, degree - a)) if degree >= a else []
        for m in rng.sample(monos, min(len(monos), rng.randint(0, 3))):
            vec[(i, m)] = S.field.of(rng.choice([1, 3, 5, 7]))
    return vec


def _relation_multiple(rng, module, degree):
    """A monomial multiple of one presentation column, in the given degree:
    zero in M."""
    mat = module.matrix
    S = module.ring.ambient
    cols = [j for j, b in enumerate(mat.source) if b <= degree]
    if not cols:
        return {}
    j = rng.choice(cols)
    m = rng.choice(monomials_of_degree(S.n, degree - mat.source[j]))
    vec = {}
    for i in range(mat.rows):
        for mm, c in (mat.entries[i][j] * S.monomial(m)).terms.items():
            vec[(i, mm)] = c
    return vec


def _add(F, u, v):
    out = dict(u)
    for t, c in v.items():
        out[t] = F.add(out.get(t, F.zero), c)
        if F.is_zero(out[t]):
            del out[t]
    return out


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("quotient", [False, True])
def test_pieces_match_the_span_reference(char, quotient):
    rng = random.Random(4200 + char + 13 * quotient)
    S = _ring(char, quotient).ambient
    F = S.field
    seen = nonzero = zero_projections = ranks = duals = 0
    for module, is_dual in _modules(char, quotient):
        duals += is_dual
        low = min(module.matrix.target)
        for d in range(low, low + 4):
            piece, ref = module.piece(d), ReferencePiece(module, d)
            assert piece.dim == ref.dim, (module, d)
            assert len(piece.terms) == piece.dim
            nonzero += piece.dim > 0
            vecs = [_random_vector(rng, module, d) for _ in range(3)]
            rel = _relation_multiple(rng, module, d)
            vecs += [rel, _add(F, vecs[0], rel)]
            projected = [piece.project(v) for v in vecs]
            reference = [ref.project(v) for v in vecs]
            for new, old in zip(projected, reference):
                assert (not new) == (not old)
                zero_projections += not new
            assert not projected[3] and projected[4] == projected[0]
            assert rank(F, projected, piece.dim) == rank(F, reference, ref.dim)
            for f in (S.var(rng.randrange(S.n)), _random_form(rng, S, rng.randint(1, 2))):
                if f.is_zero():
                    continue
                target = module.piece(d + f.degree())
                mult = piece.multiplication_matrix(f)
                assert len(mult) == piece.dim
                assert piece.multiplication_matrix(f) is mult
                assert rank(F, mult, target.dim) == rank(
                    F, ref.multiplication_matrix(f), target.dim
                )
                ranks += 1
            seen += 1
    assert seen >= 20 and nonzero >= 10 and zero_projections >= 5 and ranks >= 20
    assert duals >= 1


@pytest.mark.parametrize("char", CHARS)
def test_multiplication_columns_are_projections_of_the_shifted_terms(char, monkeypatch):
    # A column sums the kept normal forms of the shifted terms of f; it must
    # be the projection of the shifted basis vector, entry for entry, and
    # each term's normal form is computed once.
    S = _ring(char, False)
    tc = _ring(char, True)
    a, b, c, d = S.ambient.gens()
    curve = Ideal(S, [a * c - b**2, a * d - b * c, b * d - c**2])
    modules_ = [
        quotient_module(S, ideal_power(curve, 2).generators),
        quotient_module(tc, [a * b + c**2]).twist(1),
        canonical_module(tc),
    ]
    calls = []
    original = modules.normal_form_vec

    def counting(vec, *args):
        calls.append(vec)
        return original(vec, *args)

    monkeypatch.setattr(modules, "normal_form_vec", counting)
    columns = nonzero = 0
    for module in modules_:
        low = min(module.matrix.target)
        for deg in range(low, low + 4):
            piece = module.piece(deg)
            for f in (a + b, b**2 - a * c, d):
                target = module.piece(deg + f.degree())
                cols = piece.multiplication_matrix(f)
                shifted = [
                    {(i, mono_mul(m, e)): coef for e, coef in f.terms.items()}
                    for i, m in piece.terms
                ]
                assert cols == [target.project(v) for v in shifted]
                columns += len(cols)
                nonzero += sum(map(bool, cols))
        # Only single terms were reduced, each once: the pieces keep every
        # normal form computed.
        assert all(len(v) == 1 for v in calls)
        pieces = [v for k, v in module._memo.items() if k[0] == "piece"]
        assert sum(len(p._memo.get("term_nf", ())) for p in pieces) == len(calls) > 0
        calls.clear()
    assert columns >= 100 and nonzero >= 50


def test_multiplication_columns_across_a_wider_table():
    # Exponents of degree 32767 fit 15-bit fields and those of degree
    # 32768 need 16, so multiplying the lower piece into the upper one
    # encodes its basis terms again on the target's table.
    S = PolyRing(field_of(101), ("x", "y"))
    x, y = S.gens()
    M = quotient_module(RingPresentation(S), [y**2])
    piece, target = M.piece(32767), M.piece(32768)
    assert (piece.table.bits, target.table.bits) == (15, 16)
    for f in (x, 2 * x + 3 * y):
        shifted = [
            {(i, mono_mul(m, e)): coef for e, coef in f.terms.items()}
            for i, m in piece.terms
        ]
        cols = piece.multiplication_matrix(f)
        assert cols == [target.project(v) for v in shifted]
        assert len(cols) == 2 and all(cols)


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("quotient", [False, True])
def test_staircase_pieces_equal_the_divisor_scan(char, quotient):
    # Fresh modules are asked for their pieces from the top degree down,
    # which fills each staircase at once, and from the bottom up, which
    # extends it one degree at a time.  Ext duals are among the modules.
    pieces, nonzero, duals = {}, 0, 0
    for descending in (True, False):
        count = 0
        for module, is_dual in _modules(char, quotient):
            duals += is_dual
            low = min(module.matrix.target)
            degrees = range(low, low + 7)
            for d in reversed(degrees) if descending else degrees:
                piece = module.piece(d)
                assert (piece.terms, piece.codes) == divisor_scan(module, d), (module, d)
                count += 1
                nonzero += piece.dim > 0
        pieces[descending] = count
    assert pieces[True] == pieces[False] >= 42 and nonzero >= 60 and duals >= 2


def test_staircase_heights():
    # Leads a^2, b*c^3 and c^5 in k[a,b,c]: a prefix (e_a, e_b) has the
    # least c exponent of the leads below it as its height.  Below (0, 1)
    # lie b*c^3 and c^5, below (2, 0) lie a^2 and c^5, below (1, 0) only c^5.
    stair = Staircase([(2, 0, 0), (0, 1, 3), (0, 0, 5)])
    height = stair.extend(2)
    assert height == {
        (0, 0): 5, (1, 0): 5, (0, 1): 3, (2, 0): 0, (1, 1): 3, (0, 2): 3,
    }
    # Asking for a lower degree adds nothing; one degree more adds the
    # four prefixes of degree 3.
    assert stair.extend(1) is height and len(height) == 6
    assert stair.extend(3) == {
        **height, (3, 0): 0, (2, 1): 0, (1, 2): 3, (0, 3): 3,
    }
    assert len(height) == 10
    assert Staircase([]).extend(4) == {}


def test_staircase_of_one_variable_and_of_a_free_summand():
    # In k[x] every lead has the empty prefix.  A free summand of a module
    # has no lead in its position: every candidate there is standard.
    S = PolyRing(field_of(101), ("x",))
    (x,) = S.gens()
    M = quotient_module(RingPresentation(S), [x**3])
    assert [M.piece(d).dim for d in range(6)] == [1, 1, 1, 0, 0, 0]
    assert M._memo[("staircase", 0)].height == {(): 3}
    T = PolyRing(field_of(101), ("a", "b", "c"))
    a, b, c = T.gens()
    R = RingPresentation(T)
    N = ModulePresentation(R, GradedMatrix(R, (0, 1), (2, 2), [[a**2, b * c], [T.zero, T.zero]]))
    for d in range(5):
        piece = N.piece(d)
        assert (piece.terms, piece.codes) == divisor_scan(N, d)
        assert sum(i == 1 for i, _ in piece.terms) == len(monomials_of_degree(3, d - 1))
    assert N._memo[("staircase", 1)].height == {}
    assert N._memo[("staircase", 0)].height[(0, 1)] == 1


def test_a_staircase_is_freed_with_its_module():
    # The table lives in the module's memo and nowhere else: once the
    # module and its pieces go, so does the table.
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    a, b = S.gens()[:2]
    M = quotient_module(RingPresentation(S), [a**2, a * b**3])
    assert M.piece(12).dim == len(divisor_scan(M, 12)[0])
    stair = M._memo[("staircase", 0)]
    # One entry per prefix (a, b, c) of degree <= 12 with a >= 2, or a = 1 and b >= 3.
    assert len(stair.height) == sum(
        1 for e in range(13) for p in monomials_of_degree(3, e) if p[0] >= 2 or (p[0] == 1 and p[1] >= 3)
    )
    gone = weakref.ref(stair)
    del M, stair
    gc.collect()
    assert gone() is None


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("quotient", [False, True])
def test_the_hilbert_series_counts_the_pieces(char, quotient):
    # module_hilbert reads the series; the pieces enumerate standard terms.
    # Folds over S share the module's series and must count the same.
    nonzero = 0
    for module, _ in _modules(char, quotient):
        low = min(module.matrix.target)
        fold = s_presentation(module)
        for d in range(low - 2, low + 6):
            dim = module.piece(d).dim
            assert module_hilbert(module, d) == dim, (module, d)
            assert module_hilbert(fold, d) == fold.piece(d).dim == dim, (fold, d)
            nonzero += dim > 0
    assert nonzero >= 20


def test_a_count_from_the_series_builds_no_piece_and_no_resolution(monkeypatch):
    # (S/a^2)_200 over GF(2)[a,b,c,d] has 40401 monomials; enumerating them
    # as a piece takes seconds.  Counting, the dimension and the j = 0
    # vanishing rule of the oracle all read the series.
    from soclelab import localcoh, resolutions

    built, resolved = [], []
    true_init, true_resolution = GradedPiece.__init__, resolutions.minimal_free_resolution

    def counting_init(piece, module, degree):
        built.append(degree)
        true_init(piece, module, degree)

    def counting_resolution(module):
        resolved.append(module)
        return true_resolution(module)

    monkeypatch.setattr(GradedPiece, "__init__", counting_init)
    for owner in (resolutions, localcoh):
        monkeypatch.setattr(owner, "minimal_free_resolution", counting_resolution)
    S = PolyRing(field_of(2), ("a", "b", "c", "d"))
    M = quotient_module(RingPresentation(S), [S.gens()[0] ** 2])
    start = time.perf_counter()
    assert module_hilbert(M, 200) == 40401
    elapsed = time.perf_counter() - start
    assert hilbert_function(M, 200) == 40401
    assert krull_dimension(M) == M.krull_dimension() == 3
    assert koszul_piece(0, M, -1) == (0, 2)
    assert not built and not resolved
    assert elapsed < 0.1


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("quotient", [False, True])
def test_krull_dimension_from_the_relation_basis_matches_duality(char, quotient):
    # Rank-3 presentations over the twisted cubic are left out: the duality
    # route resolves their fold over S, which takes seconds.
    checked = 0
    for module, _ in _modules(char, quotient):
        if quotient and module.matrix.rows > 2:
            continue
        assert module.krull_dimension() == module_dimension(module)
        checked += 1
    assert checked >= 3


def test_grothendieck_vanishing_above_the_dimension():
    # M = S/(xy,yz,zx)^4 has dimension 1.  Its resolution's twists prove
    # H^3 equal to Koszul stage 12, 11 and 10 at ell = -6, -5, -4, not
    # below the default s_max = 10; H^3 vanishes because 3 > dim M.
    S = PolyRing(field_of(101), ("x", "y", "z"))
    x, y, z = S.gens()
    R = RingPresentation(S)
    M = quotient_module(R, list(ideal_power(Ideal(R, [x * y, y * z, z * x]), 4).generators))
    assert M.krull_dimension() == module_dimension(M) == 1
    for ell in range(-6, -3):
        assert koszul_piece(3, M, ell) == (0, 2)
        assert socle_piece(3, M, ell) == (0, 2)
        assert koszul_piece(2, M, ell) == (0, 2)
    # At or below dim M the stage bound still applies.
    with pytest.raises(UnstableLimitError):
        koszul_piece(1, M, -20)

