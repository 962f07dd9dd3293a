"""The one kernel routine and the one block-column builder.

``modules.syzygies_over(ring, columns, twists, rels)`` and
``modules.block_columns(matrix, r)`` replaced several hand-written copies
in the homological layer.  The old bodies are kept here as references.
The block layouts must be equal term for term; the kernel routine, which
tags only the columns and returns Schreyer generators, must generate the
same module as the old cut of the full reduced Groebner basis of columns
and relations tagged together (equal reduced Groebner bases).  Inputs are
seeded and homogeneous, over GF(2), GF(101) and QQ, with and without ring
relations, zero entries, zero rows and zero columns.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab import modgb, modules
from soclelab.fields import field_of
from soclelab.groebner import Ideal, minimal_generators
from soclelab.linalg import rank
from soclelab.localcoh import ideal_as_module
from soclelab.modgb import VectorOrder, buchberger_vectors, vec_degree
from soclelab.modules import (
    GradedMatrix,
    ModulePresentation,
    block_columns,
    free_piece_basis,
    matrix_from_vectors,
    minimalize_presentation,
    nakayama_minimal_subset,
    quotient_module,
    syzygies_over,
    vec_reduce_components,
)
from soclelab.monomials import mono_mul, monomials_of_degree
from soclelab.poly import PolyRing
from soclelab.resolutions import _hom_free_into, syzygy
from soclelab.rings import RingPresentation

CHARS = [2, 101, 0]


def _ring(char, quotient):
    S = PolyRing(field_of(char), ("x", "y", "z"))
    x, y, z = S.gens()
    return RingPresentation(S, [x * y - z**2] if quotient else [])


def _random_form(rng, S, degree):
    if degree < 0 or rng.random() < 0.3:
        return S.zero
    F = S.field
    monos = list(monomials_of_degree(S.n, degree))
    terms = {}
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        c = F.of(rng.randint(-5, 5))
        if not F.is_zero(c):
            terms[m] = c
    return S.from_terms(terms.items())


def _random_matrix(rng, ring, target, cols, zero_row=False):
    """Homogeneous matrix into the given twists, with random source twists;
    entry (i, j) has degree source[j] - target[i] (zero when negative)."""
    source = [max(target, default=0) + rng.randint(0, 2) for _ in range(cols)]
    entries = [
        [_random_form(rng, ring.ambient, b - a) for b in source] for a in target
    ]
    if zero_row and target:
        entries[rng.randrange(len(target))] = [ring.ambient.zero] * cols
    return GradedMatrix(ring, target, source, entries)


def _cases():
    for char in CHARS:
        for quotient in (False, True):
            ring = _ring(char, quotient)
            rng = random.Random(500 + char + 7 * quotient)
            for k in range(6):
                target = [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
                mat = _random_matrix(rng, ring, target, rng.randint(0, 4), k % 2 == 0)
                yield ring, mat


# ---------------------------------------------------------------------------
# The old block layouts.


def _reference_column_vector(mat, j):
    vec = {}
    for i in range(mat.rows):
        f = mat.entries[i][j]
        for m, c in f.terms.items():
            vec[(i, m)] = c
    return vec


def _reference_tensor_map_columns(d_matrix, r):
    cols = []
    for v in range(d_matrix.cols):
        for g in range(r):
            col = {}
            for u in range(d_matrix.rows):
                f = d_matrix.entries[u][v]
                for m, c in f.terms.items():
                    col[(u * r + g, m)] = c
            cols.append(col)
    return cols


def _reference_phi_cols(ring, a_mat, r):
    phi_cols = []
    for i in range(a_mat.rows):
        for g in range(r):
            col = {}
            for j in range(a_mat.cols):
                f = a_mat.entries[i][j]
                for m, c in f.terms.items():
                    key = (j * r + g, m)
                    col[key] = ring.field.add(col.get(key, ring.field.zero), c)
            phi_cols.append(col)
    return phi_cols


def _reference_dual_map_columns(mat):
    cols = []
    for u in range(mat.rows):
        col = {}
        for v in range(mat.cols):
            f = mat.entries[u][v]
            for m, c in f.terms.items():
                col[(v, m)] = c
        cols.append(col)
    return cols


def _reference_hom_free_into(module, twists):
    r = len(module.generator_degrees)
    target = []
    for a in twists:
        for g in module.generator_degrees:
            target.append(g - a)
    cols = []
    mat = module.matrix
    for i in range(len(twists)):
        for j in range(mat.cols):
            col = {}
            for g in range(mat.rows):
                f = mat.entries[g][j]
                for m, c in f.terms.items():
                    col[(i * r + g, m)] = c
            cols.append(col)
    return tuple(target), cols


def shifted_sum(module, shifts):
    """Direct sum of copies of the module twisted by -shift for each shift:
    the presentation whose twists and columns ``_hom_free_into`` returns."""
    target, cols = _hom_free_into(module, [-s for s in shifts])
    source = tuple(b + s for s in shifts for b in module.matrix.source)
    return ModulePresentation(
        module.ring, matrix_from_vectors(module.ring, target, cols, source)
    )


def _items(cols):
    return [list(col.items()) for col in cols]


def test_block_columns_match_the_old_layouts():
    seen = 0
    for ring, mat in _cases():
        assert _items(block_columns(mat)) == _items(
            [_reference_column_vector(mat, j) for j in range(mat.cols)]
        )
        assert _items(block_columns(mat.transpose())) == _items(
            _reference_dual_map_columns(mat)
        )
        for r in (1, 2, 3):
            assert _items(block_columns(mat, r)) == _items(
                _reference_tensor_map_columns(mat, r)
            )
            assert _items(block_columns(mat.transpose(), r)) == _items(
                _reference_phi_cols(ring, mat, r)
            )
        seen += 1
    assert seen == 36


def test_transpose_is_the_dual_map():
    ring = _ring(101, True)
    mat = _random_matrix(random.Random(3), ring, [0, 1], 3)
    dual = mat.transpose()
    assert dual.target == tuple(-b for b in mat.source)
    assert dual.source == tuple(-a for a in mat.target)
    assert (dual.rows, dual.cols) == (mat.cols, mat.rows)
    dual._validate()
    assert dual.transpose().entries == mat.entries
    # A matrix with rows but no columns keeps its rows as dual columns.
    empty = GradedMatrix(ring, (0, 1), (), [[], []])
    assert empty.transpose().cols == 2
    assert block_columns(empty.transpose(), 2) == [{}] * 4


def test_hom_free_into_and_shifted_sum_match_the_copy_loops():
    rng = random.Random(17)
    for ring, mat in _cases():
        module = ModulePresentation(ring, mat)
        twists = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
        target, cols = _hom_free_into(module, twists)
        ref_target, ref_cols = _reference_hom_free_into(module, twists)
        assert target == ref_target
        assert _items(cols) == _items(ref_cols)
        summed = shifted_sum(module, twists)
        assert summed.generator_degrees == tuple(
            g + s for s in twists for g in mat.target
        )
        assert summed.matrix.source == tuple(
            b + s for s in twists for b in mat.source
        )
        assert block_columns(summed.matrix) == ref_cols


# ---------------------------------------------------------------------------
# The kernel routine.


class _FullBasisOrder:
    """A tag-block order that does not declare its tag block: the engine
    then pairs every element and returns the full reduced basis."""

    def __init__(self, order):
        self.table, self.split = order.table, None


def _reference_kernel_block(ring, phi_cols, dst_twists, dst_rels):
    """The old cut: the reduced Groebner basis of columns and rels tagged
    together (and the ring relations untagged), its elements supported on
    the tags, then their head at the columns' positions."""
    m, width = len(dst_twists), len(phi_cols)
    cols = list(phi_cols) + list(dst_rels)
    zero = (0,) * ring.n
    tagged = [col | {(m + i, zero): ring.field.one} for i, col in enumerate(cols)]
    extra = [
        {(i, mm): c for mm, c in rel.terms.items()}
        for rel in ring.relations
        for i in range(m)
    ]
    degs = [vec_degree(v, dst_twists) or 0 for v in cols]
    order = VectorOrder(
        ring.ambient.order.key,
        twists=tuple(dst_twists) + tuple(degs),
        split=m,
    )
    out = []
    for g in buchberger_vectors(tagged + extra, _FullBasisOrder(order), ring.field):
        if any(pos < m for pos, _ in g):
            continue
        head = {(pos - m, e): c for (pos, e), c in g.items() if pos - m < width}
        head = vec_reduce_components(ring, head)
        if head:
            out.append(head)
    return out


def _kernel_cases():
    """(ring, columns, twists, rels): a random map into a random cokernel."""
    for char in CHARS:
        for quotient in (False, True):
            ring = _ring(char, quotient)
            rng = random.Random(900 + char + 7 * quotient)
            for k in range(5):
                target = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
                mat = _random_matrix(rng, ring, target, rng.randint(0, 3), k % 2 == 0)
                rel_mat = _random_matrix(rng, ring, target, rng.randint(0, 2))
                yield ring, block_columns(mat), target, block_columns(rel_mat)


def _combination(vec, columns):
    """sum_j v_j columns_j, for v with components at positions j."""
    out = {}
    for (j, m), c in vec.items():
        for (pos, mm), cc in columns[j].items():
            key = (pos, mono_mul(m, mm))
            out[key] = out.get(key, 0) + c * cc
    return out


def _canonical_span(ring, vectors, twists):
    """Reduced Groebner basis of <vectors> + a*F, a the ring relations.

    One fixed order (degree-aware, the ring's monomial order), so two
    generating sets of one submodule of R^r give equal bases.
    """
    gens = list(vectors)
    for rel in ring.relations:
        for i in range(len(twists)):
            gens.append({(i, m): c for m, c in rel.terms.items()})
    order = VectorOrder(ring.ambient.order.key, twists=tuple(twists))
    gb = buchberger_vectors(gens, order, ring.field)
    return sorted(sorted(g.items()) for g in gb)


def test_syzygies_over_with_rels_matches_the_old_kernel_block():
    seen = zero_cols = with_rels = quotients = 0
    for ring, cols, twists, rels in _kernel_cases():
        new = syzygies_over(ring, cols, twists, rels)
        ref = _reference_kernel_block(ring, cols, twists, rels)
        src = _column_twists(cols, twists)
        assert _canonical_span(ring, new, src) == _canonical_span(ring, ref, src)
        seen += 1
        zero_cols += sum(not c for c in cols)
        with_rels += bool(rels)
        quotients += not ring.is_polynomial_ring
    assert seen >= 20 and zero_cols and with_rels and quotients


def _column_twists(cols, twists):
    return [vec_degree(c, twists) or 0 for c in cols]


def _check_lands_in_relations(ring, cols, twists, rels, gens):
    """Every generator v has sum_j v_j col_j in <rels> + ring relations;
    returns the number of generators checked."""
    F = ring.field
    target = ModulePresentation(ring, matrix_from_vectors(ring, twists, rels))
    for v in gens:
        assert v == vec_reduce_components(ring, v)
        combo = {t: F.of(c) for t, c in _combination(v, cols).items()}
        combo = {t: c for t, c in combo.items() if not F.is_zero(c)}
        if combo:
            assert not target.piece(vec_degree(combo, twists)).project(combo)
    return len(gens)


def _check_spans_the_kernel(ring, cols, twists, rels, gens):
    """In each of three degrees, the generators' multiples span the whole
    kernel of (free module on the columns) -> (target free module / rels)."""
    F = ring.field
    target = ModulePresentation(ring, matrix_from_vectors(ring, twists, rels))
    src = _column_twists(cols, twists)
    kernel_span = ModulePresentation(ring, matrix_from_vectors(ring, src, gens))
    for d in range(min(src), min(src) + 3):
        basis = free_piece_basis(ring, src, d)
        images = []
        for j, m in basis:
            vec = {(pos, mono_mul(mm, m)): c for (pos, mm), c in cols[j].items()}
            images.append(target.piece(d).project(vec) if vec else {})
        kernel_dim = len(basis) - rank(F, images, target.piece(d).dim)
        assert len(basis) - kernel_span.piece(d).dim == kernel_dim


def test_syzygies_over_generators_land_in_the_relations():
    checked = 0
    for ring, cols, twists, rels in _kernel_cases():
        gens = syzygies_over(ring, cols, twists, rels)
        checked += _check_lands_in_relations(ring, cols, twists, rels, gens)
    assert checked >= 20


def test_syzygies_over_generators_span_the_kernel_in_low_degrees():
    for ring, cols, twists, rels in _kernel_cases():
        if not cols:
            continue
        gens = syzygies_over(ring, cols, twists, rels)
        _check_spans_the_kernel(ring, cols, twists, rels, gens)


# Examples of the differential test below; derandomized, so every run
# draws the same ones.  They cost about 2 s of tier-1 (at most 3 s).
MAX_EXAMPLES = 300


# Seconds the QQ case below is budgeted; the assert allows ten times that,
# so only a return of the coefficient blow-up (over 20 s when the engine
# also computed the syzygies among the relations) can fail it.
QQ_CASE_BUDGET_S = 0.5


def test_syzygies_over_qq_quotient_four_columns_three_relations():
    """4 columns into (QQ[x,y,z]/(xy - z^2))^3 modulo 3 relation columns."""
    ring = _ring(0, True)
    rng = random.Random(7017)
    target = [rng.randint(0, 2) for _ in range(3)]
    cols = block_columns(_random_matrix(rng, ring, target, 4))
    rels = block_columns(_random_matrix(rng, ring, target, 3))
    assert len(cols) == 4 and len(rels) == 3
    start = time.perf_counter()
    gens = syzygies_over(ring, cols, target, rels)
    elapsed = time.perf_counter() - start
    assert elapsed < 10 * QQ_CASE_BUDGET_S
    assert _check_lands_in_relations(ring, cols, target, rels, gens)
    _check_spans_the_kernel(ring, cols, target, rels, gens)


@settings(derandomize=True, max_examples=MAX_EXAMPLES, deadline=None)
@given(
    char=st.sampled_from(CHARS),
    quotient=st.booleans(),
    nvars=st.integers(1, 3),
    target=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    ncols=st.integers(1, 3),
    nrels=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_syzygies_over_differential(char, quotient, nvars, target, ncols, nrels, seed):
    """Random homogeneous columns and relations, in at most 3 variables
    (3 with the relation xy - z^2): the Schreyer generators land in the
    relations and span the module the full reduced basis cuts out."""
    if quotient:
        ring = _ring(char, True)
    else:
        ring = RingPresentation(PolyRing(field_of(char), ("x", "y", "z")[:nvars]), [])
    rng = random.Random(seed)
    cols = block_columns(_random_matrix(rng, ring, target, ncols))
    rels = block_columns(_random_matrix(rng, ring, target, nrels))
    gens = syzygies_over(ring, cols, target, rels)
    _check_lands_in_relations(ring, cols, target, rels, gens)
    src = _column_twists(cols, target)
    ref = _reference_kernel_block(ring, cols, target, rels)
    assert _canonical_span(ring, gens, src) == _canonical_span(ring, ref, src)


def _count_kernel_work(monkeypatch):
    """Count normal forms and returned vectors inside syzygies_vectors."""
    seen = {"normal_forms": 0, "vectors": 0, "inside": False}
    normal_form, kernel = modgb.normal_form_vec, modules.syzygies_vectors

    def counted_normal_form(*args):
        seen["normal_forms"] += seen["inside"]
        return normal_form(*args)

    def counted_kernel(*args):
        seen["inside"] = True
        try:
            out = kernel(*args)
        finally:
            seen["inside"] = False
        seen["vectors"] += len(out)
        return out

    monkeypatch.setattr(modgb, "normal_form_vec", counted_normal_form)
    monkeypatch.setattr(modules, "syzygies_vectors", counted_kernel)
    return seen


def test_relations_of_four_quadrics_are_the_four_s_pair_remainders(monkeypatch):
    """S/(q1..q4): the kernel of the column e_0 modulo the quadrics is
    generated by the 4 remainders of the S-pairs of e_0 with each q_i; no
    Groebner basis of the quadrics is built on the tag block."""
    S = PolyRing(field_of(32003), ("a", "b", "c", "d", "e"))
    monos = list(monomials_of_degree(S.n, 2))
    rng = random.Random(4)
    quads = [
        S.from_terms((m, S.field.of(rng.randrange(1, 32003))) for m in monos)
        for _ in range(4)
    ]
    seen = _count_kernel_work(monkeypatch)
    pres = minimalize_presentation(quotient_module(RingPresentation(S, []), quads))
    assert pres.matrix.source == (2, 2, 2, 2)
    assert seen["normal_forms"] == 4
    assert seen["vectors"] == 4


# Seconds the cyclic-5 presentation below is budgeted; the assert allows
# five times that.  With the tag remainders paired into a full reduced
# basis of cyclic-5, it did not finish in 300 s.
CYCLIC5_BUDGET_S = 1.0


def test_minimal_presentation_of_homogenized_cyclic5():
    S = PolyRing(field_of(32003), ("a", "b", "c", "d", "e", "h"))
    v = S.gens()[:5]
    gens = [
        sum((_cyclic_product(v, i, k) for i in range(5)), S.zero) for k in range(1, 5)
    ]
    gens.append(_cyclic_product(v, 0, 5) - S.gens()[5] ** 5)
    start = time.perf_counter()
    pres = minimalize_presentation(quotient_module(RingPresentation(S, []), gens))
    elapsed = time.perf_counter() - start
    assert elapsed < 5 * CYCLIC5_BUDGET_S
    assert pres.matrix.source == (1, 2, 3, 4, 5)


# Seconds budgeted for the first syzygy step of the same presentation:
# 64 raw Schreyer syzygies, of which graded Nakayama keeps 10.  With the
# degree-piece Span route, its minimalization alone took 148.8 s.
CYCLIC5_SYZYGY_BUDGET_S = 1.0


def test_first_syzygy_of_homogenized_cyclic5_keeps_ten():
    S = PolyRing(field_of(32003), ("a", "b", "c", "d", "e", "h"))
    v = S.gens()[:5]
    gens = [
        sum((_cyclic_product(v, i, k) for i in range(5)), S.zero) for k in range(1, 5)
    ]
    gens.append(_cyclic_product(v, 0, 5) - S.gens()[5] ** 5)
    pres = minimalize_presentation(quotient_module(RingPresentation(S, []), gens))
    start = time.perf_counter()
    first = syzygy(pres.matrix)
    elapsed = time.perf_counter() - start
    assert elapsed < 5 * CYCLIC5_SYZYGY_BUDGET_S
    assert first.cols == 10


def _cyclic_product(v, start, k):
    out = v[start]
    for j in range(1, k):
        out = out * v[(start + j) % len(v)]
    return out


# ---------------------------------------------------------------------------
# ideal_as_module, now one present_subquotient call.


def _reference_ideal_as_module(ideal):
    ring = ideal.ring
    gens = minimal_generators(ideal)
    if not gens:
        return ModulePresentation(ring, GradedMatrix(ring, (), (), []))
    degrees = tuple(f.degree() for f in gens)
    row_cols = [{(0, m): c for m, c in f.terms.items()} for f in gens]
    syz = syzygies_over(ring, row_cols, (0,))
    keep = nakayama_minimal_subset(ring, degrees, syz)
    vecs = [vec_reduce_components(ring, syz[k]) for k in keep]
    return ModulePresentation(ring, matrix_from_vectors(ring, degrees, vecs))


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("quotient", [False, True])
def test_ideal_as_module_matches_the_old_body(char, quotient):
    ring = _ring(char, quotient)
    S = ring.ambient
    rng = random.Random(700 + char + quotient)
    presented = 0
    for _ in range(8):
        gens = [_random_form(rng, S, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        gens += [f * S.var(rng.randrange(S.n)) for f in gens[:1]]
        rng.shuffle(gens)
        ideal = Ideal(ring, gens)
        new, ref = ideal_as_module(ideal).matrix, _reference_ideal_as_module(ideal).matrix
        assert (new.target, new.source) == (ref.target, ref.source)
        assert [[list(f.terms.items()) for f in row] for row in new.entries] == [
            [list(f.terms.items()) for f in row] for row in ref.entries
        ]
        presented += bool(ref.source)
    assert presented
