"""Graded Nakayama by truncated Groebner normal forms.

``modules.nakayama_minimal_subset`` decides each candidate by its normal
form against a degree-truncated Groebner basis (``modgb``).  The old body,
which built the whole degree piece of the free module as a ``Span`` of
monomial multiples, is kept here as the reference: on seeded inputs the
kept index lists must be equal.  Inputs cover GF(2), GF(101) and QQ,
k[x,y,z] and the twisted cubic, rank one and rank three or four with
mixed and negative twists, with and without relation vectors, at least
three candidate degrees, dependent candidates in one degree, zero
candidates and candidates equal to a relation.
"""

import random

import pytest

from soclelab import modgb, modules
from soclelab.fields import field_of
from soclelab.frobenius import fedder_module
from soclelab.modgb import VectorOrder, poly_to_vec, vec_degree
from soclelab.modules import (
    multiples_span,
    nakayama_minimal_subset,
    vec_coords,
    vec_reduce_components,
)
from soclelab.monomials import monomials_of_degree
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation

CHARS = [2, 101, 0]


def _reference_nakayama_minimal_subset(ring, twists, vectors, rels=()):
    """Degree by degree, a vector is kept iff it lies outside the span of
    ring multiples of earlier kept vectors and of the auxiliary vectors,
    in the whole degree piece of the free module."""
    reduced = []
    for v in vectors:
        red = vec_reduce_components(ring, v)
        reduced.append((red, vec_degree(red, twists)))
    rel_pairs = []
    for v in rels:
        red = vec_reduce_components(ring, v)
        d = vec_degree(red, twists)
        if d is not None:
            rel_pairs.append((red, d))
    order = sorted((d, i) for i, (red, d) in enumerate(reduced) if d is not None)
    kept = []
    pos = 0
    while pos < len(order):
        degree = order[pos][0]
        _, index, span = multiples_span(
            ring, twists, degree, rel_pairs + [reduced[i] for i in kept]
        )
        while pos < len(order) and order[pos][0] == degree:
            i = order[pos][1]
            if span.add(vec_coords(reduced[i][0], index)):
                kept.append(i)
            pos += 1
    return kept


def _twisted_cubic(char):
    S = PolyRing(field_of(char), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    return RingPresentation(S, [a * c - b**2, a * d - b * c, b * d - c**2])


def _ring(char, quotient):
    if quotient:
        return _twisted_cubic(char)
    return RingPresentation(PolyRing(field_of(char), ("x", "y", "z")), [])


def _random_form(rng, S, degree):
    if degree < 0 or rng.random() < 0.25:
        return S.zero
    F = S.field
    monos = list(monomials_of_degree(S.n, degree))
    terms = {}
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        c = F.of(rng.randint(-5, 5))
        if not F.is_zero(c):
            terms[m] = c
    return S.from_terms(terms.items())


def _random_vector(rng, ring, twists, degree):
    v = {}
    for i, a in enumerate(twists):
        v.update(poly_to_vec(_random_form(rng, ring.ambient, degree - a), i))
    return v


def _combination(rng, ring, twists, vectors, degree):
    """A vector of the given degree in the span of ring multiples of
    ``vectors``: dependent on them by construction."""
    S, F = ring.ambient, ring.field
    out = {}
    for v in vectors:
        d = vec_degree(v, twists)
        if d is None or d > degree:
            continue
        f = _random_form(rng, S, degree - d)
        for (pos, m), c in v.items():
            for mm, cc in f.terms.items():
                key = (pos, tuple(x + y for x, y in zip(m, mm)))
                out[key] = F.add(out.get(key, F.zero), F.mul(c, cc))
    return {t: c for t, c in out.items() if not F.is_zero(c)}


def _cases():
    seed = 900
    for char in CHARS:
        for quotient in (False, True):
            ring = _ring(char, quotient)
            for twists in ((0,), (0, 1, -1), (-2, 0, 0, 1)):
                for with_rels in (False, True):
                    seed += 1
                    rng = random.Random(seed)
                    base = max(twists) + 1
                    degrees = [base, base + 1, base + 2]
                    rels = []
                    if with_rels:
                        rels = [_random_vector(rng, ring, twists, rng.choice(degrees))
                                for _ in range(rng.randint(1, 3))]
                    vectors = [_random_vector(rng, ring, twists, rng.choice(degrees))
                               for _ in range(rng.randint(3, 6))]
                    # Dependent candidates: same-degree combinations of
                    # earlier candidates and rels, higher multiples of them,
                    # a zero candidate, a copy of a rel.
                    for d in degrees:
                        vectors.append(_combination(rng, ring, twists, vectors + rels, d))
                    vectors.append({})
                    if rels:
                        vectors.append(dict(rels[0]))
                    if quotient:
                        g = ring.relations[0]
                        vectors.append(poly_to_vec(g * ring.ambient.gens()[0], len(twists) - 1))
                    rng.shuffle(vectors)
                    yield ring, twists, vectors, rels


def test_kept_lists_equal_the_degree_piece_reference():
    cases = dropped = 0
    spread = []
    for ring, twists, vectors, rels in _cases():
        kept = nakayama_minimal_subset(ring, twists, vectors, rels)
        assert kept == _reference_nakayama_minimal_subset(ring, twists, vectors, rels)
        cases += 1
        dropped += len(vectors) - len(kept)
        spread.append(len({vec_degree(vec_reduce_components(ring, vectors[i]), twists)
                           for i in kept}))
    assert cases == 36
    assert dropped >= 4 * cases
    assert max(spread) >= 3


@pytest.mark.parametrize("char", CHARS)
def test_kept_lists_equal_the_reference_on_quadric_syzygies(char):
    # Rank four, all candidates in one degree but for one: the Koszul-type
    # syzygies of four quadrics, doubled, plus a multiple of one of them.
    S = PolyRing(field_of(char), ("x", "y", "z"))
    ring = RingPresentation(S, [])
    x, y, z = S.gens()
    quads = [x * y, y * z, x * z, z**2]
    twists = (2, 2, 2, 2)
    syz = []
    for i in range(4):
        for j in range(i + 1, 4):
            v = poly_to_vec(quads[j], i)
            for t, c in poly_to_vec(-quads[i], j).items():
                v[t] = c
            syz.append(v)
    syz += [dict(v) for v in syz[:3]]
    syz.append({(p, tuple(a + b for a, b in zip(m, (1, 0, 0)))): c for (p, m), c in syz[0].items()})
    kept = nakayama_minimal_subset(ring, twists, syz)
    assert kept == _reference_nakayama_minimal_subset(ring, twists, syz)
    assert len(kept) < len(syz)


def test_wide_exponents_restart_on_wider_fields(monkeypatch):
    # x^(N-1) y = y^N modulo x - y, and y^N, N = 2^15, outgrows the 15-bit
    # exponent fields the input needs: the run starts over on 30 bits.
    S = PolyRing(field_of(101), ("x", "y"))
    ring = RingPresentation(S, [])
    x, y = S.gens()
    n = 1 << 15
    vectors = [poly_to_vec(x ** (n - 1) * y), poly_to_vec(x ** (n - 2) * y**2)]
    rels = [poly_to_vec(x - y)]
    widths = []
    table = VectorOrder.table

    def recording(self, vecs, bits=modgb.EXP_BITS):
        out = table(self, vecs, bits)
        widths.append(out.bits)
        return out

    monkeypatch.setattr(VectorOrder, "table", recording)
    kept = nakayama_minimal_subset(ring, (0,), vectors, rels)
    assert widths == [15, 30]
    assert kept == [0]
    monkeypatch.undo()
    assert kept == _reference_nakayama_minimal_subset(ring, (0,), vectors, rels)


def test_no_degree_piece_inside_nakayama(monkeypatch):
    # fedder_module(tc, 5) decides its three generators of degree 104
    # without enumerating a degree piece of the free module.
    inside = {"now": False, "pieces": 0, "calls": 0}
    nakayama, piece = modules.nakayama_minimal_subset, modules.free_piece_basis

    def counted_nakayama(*args, **kwargs):
        inside["now"] = True
        inside["calls"] += 1
        try:
            return nakayama(*args, **kwargs)
        finally:
            inside["now"] = False

    def counted_piece(*args):
        inside["pieces"] += inside["now"]
        return piece(*args)

    monkeypatch.setattr("soclelab.frobenius.nakayama_minimal_subset", counted_nakayama)
    monkeypatch.setattr(modules, "free_piece_basis", counted_piece)
    report = fedder_module(_twisted_cubic(2), 5)
    assert report.generator_degrees == (104, 104, 104)
    assert inside == {"now": False, "pieces": 0, "calls": 1}
