"""The ring relations reach the engine in one form: the reduced Groebner
basis of a, coded once in ``RingPresentation``'s memo ("nf").

Each route is held to the one it replaced, over GF(2), GF(101) and QQ on
the twisted cubic, k[x,y,z]/(xy - z^2) and k[x,y,z]/(xy, xz), each ring
also presented by relations that are not a reduced Groebner basis:

* ``modules.vec_reduce_components`` against componentwise division by
  the relation basis, written here on plain dicts, and it builds no
  ``Polynomial``;
* ``RingPresentation.standard_monomials`` against the divisor scan of
  every lead (``span_reference.mono_divides``), in degrees 0..10;
* ``modules.syzygies_over``, which adds g*e_i for g in the relation
  basis, against a ``runs.TaggedRun`` fed a's generators: each side lies
  in the span of the other and both keep the same minimal degrees.

The remainder modulo a Groebner basis and the reduced Groebner basis of a
module are unique (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
2.6 and 2.7), so the routes must agree exactly where they are compared
exactly.
"""

import random

import pytest

from soclelab import poly
from soclelab.fields import field_of
from soclelab.modgb import poly_to_vec, vec_degree
from soclelab.modules import nakayama_minimal_subset, syzygies_over, vec_reduce_components
from soclelab.monomials import mono_mul, monomials_of_degree
from soclelab.poly import PolyRing
from soclelab.rings import RingPresentation
from soclelab.runs import TaggedRun
from span_reference import mono_div, mono_divides

CHARS = [2, 101, 0]
RINGS = ["twisted cubic", "xy - z^2", "noneq"]


def _ring(name, char, scrambled=False):
    """The named ring over GF(char) (QQ for 0).  ``scrambled`` presents it
    by relations that are neither monic nor a reduced Groebner basis: each
    generator plus the one before it, and the first times a variable."""
    if name == "twisted cubic":
        S = PolyRing(field_of(char), ("a", "b", "c", "d"))
        a, b, c, d = S.gens()
        rels = [a * c - b**2, a * d - b * c, b * d - c**2]
    elif name == "xy - z^2":
        S = PolyRing(field_of(char), ("x", "y", "z"))
        x, y, z = S.gens()
        rels = [x * y - z**2]
    else:
        S = PolyRing(field_of(char), ("x", "y", "z"))
        x, y, z = S.gens()
        rels = [x * y, x * z]
    if scrambled:
        shifted = [f + g for f, g in zip(rels, rels[-1:] + rels[:-1])]
        rels = [rels[0] * S.gens()[-1], *shifted, rels[0]]
    return RingPresentation(S, rels)


def _rings():
    return [
        pytest.param(name, char, scrambled, id=f"{name}-{char}-{('basis', 'scrambled')[scrambled]}")
        for name in RINGS
        for char in CHARS
        for scrambled in (False, True)
    ]


def _coefficient(rng, field):
    while True:
        c = field.of(rng.randrange(-6, 7))
        if not field.is_zero(c):
            return c


def _random_vector(rng, ring, twists, degree, size):
    """A random vector of the given degree with at most ``size`` terms,
    in the free module with the given twists over the ambient ring."""
    vec = {}
    for _ in range(size):
        i = rng.randrange(len(twists))
        monos = monomials_of_degree(ring.n, degree - twists[i])
        if monos:
            vec[(i, rng.choice(monos))] = _coefficient(rng, ring.field)
    return vec


def _divide(ring, terms):
    """The remainder of the polynomial with ``terms`` on division by the
    relation basis, by the textbook algorithm on dicts."""
    field, key = ring.field, ring.ambient.order.key
    basis = [(g.lead_monomial(), g.monic().terms) for g in ring.relations_groebner()]
    work, rem = dict(terms), {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for lead, g in basis:
            if mono_divides(lead, m):
                shift = mono_div(m, lead)
                for u, a in g.items():
                    t = mono_mul(u, shift)
                    v = field.sub(work.get(t, field.zero), field.mul(c, a))
                    if field.is_zero(v):
                        work.pop(t, None)
                    else:
                        work[t] = v
                break
        else:
            rem[m] = work.pop(m)
    return rem


def _reference_reduce_components(ring, vec):
    by_pos = {}
    for (pos, m), c in vec.items():
        by_pos.setdefault(pos, {})[m] = c
    return {(pos, m): c for pos, terms in by_pos.items() for m, c in _divide(ring, terms).items()}


def _reference_syzygies(ring, columns, twists, rels=()):
    """``syzygies_over`` as it was: a's generators, not its reduced basis,
    enter the tag-block run untagged, and the syzygies are reduced
    componentwise by ``_divide``."""
    extra = list(rels) + [poly_to_vec(f, i) for f in ring.relations for i in range(len(twists))]
    run = TaggedRun(ring.ambient, columns, twists, extra).resume()
    reduced = (_reference_reduce_components(ring, v) for v in run.new_syzygies())
    return [v for v in reduced if v]


@pytest.mark.parametrize("name, char, scrambled", _rings())
def test_components_reduce_as_division_by_the_relation_basis(name, char, scrambled, monkeypatch):
    ring = _ring(name, char, scrambled)
    rng = random.Random(3001 + char)
    twists = (0, 1, -1)
    vectors = [
        _random_vector(rng, ring, twists, rng.randrange(1, 6), rng.randrange(1, 9))
        for _ in range(40)
    ]
    vec_reduce_components(ring, vectors[0])  # builds the ring's reducer

    made = []
    init = poly.Polynomial.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(poly.Polynomial, "__init__", counted)
    reduced = [vec_reduce_components(ring, v) for v in vectors]
    assert not made
    monkeypatch.undo()

    for vec, red in zip(vectors, reduced):
        assert red == _reference_reduce_components(ring, vec), (ring, vec)
    amb = ring.ambient
    for vec in vectors[:10]:
        f = poly.Polynomial(amb, {m: c for (pos, m), c in vec.items() if pos == 0})
        assert ring.nf(f).terms == _divide(ring, f.terms)
    assert any(red != vec for red, vec in zip(reduced, vectors))


@pytest.mark.parametrize("name, char, scrambled", _rings())
def test_standard_monomials_equal_the_divisor_scan(name, char, scrambled):
    ring = _ring(name, char, scrambled)
    leads = [g.lead_monomial() for g in ring.relations_groebner()]
    for d in range(11):
        monos = monomials_of_degree(ring.n, d)
        scan = tuple(m for m in monos if not any(mono_divides(lt, m) for lt in leads))
        assert ring.standard_monomials(d) == scan, (ring, d)
        assert len(scan) == ring.hilbert(d)


def _syzygy_setups(ring, rng):
    """(columns, twists, rels) in free modules of rank 1 and 2: a map's
    kernel without relations and a colon-like kernel with them."""
    setups = []
    for rank, with_rels in ((1, False), (1, True), (2, False), (2, True)):
        twists = tuple(rng.randrange(-1, 2) for _ in range(rank))
        degs = [min(twists) + rng.randrange(1, 3) for _ in range(rng.randrange(2, 4))]
        columns = [_random_vector(rng, ring, twists, d, rng.randrange(1, 4)) for d in degs]
        rels = []
        if with_rels:
            rels = [_random_vector(rng, ring, twists, min(twists) + 2, 2) for _ in range(2)]
        setups.append(([c for c in columns if c], twists, [r for r in rels if r]))
    return setups


@pytest.mark.parametrize("name, char, scrambled", _rings())
def test_syzygies_over_match_the_generator_route(name, char, scrambled):
    ring = _ring(name, char, scrambled)
    rng = random.Random(3011 + char + 7 * RINGS.index(name))
    for columns, twists, rels in _syzygy_setups(ring, rng):
        if not columns:
            continue
        degs = tuple(vec_degree(c, twists) for c in columns)
        new = syzygies_over(ring, columns, twists, rels)
        old = _reference_syzygies(ring, columns, twists, rels)
        assert all(v == _reference_reduce_components(ring, v) for v in new)
        assert nakayama_minimal_subset(ring, degs, new, rels=old) == []
        assert nakayama_minimal_subset(ring, degs, old, rels=new) == []
        kept = [
            sorted(vec_degree(syz[i], degs) for i in nakayama_minimal_subset(ring, degs, syz))
            for syz in (new, old)
        ]
        assert kept[0] == kept[1], (ring, columns, twists, rels)
