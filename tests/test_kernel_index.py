"""The position index of the reduction kernel changes no output.

Each test runs the same work twice, on fresh objects: on the engine's
kernel, which looks reducers up by position (``modgb.lead_index``), and
on the linear-scan reference of ``kernel_reference``, and asserts equal
outputs, term for term where the output is a list of vectors.  The
divisibility mask covers the position field, so both kernels meet the
same first divisor of every term; a difference here means the index
lost an element or its basis order.
"""

import random

import kernel_reference
import pytest
from test_resolution_steps import _random_ideals

from soclelab import runs
from soclelab.fields import field_of
from soclelab.groebner import Ideal, ideal_power
from soclelab.modgb import VectorOrder, buchberger_vectors
from soclelab.modules import (
    ModulePresentation,
    _nakayama_run,
    block_columns,
    nakayama_minimal_subset,
    quotient_module,
    syzygies_over,
)
from soclelab.monomials import laurent_add, monomials_of_degree
from soclelab.orders import DEGREVLEX
from soclelab.poly import PolyRing
from soclelab.resolutions import _free_numerator, minimal_free_resolution
from soclelab.rings import RingPresentation

CHARS = [2, 101, 0]


def _both(monkeypatch, work):
    """work() on the indexed kernel, then on the reference, which must
    have reduced something."""
    indexed = work()
    calls = []
    reduce = kernel_reference.reduce
    with monkeypatch.context() as m:
        m.setattr(kernel_reference, "reduce", lambda *args: calls.append(1) or reduce(*args))
        kernel_reference.install(m)
        reference = work()
    assert calls
    return indexed, reference


def _items(vectors):
    return [list(v.items()) for v in vectors]


def _random_vectors(rng, F, n, twists, count, degree):
    """Homogeneous vectors of the given twisted degree, 1-3 terms a position."""
    out = []
    for _ in range(count):
        vec = {}
        for pos, tw in enumerate(twists):
            if degree - tw < 0 or rng.random() < 0.3:
                continue
            monos = list(monomials_of_degree(n, degree - tw))
            for e in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
                c = F.of(rng.randint(1, 9))
                if not F.is_zero(c):
                    vec[(pos, e)] = c
        if vec:
            out.append(vec)
    return out


def _setups(char, seed):
    """(ring, twists, vectors) in 3 and 4 variables, in 1 to 3 positions."""
    F = field_of(char)
    rng = random.Random(seed + char)
    for names in (("x", "y", "z"), ("a", "b", "c", "d")):
        S = PolyRing(F, names)
        for rank in (1, 2, 3):
            twists = tuple(rng.randint(0, 1) for _ in range(rank))
            vectors = []
            for degree in (2, 3):
                vectors += _random_vectors(rng, F, S.n, twists, rng.randint(2, 4), degree)
            yield S, twists, vectors


@pytest.mark.parametrize("char", CHARS)
def test_reduced_groebner_bases(char, monkeypatch):
    def work():
        out = []
        for S, twists, vectors in _setups(char, 2600):
            for order in (VectorOrder(DEGREVLEX.key), VectorOrder(DEGREVLEX.key, twists=twists)):
                out.append(_items(buchberger_vectors(vectors, order, S.field)))
        return out

    indexed, reference = _both(monkeypatch, work)
    assert indexed == reference
    assert sum(len(gb) > 1 for gb in indexed) >= 10


@pytest.mark.parametrize("char", CHARS)
def test_syzygies_over_lists_in_order(char, monkeypatch):
    def work():
        out = []
        for S, twists, vectors in _setups(char, 2610):
            R = RingPresentation(S)
            half = len(vectors) // 2
            out.append(_items(syzygies_over(R, vectors, twists)))
            out.append(_items(syzygies_over(R, vectors[half:], twists, vectors[:half])))
        return out

    indexed, reference = _both(monkeypatch, work)
    assert indexed == reference
    assert sum(map(len, indexed)) >= 20


@pytest.mark.parametrize("char", CHARS)
def test_stopped_and_resumed_tag_block_runs_and_their_image_numerators(char, monkeypatch):
    # A run stopped at each degree in turn, with the Hilbert numerator of
    # F/U read through an _ImageRun wherever pairs are still pending.  The
    # seed keeps the QQ runs near 0.2 s; at others coefficient growth
    # takes them to several seconds.
    def work():
        out = []
        for S, twists, vectors in _setups(char, 2626):
            half = len(vectors) // 2
            run = runs.TaggedRun(S, vectors[half:], twists, vectors[:half])
            degree = 2
            while degree is not None:
                run.resume(degree)
                out.append((_items(run.new_syzygies()), run.done, run.quotient_numerator(S.n)))
                degree = run.next_degree()
        return out

    indexed, reference = _both(monkeypatch, work)
    assert indexed == reference
    assert sum(not done for _, done, _ in indexed) >= 15 and sum(len(row[0]) for row in indexed) >= 15


@pytest.mark.parametrize("char", CHARS)
def test_hilbert_run_kept_lists_with_and_without_a_series(char, monkeypatch):
    # With a series: the certificate of each step of a resolution, fed
    # the raw syzygies of the step's tag-block run, as a resolution step is.
    def work():
        without = []
        for S, twists, vectors in _setups(char, 2630):
            R = RingPresentation(S)
            without.append(nakayama_minimal_subset(R, twists, vectors + vectors[::-1]))
        certified = []
        F = field_of(char)
        S = PolyRing(F, ("a", "b", "c", "d"))
        a, b, c, d = S.gens()
        R = RingPresentation(S)
        curve = Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])
        M = quotient_module(R, list(ideal_power(curve, 2).generators))
        for matrix in minimal_free_resolution(M).matrices:
            raw = syzygies_over(R, block_columns(matrix), matrix.target)
            kernel = _free_numerator(R, matrix.source)
            laurent_add(kernel, _free_numerator(R, matrix.target), scale=-1)
            laurent_add(kernel, ModulePresentation(R, matrix).hilbert_numerator())
            run = _nakayama_run(R, matrix.source, (), kernel)
            run.add(raw)
            certified.append((run.resume().deficient, run.kept))
        return without, certified

    indexed, reference = _both(monkeypatch, work)
    assert indexed == reference
    without, certified = indexed
    assert sum(map(len, without)) >= 20 and len(certified) >= 2


def _resolution_corpus(char):
    """The corpora of ``test_resolution_steps``: its seeded ideals over this
    field, the twisted cubic's powers and the powers of (xy, yz, zx)."""
    for param in _random_ideals():
        R, gens = param.values
        if R.field.characteristic == char:
            yield R, gens
    S = PolyRing(field_of(char), ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    R = RingPresentation(S)
    curve = Ideal(R, [a * c - b**2, a * d - b * c, b * d - c**2])
    for t in (1, 2, 3) if char else (1, 2):
        yield R, list(ideal_power(curve, t).generators)
    S3 = PolyRing(field_of(char), ("x", "y", "z"))
    x, y, z = S3.gens()
    R3 = RingPresentation(S3)
    for t in (1, 2, 3):
        yield R3, list(ideal_power(Ideal(R3, [x * y, y * z, z * x]), t).generators)


@pytest.mark.parametrize("char", CHARS)
def test_resolutions_of_the_resolution_step_corpora(char, monkeypatch):
    def work():
        out = []
        for R, gens in _resolution_corpus(char):
            res = minimal_free_resolution(quotient_module(R, gens))
            out.append([(m.target, m.source, m.entries) for m in res.matrices])
        return out

    indexed, reference = _both(monkeypatch, work)
    assert indexed == reference
