"""The sparse semi-echelon Span against a dense, fully reduced reference,
and QuotientSpace against the row route it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soclelab.errors import AlgebraError
from soclelab.fields import QQ, field_of
from soclelab.linalg import QuotientSpace, Span, nullspace
from span_reference import RowQuotientSpace, rank, transpose


class DenseSpan:
    """Reference: dense rows kept in reduced row echelon form."""

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.rows = []
        self.pivots = []
        self.history = []
        self.n_inserted = 0

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec, comb=None):
        F = self.field
        vec = list(vec)
        for row, piv, hist in zip(self.rows, self.pivots, self.history):
            c = vec[piv]
            if not F.is_zero(c):
                for j in range(piv, self.width):
                    vec[j] = F.sub(vec[j], F.mul(c, row[j]))
                if comb is not None:
                    for k, h in hist.items():
                        comb[k] = F.sub(comb.get(k, F.zero), F.mul(c, h))
        return vec

    def contains(self, vec):
        return all(self.field.is_zero(c) for c in self._reduce(vec))

    def coordinates(self, vec):
        F = self.field
        comb = {}
        if any(not F.is_zero(c) for c in self._reduce(vec, comb)):
            return None
        return {k: F.neg(v) for k, v in comb.items() if not F.is_zero(v)}

    def add(self, vec):
        F = self.field
        comb = {self.n_inserted: F.one} if self.track else None
        self.n_inserted += 1
        red = self._reduce(vec, comb)
        piv = next((j for j in range(self.width) if not F.is_zero(red[j])), None)
        if piv is None:
            return False
        c = F.inv(red[piv])
        red = [F.mul(c, x) for x in red]
        if comb is not None:
            comb = {k: F.mul(c, v) for k, v in comb.items()}
        for i, row in enumerate(self.rows):
            d = row[piv]
            if not F.is_zero(d):
                self.rows[i] = [F.sub(a, F.mul(d, b)) for a, b in zip(row, red)]
                if self.track:
                    h = dict(self.history[i])
                    for k, v in comb.items():
                        h[k] = F.sub(h.get(k, F.zero), F.mul(d, v))
                    self.history[i] = h
        self.rows.append(red)
        self.pivots.append(piv)
        self.history.append(comb)
        return True


def dense_nullspace(F, rows, width):
    sp = DenseSpan(F, width)
    for r in rows:
        sp.add(r)
    basis = []
    for j in range(width):
        if j in sp.pivots:
            continue
        v = [F.zero] * width
        v[j] = F.one
        for row, piv in zip(sp.rows, sp.pivots):
            v[piv] = F.neg(row[j])
        basis.append(v)
    return basis


FIELDS = [field_of(2), field_of(101), field_of(32003), QQ]
WIDTHS = [0, 1, 4, 9, 17]


def entry(F, rng):
    """A random coefficient; over GF(p) an int well outside [0, p)."""
    if F.characteristic:
        return rng.randrange(-2 * F.characteristic, 3 * F.characteristic)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def combination(F, rng, rows, width):
    """A random combination of rows, with unreduced coefficients."""
    out = [0] * width
    for row in rng.sample(rows, min(len(rows), 3)):
        c = entry(F, rng)
        out = [a + c * b for a, b in zip(out, row)]
    return out


def random_rows(F, rng, width, count):
    """Fresh, duplicate, dependent and zero rows, mixed."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.4:
            rows.append(combination(F, rng, rows, width))
        elif kind < 0.5:
            rows.append([0] * width)
        else:
            rows.append([entry(F, rng) if rng.random() < 0.4 else 0 for _ in range(width)])
    return rows


def sparse(row, rng):
    """The row as a dict; sometimes with its zero entries kept."""
    if rng.random() < 0.3:
        return dict(enumerate(row))
    return {j: c for j, c in enumerate(row) if c != 0}


def canonical(F, vec):
    """Nonzero entries of a dense or sparse vector, as field elements."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {j: F.of(c) for j, c in items if not F.is_zero(c)}


def cases():
    for F in FIELDS:
        for width in WIDTHS:
            for seed in range(3):
                yield F, width, seed


@pytest.mark.parametrize("F,width,seed", list(cases()))
def test_span_matches_dense_reference(F, width, seed):
    rng = random.Random(1000 * width + 10 * seed + F.characteristic % 97)
    rows = random_rows(F, rng, width, width + 6)
    new, ref = Span(F, width, track=True), DenseSpan(F, width, track=True)
    for k, row in enumerate(rows):
        added = new.add(sparse(row, rng))
        assert added == ref.add(row)
        if added:
            continue
        # The relation of a dependent insertion: 1 at its own index, the
        # rest on earlier insertions, combining the rows to zero.
        rel = new.relation
        assert rel[k] == F.one and max(rel) == k and all(c != 0 for c in rel.values())
        combo = [sum(F.of(rows[i][j]) * c for i, c in rel.items()) for j in range(width)]
        assert not canonical(F, combo)
    assert new.rank == ref.rank == rank(F, [sparse(r, rng) for r in rows], width)
    assert new.pivots == sorted(ref.pivots)

    inside = [combination(F, rng, rows, width) for _ in range(5)] if rows else []
    outside = random_rows(F, rng, width, 5)
    for vec in inside + outside:
        rem = new.reduce(sparse(vec, rng))
        assert rem == canonical(F, ref._reduce(vec))
        assert all(c != 0 for c in rem.values())
        assert not set(rem) & set(new.rows)
        if F.characteristic:
            assert all(0 < c < F.characteristic for c in rem.values())
        assert new.contains(sparse(vec, rng)) == ref.contains(vec) == (not rem)

        coords = new.coordinates(sparse(vec, rng))
        expected = ref.coordinates(vec)
        if expected is None:
            assert coords is None
            continue
        assert coords == canonical(F, expected)
        rebuilt = [F.zero] * width
        for k, c in coords.items():
            rebuilt = [F.add(a, F.mul(c, F.of(b))) for a, b in zip(rebuilt, rows[k])]
        assert canonical(F, rebuilt) == canonical(F, vec)
    for vec in inside:
        assert new.contains(sparse(vec, rng))

    basis = nullspace(F, [sparse(r, rng) for r in rows], width)
    ref_basis = dense_nullspace(F, rows, width)
    assert [canonical(F, v) for v in basis] == [canonical(F, v) for v in ref_basis]
    assert len(basis) == width - ref.rank
    for v in basis:
        for row in rows:
            dot = sum(F.of(c) * v.get(j, 0) for j, c in enumerate(row))
            assert F.is_zero(F.of(dot))


def test_coordinates_need_tracking():
    sp = Span(QQ, 2)
    sp.add({0: 1})
    with pytest.raises(ValueError):
        sp.coordinates({0: 1})


def test_rows_are_semi_echelon_without_back_substitution():
    F = field_of(7)
    sp = Span(F, 3)
    sp.add({0: 3, 1: 3})
    sp.add({1: 1, 2: 1})
    # The first row keeps its entry in the second row's pivot column.
    assert sp.rows == {0: {1: 1}, 1: {2: 1}}
    assert sp.reduce({0: 1}) == {2: 1}
    assert nullspace(F, [{0: 3, 1: 3}, {1: 1, 2: 1}], 3) == [{2: 1, 0: 1, 1: 6}]


def test_transpose():
    assert transpose([{0: 1, 2: 5}, {}, {1: 4}], 3) == [{0: 1}, {2: 4}, {0: 5}]


# -- QuotientSpace: the columns of A|C against the rows ------------------------


def _coefficient(F, rng):
    return F.of(rng.randint(1, F.characteristic - 1 if F.characteristic else 9))


def _sparse_vector(F, rng, width, density):
    return {j: _coefficient(F, rng) for j in range(width) if rng.random() < density}


def _combine(F, rng, vectors, count):
    """Up to ``count`` random combinations of the vectors, zeros dropped."""
    out = []
    for _ in range(count):
        v = {}
        for u in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
            c = _coefficient(F, rng)
            for j, a in u.items():
                v[j] = F.add(v.get(j, F.zero), F.mul(c, a))
        out.append({j: a for j, a in v.items() if not F.is_zero(a)})
    return out


def _complex(F, rng, width, n_image, n_out, kind):
    """B by its columns in V (width ``width``) and A by its columns of
    length out_width, with AB = 0.  ``kind``: "random"; "full", B of full
    rank; "none", A absent (no columns); "zero", A = 0 with rows."""
    if kind == "full":
        image = []
        for k in rng.sample(range(width), width):
            v = _sparse_vector(F, rng, width, 0.3)
            v[k] = F.one
            image.append({j: a for j, a in v.items() if j >= k})
    else:
        image = [_sparse_vector(F, rng, width, 0.3) for _ in range(n_image)]
        image += _combine(F, rng, image, 2) if image else []
    # Rows of A: combinations of the vectors orthogonal to every column of B.
    left = nullspace(F, image, width)
    rows = _combine(F, rng, left, n_out) if left and kind == "random" else []
    if kind == "none":
        return image, [], 0
    if kind == "zero":
        return image, [{} for _ in range(width)], n_out
    return image, transpose(rows, width), len(rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    char=st.sampled_from([2, 101, 0]),
    width=st.integers(0, 10),
    n_image=st.integers(0, 5),
    n_out=st.integers(0, 8),
    kind=st.sampled_from(["random", "random", "full", "none", "zero"]),
    seed=st.integers(0, 2**16),
)
@example(char=101, width=0, n_image=0, n_out=3, kind="random", seed=1)
@example(char=2, width=6, n_image=2, n_out=0, kind="none", seed=2)
@example(char=0, width=6, n_image=2, n_out=4, kind="zero", seed=3)
@example(char=101, width=7, n_image=0, n_out=5, kind="full", seed=4)
def test_quotient_space_equals_the_row_route(char, width, n_image, n_out, kind, seed):
    F = field_of(char)
    rng = random.Random(seed)
    image, out_cols, out_width = _complex(F, rng, width, n_image, n_out, kind)
    # AB = 0: every column of B is sent to zero.
    for b in image:
        img = {}
        for k, c in b.items():
            for r, a in (out_cols[k] if out_cols else {}).items():
                img[r] = F.add(img.get(r, F.zero), F.mul(c, a))
        assert all(F.is_zero(v) for v in img.values())
    new = QuotientSpace(F, width, image, out_cols, out_width)
    ref = RowQuotientSpace(F, width, image, out_cols, out_width)
    assert new.free == ref.free
    assert new.dim == ref.dim == len(new.reps)
    assert new.reps == ref.reps
    assert new.unit == ref.unit
    if kind == "full":
        assert new.dim == 0
    # Cocycles: combinations of the reps plus a boundary; and arbitrary vectors.
    cocycles = _combine(F, rng, new.reps + image, 4) if new.reps + image else []
    for vec in cocycles + [_sparse_vector(F, rng, width, 0.4) for _ in range(3)]:
        try:
            expected = ref.coords(vec)
        except AlgebraError:
            with pytest.raises(AlgebraError):
                new.coords(vec)
            assert vec not in cocycles
            continue
        assert new.coords(vec) == expected
