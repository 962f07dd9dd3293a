"""Exact sparse linear algebra over an abstract coefficient field.

A vector is a dict {column: coefficient}; a missing column is zero.
Over GF(p) the coefficients are plain ints and every cell update is int
arithmetic followed by one ``% p``, so any int is accepted as input.
Over QQ the same code runs on Fractions with no modulus.
"""

from heapq import heapify, heappop, heappush


class Span:
    """A growing row space kept in sparse semi-echelon form.

    Each row has a leading 1 at its pivot and nothing to its left; rows
    are keyed by pivot and store only their entries right of the pivot.
    Inserting a row never back-substitutes into the others, so a vector
    is reduced over its pivot columns in increasing order.

    Supports membership tests, incremental insertion, the canonical
    remainder of a vector, and expressing a vector in terms of the
    inserted generators (when tracking is on).
    """

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.p = field.characteristic
        self.rows = {}        # pivot -> entries right of the pivot
        self.history = {}     # pivot -> combination of inserted vectors giving the row
        self.n_inserted = 0

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def _reduce(self, vec, comb=None):
        """vec minus row multiples, zero on every pivot; nonzero entries only.

        With comb, subtracts the multiples' histories from it as well.
        """
        p = self.p
        rows = self.rows
        vec = {j: c % p for j, c in vec.items()} if p else dict(vec)
        get = vec.get
        heap = [j for j in vec if j in rows]
        heapify(heap)
        while heap:
            piv = heappop(heap)
            c = vec.pop(piv)
            if not c:
                continue
            for j, a in rows[piv].items():
                v = get(j)
                if v is None:
                    v = -c * a
                    if j in rows:
                        heappush(heap, j)
                else:
                    v -= c * a
                vec[j] = v % p if p else v
            if comb is not None:
                for k, h in self.history[piv].items():
                    v = comb.get(k, 0) - c * h
                    comb[k] = v % p if p else v
        return {j: c for j, c in vec.items() if c}

    def reduce(self, vec):
        """The canonical remainder of vec: zero at every pivot, same coset."""
        return self._reduce(vec)

    def contains(self, vec):
        return not self._reduce(vec)

    def coordinates(self, vec):
        """Express vec over the inserted generators, or None if outside.

        Returns a dict {insertion index: coefficient}.  Requires track=True.
        """
        if not self.track:
            raise ValueError("span built without tracking")
        comb = {}
        if self._reduce(vec, comb):
            return None
        F = self.field
        return {k: F.neg(v) for k, v in comb.items() if v}

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        comb = {self.n_inserted: self.field.one} if self.track else None
        self.n_inserted += 1
        red = self._reduce(vec, comb)
        if not red:
            return False
        piv = min(red)
        c = self.field.inv(red.pop(piv))
        self.rows[piv] = self._scaled(red, c)
        if comb is not None:
            self.history[piv] = self._scaled(comb, c)
        return True

    def _scaled(self, vec, c):
        p = self.p
        return {j: v * c % p if p else v * c for j, v in vec.items() if v}


def transpose(vectors, length):
    """Rows of the matrix whose columns are the given vectors of that length."""
    rows = [{} for _ in range(length)]
    for k, vec in enumerate(vectors):
        for r, c in vec.items():
            rows[r][k] = c
    return rows


def rank(field, rows, width):
    sp = Span(field, width)
    for r in rows:
        sp.add(r)
    return sp.rank


def nullspace(field, rows, width):
    """Basis of {v : A v = 0} for the matrix with the given rows.

    One basis vector per non-pivot column j of the reduced row echelon
    form of A, in increasing j: a 1 at j and minus the rows' entries in
    column j at their pivots.
    """
    sp = Span(field, width)
    for r in rows:
        sp.add(r)
    # Back-substitute from the highest pivot down: every row already in
    # rref is fully reduced, so reducing a row's tail against them gives
    # its reduced row echelon tail.
    rref = Span(field, width)
    for piv in sorted(sp.rows, reverse=True):
        rref.rows[piv] = rref.reduce(sp.rows[piv])
    basis = {j: {j: field.one} for j in range(width) if j not in sp.rows}
    for piv, row in rref.rows.items():
        for j, c in row.items():
            basis[j][piv] = field.neg(c)
    return list(basis.values())
