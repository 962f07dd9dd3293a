"""Exact sparse linear algebra over an abstract coefficient field.

A vector is a dict {column: coefficient}; a missing column is zero.
Over GF(p) the coefficients are plain ints and every cell update is int
arithmetic followed by one ``% p``, so any int is accepted as input.
Over QQ the same code runs on Fractions with no modulus.
"""

from heapq import heapify, heappop, heappush

from .errors import AlgebraError


class Span:
    """A growing row space kept in sparse semi-echelon form.

    Each row has a leading 1 at its pivot and nothing to its left; rows
    are keyed by pivot and store only their entries right of the pivot.
    Inserting a row never back-substitutes into the others, so a vector
    is reduced over its pivot columns in increasing order.

    Supports membership tests, incremental insertion, the canonical
    remainder of a vector, the kernel of the rows, and expressing a
    vector in terms of the inserted generators (when tracking is on).
    """

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.p = field.characteristic
        self.rows = {}        # pivot -> entries right of the pivot
        self.history = {}     # pivot -> combination of inserted vectors giving the row
        self.n_inserted = 0
        self.relation = None  # left by the last tracked dependent insertion

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
        """Insert a vector; returns True if it enlarged the span.  With
        tracking, one that did not leaves in ``relation`` the combination
        {insertion index: coefficient} of the inserted vectors that is zero:
        1 at its own index, the rest on earlier insertions that enlarged it."""
        comb = {self.n_inserted: self.field.one} if self.track else None
        self.n_inserted += 1
        red = self._reduce(vec, comb)
        if not red:
            if comb is not None:
                self.relation = {k: c for k, c in comb.items() if c}
            return False
        piv = min(red)
        c = self.field.inv(red.pop(piv))
        self.rows[piv] = self._scaled(red, c)
        if comb is not None:
            self.history[piv] = self._scaled(comb, c)
        return True

    def kernel(self):
        """Basis of {v : r . v = 0 for every row r}, v of length ``width``.

        One basis vector per non-pivot column j of the reduced row echelon
        form, in increasing j: a 1 at j and minus the rows' entries in
        column j at their pivots.
        """
        field = self.field
        # Back-substitute from the highest pivot down: every row already in
        # rref is fully reduced, so reducing a row's tail against them gives
        # its reduced row echelon tail.
        rref = Span(field, self.width)
        for piv in sorted(self.rows, reverse=True):
            rref.rows[piv] = rref.reduce(self.rows[piv])
        basis = {j: {j: field.one} for j in range(self.width) if j not in self.rows}
        for piv, row in rref.rows.items():
            for j, c in row.items():
                basis[j][piv] = field.neg(c)
        return list(basis.values())

    def _scaled(self, vec, c):
        p = self.p
        return {j: v * c % p if p else v * c for j, v in vec.items() if v}


def nullspace(field, rows, width):
    """Basis of {v : A v = 0} for the matrix with the given rows; see
    ``Span.kernel``."""
    sp = Span(field, width)
    for r in rows:
        sp.add(r)
    return sp.kernel()


class QuotientSpace:
    """H = ker A / im B for matrices with AB = 0, from the columns of A.

    ``image`` is an untracked echelon basis of im B, built at once.  Its
    non-pivot columns, ``free``, index a complement C of im B, and H is
    ker(A|C).  Solving H waits for the first read of ``dim``, ``reps``,
    ``unit`` or ``coords``: then the columns of A|C go into one tracked
    Span in increasing order; each one that reduces to zero leaves a
    relation, its reduced kernel vector, so ``dim`` counts them and
    ``reps`` are their relations.  The columns of A are dropped once H is
    solved.  A stage that is only read through ``remainder`` is never
    solved.  The argument is written out in the ``soclelab.localcoh``
    docstring, whose Hom complexes are the callers.

    B is given by its columns ``image_vectors`` and A by its columns
    ``out_cols`` of length ``out_width``, one per column of V (width
    ``width``); ``out_cols`` is empty when A is zero.
    """

    def __init__(self, field, width, image_vectors, out_cols, out_width):
        self.image = Span(field, width)
        for v in image_vectors:
            self.image.add(v)
        self.free = sorted(set(range(width)).difference(self.image.pivots))
        self._out = (out_cols, out_width)
        self._reps = self._unit = None

    def _solve(self):
        """reps: cocycles whose classes form a basis of H.  Rep h is 1 at
        its own free column (``unit`` maps it to h), 0 at every other
        rep's, and otherwise lives on the independent columns of A|C."""
        if self._reps is None:
            (out_cols, out_width), free = self._out, self.free
            reps, unit = [], {}
            columns = Span(self.image.field, out_width, track=True)
            for k in free:
                if not columns.add(out_cols[k] if out_cols else {}):
                    unit[k] = len(reps)
                    reps.append({free[i]: c for i, c in columns.relation.items()})
            self._reps, self._unit, self._out = reps, unit, None
        return self._reps

    @property
    def dim(self):
        return len(self._solve())

    @property
    def reps(self):
        return self._solve()

    @property
    def unit(self):
        self._solve()
        return self._unit

    def remainder(self, vec):
        """The remainder of a cocycle modulo im B: its component in C,
        zero at every pivot of im B.  V/im B -> C is a linear isomorphism,
        so ranks of remainders are ranks of classes.  Raises AlgebraError
        when vec is no cocycle: by its image under A while H is unsolved,
        and by the reps, as ``coords`` does, once it is; so reading a
        remainder never solves H."""
        rem = self.image.reduce(vec)
        if self._reps is not None:
            self._combination(dict(rem))
            return rem
        out_cols, p = self._out[0], self.image.p
        if out_cols:
            image = {}
            for k, c in rem.items():
                for r, a in out_cols[k].items():
                    v = image.get(r, 0) + c * a
                    image[r] = v % p if p else v
            if any(image.values()):
                raise AlgebraError("vector escapes the cohomology subquotient")
        return rem

    def coords(self, vec):
        """Sparse coordinates {rep index: coefficient} of a cocycle.

        Its remainder modulo im B lies in C and in ker A, so it is the
        combination of the reps read off at their unit columns; raises
        AlgebraError when it is not.
        """
        self._solve()
        return self._combination(self.image.reduce(vec))

    def _combination(self, rem):
        """The reps' coefficients in a remainder, which it consumes."""
        reps, unit, p = self._reps, self._unit, self.image.p
        out = {unit[k]: c for k, c in rem.items() if k in unit}
        for h, c in out.items():
            for k, a in reps[h].items():
                v = rem.get(k, 0) - c * a
                rem[k] = v % p if p else v
        if any(rem.values()):
            raise AlgebraError("vector escapes the cohomology subquotient")
        return out
