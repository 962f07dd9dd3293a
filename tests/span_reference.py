"""The Span-based degree piece and the row route of ``QuotientSpace``,
kept as independent references.

``modules.GradedPiece`` reads a degree piece of a presented module F/N off
the reduced Groebner basis of N: standard terms for a basis, normal forms
for coordinates.  The piece it replaced is kept here.  It is the degree
piece of the free module F modulo the span of every monomial multiple of
every relation column, each reduced modulo the ring relations and
inserted into a dense ``linalg.Span``.  It uses no Groebner basis of the
module, only the ring's standard monomials and normal forms, so tests of
the pieces and of ``syzygies_over`` can check against linear algebra that
does not share the module's normal-form engine.

``RowQuotientSpace`` is the cohomology route ``linalg.QuotientSpace``
replaced: it inserts the rows of A|C, counts dim H as #free - rank, and
builds the representatives as the reduced kernel basis of those rows
(``Span.kernel``) on first use.

``divisor_scan`` is the test for standard terms that the staircase
lookup of ``modules.GradedPiece`` replaced: each candidate's code is
checked against every lead of its position by one masked subtraction.

Also here: the small helpers that only the references use, ``transpose``
and ``rank`` of sparse matrices and ``mono_div`` and ``mono_divides`` of
exponent vectors.  ``mono_divides`` is the divisor test that
``RingPresentation.standard_monomials`` ran on every lead before both it
and ``modules.GradedPiece`` read a ``monomials.Staircase``.
"""

from operator import le, mul, sub

from soclelab.errors import AlgebraError
from soclelab.linalg import Span
from soclelab.modules import block_columns, vec_reduce_components
from soclelab.monomials import mono_mul


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


def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(b, a):
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(map(sub, b, a))


def free_piece_basis(ring, twists, degree):
    """Basis (component, monomial) of the degree piece of a free module."""
    return [(i, m) for i, a in enumerate(twists) for m in ring.standard_monomials(degree - a)]


def vec_coords(vec, index):
    """The vector as a sparse row over the basis positions in ``index``."""
    return {index[t]: c for t, c in vec.items()}


def vec_shift(vec, m):
    """The vector times the monomial x^m."""
    return {(pos, mono_mul(mm, m)): c for (pos, mm), c in vec.items()}


def multiples_span(ring, twists, degree, vector_degree_pairs):
    """The monomial multiples of vectors in one degree of a free module.

    Each (vector, d) pair contributes its multiples by the standard
    monomials of degree ``degree - d`` (none when d > degree), reduced
    modulo the ring relations and inserted in the order given.  Returns
    the piece's (component, monomial) basis, its index and the ``Span``.
    """
    basis = free_piece_basis(ring, twists, degree)
    index = {t: k for k, t in enumerate(basis)}
    span = Span(ring.field, len(basis))
    for vec, d in vector_degree_pairs:
        for m in ring.standard_monomials(degree - d):
            span.add(vec_coords(vec_reduce_components(ring, vec_shift(vec, m)), index))
    return basis, index, span


def divisor_scan(module, degree):
    """The standard terms of a degree piece of the module and their codes,
    in the order of ``modules.GradedPiece``: the candidates of
    ``RingPresentation.standard_monomials`` in each position that no lead
    of the relation basis in that position divides, coded under the
    table the piece builds."""
    ring, twists = module.ring, module.matrix.target
    reducer = module.relation_basis()
    candidates = [(i, ring.standard_monomials(degree - a)) for i, a in enumerate(twists)]
    terms, codes = [], []
    if not any(monos for _, monos in candidates):
        return terms, codes
    bits = max(reducer.bits, (degree - min(twists)).bit_length())
    probe = [(i, monos[0]) for i, monos in candidates if monos]
    table = reducer.order.table([probe], bits)
    index = reducer.coded(table)
    offsets, steps, mask = table.offsets, table.steps, table.mask
    for i, monos in candidates:
        # lead l divides code t in position i iff (t + absorb - l) & mask == 0
        divisors = [lead - table.absorb for _, lead, _ in index.get(i, ())]
        for m in monos:
            code = sum(map(mul, m, steps), offsets[i])
            if all(map(mask.__and__, map(code.__sub__, divisors))):
                terms.append((i, m))
                codes.append(code)
    return terms, codes


class ReferencePiece:
    """The degree piece of a presented module as a quotient of Spans.

    Basis: the free-module basis positions that are not pivots of the
    relation span.  ``project`` reduces modulo the ring relations and
    then the span; the remainder lives on those positions.
    """

    def __init__(self, module, degree):
        self.module = module
        self.degree = degree
        mat = module.matrix
        self.basis, self.index, self.span = multiples_span(
            module.ring, mat.target, degree, zip(block_columns(mat), mat.source)
        )
        self.free_positions = [k for k in range(len(self.basis)) if k not in self.span.rows]
        self.free_index = {k: i for i, k in enumerate(self.free_positions)}

    @property
    def dim(self):
        return len(self.free_positions)

    def project(self, vec):
        red = vec_reduce_components(self.module.ring, vec)
        rem = self.span.reduce(vec_coords(red, self.index))
        return {self.free_index[k]: c for k, c in rem.items()}

    def multiplication_matrix(self, f):
        target = ReferencePiece(self.module, self.degree + f.degree())
        cols = []
        for k in self.free_positions:
            i, m = self.basis[k]
            cols.append(target.project({(i, mono_mul(mm, m)): c for mm, c in f.terms.items()}))
        return cols


class RowQuotientSpace:
    """H = ker A / im B for AB = 0, from the rows of A restricted to the
    complement C of im B; same arguments and attributes as
    ``linalg.QuotientSpace``."""

    def __init__(self, field, width, image_vectors, out_cols, out_width):
        self.image = Span(field, width)
        for v in image_vectors:
            self.image.add(v)
        self.free = [k for k in range(width) if k not in self.image.rows]
        self.restricted = Span(field, len(self.free))
        if out_cols:
            for row in transpose([out_cols[k] for k in self.free], out_width):
                self.restricted.add(row)
        self.dim = len(self.free) - self.restricted.rank
        self._reps = self.unit = None

    @property
    def reps(self):
        """The reduced kernel basis of A|C, one vector per non-pivot column
        u, 1 at u; ``unit`` maps free[u] to its index."""
        if self._reps is None:
            free, rows = self.free, self.restricted.rows
            self._reps = [
                {free[k]: c for k, c in z.items()} for z in self.restricted.kernel()
            ]
            self.unit = {
                free[k]: h
                for h, k in enumerate(k for k in range(len(free)) if k not in rows)
            }
        return self._reps

    def coords(self, vec):
        reps = self.reps
        rem = self.image.reduce(vec)
        unit, p = self.unit, self.image.p
        out = {unit[k]: c for k, c in rem.items() if k in unit}
        for h, c in out.items():
            for k, a in reps[h].items():
                v = rem.get(k, 0) - c * a
                rem[k] = v % p if p else v
        if any(rem.values()):
            raise AlgebraError("vector escapes the cohomology subquotient")
        return out
