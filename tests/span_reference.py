"""The Span-based degree piece, kept as an independent reference.

``modules.GradedPiece`` reads a degree piece of a presented module F/N off
the reduced Groebner basis of N: standard terms for a basis, normal forms
for coordinates.  The piece it replaced is kept here.  It is the degree
piece of the free module F modulo the span of every monomial multiple of
every relation column, each reduced modulo the ring relations and
inserted into a dense ``linalg.Span``.  It uses no Groebner basis of the
module, only the ring's standard monomials and normal forms, so tests of
the pieces and of ``syzygies_over`` can check against linear algebra that
does not share the module's normal-form engine.
"""

from soclelab.linalg import Span
from soclelab.modules import block_columns, vec_reduce_components
from soclelab.monomials import mono_mul


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
