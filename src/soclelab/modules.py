"""Graded free modules, degree-compatible matrices, and module presentations.

Twist lists (a_1, ..., a_r) denote direct sums of S(-a_i) (or R(-a_i)
over a quotient).  A module is the cokernel of a homogeneous matrix;
entry (i, j) is zero or homogeneous of degree source[j] - target[i].
Graded pieces are exact finite linear algebra over the coefficient
field, with normal forms against the relation ideal when working over a
quotient ring.
"""

from .errors import StructuralError
from .linalg import Span
from .modgb import poly_to_vec, syzygies_vectors, vec_degree
from .monomials import mono_mul
from .poly import Polynomial
from .rings import RingPresentation, memoized


class GradedMatrix:
    """Homogeneous matrix between graded free modules over one ring."""

    def __init__(self, ring, target, source, entries, check=True):
        self.ring = ring
        self.target = tuple(target)
        self.source = tuple(source)
        self.entries = tuple(tuple(row) for row in entries)
        if check:
            self._validate()

    def _validate(self):
        if len(self.entries) != len(self.target):
            raise StructuralError("row count does not match target rank")
        for row in self.entries:
            if len(row) != len(self.source):
                raise StructuralError("column count does not match source rank")
        for i, a in enumerate(self.target):
            for j, b in enumerate(self.source):
                f = self.entries[i][j]
                if f.is_zero():
                    continue
                if not f.is_homogeneous() or f.degree() != b - a:
                    raise StructuralError(
                        f"entry ({i},{j}) is not homogeneous of degree {b - a}"
                    )

    @property
    def rows(self):
        return len(self.target)

    @property
    def cols(self):
        return len(self.source)

    def transpose(self):
        """The dual map, between the dual free modules (twists negated)."""
        return GradedMatrix(
            self.ring,
            tuple(-b for b in self.source),
            tuple(-a for a in self.target),
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            check=False,
        )

    def compose(self, other):
        """self . other, when other's target equals self's source."""
        if other.ring != self.ring or other.target != self.source:
            raise StructuralError("matrices do not compose")
        amb = self.ring.ambient
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = amb.zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return GradedMatrix(self.ring, self.target, other.source, out)

    def is_zero(self):
        return all(f.is_zero() for row in self.entries for f in row)

    def is_zero_mod_relations(self):
        ring = self.ring
        return all(ring.is_zero_in_quotient(f) for row in self.entries for f in row)

    def __repr__(self):
        return f"GradedMatrix({self.rows}x{self.cols}, target={self.target}, source={self.source})"


def block_columns(matrix, r=1):
    """Columns of ``matrix`` (x) I_r as engine vectors.

    Column v*r + g carries entry (u, v) of the matrix at position u*r + g;
    with r = 1 these are the matrix columns themselves.  Pass
    ``matrix.transpose()`` for the columns of the transpose.
    """
    cols = []
    for v in range(matrix.cols):
        for g in range(r):
            col = {}
            for u in range(matrix.rows):
                for m, c in matrix.entries[u][v].terms.items():
                    col[(u * r + g, m)] = c
            cols.append(col)
    return cols


def matrix_from_vectors(ring, target, vectors, source=None):
    """Assemble column vectors (engine dicts) into a graded matrix."""
    amb = ring.ambient
    if source is None:
        source = []
        for v in vectors:
            d = vec_degree(v, target)
            source.append(0 if d is None else d)
    entries = []
    for i in range(len(target)):
        row = []
        for v in vectors:
            terms = {m: c for (pos, m), c in v.items() if pos == i}
            row.append(Polynomial(amb, terms))
        entries.append(row)
    return GradedMatrix(ring, target, tuple(source), entries)


class ModulePresentation:
    """A finitely generated graded module as a matrix cokernel.

    Objects derived from the module (its graded pieces, fold over S,
    resolution, Ext duals, Koszul stages) are kept in its memo (see
    :func:`~soclelab.rings.memoized`).
    """

    def __init__(self, ring, matrix):
        if matrix.ring != ring:
            raise StructuralError("matrix over a different ring")
        self.ring = ring
        self.matrix = matrix
        self._memo = {}

    @property
    def generator_degrees(self):
        return self.matrix.target

    def is_zero(self):
        return not self.matrix.target

    def begin(self):
        """Least degree with a nonzero piece; +inf for the zero module.

        Valid on minimal presentations, where it is the least generator
        degree.
        """
        from .poly import POS_INF

        if self.is_zero():
            return POS_INF
        return min(self.matrix.target)

    def twist(self, s):
        """The same module with all degrees shifted down by s: M(s)."""
        m = self.matrix
        shifted = GradedMatrix(
            self.ring,
            tuple(a - s for a in m.target),
            tuple(b - s for b in m.source),
            m.entries,
            check=False,
        )
        return ModulePresentation(self.ring, shifted)

    def piece(self, degree):
        return memoized(self, ("piece", degree), lambda: GradedPiece(self, degree))

    def __repr__(self):
        return (
            f"ModulePresentation(gens={self.matrix.target}, "
            f"rels={self.matrix.source} over {self.ring})"
        )


def free_module(ring, twists):
    """The free module as a presentation with no relations."""
    entries = [[] for _ in twists]
    return ModulePresentation(ring, GradedMatrix(ring, tuple(twists), (), entries))


def quotient_module(ring, ideal_gens):
    """R/(gens) as a cyclic module presentation over the ring."""
    cols = [f for f in ideal_gens if not f.is_zero()]
    entries = [[f for f in cols]]
    return ModulePresentation(
        ring, GradedMatrix(ring, (0,), tuple(f.degree() for f in cols), entries)
    )


def free_piece_basis(ring, twists, degree):
    """Basis (component, monomial) of the degree piece of a free module."""
    basis = []
    for i, a in enumerate(twists):
        for m in ring.standard_monomials(degree - a):
            basis.append((i, m))
    return basis


def vec_reduce_components(ring, vec):
    """Normal form of each polynomial component modulo the relations."""
    if ring.is_polynomial_ring:
        return dict(vec)
    amb = ring.ambient
    by_pos = {}
    for (pos, m), c in vec.items():
        by_pos.setdefault(pos, {})[m] = c
    out = {}
    for pos, terms in by_pos.items():
        f = ring.nf(Polynomial(amb, terms))
        for m, c in f.terms.items():
            out[(pos, m)] = c
    return out


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


class GradedPiece:
    """The degree piece of a presented module, as explicit linear algebra.

    Ambient basis: (component, standard monomial) pairs.  The relation
    span is generated by monomial multiples of the presentation columns,
    reduced modulo the ring relations.
    """

    def __init__(self, module, degree):
        self.module = module
        self.degree = degree
        mat = module.matrix
        self.basis, self.index, self.span = multiples_span(
            module.ring, mat.target, degree, zip(block_columns(mat), mat.source)
        )
        self.free_positions = [
            k for k in range(len(self.basis)) if k not in self.span.rows
        ]
        self.free_index = {k: i for i, k in enumerate(self.free_positions)}

    @property
    def dim(self):
        return len(self.free_positions)

    def project(self, vec):
        """Sparse coordinates of an ambient vector in the quotient basis."""
        red = vec_reduce_components(self.module.ring, vec)
        rem = self.span.reduce(vec_coords(red, self.index))
        return {self.free_index[k]: c for k, c in rem.items()}

    def representative(self, k):
        """Ambient vector representing the k-th quotient basis element."""
        i, m = self.basis[self.free_positions[k]]
        return {(i, m): self.module.ring.field.one}

    def multiplication_matrix(self, f):
        """Columns: images of the quotient basis under multiplication by f.

        Returns a list of sparse coordinate columns in the piece of
        degree (this degree + deg f).
        """
        target = self.module.piece(self.degree + f.degree())
        cols = []
        for k in self.free_positions:
            i, m = self.basis[k]
            vec = {(i, mono_mul(mm, m)): c for mm, c in f.terms.items()}
            cols.append(target.project(vec))
        return cols


def module_hilbert(module, degree):
    return module.piece(degree).dim


def s_presentation(module):
    """Fold the ring relations into the matrix: the same module over S.

    The fold is memoized on the module, so what is memoized on the fold
    (its resolution) is found again on the next call.
    """
    if module.ring.is_polynomial_ring:
        return module
    return memoized(module, "s_presentation", lambda: _fold_relations(module))


def _fold_relations(module):
    ring = module.ring
    amb = ring.ambient
    base = RingPresentation(amb, ())
    mat = module.matrix
    cols = [[mat.entries[i][j] for i in range(mat.rows)] for j in range(mat.cols)]
    source = list(mat.source)
    for rel in ring.relations:
        for i in range(mat.rows):
            col = [amb.zero] * mat.rows
            col[i] = rel
            cols.append(col)
            source.append(rel.degree() + mat.target[i])
    entries = [[cols[j][i] for j in range(len(cols))] for i in range(mat.rows)]
    return ModulePresentation(
        base, GradedMatrix(base, mat.target, tuple(source), entries)
    )


def syzygies_over(ring, columns, twists, rels=()):
    """Generators of {v : sum_j v_j columns_j lies in <rels>}, over the ring.

    This is the one kernel routine (Macaulay2's ``modulo``): kernels of
    maps of free modules, Hom and Tor kernels, the relations of a
    subquotient, colon ideals and intersections all come from it.
    ``rels`` are vectors in the free module with the given twists.  Only
    the columns are tagged; ``rels`` and (over R = S/a) the multiples
    a*e_i enter the engine untagged, so no syzygies among them are
    computed.  Components are reduced to normal form and zero generators
    dropped.
    """
    extra = list(rels)
    for rel in ring.relations:
        for i in range(len(twists)):
            extra.append(poly_to_vec(rel, i))
    raw = syzygies_vectors(ring.ambient, columns, tuple(twists), extra)
    out = []
    for v in raw:
        v = vec_reduce_components(ring, v)
        if v:
            out.append(v)
    return out


def nakayama_minimal_subset(ring, twists, vectors, rels=()):
    """Indices of a minimal generating subset of <vectors> + <rels> / <rels>.

    Degree by degree, a vector is kept iff it lies outside the span of
    ring multiples of earlier kept vectors and of the auxiliary vectors.
    """
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
    order = sorted(
        (d, i) for i, (red, d) in enumerate(reduced) if d is not None
    )
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


def present_subquotient(ring, twists, gens, rels=()):
    """Minimal presentation of <gens> / <rels> inside a free module.

    Every relation vector must lie in the span of the generators.  The
    returned presentation has Nakayama-minimal generators, and its
    relations are ``syzygies_over(kept generators, rels)``, themselves
    Nakayama-minimalized.  Also returns the indices of the surviving
    generators, so callers can align side data with them.
    """
    kept_idx = nakayama_minimal_subset(ring, twists, gens, rels)
    kept = [vec_reduce_components(ring, gens[i]) for i in kept_idx]
    kept_degs = [vec_degree(v, twists) for v in kept]
    if not kept:
        empty = GradedMatrix(ring, (), (), [])
        return ModulePresentation(ring, empty), []
    live_rels = [vec_reduce_components(ring, v) for v in rels]
    live_rels = [v for v in live_rels if v]
    syz = syzygies_over(ring, kept, twists, live_rels)
    keep_rel = nakayama_minimal_subset(ring, tuple(kept_degs), syz)
    mat = matrix_from_vectors(ring, tuple(kept_degs), [syz[i] for i in keep_rel])
    return ModulePresentation(ring, mat), kept_idx


def minimalize_presentation(module):
    """Minimal presentation of a cokernel: Nakayama on both sides."""
    mat = module.matrix
    gens = [
        {(i, (0,) * module.ring.n): module.ring.field.one} for i in range(mat.rows)
    ]
    pres, _ = present_subquotient(module.ring, mat.target, gens, block_columns(mat))
    return pres
