"""Graded free modules, degree-compatible matrices, and module presentations.

Twist lists (a_1, ..., a_r) denote direct sums of S(-a_i) (or R(-a_i)
over a quotient).  A module is the cokernel of a homogeneous matrix;
entry (i, j) is zero or homogeneous of degree source[j] - target[i].
Graded pieces are read off one reduced Groebner basis of the relations
(over a quotient ring, together with the ring relations): standard terms
for a basis, normal forms for coordinates.
"""

from operator import mul

from .errors import StructuralError
from .modgb import (
    EXP_BITS,
    VectorOrder,
    VectorReducer,
    buchberger_vectors,
    normal_form_vec,
    poly_to_vec,
    vec_degree,
)
from .monomials import Staircase, hilbert_coefficient, leads_numerator, series_dimension
from .poly import POS_INF, Polynomial
from .rings import RingPresentation, memoized
from .runs import HilbertRun, TaggedRun


class GradedMatrix:
    """Homogeneous matrix between graded free modules over one ring.

    Its memo (see :func:`~soclelab.rings.memoized`) holds the Hilbert
    numerator of its image ("image_numerator") when a resolution knows it
    (see ``resolutions``).
    """

    def __init__(self, ring, target, source, entries, check=True):
        self.ring = ring
        self.target = tuple(target)
        self.source = tuple(source)
        self.entries = tuple(tuple(row) for row in entries)
        self._memo = {}
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
    grid = [[{} for _ in vectors] for _ in target]
    for j, v in enumerate(vectors):
        for (pos, m), c in v.items():
            grid[pos][j][m] = c
    entries = [[Polynomial(amb, terms) for terms in row] for row in grid]
    return GradedMatrix(ring, target, tuple(source), entries)


class ModulePresentation:
    """A finitely generated graded module as a matrix cokernel.

    Objects derived from the module are kept in its memo (see
    :func:`~soclelab.rings.memoized`): the reduced Groebner basis of its
    relation submodule ("relation_gb", a ``modgb.VectorReducer`` that
    keeps the basis coded once per field width), the Hilbert numerator
    read off it ("hilbert_numerator"), its graded pieces (("piece", d)),
    the ``Staircase`` of the leads in each position (("staircase", i)),
    its Krull dimension ("dimension"), its fold over S, resolution, the
    minimal generators of its Ext duals and their presentations, and its
    Koszul stages.
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

    def relation_basis(self):
        """The reduced Groebner basis of the relation submodule N.

        N lies in F = sum_i S(-a_i), a_i the generator degrees, and is
        generated by the matrix columns and, over R = S/a, by g*e_i for g
        in the relation basis of a; so M = F/N over S.  The order is
        ``VectorOrder(key, twists=generator degrees)``.  Returned as a
        ``modgb.VectorReducer``, built once.  A fold over S (see
        ``s_presentation``) has the same F, N and order, so it shares the
        basis of the module it folds, as it shares the Hilbert numerator.
        """

        def build():
            unfolded = self._memo.get("unfolded")
            if unfolded is not None:
                return unfolded.relation_basis()
            twists = self.matrix.target
            order = VectorOrder(self.ring.ambient.order.key, twists=twists)
            gens = block_columns(self.matrix) + _ring_multiples(self.ring, len(twists))
            return VectorReducer(buchberger_vectors(gens, order, self.ring.field), order, self.ring.field)

        return memoized(self, "relation_gb", build)

    def piece(self, degree):
        return memoized(self, ("piece", degree), lambda: GradedPiece(self, degree))

    def hilbert_numerator(self):
        """Numerator of HS(M) = N(t)/(1-t)^n, n the ambient variable count,
        read off the leads of the relation basis in F
        (``monomials.leads_numerator``).

        Twists may be negative, so N is a Laurent polynomial: a dict from
        exponent to nonzero coefficient (``monomials.laurent_add``); the
        zero module gives {}.  Built once; callers must not change it.
        """

        def build():
            unfolded = self._memo.get("unfolded")
            if unfolded is not None:
                return unfolded.hilbert_numerator()
            leads = self.relation_basis().lead_terms()
            return leads_numerator(leads, self.matrix.target, self.ring.n)

        return memoized(self, "hilbert_numerator", build)

    def known_hilbert_numerator(self):
        """``hilbert_numerator()`` when no Groebner basis must be built for
        it (it, or the relation basis, is memoized), else None."""
        memo = self._memo.get("unfolded", self)._memo
        if "hilbert_numerator" in memo or "relation_gb" in memo:
            return self.hilbert_numerator()
        return None

    def krull_dimension(self):
        """Krull dimension of M, -1 for the zero module: the pole order at
        t = 1 of its Hilbert series.

        Written with its pole cancelled down, each summand t^(a_i) HS(S/L_i)
        of ``hilbert_numerator`` has a positive numerator at t = 1 (its
        multiplicity), so no leading terms cancel and the pole order of the
        sum is the largest of theirs.
        """
        return memoized(
            self,
            "dimension",
            lambda: series_dimension(self.hilbert_numerator(), self.ring.n),
        )

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


def vec_reduce_components(ring, vec):
    """Normal form of each polynomial component modulo the relations
    (``RingPresentation.nf_terms``)."""
    if ring.is_polynomial_ring:
        return dict(vec)
    by_pos = {}
    for (pos, m), c in vec.items():
        by_pos.setdefault(pos, {})[m] = c
    return {
        (pos, m): c for pos, terms in by_pos.items() for m, c in ring.nf_terms(terms).items()
    }


class GradedPiece:
    """The degree piece (F/N)_d of a presented module M = F/N.

    F is the free module on the generators, F = sum_i S(-a_i), and N is
    generated by the presentation columns and, over R = S/a, by g*e_i for
    g in the relation basis of a, so that M = F/N over S as well.  By
    Macaulay's basis theorem (Eisenbud, Commutative Algebra, 15.3) the
    standard terms of degree d, the (i, m) that no lead of the reduced
    Groebner basis of N (``ModulePresentation.relation_basis``) divides,
    are a basis of (F/N)_d, and the normal form of a vector is the one
    representative of its class supported on them.  ``terms`` is that
    basis, by position and then in the order of
    ``RingPresentation.standard_monomials``, and ``codes`` their codes
    under ``table``; ``project`` reads coordinates off the normal form.
    The table holds every term of degree d, so normal forms in this
    degree never outgrow it.

    A candidate of position i, a standard monomial of R of degree d - a_i,
    is kept when it lies outside the ``monomials.Staircase`` of the leads
    in position i: the rule by which R finds its own standard monomials.
    That staircase is kept in the module's memo (("staircase", i)), so it
    is freed with the module, and filled only through degree d - a_i.
    """

    def __init__(self, module, degree):
        self.module = module
        self.degree = degree
        self._memo = {}  # ("mult", f) -> its matrix; "term_nf" -> normal forms
        ring, twists = module.ring, module.matrix.target
        reducer = module.relation_basis()
        self.terms, self.codes, self.table = [], [], None
        candidates = [(i, ring.standard_monomials(degree - a)) for i, a in enumerate(twists)]
        if any(monos for _, monos in candidates):
            bits = max(reducer.bits, (degree - min(twists)).bit_length())
            # One term tells the table the variable count; bits holds
            # every exponent of degree d.
            probe = [(i, monos[0]) for i, monos in candidates if monos]
            table = self.table = reducer.order.table([probe], bits)
            index = reducer.coded(table)
            offsets, steps = table.offsets, table.steps
            for i, monos in candidates:
                if not monos:
                    continue
                stair = memoized(
                    module,
                    ("staircase", i),
                    lambda: Staircase([table.decode(lead)[1] for _, lead, _ in index.get(i, ())]),
                )
                kept = stair.outside(monos, degree - twists[i])
                self.terms.extend((i, m) for m in kept)
                self.codes.extend(sum(map(mul, m, steps), offsets[i]) for m in kept)
        self.slots = {code: k for k, code in enumerate(self.codes)}

    @property
    def dim(self):
        return len(self.terms)

    def project(self, vec):
        """Sparse coordinates of an ambient vector of this degree.

        Its normal form runs on this piece's table (a vector of degree d
        fits it, so the run never restarts wider) and lies on the
        standard terms, whose places are ``slots``.
        """
        if not vec:
            return {}
        bits = self.table.bits if self.table else EXP_BITS
        _, rem = self.module.relation_basis().normal_form(vec, bits)
        slots = self.slots
        return {slots[t]: c for t, c in rem.items()}

    def multiplication_matrix(self, f):
        """Columns: images of the basis under multiplication by f.

        Returns a list of sparse coordinate columns in the piece of
        degree (this degree + deg f).  Built once per f and kept on the
        piece, so every stage and Hom map that multiplies this piece by f
        shares it.
        """
        return memoized(self, ("mult", f), lambda: self._multiplication_columns(f))

    def _multiplication_columns(self, f):
        """The columns of ``multiplication_matrix``, shifted in code space
        on the target's table.  Normal forms are linear, so a column sums
        the coordinates of the shifted terms of f: a standard term's slot,
        or its normal form, computed once and kept by code in the target's
        memo ("term_nf") for every f that reaches the term."""
        target = self.module.piece(self.degree + f.degree())
        if not (self.terms and target.terms):
            return [{} for _ in self.terms]
        table, slots = target.table, target.slots
        codes = self.codes
        if self.table.bits != table.bits:
            codes = [table.encode(t) for t in self.terms]
        shifts = [(table.step(e), c) for e, c in f.terms.items()]
        reducer = self.module.relation_basis()
        index, field = reducer.coded(table), reducer.field
        p, one = field.characteristic, field.one
        known = memoized(target, "term_nf", dict)
        cols = []
        for u in codes:
            col = {}
            for step, c in shifts:
                t = u + step
                if t in slots:
                    coords = ((slots[t], one),)
                elif t in known:
                    coords = known[t]
                else:
                    nf = normal_form_vec({t: one}, index, table, field)
                    coords = known[t] = [(slots[r], a) for r, a in nf.items()]
                for k, a in coords:
                    v = col.get(k, 0) + c * a
                    col[k] = v % p if p else v
            cols.append({k: v for k, v in col.items() if v} if len(shifts) > 1 else col)
        return cols


def module_hilbert(module, degree):
    """dim_k M_degree: the t^degree coefficient of the module's Hilbert
    series (``ModulePresentation.hilbert_numerator``).  No degree piece is
    built; ``module.piece(degree).dim`` gives the same count with a basis."""
    return hilbert_coefficient(module.hilbert_numerator(), module.ring.n, degree)


def s_presentation(module):
    """Fold the ring relations into the matrix: the same module over S.

    The fold is memoized on the module, so what is memoized on the fold
    (its resolution) is found again on the next call.  The fold keeps the
    module in its memo ("unfolded") and takes the module's relation basis
    and Hilbert numerator from there.
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
    fold = ModulePresentation(base, GradedMatrix(base, mat.target, tuple(source), entries))
    fold._memo["unfolded"] = module
    return fold


def syzygies_over(ring, columns, twists, rels=(), degree=None):
    """Generators of {v : sum_j v_j columns_j lies in <rels>}, over the ring.

    This is the one kernel routine (Macaulay2's ``modulo``): kernels of
    maps of free modules, Hom and Tor kernels, the relations of a
    subquotient, colon ideals and intersections all come from it.
    ``rels`` are vectors in the free module with the given twists.  Only
    the columns are tagged; ``rels`` and (over R = S/a) the multiples
    g*e_i of the reduced basis of a (``_ring_multiples``, as in
    ``relation_basis`` and the Nakayama runs) enter the engine untagged,
    so no syzygies among them are computed.  Components are reduced to
    normal form and zero generators dropped.

    It constructs one ``runs.TaggedRun`` on the columns and the untagged
    vectors.  Without ``degree`` the call takes that run to its end and
    returns the syzygies it found.  With ``degree`` (a resolution step)
    the call returns the run stopped after that degree; the step passes
    what the run finds through ``reduced_syzygies``.
    """
    extra = list(rels) + _ring_multiples(ring, len(twists))
    run = TaggedRun(ring.ambient, columns, twists, extra).resume(degree)
    if degree is not None:
        return run
    return reduced_syzygies(ring, run.new_syzygies())


def reduced_syzygies(ring, raw, out=None):
    """Append to ``out`` (a new list when None) the nonzero normal forms of
    the raw generators, componentwise modulo the ring relations, and
    return it."""
    out = [] if out is None else out
    for v in raw:
        v = vec_reduce_components(ring, v)
        if v:
            out.append(v)
    return out


def nakayama_minimal_subset(ring, twists, vectors, rels=()):
    """Indices of a minimal generating subset of <vectors> + <rels> / <rels>.

    Graded Nakayama: in increasing degree, then in index order, a vector
    is kept exactly when it lies outside the submodule generated by the
    relation vectors and the vectors kept before it, over R = S/a also by
    a*e_i.  It is one ``runs.HilbertRun`` with no Hilbert series, taken
    to its end, which decides each vector by its normal form against a
    degree-truncated Groebner basis of that submodule.  No degree piece
    of the free module is built.
    """
    if not any(vectors):
        return []
    run = _nakayama_run(ring, twists, rels, None)
    run.add(vectors)
    run.advance()  # Nakayama's own work, not a buchberger_vectors call
    return run.kept


def _nakayama_run(ring, twists, rels, kernel):
    """The one ``runs.HilbertRun`` over a ring, in the free module with
    the given twists: a pass of ``nakayama_minimal_subset`` (no
    ``kernel``), or the certificate of a resolution step, given the
    Hilbert numerator ``kernel`` of the module that the candidates should
    span (see ``resolutions``).  Over R = S/a the
    multiples g*e_i of the relation basis are its fixed Groebner basis,
    so its normal forms also reduce modulo a and the vectors need no
    reduction beforehand."""
    order = VectorOrder(ring.ambient.order.key, twists=twists)
    fixed = _ring_multiples(ring, len(twists))
    return HilbertRun(order, ring.field, fixed, rels, kernel, ring.n)


def _ring_multiples(ring, rank):
    """g*e_i for g in the relation basis of R = S/a and i < rank: a
    Groebner basis of aF in a free module of that rank."""
    return [poly_to_vec(g, i) for g in ring.relations_groebner() for i in range(rank)]


def present_subquotient(ring, twists, gens, rels=()):
    """Minimal presentation of <gens> / <rels> inside a free module.

    Every relation vector must lie in the span of the generators.  The
    returned presentation has Nakayama-minimal generators
    (``subquotient_generators``), and its relations are
    ``syzygies_over(kept generators, rels)``, themselves
    Nakayama-minimalized (``present_generators``).  Also returns the
    indices of the surviving generators, so callers can align side data
    with them.
    """
    kept_idx, kept = subquotient_generators(ring, twists, gens, rels)
    return present_generators(ring, twists, kept, rels), kept_idx


def subquotient_generators(ring, twists, gens, rels=()):
    """The generators half of ``present_subquotient``: the indices of a
    minimal generating subset of <gens> + <rels> / <rels>
    (``nakayama_minimal_subset``), and those generators, each component
    in normal form modulo the ring relations."""
    kept_idx = nakayama_minimal_subset(ring, twists, gens, rels)
    return kept_idx, [vec_reduce_components(ring, gens[i]) for i in kept_idx]


def present_generators(ring, twists, kept, rels=()):
    """The relations half of ``present_subquotient``: the minimal
    presentation of <kept> + <rels> / <rels> on the generators ``kept``,
    which must be minimal already (``subquotient_generators``).  Its
    relations are the Nakayama-minimal ``syzygies_over(kept, rels)``."""
    if not kept:
        return ModulePresentation(ring, GradedMatrix(ring, (), (), []))
    kept_degs = tuple(vec_degree(v, twists) for v in kept)
    live_rels = [vec_reduce_components(ring, v) for v in rels]
    live_rels = [v for v in live_rels if v]
    syz = syzygies_over(ring, kept, twists, live_rels)
    keep_rel = nakayama_minimal_subset(ring, kept_degs, syz)
    mat = matrix_from_vectors(ring, kept_degs, [syz[i] for i in keep_rel])
    return ModulePresentation(ring, mat)


def minimalize_presentation(module):
    """Minimal presentation of a cokernel: Nakayama on both sides."""
    mat = module.matrix
    gens = [
        {(i, (0,) * module.ring.n): module.ring.field.one} for i in range(mat.rows)
    ]
    pres, _ = present_subquotient(module.ring, mat.target, gens, block_columns(mat))
    return pres
