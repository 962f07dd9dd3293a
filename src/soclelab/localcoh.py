"""Local cohomology degrees via graded duality, with an independent oracle.

The fast route dualizes a minimal free resolution into S(-n): the end
degree of H^j is minus the least generator degree of the dual Ext
module, and the least socle degree is minus its largest generator
degree.  The slow route computes stabilized pieces of the Koszul-limit
system on powers of the variables and never returns a silently
unstabilized value.  Canonical modules, canonical ideals, alpha
invariants, and regularity all hang off these two routes.
"""

import itertools
import random
from dataclasses import dataclass, field

from .errors import (
    AlgebraError,
    DomainError,
    EmbeddingSearchError,
    TruncationError,
    UnstableLimitError,
)
from .groebner import Ideal, minimal_generator_degrees
from .linalg import Span, nullspace, rank, transpose
from .modules import (
    GradedMatrix,
    ModulePresentation,
    block_columns,
    free_module,
    matrix_from_vectors,
    module_hilbert,
    present_subquotient,
    quotient_module,
    s_presentation,
    syzygies_over,
)
from .poly import NEG_INF, POS_INF
from .resolutions import (
    _hom_free_into,
    alpha_invariants,
    minimal_free_resolution,
    module_hom,
    module_kernel_image,
    residue_field_resolution,
    tor_residue_field,
)
from .rings import RingPresentation, memoized


# ---------------------------------------------------------------------------
# The duality route.


def ext_dual(i, module):
    """Ext^i_S(M, S(-n)) as a minimally presented module over M's ring.

    Cohomology of the dual of the minimal free resolution; the zero
    module outside 0 <= i <= projective dimension.  Memoized on the
    module.
    """
    return memoized(module, ("ext_dual", i), lambda: _ext_dual(i, module))


def _ext_dual(i, module):
    ring = module.ring
    folded = s_presentation(module)
    base = folded.ring
    n = base.n
    res = minimal_free_resolution(folded)
    twist_lists = [res.module_twists(k) for k in range(res.length + 1)]
    if i < 0 or i > res.length or module.is_zero():
        return ModulePresentation(ring, GradedMatrix(ring, (), (), []))
    dual_i = tuple(n - a for a in twist_lists[i])

    # The dual of d_step maps F_{step-1}* to F_step*: its columns are
    # those of the transpose of d_step.
    if i < res.length:
        dual_next = tuple(n - a for a in twist_lists[i + 1])
        gens = syzygies_over(
            base, block_columns(res.matrices[i].transpose()), dual_next
        )
    else:
        gens = [
            {(p, (0,) * n): base.field.one} for p in range(len(dual_i))
        ]
    rels = block_columns(res.matrices[i - 1].transpose()) if i >= 1 else []
    pres, _ = present_subquotient(base, dual_i, gens, rels)
    mat = pres.matrix
    return ModulePresentation(
        ring, GradedMatrix(ring, mat.target, mat.source, mat.entries, check=False)
    )


def ambient_var_count(module):
    return module.ring.ambient.n


def lc_end(j, module):
    """Top nonvanishing degree of H^j_m(M); -inf when H^j vanishes."""
    n = ambient_var_count(module)
    dual = ext_dual(n - j, module)
    if dual.is_zero():
        return NEG_INF
    return -dual.begin()


def socle_begin(j, module):
    """Least socle degree of H^j_m(M); +inf when H^j vanishes."""
    n = ambient_var_count(module)
    dual = ext_dual(n - j, module)
    if dual.is_zero():
        return POS_INF
    return -max(dual.generator_degrees)


def module_dimension(module):
    """Krull dimension of the module: the top nonvanishing cohomology index."""
    n = ambient_var_count(module)
    for j in range(n, -1, -1):
        if not ext_dual(n - j, module).is_zero():
            return j
    return -1


def module_depth(module):
    """Depth from the length of the minimal free resolution."""
    return ambient_var_count(module) - minimal_free_resolution(module).length


@dataclass
class SocleReport:
    """Per cohomological index: socle begin and top degree of H^j."""

    label: str
    dimension: int
    entries: dict = field(default_factory=dict)

    def socle_beg(self, j):
        return self.entries[j][0]

    def end(self, j):
        return self.entries[j][1]


def socle_report(module, label=""):
    dim = module_dimension(module)
    entries = {}
    for j in range(0, max(dim, 0) + 1):
        entries[j] = (socle_begin(j, module), lc_end(j, module))
    return SocleReport(label=label, dimension=dim, entries=entries)


# ---------------------------------------------------------------------------
# The Koszul-limit oracle.


class _QuotientSpace:
    """ker/im quotient with coordinates, for one cohomology piece.

    Vectors are sparse; ``reps`` are the kernel vectors that enlarged the
    span of the image, and coordinates are taken on them.
    """

    def __init__(self, fieldobj, width, image_vectors, kernel_vectors):
        self.span = Span(fieldobj, width, track=True)
        for v in image_vectors:
            self.span.add(v)
        self.reps = []
        self.rep_slots = []
        for v in kernel_vectors:
            if self.span.add(v):
                self.reps.append(v)
                self.rep_slots.append(self.span.n_inserted - 1)

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, vec):
        """Sparse coordinates {rep index: coefficient} of a kernel vector."""
        combo = self.span.coordinates(vec)
        if combo is None:
            raise AlgebraError("vector escapes the cohomology subquotient")
        return {h: combo[k] for h, k in enumerate(self.rep_slots) if k in combo}


class _KoszulPiece:
    """Cohomology of Hom(Koszul(x_1^s..x_n^s), M) in one internal degree."""

    def __init__(self, module, j, ell, s):
        self.module = module
        self.j = j
        self.ell = ell
        self.s = s
        ring = module.ring
        F = ring.field
        n = ring.ambient.n
        self.subsets = list(itertools.combinations(range(n), j))
        self.block_dim = module.piece(ell + j * s).dim
        width = len(self.subsets) * self.block_dim
        self.width = width

        # A zero piece is only evidence when the window has reached the
        # module: for j >= 1 the relevant degrees climb with s, and below
        # the least generator degree the whole complex is trivially zero
        # and says nothing about the limit.  For j = 0 the stage space
        # embeds in M itself, so a zero block is conclusive.
        if module.is_zero() or j == 0:
            self.informative = True
        else:
            self.informative = (
                self.block_dim > 0 or ell + j * s >= min(module.generator_degrees)
            )

        up_subsets = list(itertools.combinations(range(n), j + 1))
        up_dim = module.piece(ell + (j + 1) * s).dim
        powers = {}
        for i in range(n):
            e = [0] * n
            e[i] = s
            powers[i] = ring.ambient.monomial(tuple(e))
        mult = {}
        for i in range(n):
            mult[i] = module.piece(ell + j * s).multiplication_matrix(powers[i])
        # Rows of delta^j.  Each (T, b, i) writes its own block of cells,
        # since U = T + {i} fixes i, so no entry is written twice.
        rows = [{} for _ in range(len(up_subsets) * up_dim)]
        up_index = {T: k for k, T in enumerate(up_subsets)}
        for tk, T in enumerate(self.subsets):
            for i in range(n):
                if i in T:
                    continue
                U = tuple(sorted(T + (i,)))
                sign = (-1) ** U.index(i)
                base = up_index[U] * up_dim
                for b, col in enumerate(mult[i]):
                    src = tk * self.block_dim + b
                    for r, c in col.items():
                        rows[base + r][src] = c if sign > 0 else F.neg(c)
        kernel = nullspace(F, rows, width) if width else []

        # Columns of delta^{j-1}, one per source basis element (T, b); its
        # blocks for the different U = T + {i} are disjoint.
        image = {}
        if j >= 1:
            down_subsets = list(itertools.combinations(range(n), j - 1))
            down_dim = module.piece(ell + (j - 1) * s).dim
            multd = {}
            for i in range(n):
                multd[i] = module.piece(ell + (j - 1) * s).multiplication_matrix(
                    powers[i]
                )
            t_index = {T: k for k, T in enumerate(self.subsets)}
            for tk, T in enumerate(down_subsets):
                for i in range(n):
                    if i in T:
                        continue
                    U = tuple(sorted(T + (i,)))
                    sign = (-1) ** U.index(i)
                    base = t_index[U] * self.block_dim
                    for b, col in enumerate(multd[i]):
                        vec = image.setdefault(tk * down_dim + b, {})
                        for r, c in col.items():
                            vec[base + r] = c if sign > 0 else F.neg(c)
        image_vectors = [image[k] for k in sorted(image)]
        self.quotient = _QuotientSpace(F, width, image_vectors, kernel)

    @property
    def dim(self):
        return self.quotient.dim

    def map_blockwise(self, poly_for_subset, target_piece):
        """Matrix of a chain map given per subset, into another piece.

        ``poly_for_subset(T)`` returns the multiplier polynomial for the
        block T; the target piece must have the same subset layout.
        """
        reps = self.quotient.reps
        if not reps:
            return []
        src_piece = self.module.piece(self.ell + self.j * self.s)
        mms = [src_piece.multiplication_matrix(poly_for_subset(T)) for T in self.subsets]
        tgt_block = target_piece.block_dim
        cols = []
        for rep in reps:
            # Plain int or Fraction sums: the span reduces its input mod p.
            out = {}
            for src, c in rep.items():
                tk, b = divmod(src, self.block_dim)
                base = tk * tgt_block
                for r, v in mms[tk][b].items():
                    out[base + r] = out.get(base + r, 0) + c * v
            cols.append(target_piece.quotient.coords(out))
        return cols


def _koszul_stage(module, j, ell, s):
    return memoized(
        module, ("koszul", j, ell, s), lambda: _KoszulPiece(module, j, ell, s)
    )


def koszul_piece(j, module, ell, s_max=10):
    """dim H^j_m(M) in one degree, from the stabilized Koszul limit.

    Accepts a value only when two consecutive stages have equal dimension
    and the comparison map between them is an isomorphism; otherwise
    raises UnstableLimitError asking for a larger s_max.  Returns
    (dimension, stage at which it stabilized).
    """
    if s_max < 3:
        raise DomainError("s_max must be at least 3")
    ring = module.ring

    for s in range(2, s_max):
        a, b = _koszul_stage(module, j, ell, s), _koszul_stage(module, j, ell, s + 1)
        if a.dim != b.dim:
            continue
        if a.dim == 0:
            if a.informative and b.informative:
                return 0, s
            continue
        if _transition_is_iso(ring, a, b):
            return a.dim, s
    raise UnstableLimitError(
        f"H^{j} piece in degree {ell} did not stabilize by s_max={s_max}; increase sMax"
    )


def _transition_is_iso(ring, a, b):
    gens = ring.ambient.gens()

    def multiplier(T):
        f = ring.ambient.one
        for i in T:
            f = f * gens[i]
        return f

    cols = a.map_blockwise(multiplier, b)
    if not cols:
        return b.dim == 0
    return rank(ring.field, cols, b.dim) == b.dim


def socle_piece(j, module, ell, s_max=10):
    """dim of the socle of H^j_m(M) in one degree, by brute force.

    The joint kernel of the variable multiplications out of the
    stabilized piece; both source and target pieces must stabilize at a
    common stage.
    """
    if s_max < 3:
        raise DomainError("s_max must be at least 3")
    ring = module.ring

    for s in range(2, s_max):
        a0, a1 = _koszul_stage(module, j, ell, s), _koszul_stage(module, j, ell, s + 1)
        b0 = _koszul_stage(module, j, ell + 1, s)
        b1 = _koszul_stage(module, j, ell + 1, s + 1)
        if a0.dim != a1.dim or b0.dim != b1.dim:
            continue
        if a0.dim == 0 and not (a0.informative and a1.informative):
            continue
        if b0.dim == 0 and not (b0.informative and b1.informative):
            continue
        if a0.dim and not _transition_is_iso(ring, a0, a1):
            continue
        if b0.dim and not _transition_is_iso(ring, b0, b1):
            continue
        if a0.dim == 0:
            return 0, s
        rows = []
        for var in ring.ambient.gens():
            cols = a0.map_blockwise(lambda T, f=var: f, b0)
            rows.extend(transpose(cols, b0.dim))
        return len(nullspace(ring.field, rows, a0.dim)), s
    raise UnstableLimitError(
        f"socle piece of H^{j} in degree {ell} did not stabilize; increase sMax"
    )


# ---------------------------------------------------------------------------
# Ext against the residue field, through Tor duality.


def kres_for(ring, steps):
    """Residue-field resolution with at least ``steps`` differentials.

    Kept in the ring's memo; a complete or deep enough one is returned
    as it is, and a deeper request replaces it with a new truncation.
    """
    res = ring._memo.get("kres")
    if res is None or not (res.complete or res.length >= steps):
        res = ring._memo["kres"] = residue_field_resolution(ring, steps)
    return res


@dataclass
class AlphaTable:
    """Largest twists per step of the residue-field resolution over R.

    None marks a vanishing step; the zeroth entry is always 0.
    """

    ring: RingPresentation
    values: tuple

    def __getitem__(self, i):
        return self.values[i]

    @property
    def truncation(self):
        return len(self.values) - 1


def alpha_table(ring, up_to):
    kres = kres_for(ring, up_to)
    values = tuple(alpha_invariants(kres, up_to))
    if values and values[0] != 0:
        raise AlgebraError("alpha_0 must vanish")
    return AlphaTable(ring=ring, values=values)


def alpha_max(ring, i, steps=None):
    """Largest twist at step i of the residue-field resolution over R."""
    kres = kres_for(ring, steps if steps is not None else i)
    return alpha_invariants(kres, i)[i]


def ext_k_begin(i, j, module, truncation=None):
    """beg Ext^i_R(k, H^j_m(M)), through the dual Tor computation.

    +inf when the Ext module vanishes (in particular whenever H^j does).
    """
    ring = module.ring
    n = ambient_var_count(module)
    dual = ext_dual(n - j, module)
    if dual.is_zero():
        return POS_INF
    steps = truncation if truncation is not None else i + 1
    kres = kres_for(ring, max(steps, i + 1))
    dims = tor_residue_field(ring, i, dual, kres)
    live = [d for d, v in dims.items() if v > 0]
    if not live:
        return POS_INF
    return -max(live)


def ext_k_piece(ring, i, module, ell, truncation=None):
    """dim Ext^i_R(k, M) in one degree, by direct linear algebra.

    Independent of the Tor route: the Hom complex of the truncated
    residue-field resolution is evaluated degreewise.
    """
    kres = kres_for(ring, (truncation if truncation is not None else i + 1))
    if kres.length < i + 1 and not kres.complete:
        raise TruncationError("resolution truncated below the requested index")

    def hom_piece_basis(step):
        twists = kres.module_twists(step)
        dims = [module.piece(ell + a).dim for a in twists]
        return twists, dims

    def hom_map(step):
        # Hom(G_{step-1}, M) -> Hom(G_step, M): precompose with d_step.
        mat = kres.matrices[step - 1]
        src_twists, src_dims = hom_piece_basis(step - 1)
        dst_twists, dst_dims = hom_piece_basis(step)
        dst_off = [0]
        for d in dst_dims:
            dst_off.append(dst_off[-1] + d)
        cols = []
        for u in range(len(src_twists)):
            piece_u = module.piece(ell + src_twists[u])
            vecs = [{} for _ in range(src_dims[u])]
            for v in range(len(dst_twists)):
                f = mat.entries[u][v]
                if f.is_zero():
                    continue
                for b, col in enumerate(piece_u.multiplication_matrix(f)):
                    for r, c in col.items():
                        vecs[b][dst_off[v] + r] = c
            cols.extend(vecs)
        return cols, dst_off[-1]

    F = ring.field
    _, dims_i = hom_piece_basis(i)
    width = sum(dims_i)
    if width == 0:
        return 0
    if i + 1 <= kres.length:
        out_cols, w_dst = hom_map(i + 1)
        ker_dim = len(nullspace(F, transpose(out_cols, w_dst), width))
    else:
        ker_dim = width
    if i >= 1:
        in_cols, _ = hom_map(i)
        img_rank = rank(F, in_cols, width)
    else:
        img_rank = 0
    return ker_dim - img_rank


# ---------------------------------------------------------------------------
# Canonical modules and canonical ideals.


@dataclass
class CanonicalData:
    """Canonical module, canonical ideal, and the degree bookkeeping."""

    omega_module: ModulePresentation
    ideal: Ideal
    a_invariant: int
    shift: int
    embedding_degree: int


def canonical_module(ring):
    """Ext^{n-d}_S(R, S(-n)) as a module over R."""
    d = ring.dimension()
    module = quotient_module(ring, [])
    return ext_dual(ring.n - d, module)


def _hom_witness_to_row(ring, witness, omega):
    row = []
    for i in range(len(omega.generator_degrees)):
        row.append(witness.get((i, 0), ring.ambient.zero))
    return row


def canonical_ideal(ring, random_tries=32):
    """A homogeneous ideal whose shift is the graded canonical module.

    Searches Hom(Omega, R) for an injective homogeneous map: first every
    minimal-degree generator, then (over a small finite field) the whole
    minimal-degree piece, then seeded random combinations.  Fails loudly
    when the budget is exhausted.
    """
    d = ring.dimension()
    omega = canonical_module(ring)
    r_mod = quotient_module(ring, [])
    hom, wits = module_hom(omega, r_mod)
    if hom.is_zero():
        raise EmbeddingSearchError("Hom(Omega, R) is zero")
    degs = hom.generator_degrees
    min_deg = min(degs)
    minimal_wits = [w for w, dg in zip(wits, degs) if dg == min_deg]

    candidates = [dict(w) for w in minimal_wits]
    F = ring.field
    if F.characteristic and F.characteristic ** len(minimal_wits) <= 256:
        for combo in itertools.product(F.elements(), repeat=len(minimal_wits)):
            if all(c == 0 for c in combo):
                continue
            merged = {}
            for c, w in zip(combo, minimal_wits):
                if c == 0:
                    continue
                for key, f in w.items():
                    merged[key] = merged.get(key, ring.ambient.zero) + f.scale(c)
            candidates.append(merged)
    rng = random.Random(20240831)
    for _ in range(random_tries):
        merged = {}
        for w in minimal_wits:
            c = F.of(rng.randrange(1, F.characteristic)) if F.characteristic else F.of(
                rng.randrange(1, 101)
            )
            for key, f in w.items():
                merged[key] = merged.get(key, ring.ambient.zero) + f.scale(c)
        candidates.append(merged)

    for witness in candidates:
        row = _hom_witness_to_row(ring, witness, omega)
        if all(f.is_zero() or ring.is_zero_in_quotient(f) for f in row):
            continue
        delta = None
        for f, a in zip(row, omega.generator_degrees):
            if not f.is_zero():
                delta = f.degree() - a
                break
        target = free_module(ring, (-delta,))
        phi = GradedMatrix(ring, (-delta,), omega.generator_degrees, [row])
        kernel, _, _ = module_kernel_image(omega, target, phi)
        if kernel.is_zero():
            gens = [ring.nf(f) for f in row if not ring.is_zero_in_quotient(f)]
            omega_ideal = Ideal(ring, gens)
            a_inv = -omega.begin()
            beg_omega = min(minimal_generator_degrees(omega_ideal))
            shift = beg_omega + a_inv
            if shift != delta:
                raise AlgebraError(
                    "canonical ideal shift disagrees with the embedding degree"
                )
            return CanonicalData(
                omega_module=omega,
                ideal=omega_ideal,
                a_invariant=a_inv,
                shift=shift,
                embedding_degree=delta,
            )
    raise EmbeddingSearchError(
        "no injective homomorphism Omega -> R found within the search budget"
    )


def ideal_as_module(ideal):
    """The ideal as a graded module over its ring, minimally presented."""
    gens = [{(0, m): c for m, c in f.terms.items()} for f in ideal.generators]
    return present_subquotient(ideal.ring, (0,), gens)[0]


@dataclass
class EndomorphismCertificate:
    """Outcome of the canonical-ideal endomorphism test."""

    ok: bool
    generator_degrees: tuple
    identity_is_generator: bool
    window: tuple
    ring_dims: tuple
    hom_dims: tuple

    def __bool__(self):
        return self.ok


def endomorphism_check(ring, omega_ideal, window_top=None):
    """Is R -> Hom(omega, omega) a degree-preserving isomorphism?

    Certified by: the Hom module has exactly one minimal generator, in
    degree zero; the identity map is nonzero there (so it generates, by
    Nakayama); and the Hilbert functions of R and Hom agree on a window.
    """
    mod = ideal_as_module(omega_ideal)
    hom, wits = module_hom(mod, mod)
    degs = tuple(hom.generator_degrees)
    one_gen = degs == (0,)

    r = len(mod.generator_degrees)
    identity_vec = {(i * r + i, (0,) * ring.n): ring.field.one for i in range(r)}
    piece0 = hom.piece(0)
    # The Hom presentation's ambient equals Hom(F0, omega); the identity
    # lives there, and its class is nonzero iff it escapes the relation
    # span in degree zero.
    ident_nonzero = bool(piece0.dim) and _class_nonzero_in_hom(ring, mod, identity_vec)

    if window_top is None:
        window_top = max(list(mod.generator_degrees) + [2]) + 3
    window = tuple(range(0, window_top + 1))
    ring_dims = tuple(ring.hilbert(l) for l in window)
    hom_dims = tuple(module_hilbert(hom, l) for l in window)
    ok = one_gen and ident_nonzero and ring_dims == hom_dims
    return EndomorphismCertificate(
        ok=ok,
        generator_degrees=degs,
        identity_is_generator=ident_nonzero,
        window=window,
        ring_dims=ring_dims,
        hom_dims=hom_dims,
    )


def _class_nonzero_in_hom(ring, mod, vec):
    hom0_twists, hom0_rels = _hom_free_into(mod, mod.matrix.target)
    hom0 = ModulePresentation(ring, matrix_from_vectors(ring, hom0_twists, hom0_rels))
    return bool(hom0.piece(0).project(vec))


# ---------------------------------------------------------------------------
# Regularity.


def regularity(module):
    """Castelnuovo-Mumford regularity, computed two ways and compared.

    Route one: max over j of en(H^j) + j through the duality route.
    Route two: max twist minus step over the Betti table.  Disagreement
    is an internal-consistency failure and raises.
    """
    if module.is_zero():
        raise DomainError("regularity of the zero module is undefined")
    reg_betti = minimal_free_resolution(module).betti().regularity()
    reg_lc = None
    for j in range(0, ambient_var_count(module) + 1):
        e = lc_end(j, module)
        if e != NEG_INF:
            v = e + j
            reg_lc = v if reg_lc is None else max(reg_lc, v)
    if reg_lc != reg_betti:
        raise AlgebraError(
            f"regularity mismatch: duality route {reg_lc}, Betti route {reg_betti}"
        )
    return reg_betti
