"""Local cohomology degrees via graded duality, with an independent oracle.

The fast route dualizes a minimal free resolution into S(-n): the end
degree of H^j is minus the least generator degree of the dual Ext
module, and the least socle degree is minus its largest generator
degree.  The slow route computes pieces of the Koszul-limit system on
powers of the variables, at a stage proved equal to the limit.
Canonical modules, canonical ideals, alpha invariants, and regularity
all hang off these two routes.

Each Koszul stage, and ``ext_k_piece``'s direct check of Ext^i_R(k, M),
is the cohomology of Hom(F_., M) in one internal degree for a complex
F_. of graded free modules: one coboundary builder (``_hom_map``) and
one ker/im routine (``_hom_cohomology``) serve both.

Cohomology on a complement of the image.  In one degree let V be
Hom(F, M)_ell at the middle term, A = Hom(d_out, M)_ell leaving V and
B = Hom(d_in, M)_ell entering it, so that AB = 0.  Keep an echelon
basis of im B: each basis vector has a 1 at its pivot and nothing to
its left.  On the pivot columns these vectors form a unit triangular
matrix, so no nonzero vector of im B vanishes at every pivot; as im B
has one dimension per pivot, the unit vectors at the other ("free")
columns span a complement C of im B in V.  As im B lies in ker A,
ker A = im B + (ker A meet C), a direct sum: write v in ker A as b + c
with b in im B and c in C; then c = v - b lies in ker A.  Hence
H = ker A / im B is isomorphic to ker A meet C, the kernel of A
restricted to the columns of C.

That kernel is read off the columns of A|C (A restricted to C), inserted
in increasing order into one tracked span, on the first read of the
stage's dimension or representatives.  A column that reduces to
zero lies in the span of the earlier ones.  Row operations keep every
linear relation among the columns, and in a reduced row echelon form a
column is a pivot column exactly when it is no combination of the
columns before it; so the dependent columns are exactly the non-pivot
columns of the reduced row echelon form of the rows of A|C, and
dim H = #free - rank(A|C) is their number.  The relation
a dependent column u leaves is 1 at u and otherwise lives on earlier
independent columns, so it is 0 at every other dependent column; a
kernel vector is fixed by its entries at the non-pivot columns, so this
relation is the reduced kernel vector of u.  The relations are the
representatives, and no kernel basis is built.  Coordinates need no
further span: the remainder of a cocycle modulo im B (echelon
reduction, zero at every pivot of im B) is its component in C, which
lies in ker A and so is the combination of the representatives with its
own entries at their columns u.  A vector whose remainder is not that
combination is no cocycle, and raises AlgebraError.

Which Koszul stage equals the limit.  Stage s is H^j(x^s; M), the
cohomology of the Koszul complex on x_1^s, ..., x_n^s with coefficients
in M; H^j_m(M) is its direct limit, the map from stage s to stage s + 1
multiplying block T by x_T, the product of the x_i with i in T.  That
Koszul complex resolves A_s = S/m^[s] and is self-dual, so
H^j(x^s; M)_ell = Tor^S_{n-j}(A_s, M)_{ell+ns} (Bruns-Herzog,
Cohen-Macaulay Rings, 1.6 and 3.5), and the transition becomes the map
on Tor induced by multiplication by x_1...x_n from A_s(-n) to A_{s+1}.
Compute that Tor as the homology of F_. (x) A_s, with F_. the minimal
free resolution of M over S.  In degree ell + ns a summand S(-b) of F_i
contributes the piece of A_s that lies c = b - n - ell below its top
degree n(s-1).  Its monomials are x^(s-1)/v, for v of degree c with
every exponent below s; once c <= s - 1 that is every monomial v of
degree c.  A monomial w sends x^(s-1)/v to x^(s-1)/(v/w) when w divides
v and to zero otherwise, whatever s is, and multiplication by
x_1...x_n sends x^(s-1)/v in A_s to x^s/v in A_{s+1}.  So in the basis
v, F_. (x) A_s in degree ell + ns does not depend on s once s - 1 >= c
for every twist of F_{n-j-1}, F_{n-j} and F_{n-j+1}, the terms that
H_{n-j} reads, and the transition maps there are the identity.  Every
stage s >= s0 = max(2, 1 + b - n - ell), with b the largest of those
twists, therefore equals the limit; the least stage used is 2.

Two rules answer 0 with no stage.  For j = 0 every stage is the piece
of (0 :_M (x^s)) in degree ell, inside M_ell, so where M_ell = 0 the
limit is 0 whatever the twists say; dim M_ell is read off the Hilbert
series of M (``modules.module_hilbert``), with no piece built.  For
j > dim M, H^j_m(M) = 0 by Grothendieck's vanishing theorem
(Bruns-Herzog 3.5.7), although a stage below s0 need not be 0.

The socle from one Span.  A stage is the ``linalg.QuotientSpace`` of its
Hom complex, memoized on the module; its C(n, j) blocks, one per
j-subset, are M_{ell + js}.  Multiplication by a variable commutes with
the transitions, and s0 for ell + 1 is at most s0 for ell, so the socle
in degree ell is read at stage s0(ell) on both sides: each
representative h of degree ell goes to (x_1 h, ..., x_n h), each x_i h
taken block by block through one multiplication matrix of M_{ell + js}.
The socle has dimension dim H_ell minus the rank of those vectors, read
in H_{ell+1}^n.  The stage of degree ell + 1 need not be solved for that
rank: with V its middle term and B its incoming map, H_{ell+1} =
ker A / im B embeds in V / im B, and the remainder modulo im B (the
echelon reduction above) is a linear isomorphism from V / im B onto C.
So x_i h -> its remainder is injective on H_{ell+1}, block by block, and
the stacked remainders have the same rank as the stacked coordinates.
Only the image of that stage is built; its columns of A|C are eliminated
when, and only when, its own dimension is read.  Each remainder is still
checked to lie in ker A, so a multiplication that leaves the cocycles
raises AlgebraError.

What the two routes share.  The duality route reads only the degrees
of the Nakayama-minimal generators of each Ext module
(``_ext_generators``); the relations among them are presented on demand
(``ext_dual``), for the callers that need the module itself.  s0 reads
only twists of the minimal free resolution that the duality route
memoizes.  The oracle's degree pieces
of M, and the Hilbert series that the two rules read (M_ell and dim M),
come from one reduced Groebner basis of M's relations
(``ModulePresentation.relation_basis``), reduced
by the same ``modgb`` normal-form engine that computes the resolution's
syzygies and minimal generators on the duality route.  The Hom complexes,
the cohomology of each stage (``linalg.QuotientSpace``), its
representatives and the socle's Span are the oracle's own sparse linear
algebra.  The tests keep the Span-based pieces, which use no module
Groebner basis, two older cohomology routes (a kernel basis from
``nullspace`` inserted after the image into one tracked Span, and the
rows of A|C with their reduced kernel basis), and the socle count on the
coordinates of the solved stage of degree ell + 1, as independent
references.
"""

import itertools
import random
from dataclasses import dataclass, field
from math import comb

from .errors import (
    AlgebraError,
    DomainError,
    EmbeddingSearchError,
    TruncationError,
    UnstableLimitError,
)
from .groebner import Ideal, minimal_generator_degrees
from .linalg import QuotientSpace, Span
from .modgb import poly_to_vec, vec_degree
from .modules import (
    GradedMatrix,
    ModulePresentation,
    block_columns,
    module_hilbert,
    nakayama_minimal_subset,
    present_generators,
    present_subquotient,
    quotient_module,
    s_presentation,
    subquotient_generators,
    syzygies_over,
)
from .poly import NEG_INF, POS_INF
from .resolutions import (
    _hom_free_into,
    alpha_invariants,
    minimal_free_resolution,
    module_hom,
    residue_field_resolution,
    tor_residue_field,
)
from .rings import RingPresentation, memoized


# ---------------------------------------------------------------------------
# The duality route.


def ext_dual(i, module):
    """Ext^i_S(M, S(-n)) as a minimally presented module over M's ring.

    Cohomology of the dual of the minimal free resolution; the zero
    module outside 0 <= i <= projective dimension.  Its generators are
    those of ``_ext_generators``, and only the relations among them are
    computed here.  Memoized on the module; callers that read only
    generator degrees (``lc_end``, ``socle_begin``, ``module_dimension``)
    never build it.
    """

    def build():
        ext = _ext_generators(i, module)
        mat = present_generators(ext.base, ext.twists, ext.kept, ext.rels).matrix
        ring = module.ring
        return ModulePresentation(
            ring, GradedMatrix(ring, mat.target, mat.source, mat.entries, check=False)
        )

    return memoized(module, ("ext_dual", i), build)


@dataclass
class _ExtGenerators:
    """Ext^i_S(M, S(-n)) = ker(d_{i+1}^T) / im(d_i^T) without its
    relations: the Nakayama-minimal generators ``kept``, vectors in the
    free S-module with the given ``twists`` (the dual of F_i, into
    S(-n)), their ``degrees``, and the columns ``rels`` of d_i^T, which
    span the image."""

    base: RingPresentation
    twists: tuple
    kept: list
    rels: list
    degrees: tuple


def _ext_generators(i, module):
    """The generators half of ``ext_dual``: one graded Nakayama pass over
    the kernel generators of d_{i+1}^T modulo im(d_i^T), and no relation
    run.  Memoized on the module, so the pass runs once per (module, i)
    whichever caller comes first."""

    def build():
        folded = s_presentation(module)
        base = folded.ring
        n = base.n
        res = minimal_free_resolution(folded)
        if i < 0 or i > res.length or module.is_zero():
            return _ExtGenerators(base, (), [], [], ())
        dual_i = tuple(n - a for a in res.module_twists(i))
        # The dual of d_step maps F_{step-1}* to F_step*: its columns are
        # those of the transpose of d_step.
        if i < res.length:
            dual_next = tuple(n - a for a in res.module_twists(i + 1))
            gens = syzygies_over(
                base, block_columns(res.matrices[i].transpose()), dual_next
            )
        else:
            gens = [
                {(p, (0,) * n): base.field.one} for p in range(len(dual_i))
            ]
        rels = block_columns(res.matrices[i - 1].transpose()) if i >= 1 else []
        kept = subquotient_generators(base, dual_i, gens, rels)[1]
        degrees = tuple(vec_degree(v, dual_i) for v in kept)
        return _ExtGenerators(base, dual_i, kept, rels, degrees)

    return memoized(module, ("ext_generators", i), build)


def lc_end(j, module):
    """Top nonvanishing degree of H^j_m(M); -inf when H^j vanishes.

    Minus the least generator degree of Ext^{n-j}_S(M, S(-n)), read off
    ``_ext_generators`` with no relations computed.
    """
    degrees = _ext_generators(module.ring.n - j, module).degrees
    return -min(degrees) if degrees else NEG_INF


def socle_begin(j, module):
    """Least socle degree of H^j_m(M); +inf when H^j vanishes.

    Minus the largest generator degree of Ext^{n-j}_S(M, S(-n)), read off
    ``_ext_generators`` with no relations computed.
    """
    degrees = _ext_generators(module.ring.n - j, module).degrees
    return -max(degrees) if degrees else POS_INF


def module_dimension(module):
    """Krull dimension of the module: the top nonvanishing cohomology index."""
    n = module.ring.n
    for j in range(n, -1, -1):
        if _ext_generators(n - j, module).degrees:
            return j
    return -1


def module_depth(module):
    """Depth from the length of the minimal free resolution
    (Auslander-Buchsbaum); undefined for the zero module, also when it
    is presented with generators that minimalization removes."""
    res = minimal_free_resolution(module)
    if not res.f0_twists:
        raise DomainError("depth of the zero module is undefined")
    return module.ring.n - res.length


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


def _hom_map(module, d, ell):
    """Hom(d, M) in degree ell, for a map d: G -> F of graded free modules.

    Block u of Hom(F, M)_ell is M_{ell + a_u}, for the twist a_u of F; it
    goes to block v of Hom(G, M)_ell through multiplication by entry
    (u, v) of d.  The piece keeps the multiplication matrix of each monic
    entry, scaled here by the entry's lead coefficient, so entries that
    differ by a unit, and every map through the same piece, share one.
    Returns the sparse columns, block by block, and the width of
    Hom(G, M)_ell.
    """
    F = module.ring.field
    offsets = [0]
    for b in d.source:
        offsets.append(offsets[-1] + module.piece(ell + b).dim)
    cols = []
    for u, a in enumerate(d.target):
        piece = module.piece(ell + a)
        vecs = [{} for _ in range(piece.dim)]
        for v, f in enumerate(d.entries[u]):
            if f.is_zero():
                continue
            lc = f.lead_coeff()
            unit = lc == F.one
            base = offsets[v]
            for b, col in enumerate(piece.multiplication_matrix(f.monic())):
                for r, c in col.items():
                    vecs[b][base + r] = c if unit else F.mul(lc, c)
        cols.extend(vecs)
    return cols, offsets[-1]


def _hom_cohomology(module, twists, d_in, d_out, ell):
    """ker Hom(d_out, M)_ell / im Hom(d_in, M)_ell at the free module F.

    F has the given twists; d_in maps F to the previous module of the
    complex and d_out the next one to F.  Either map is None at an end
    of the complex.
    """
    width = sum(module.piece(ell + a).dim for a in twists)
    image = _hom_map(module, d_in, ell)[0] if width and d_in is not None else []
    out = _hom_map(module, d_out, ell) if width and d_out is not None else ([], 0)
    return QuotientSpace(module.ring.field, width, image, *out)


def _koszul_matrix(ring, s, j):
    """d_j: K_j -> K_{j-1} of the Koszul complex on x_1^s, ..., x_n^s.

    Basis elements are the j-subsets, in ``itertools.combinations``
    order; entry (T, U) for U = T + {i} is (-1)^pos x_i^s, with pos the
    place of i in U.  Memoized on the ring, so every stage and piece
    with the same s and j shares one matrix.
    """

    def build():
        amb = ring.ambient
        rows = list(itertools.combinations(range(amb.n), j - 1))
        cols = list(itertools.combinations(range(amb.n), j))
        row_index = {T: k for k, T in enumerate(rows)}
        entries = [[amb.zero] * len(cols) for _ in rows]
        for v, U in enumerate(cols):
            for pos, i in enumerate(U):
                f = amb.var(i) ** s
                entries[row_index[U[:pos] + U[pos + 1:]]][v] = -f if pos % 2 else f
        return GradedMatrix(
            ring, ((j - 1) * s,) * len(rows), (j * s,) * len(cols), entries, check=False
        )

    return memoized(ring, ("koszul_matrix", s, j), build)


def _koszul_stage(module, j, ell, s):
    """Stage s of H^j_m(M)_ell: the ``QuotientSpace`` of Hom(K_., M)_ell at
    K_j, K_. the Koszul complex on x_1^s, ..., x_n^s (``_koszul_matrix``
    orders its blocks).  Memoized on the module."""

    def build():
        ring = module.ring
        return _hom_cohomology(
            module,
            (j * s,) * comb(ring.ambient.n, j),
            _koszul_matrix(ring, s, j) if j else None,
            _koszul_matrix(ring, s, j + 1),
            ell,
        )

    return memoized(module, ("koszul", j, ell, s), build)


def _limit_stage(j, module, ell, s_max):
    """The stage s0 = max(2, 1 + b - n - ell) of the module docstring, or
    None where H^j_m(M)_ell vanishes by a rule that needs no stage.

    b is the largest twist of F_{n-j-1}, F_{n-j} and F_{n-j+1} in the
    minimal free resolution of M over S.  The two rules, j = 0 with
    M_ell = 0 and j > dim M, read the Hilbert series of the relation basis
    behind the pieces (``module_hilbert``, ``ModulePresentation.krull_dimension``).
    Raises UnstableLimitError when s0 >= s_max.
    """
    if s_max < 3:
        raise DomainError("s_max must be at least 3")
    if j < 0:
        raise DomainError(f"cohomological index must be >= 0, got {j}")
    if (j == 0 and module_hilbert(module, ell) == 0) or j > module.krull_dimension():
        return None
    n = module.ring.n
    res = minimal_free_resolution(module)
    twists = [b for k in (n - j - 1, n - j, n - j + 1) for b in res.module_twists(k)]
    s0 = max([2] + [1 + b - n - ell for b in twists])
    if s0 >= s_max:
        raise UnstableLimitError(
            f"H^{j} piece in degree {ell} is stable only from Koszul stage {s0}, "
            f"not below s_max={s_max}; increase s_max"
        )
    return s0


def koszul_piece(j, module, ell, s_max=10):
    """dim H^j_m(M) in one degree, from Koszul stage s0.

    s0 is read off the twists of M's minimal free resolution (module
    docstring), and stage s0 equals the limit.  The answer is (0, 2),
    with no stage built, for j = 0 where M_ell = 0 and for every j > dim M.
    Raises UnstableLimitError when s0 >= s_max.  Returns (dimension, s0).
    """
    s = _limit_stage(j, module, ell, s_max)
    if s is None:
        return 0, 2
    return _koszul_stage(module, j, ell, s).dim, s


def socle_piece(j, module, ell, s_max=10):
    """dim of the socle of H^j_m(M) in one degree.

    The joint kernel of the variable multiplications from stage s0 of
    degree ell to the same stage of degree ell + 1, counted as dim H_ell
    minus the rank of one Span of the images (x_1 h, ..., x_n h) of the
    representatives h, each x_i h taken by its remainder modulo the image
    of the stage of degree ell + 1, which this call does not solve
    (module docstring).  s0 for ell is at least s0 for ell + 1, so both
    stages equal their limits and the multiplications are those of
    H^j_m(M).  The answer is (0, 2) where ``koszul_piece`` gives it.
    Raises UnstableLimitError when s0 >= s_max.  Returns (dimension, s0).
    """
    s = _limit_stage(j, module, ell, s_max)
    if s is None:
        return 0, 2
    a0 = _koszul_stage(module, j, ell, s)
    if a0.dim == 0:
        return 0, s
    b0 = _koszul_stage(module, j, ell + 1, s)
    source = module.piece(ell + j * s)
    block, tgt_block = source.dim, module.piece(ell + 1 + j * s).dim
    mults = [source.multiplication_matrix(x) for x in module.ring.ambient.gens()]
    # One vector per rep h: (x_1 h, ..., x_n h), each by its remainder
    # modulo b0's image, block i at columns i * width onwards.
    width = b0.image.width
    images = Span(module.ring.field, len(mults) * width)
    for rep in a0.reps:
        stacked = {}
        for i, mm in enumerate(mults):
            # Plain int or Fraction sums: remainder reduces its input mod p.
            out = {}
            for k, c in rep.items():
                subset, b = divmod(k, block)
                base = subset * tgt_block
                for r, v in mm[b].items():
                    out[base + r] = out.get(base + r, 0) + c * v
            base = i * width
            for k, c in b0.remainder(out).items():
                stacked[base + k] = c
        images.add(stacked)
    return a0.dim - images.rank, s


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
    if truncation is not None and truncation < 0:
        raise DomainError("truncation must be >= 0")
    ring = module.ring
    n = module.ring.n
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

    d_in = kres.matrices[i - 1] if i >= 1 else None
    d_out = kres.matrices[i] if i + 1 <= kres.length else None
    return _hom_cohomology(module, kres.module_twists(i), d_in, d_out, ell).dim


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


def _search_coefficients(field, count, random_tries):
    """Coefficient tuples over ``count`` Hom witnesses, in search order.

    Each witness alone; then, when the field is GF(p) with p^count <= 256,
    in ``itertools.product`` order, the tuples with at least two nonzero
    entries whose first nonzero entry is 1; then ``random_tries`` tuples
    of nonzero coefficients, drawn witness by witness from
    ``random.Random(20240831)`` (from 1..100 over QQ).  A tuple is made
    only when the search asks for it.

    The GF(p) tier takes one tuple per line through the origin, and
    skips no injective candidate that the whole tier would reach first:
    c*phi and phi have the same kernel, the first tuple of each line in
    ``itertools.product`` order over 0..p-1 is the one whose first
    nonzero entry is 1, and a tuple with one nonzero entry is a multiple
    of a witness already tried alone.
    """
    for k in range(count):
        yield tuple(field.one if i == k else field.zero for i in range(count))
    p = field.characteristic
    if p and p**count <= 256:
        for combo in itertools.product(field.elements(), repeat=count):
            live = [c for c in combo if c]
            if len(live) > 1 and live[0] == field.one:
                yield combo
    rng = random.Random(20240831)
    for _ in range(random_tries):
        yield tuple(field.of(rng.randrange(1, p or 101)) for _ in range(count))


def canonical_ideal(ring, random_tries=32):
    """A homogeneous ideal whose shift is the graded canonical module.

    Searches the minimal-degree piece of Hom(Omega, R) for an injective
    map, one candidate at a time in the order of
    ``_search_coefficients``: every minimal-degree Hom generator alone,
    then (over GF(p) with at most 256 tuples) every combination of them
    up to a unit,
    then ``random_tries`` seeded random combinations.  A candidate is
    built only when the search reaches it.  It is injective when its
    kernel is zero: no generator of the kernel (``syzygies_over`` of the
    images) survives graded Nakayama over Omega's relations.  Fails
    loudly when the budget is exhausted.
    """
    omega = canonical_module(ring)
    hom, wits = module_hom(omega, quotient_module(ring, []))
    if hom.is_zero():
        raise EmbeddingSearchError("Hom(Omega, R) is zero")
    # Every minimal-degree witness sends generator i of Omega, of degree
    # a_i, to a form of degree a_i + delta.
    delta = min(hom.generator_degrees)
    wits = [w for w, dg in zip(wits, hom.generator_degrees) if dg == delta]
    omega_degs = omega.generator_degrees
    omega_rels = block_columns(omega.matrix)
    for combo in _search_coefficients(ring.field, len(wits), random_tries):
        row = [ring.ambient.zero] * len(omega_degs)
        for c, w in zip(combo, wits):
            for (i, _), f in w.items():
                row[i] = row[i] + f.scale(c)
        row = [ring.nf(f) for f in row]
        gens = [f for f in row if not f.is_zero()]
        if not gens:
            continue
        kernel = syzygies_over(ring, [poly_to_vec(f) for f in row], (-delta,))
        if nakayama_minimal_subset(ring, omega_degs, kernel, omega_rels):
            continue
        omega_ideal = Ideal(ring, gens)
        a_inv = -omega.begin()
        shift = min(minimal_generator_degrees(omega_ideal)) + a_inv
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
    gens = [poly_to_vec(f) for f in ideal.generators]
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
    # The Hom presentation's ambient equals Hom(F0, omega); the identity
    # lives there, and its class is nonzero iff it escapes the relation
    # span in degree zero.
    ident_nonzero = module_hilbert(hom, 0) > 0 and _class_nonzero_in_hom(ring, mod, identity_vec)

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
    """Is the class of the degree-0 vector ``vec`` of Hom(F_0, M) nonzero?
    Exactly when graded Nakayama keeps it: it lies outside the relations."""
    hom0_twists, hom0_rels = _hom_free_into(mod, mod.matrix.target)
    return bool(nakayama_minimal_subset(ring, hom0_twists, [vec], hom0_rels))


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
    for j in range(0, module.ring.n + 1):
        e = lc_end(j, module)
        if e != NEG_INF:
            v = e + j
            reg_lc = v if reg_lc is None else max(reg_lc, v)
    if reg_lc != reg_betti:
        raise AlgebraError(
            f"regularity mismatch: duality route {reg_lc}, Betti route {reg_betti}"
        )
    return reg_betti
