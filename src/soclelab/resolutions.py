"""Syzygies, minimal graded free resolutions, Hom, kernels, and Tor.

Over the polynomial ring resolutions terminate within the variable
count; over a quotient R = S/a only truncations are computed, with all
arithmetic done on ambient lifts reduced against a fixed basis of the
relations.  Minimality means every differential entry lies in the
irrelevant ideal, enforced by taking Nakayama-minimal generating sets of
each syzygy module.

Every kernel here (syzygies, Hom, kernel/image, Tor) is one call of
:func:`~soclelab.modules.syzygies_over` with the downstairs relations as
``rels``, on matrix columns laid out by
:func:`~soclelab.modules.block_columns`.
"""

from .errors import StructuralError, TruncationError
from .modgb import vec_degree
from .modules import (
    block_columns,
    matrix_from_vectors,
    minimalize_presentation,
    nakayama_minimal_subset,
    present_subquotient,
    quotient_module,
    s_presentation,
    syzygies_over,
)
from .poly import Polynomial
from .rings import memoized


class BettiTable:
    """beta_{i,j}: number of degree-j twists at homological step i."""

    def __init__(self, entries):
        self.entries = dict(entries)

    @classmethod
    def from_twist_lists(cls, twist_lists):
        entries = {}
        for i, twists in enumerate(twist_lists):
            for a in twists:
                entries[(i, a)] = entries.get((i, a), 0) + 1
        return cls(entries)

    def beta(self, i, j):
        return self.entries.get((i, j), 0)

    def regularity(self):
        """max(j - i) over nonzero entries; the Betti-side regularity."""
        return max(j - i for (i, j) in self.entries)

    def rows(self):
        out = []
        for (i, j), b in sorted(self.entries.items()):
            out.append((i, j, b))
        return out

    def __repr__(self):
        return f"BettiTable({self.entries})"


class Resolution:
    """Chain of matrices d_1, d_2, ... with F_0 the first target.

    ``complete`` records whether the chain ended because the last syzygy
    module vanished (as opposed to hitting a requested truncation).
    """

    def __init__(self, ring, f0_twists, matrices, complete=True):
        self.ring = ring
        self.f0_twists = tuple(f0_twists)
        self.matrices = list(matrices)
        self.complete = complete

    @property
    def length(self):
        return len(self.matrices)

    def twist_lists(self):
        out = [self.f0_twists]
        for m in self.matrices:
            out.append(m.source)
        # Trailing empty steps carry no information.
        while out and not out[-1]:
            out.pop()
        return out

    def module_twists(self, i):
        lists = [self.f0_twists] + [m.source for m in self.matrices]
        if i < 0:
            return ()
        if i >= len(lists):
            return ()
        return lists[i]

    def betti(self):
        return BettiTable.from_twist_lists(self.twist_lists())

    def check_complex(self):
        """d o d = 0 (modulo relations when over a quotient)."""
        for a, b in zip(self.matrices, self.matrices[1:]):
            if not a.compose(b).is_zero_mod_relations():
                return False
        return True

    def check_minimal(self):
        for m in self.matrices:
            for row in m.entries:
                for f in row:
                    if not f.is_zero() and f.degree() < 1:
                        return False
        return True


def syzygy(matrix):
    """Minimal generators of the kernel of the induced map of free modules."""
    ring = matrix.ring
    raw = syzygies_over(ring, block_columns(matrix), matrix.target)
    keep = nakayama_minimal_subset(ring, matrix.source, raw)
    return matrix_from_vectors(ring, matrix.source, [raw[i] for i in keep])


def _resolve(module, steps=None):
    """Minimalize the presentation, then take syzygies until one vanishes.

    With ``steps``, stop once that many differentials are built; the
    result is then complete only if the chain ended on its own.
    """
    pres = minimalize_presentation(module)
    matrices = []
    complete = pres.matrix.cols == 0
    if pres.matrix.cols and steps != 0:
        matrices.append(pres.matrix)
        while steps is None or len(matrices) < steps:
            nxt = syzygy(matrices[-1])
            if nxt.cols == 0:
                complete = True
                break
            matrices.append(nxt)
    return Resolution(module.ring, pres.matrix.target, matrices, complete=complete)


def minimal_free_resolution(module):
    """Minimal graded free resolution over the polynomial ring.

    A module handed in over a quotient is folded into its ambient
    presentation first.  Terminates within the number of variables
    (asserted).  The resolution is memoized on the fold, which is
    memoized on the module, so it is computed once per module object.
    """
    folded = s_presentation(module)

    def build():
        res = _resolve(folded)
        if res.length > folded.ring.n:
            raise StructuralError("resolution exceeded the variable count")
        return res

    return memoized(folded, "resolution", build)


def truncated_resolution(module, steps):
    """First ``steps`` minimal syzygy matrices of a module over its ring.

    Over a quotient ring resolutions are generally infinite, so only a
    truncation is computed; over the polynomial ring this just stops the
    full resolution early.  Minimality holds step by step.
    """
    if steps < 0:
        raise StructuralError("steps must be >= 0")
    res = _resolve(module, steps)
    if not res.check_minimal():
        raise StructuralError("truncated resolution lost minimality")
    return res


def residue_field_resolution(ring, steps):
    """Truncated minimal free resolution of the residue field over R.

    Returns a Resolution whose step-i twists give the alpha invariants;
    ``steps`` counts differentials (steps=0 means just F_0 = R).
    """
    return truncated_resolution(quotient_module(ring, ring.ambient.gens()), steps)


def alpha_invariants(kres, up_to):
    """alpha_i = max twist at step i of the residue-field resolution.

    None marks a vanishing step (finite resolutions only); asking past a
    truncation raises.
    """
    out = []
    for i in range(up_to + 1):
        if i <= kres.length:
            twists = kres.module_twists(i)
            out.append(max(twists) if twists else None)
        elif kres.complete:
            out.append(None)
        else:
            raise TruncationError(f"resolution truncated before step {i}")
    return out


# ---------------------------------------------------------------------------
# Hom, kernel/image, and Tor against the residue field.


def _hom_free_into(module, twists):
    """Presentation data of Hom(free with twists, module).

    That is one copy of the module's presentation per twist (I_t (x) the
    matrix): positions are packed (component of the free module,
    generator of the module), and generator (i, g) has degree
    gens[g] - twists[i].
    """
    gens = module.generator_degrees
    r = len(gens)
    target = tuple(g - a for a in twists for g in gens)
    cols = block_columns(module.matrix)
    return target, [
        {(i * r + g, m): c for (g, m), c in col.items()}
        for i in range(len(twists))
        for col in cols
    ]


def module_hom(source, target):
    """Hom(source, target) with explicit homomorphism witnesses.

    Returns (presentation, witnesses); witness k is a dict mapping
    (source generator index, target generator index) to the polynomial
    coefficient, describing where the k-th Hom generator sends each
    source generator.
    """
    if source.ring != target.ring:
        raise StructuralError("Hom needs both modules over one ring")
    ring = source.ring
    r = len(target.generator_degrees)
    a_mat = source.matrix
    hom0_twists, hom0_rels = _hom_free_into(target, a_mat.target)
    hom1_twists, hom1_rels = _hom_free_into(target, a_mat.source)
    # Map Hom(F0, N) -> Hom(F1, N): precompose with the presentation.
    phi_cols = block_columns(a_mat.transpose(), r)
    kernel_gens = syzygies_over(ring, phi_cols, hom1_twists, hom1_rels)
    pres, kept = present_subquotient(ring, hom0_twists, kernel_gens, hom0_rels)
    witnesses = []
    for k in kept:
        wit = {}
        for (pos, m), c in kernel_gens[k].items():
            i, g = divmod(pos, r)
            wit.setdefault((i, g), {})[m] = c
        witnesses.append(
            {key: Polynomial(ring.ambient, terms) for key, terms in wit.items()}
        )
    return pres, witnesses


def module_kernel_image(source, target, phi):
    """Kernel and image presentations of a map given on generators.

    ``phi`` is a GradedMatrix from the source generators to the target
    generators (degree-preserving; checked at construction).  Returns
    (kernel, image) presentations, plus the kernel generators as ambient
    vectors of the source.
    """
    if phi.target != target.generator_degrees or phi.source != source.generator_degrees:
        raise StructuralError("map does not match the presentations")
    ring = source.ring
    phi_cols = block_columns(phi)
    target_rels = block_columns(target.matrix)
    kernel_gens = syzygies_over(
        ring, phi_cols, target.generator_degrees, target_rels
    )
    ker_pres, kept = present_subquotient(
        ring, source.generator_degrees, kernel_gens, block_columns(source.matrix)
    )
    im_pres, _ = present_subquotient(
        ring, target.generator_degrees, phi_cols, target_rels
    )
    kept_vecs = [kernel_gens[k] for k in kept]
    return ker_pres, im_pres, kept_vecs


def tor_residue_field(ring, i, module, kres):
    """Graded dimensions of Tor_i(k, module) over R.

    Computed as homology of (truncated residue-field resolution) tensor
    the module; needs the resolution through step i+1 and raises
    TruncationError otherwise.  The answer is a degree -> dimension map.
    """
    if i < 0:
        return {}
    if kres.length < i + 1 and not kres.complete:
        raise TruncationError(
            f"residue-field resolution has {kres.length} steps; Tor_{i} needs {i + 1}"
        )
    if not kres.module_twists(i):
        return {}
    r = len(module.generator_degrees)
    # F_i (x) module: one copy of the module's presentation per twist of F_i.
    twists, rels = _hom_free_into(module, [-s for s in kres.module_twists(i)])
    if i == 0:
        gens = [{(p, (0,) * ring.n): ring.field.one} for p in range(len(twists))]
    else:
        prev_twists, prev_rels = _hom_free_into(
            module, [-s for s in kres.module_twists(i - 1)]
        )
        gens = syzygies_over(
            ring, block_columns(kres.matrices[i - 1], r), prev_twists, prev_rels
        )
    if i + 1 <= kres.length:
        rels += block_columns(kres.matrices[i], r)
    # Only the degrees of a minimal generating set are needed, not its
    # relations.
    dims = {}
    for k in nakayama_minimal_subset(ring, twists, gens, rels):
        d = vec_degree(gens[k], twists)
        dims[d] = dims.get(d, 0) + 1
    return dims
