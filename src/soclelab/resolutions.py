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

**Hilbert-driven syzygy steps.**  Step k takes the kernel Z = Z_k of
d_k : F_k -> F_(k-1).  Hilbert series are Laurent numerators over
(1-t)^n, n the ambient variable count (``monomials.laurent_add``), and
over R = S/a the free modules have HS(R(-a)) = t^a HS(R).

* *Exactness gives HS(Z_k).*  0 -> Z_k -> F_k -> im d_k -> 0 is exact,
  so HS(Z_k) = HS(F_k) - HS(im d_k).  The image of d_1 is the kernel of
  F_0 -> M, so HS(im d_1) = HS(F_0) - HS(M), and im d_k = Z_(k-1) for
  k >= 2 once step k-1 is certified.  ``_resolve`` records HS(im d_1)
  on d_1 when HS(M) is at hand (the module, or the module it folds,
  has its relation basis), and each step records HS(Z_k) on the matrix
  it returns.  A step whose HS(Z_k) is 0 builds nothing.
* *The tagged run stops at D.*  The tag-block run of ``syzygies_over``
  reduces its pairs in increasing lcm degree; stopped after degree D,
  its tag-led elements are the first ones of the full run, in the same
  order, and they generate Z in every degree <= D (Schreyer's theorem,
  degree by degree).  D is the least degree of Z: the lowest exponent of
  HS(Z_k), or, with no numerator at hand, the first degree whose pairs
  leave a syzygy.  Graded Nakayama decides degree by degree, so on this
  prefix it keeps exactly the syzygies of degree <= D that it keeps on
  the full list.
* *A submodule with the series of the module is the module.*  Let N be
  spanned by the kept syzygies.  N is in Z; if HS(N) = HS(Z), then
  dim N_d = dim Z_d in every degree d, so N_d = Z_d and N = Z: every
  syzygy of degree > D lies in the span of those kept, and Nakayama on
  the full list keeps none of them.

*The certificate* (``runs.HilbertRun``) takes the syzygies found as
candidates.  Let L be the leads of its Groebner basis, the fixed ones
included, and the pivots of the current degree's span, whose rows join
the basis when the degree ends; and D = HS(F/L) - HS(F/Z); D starts at HS(Z), and a new lead
x^m e_i lowers it by t^(a_i + |m|) times the numerator of S/(L_i : x^m),
since it adds to L the monomials of x^m (L_i : x^m) e_i.  Always L is in
in(N), which is in in(Z), so every coefficient of the series of D is
>= 0.  Degrees are taken in increasing order; once everything of degree
below d is done, the series of D vanishes below d, so its lowest term is
that of the numerator: e = min(D) is the least degree where HF(F/L)
exceeds HF(F/Z), by D[e].

* D = 0: L, in(N) and in(Z) have one series, so they are equal, and
  N = Z.  No candidate not yet decided is kept.
* e below the next degree d with a pending pair or candidate: everything
  of degree <= e is done, so the basis is a Groebner basis of N through
  degree e and L_e = in(N)_e, which falls short of in(Z)_e: N_e != Z_e.
  The tagged run resumes to e, without starting over, and the syzygies
  it finds join the candidates.
* e > d: L_d = in(Z)_d, so every element of Z of degree d, each S-vector
  and candidate of degree d among them, reduces to zero modulo the
  basis: they are dropped, and no such candidate is kept (Traverso,
  "Hilbert functions and the Buchberger algorithm", JSC 1996;
  Bayer-Stillman, "Computation of Hilbert functions", JSC 1992).
* e = d: the pairs of degree d are reduced first, so the basis is a
  Groebner basis through degree d of what came before; then a candidate
  of degree d is kept exactly when its normal form enlarges the span of
  the normal forms kept before it in degree d, that is when it lies
  outside the submodule that the basis and the candidates kept before it
  generate: the graded Nakayama criterion, as in a ``HilbertRun``
  without a series (the proof is in its docstring).  Each new lead, of
  a pair's remainder or a new pivot of that span, lowers D[d] by one
  (x^m itself is new in L_d); at 0 the rest of degree d is dropped as
  above, and if the degree runs out first, e = d is short.

So the kept syzygies, and every matrix built from them, are the ones of
the tagged run taken to its end.  A run that empties its pair heap needs
no certificate.  With no numerator at hand, a run with no more pending
pairs than syzygies found also goes to its end, and the next step then
starts without one; otherwise HS(im d_k) is read off the tagged run
itself (``runs.TaggedRun.quotient_numerator``), and the kernel's least degree
must then be D.
"""

from .errors import DomainError, StructuralError, TruncationError
from .modgb import vec_degree
from .modules import (
    _nakayama_run,
    block_columns,
    matrix_from_vectors,
    minimalize_presentation,
    nakayama_minimal_subset,
    present_subquotient,
    quotient_module,
    reduced_syzygies,
    s_presentation,
    syzygies_over,
)
from .monomials import laurent_add
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
        """max(j - i) over nonzero entries; the Betti-side regularity.

        The zero module's table is empty, and its regularity undefined.
        """
        if not self.entries:
            raise DomainError("regularity of the zero module is undefined")
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
    """Minimal generators of the kernel of the induced map of free modules.

    The step stops its tagged run where the Hilbert series of the kernel
    proves that no minimal syzygy is left (see the module docstring).
    That series is HS(F) - HS(image).  The image's numerator is read off
    the matrix's memo ("image_numerator") when known; ``_resolve``
    records it on d_1 when the module's series is at hand, and every step
    records the kernel's on the matrix it returns, as the image of the
    next differential.  Otherwise the run itself yields it.
    """
    ring, source = matrix.ring, matrix.source
    image = matrix._memo.get("image_numerator")
    kernel = None
    if image is not None:
        kernel = laurent_add(_free_numerator(ring, source), image, scale=-1)
    raw, keep = [], []
    if source and kernel != {}:
        raw, keep, kernel = _kernel_generators(matrix, kernel)
    out = matrix_from_vectors(ring, source, [raw[i] for i in keep])
    if kernel is not None:
        out._memo["image_numerator"] = kernel
    return out


def _kernel_generators(matrix, kernel):
    """(raw syzygies, the indices Nakayama keeps, the kernel's numerator).

    The tagged run goes through D, the least degree of the kernel: read
    off ``kernel`` when known, else found by advancing one pair degree at
    a time until a syzygy appears.  If the run has ended there,
    ``nakayama_minimal_subset`` takes what it found.  Otherwise the raw
    syzygies go to a ``HilbertRun``, which keeps the same ones and
    certifies them, and the run resumes to each degree that falls short.

    Without ``kernel``, a run with no more pending pairs than syzygies
    found goes to its end instead, which on small kernels costs less than
    a certificate, and the numerator stays unknown (None, or {} when the
    run found no syzygy).  Else it is HS(F) - HS(image), the image's from
    ``TaggedRun.quotient_numerator``, and its least degree must be D.
    """
    ring, source, target = matrix.ring, matrix.source, matrix.target
    start = min(source) if kernel is None else min(kernel)
    run = syzygies_over(ring, block_columns(matrix), target, degree=start)
    raw = reduced_syzygies(ring, run.new_syzygies())
    if kernel is None:
        while not raw and not run.done:
            run.resume(run.next_degree())
            reduced_syzygies(ring, run.new_syzygies(), raw)
        if not run.done and len(run.basis.heap) <= len(raw):
            run.resume()
            reduced_syzygies(ring, run.new_syzygies(), raw)
        if run.done:
            return raw, nakayama_minimal_subset(ring, source, raw), None if raw else {}
        kernel = _free_numerator(ring, source)
        laurent_add(kernel, _free_numerator(ring, target), scale=-1)
        laurent_add(kernel, run.quotient_numerator(ring.n))
        if min(kernel, default=None) != run.degree:
            raise StructuralError("the kernel's Hilbert series misses its first syzygies")
    certificate, fed = None, 0
    while not run.done:
        if certificate is None:
            certificate = _nakayama_run(ring, source, (), kernel)
        certificate.add(raw[fed:])
        fed = len(raw)
        if certificate.resume().deficient is None:
            return raw, certificate.kept, kernel
        # Every syzygy found through run.degree has been fed, and they
        # generate the kernel through that degree (Schreyer).
        if certificate.deficient <= run.degree:
            raise StructuralError("the certificate's deficient degree does not advance")
        run.resume(certificate.deficient)
        reduced_syzygies(ring, run.new_syzygies(), raw)
    return raw, nakayama_minimal_subset(ring, source, raw), kernel


def _free_numerator(ring, twists):
    """Hilbert numerator of the free module with these twists over R:
    sum_a t^a HS(R), as a Laurent polynomial."""
    out = {}
    for a in twists:
        laurent_add(out, ring.hilbert_numerator(), a)
    return out


def _resolve(module, steps=None):
    """Minimalize the presentation, then take syzygies until one vanishes.

    With ``steps``, stop once that many differentials are built; the
    result is then complete only if the chain ended on its own.  When
    the module's Hilbert numerator is at hand, the image of d_1 gets
    HS(F_0) - HS(M) as its numerator, and each step derives its kernel's
    from it.
    """
    pres = minimalize_presentation(module)
    matrices = []
    complete = pres.matrix.cols == 0
    if pres.matrix.cols and steps != 0:
        first = pres.matrix
        known = module.known_hilbert_numerator()
        if known is not None:
            image = _free_numerator(module.ring, first.target)
            first._memo["image_numerator"] = laurent_add(image, known, scale=-1)
        matrices.append(first)
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
