"""Engine runs that stop after a degree and go on later.

A resolution step (see ``resolutions``) stops the tag-block run of its
kernel at a degree and resumes it where a certificate finds the syzygies
short; with no Hilbert numerator at hand it takes the untagged part of
that run on to its end to read the numerator off (``_ImageRun``); and
the certificate itself (``HilbertRun``) is a Buchberger run driven by a
known Hilbert series.  Each keeps its code table and ``modgb._Basis``
between calls, and is advanced only through ``modgb.buchberger_vectors``,
so every S-pair is reduced inside that function.
"""

import heapq

from . import modgb
from .errors import StructuralError
from .modgb import EXP_BITS, _Basis, _new_basis, _Outgrown, normal_form_vec, vec_degree
from .monomials import hilbert_numerator, laurent_add


class Run:
    """An engine run that stops and goes on later (see
    ``modgb.buchberger_vectors``).

    It keeps its code table and its ``_Basis`` between calls.  When a term
    outgrows the table, the run starts over on fields twice as wide and
    goes as far as it was asked to: pairs leave the heap in the order of
    their terms, which no table changes, so the new run reduces the same
    pairs in the same order.  Subclasses build the basis (``_start``) and
    advance it (``_advance``).
    """

    def __init__(self, vectors, order, field):
        self.vectors = list(vectors)
        self.order = order
        self.field = field
        self.bits = EXP_BITS
        self.table = self.basis = None

    def resume(self, degree=None):
        """``buchberger_vectors(self, ..., degree)``: advance the run through
        ``degree``, or to its end, and return it."""
        return modgb.buchberger_vectors(self, self.order, self.field, degree)

    def advance(self, degree=None):
        while True:
            if self.basis is None:
                self.table = self.order.table(self.vectors, self.bits)
                self.bits = self.table.bits
                self.basis = self._start()
            try:
                return self._advance(degree)
            except _Outgrown:
                self.bits = 2 * self.table.bits
                self.basis = None


def tagged_run(ring, columns, twists, extra, degree):
    """The tag-block run of ``modgb.syzygies_vectors`` on these inputs,
    stopped after the pairs of lcm degree <= ``degree``.

    Its ``new_syzygies()`` are then the first generators of the list that
    ``syzygies_vectors`` returns, in its order, and they generate the
    kernel in every degree <= ``degree`` (Schreyer's theorem holds degree
    by degree: the syzygies of a Groebner basis through degree d come from
    its S-pairs of lcm degree <= d).
    """
    tagged, order = modgb.tag_columns(ring, columns, twists)
    vectors = [v for v in tagged + list(extra) if v]
    return TaggedRun(vectors, order, ring.field).resume(degree)


class TaggedRun(Run):
    """The tag-block run of ``modgb.syzygies_vectors``, stopped by degree.

    ``advance(d)`` reduces every pending pair of lcm degree <= d: the same
    pairs, in the same order, as the first pairs of the run to the end.
    """

    def __init__(self, vectors, order, field):
        super().__init__(vectors, order, field)
        self.degree = None
        self._seen = 0

    def _start(self):
        table = self.table
        coded = [table.encode_vec(v) for v in self.vectors]
        return _new_basis(coded, table, self.order.split, False, self.field)

    def _advance(self, degree):
        self.basis.reduce_pairs(0 if degree is None else self.table.degree_floor(degree))
        self.degree = degree

    @property
    def done(self):
        """True once no pair is pending: the run is at its end."""
        return not self.basis.heap

    def next_degree(self):
        """The lcm degree of the next pending pair (None at the end)."""
        heap = self.basis.heap
        return self.table.degree_of(heap[0][3]) if heap else None

    def new_syzygies(self):
        """The elements led in the tag block since the last call, in basis
        order, with positions counted from the split."""
        split, basis = self.order.split, self.basis
        decode, seen = self.table.decode_vec, self._seen
        self._seen = len(basis.elements)
        return [
            {(p - split, e): c for (p, e), c in decode(g).items()}
            for (g, _), (pos, _) in zip(basis.elements[seen:], basis.heads[seen:])
            if pos >= split
        ]

    def quotient_numerator(self, n):
        """Hilbert numerator of F/U, F the free module outside the tag
        block and U the submodule that the untagged parts of the inputs
        generate (the columns and ``extra``).

        Read off the leads in F of a Groebner basis of U: at the run's end
        its own, else those of an ``_ImageRun`` taken on from it.  The
        leads in each position give F/U its series (Macaulay), shifted by
        the twists of F.
        """
        basis = self.basis
        if basis.heap:
            basis = _ImageRun(self).resume().basis
        split = self.order.split
        leads = [[] for _ in range(split)]
        for pos, e in basis.heads:
            if pos < split:
                leads[pos].append(e)
        out = {}
        for a, ls in zip(self.order.twists, leads):
            laurent_add(out, hilbert_numerator(ls, n), a)
        return out


class _ImageRun(Run):
    """The untagged part of a stopped ``TaggedRun``, taken on to its end.

    The untagged parts of the elements led in F, the free module outside
    the tag block, are what a run on U alone would hold after the same
    pairs: a term of F is reduced only by elements led in F, and reducing
    a tag term changes no term of F.  So on a copy of the basis with the
    tag parts dropped, and the same pending pairs and treated set, the
    rest of the untagged run finds a Groebner basis of U, and the tagged
    run itself can still resume.  When a term outgrows the table, the
    tagged run starts over on wider fields through its degree, and the
    copy is taken again.
    """

    def __init__(self, tagged):
        super().__init__((), tagged.order, tagged.field)
        self.tagged = tagged

    def advance(self, degree=None):
        tagged = self.tagged
        while True:
            table, basis = tagged.table, tagged.basis
            floor = table.tag_floor
            copy = _Basis(table, self.field, self.order.split)
            copy.elements = [
                (g if lead >= floor else {t: c for t, c in g.items() if t < floor}, lead)
                for g, lead in basis.elements
            ]
            copy.heads = list(basis.heads)
            copy.heap = list(basis.heap)
            copy.treated = set(basis.treated)
            try:
                copy.reduce_pairs()
            except _Outgrown:
                tagged.bits = 2 * table.bits
                tagged.basis = None
                tagged.advance(tagged.degree)
                continue
            self.table, self.basis = table, copy
            return


class HilbertRun(Run):
    """Graded Nakayama on candidates in a module Z of known Hilbert series,
    and the certificate that they span it.

    Z lies in a free module F with the twists of ``order`` (degree-first,
    no tag block); ``fixed`` is a Groebner basis that enters with no pairs
    among its elements (over R = S/a the multiples g*e_i of the relation
    basis), and ``kernel`` the Hilbert numerator of Z as a Laurent
    polynomial over (1-t)^n.  Candidates, homogeneous vectors of Z, come
    in through ``add``, numbered in that order; N is the submodule they
    generate.  ``buchberger_vectors(run)`` then sets ``kept``, the numbers
    of the candidates that ``graded_minimal_subset`` keeps, as far as the
    run has decided, and ``deficient``: None when N = Z, else the least
    degree e with N_e != Z_e.  Adding candidates, all of degree >= e,
    and calling again goes on from there.

    ``diff`` is D = HS(F/L) - HS(F/Z), L the leads of the basis (fixed
    ones included), as a Laurent numerator; it starts at HS(Z), and each
    new lead x^m e_i lowers it by t^(a_i + |m|) times the numerator of
    S/(L_i : x^m), one Bigatti run on the colon.  Degrees go up: in degree
    d the pairs, then the candidates in order (one is kept exactly when
    its normal form is nonzero).  With e = min(D): D = 0 certifies; e
    below the next pending degree is returned; e > d drops all of degree
    d; e = d lets each new lead lower D[d] by one until it reaches 0,
    when the rest of the degree is dropped, or returns d when the degree
    runs out first.  The proof is in the ``resolutions`` docstring.
    """

    def __init__(self, order, field, fixed, kernel, n):
        super().__init__(list(fixed), order, field)
        self.nfixed = len(self.vectors)
        self.kernel = dict(kernel)
        self.n = n
        self.deficient = None

    def add(self, vectors):
        """More candidates, numbered on from the last."""
        first = len(self.vectors)
        self.vectors.extend(vectors)
        if self.basis is not None:
            top = max((x for v in vectors for _, e in v for x in e), default=0)
            if top >> self.table.bits:
                self.basis = None
            else:
                self._queue(first)

    def _start(self):
        table = self.table
        basis = self.basis = _Basis(table, self.field)
        self.leads = [[] for _ in self.order.twists]
        for v in self.vectors[: self.nfixed]:
            basis.append(table.encode_vec(v), pairs=False)
            pos, e = basis.heads[-1]
            self.leads[pos].append(e)
        self.diff = dict(self.kernel)
        self.pending = {}
        self.kept = []
        self._queue(self.nfixed)
        return basis

    def _queue(self, first):
        """Queue the vectors from place ``first`` on by degree, numbered."""
        twists, encode, pending = self.order.twists, self.table.encode_vec, self.pending
        for k in range(first, len(self.vectors)):
            v = self.vectors[k]
            if v:  # zero lies in N: never kept
                pending.setdefault(vec_degree(v, twists), []).append((k - self.nfixed, encode(v)))

    def _add(self, rem):
        """Append a nonzero remainder and lower ``diff`` by its new lead."""
        basis = self.basis
        basis.append(rem)
        pos, m = basis.heads[-1]
        leads = self.leads[pos]
        colon = [tuple([x - y if x > y else 0 for x, y in zip(lead, m)]) for lead in leads]
        degree = self.order.twists[pos] + sum(m)
        laurent_add(self.diff, hilbert_numerator(colon, self.n), degree, -1)
        leads.append(m)

    def _advance(self, degree=None):
        basis, table, field, diff = self.basis, self.table, self.field, self.diff
        heap, pending = basis.heap, self.pending
        while diff:
            e = min(diff)
            if diff[e] < 0:
                raise StructuralError("leading terms outgrow the Hilbert series of the kernel")
            d = min(pending, default=None)
            if heap:
                top = table.degree_of(heap[0][3])
                d = top if d is None else min(d, top)
            if d is None or e < d:
                self.deficient = e
                return
            # With e > d, D[d] is 0 already and all of degree d is dropped.
            floor = table.degree_floor(d)
            while heap and heap[0][3] >= floor and diff.get(d, 0) > 0:
                _, i, j, lcm = heapq.heappop(heap)
                rem = basis._remainder(i, j, lcm)
                if rem:
                    self._add(rem)
            for k, v in pending.pop(d, ()):
                if diff.get(d, 0) > 0:
                    rem = normal_form_vec(v, basis.elements, table, field)
                    if rem:
                        self._add(rem)
                        self.kept.append(k)
            if diff.get(d, 0) > 0:
                self.deficient = d
                return
            while heap and heap[0][3] >= floor:
                heapq.heappop(heap)
        self.deficient = None
