"""Engine runs that stop after a degree and go on later, and the calls
taken to their end on them.

``TaggedRun`` is the tag-block run of the syzygies modulo a submodule
(Macaulay2's and Singular's ``modulo``), built only by
``modules.syzygies_over``, and ``HilbertRun`` is graded Nakayama, with
or without a known Hilbert series, built only by
``modules._nakayama_run``.  A resolution step (see ``resolutions``)
stops the tag-block run of its kernel at a degree and resumes it where a
certificate (a ``HilbertRun`` with a series) finds the syzygies short;
with no Hilbert numerator at hand it takes the untagged part of that run
on to its end to read the numerator off (``_ImageRun``).  Each run keeps
its code table and ``modgb._Basis`` between calls.  Kernels and
certificates are advanced only through ``modgb.buchberger_vectors``, so
every S-pair of theirs is reduced inside that function; a one-shot
Nakayama pass (``modules.nakayama_minimal_subset``) advances its run
directly.
"""

import heapq

from . import modgb
from .errors import StructuralError
from .linalg import Span
from .modgb import (
    EXP_BITS,
    VectorOrder,
    _Basis,
    _Outgrown,
    normal_form_vec,
    vec_degree,
)
from .monomials import hilbert_numerator, laurent_add, leads_numerator


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


class TaggedRun(Run):
    """The tag-block run of the syzygies modulo a submodule, stopped by
    degree: Macaulay2's and Singular's ``modulo``.

    ``columns`` and ``extra`` are homogeneous vectors in the free module
    with the given twists over the plain polynomial ring ``ring``.  Each
    column gets its unit tag after the ``len(twists)`` untagged positions,
    and the tag-block order twists each tag by its column's degree.  Only
    the columns are tagged; ``extra`` enters untagged, so no syzygies among
    the extra vectors are computed.  Taken to its end, ``new_syzygies()``
    generate {v : sum_j v_j columns_j lies in <extra>}: a Schreyer
    generating set, not a Groebner basis, in positions
    0..len(columns)-1 with twists equal to the column degrees, correct but
    not minimal.

    ``advance(d)`` reduces every pending pair of lcm degree <= d: the same
    pairs, in the same order, as the first pairs of the run to the end.
    The syzygies it has found are then the first generators of the list
    that the run to the end returns, in its order, and they generate the
    kernel in every degree <= d (Schreyer's theorem holds degree by
    degree: the syzygies of a Groebner basis through degree d come from
    its S-pairs of lcm degree <= d).
    """

    def __init__(self, ring, columns, twists, extra=()):
        m = len(twists)
        degs = [vec_degree(v, twists) or 0 for v in columns]
        zero_exps = (0,) * ring.n
        tagged = []
        for i, col in enumerate(columns):
            v = dict(col)
            v[(m + i, zero_exps)] = ring.field.one
            tagged.append(v)
        order = VectorOrder(ring.order.key, twists=tuple(twists) + tuple(degs), split=m)
        super().__init__(tagged + [v for v in extra if v], order, ring.field)
        self.degree = None
        self._seen = 0

    def _start(self):
        table = self.table
        basis = _Basis(table, self.field, self.order.split)
        for v in self.vectors:
            basis.append(table.encode_vec(v))
        return basis

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
        its own, else those of an ``_ImageRun`` taken on from it
        (``monomials.leads_numerator``).
        """
        basis = self.basis
        if basis.heap:
            basis = _ImageRun(self).resume().basis
        split = self.order.split
        leads = [(pos, e) for pos, e in basis.heads if pos < split]
        return leads_numerator(leads, self.order.twists[:split], n)


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
            for g, lead in basis.elements:
                if lead < floor:
                    g = {t: c for t, c in g.items() if t < floor}
                copy.append(g, pairs=False)
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
    """Graded Nakayama on candidates in a submodule of a free module F,
    and, given the Hilbert series of a module Z that holds them, the
    certificate that they span Z.

    F has the twists of ``order`` (degree-first, no tag block).  ``fixed``
    is a Groebner basis that enters with no pairs among its elements (over
    R = S/a the multiples g*e_i of the relation basis), and ``rels`` are
    vectors queued before the candidates of their degree and never kept.
    Candidates, homogeneous vectors, come in through ``add``, numbered in
    that order; N is the submodule they generate with ``fixed`` and
    ``rels``.  Advancing the run sets ``kept``, the numbers of the
    candidates that graded Nakayama keeps, as far as the run has decided:
    in increasing degree, then in number order, a candidate is kept
    exactly when it lies outside the submodule generated by ``fixed``, the
    rels and the candidates kept before it.

    One degree-truncated Buchberger run (Macaulay2's ``mingens``/``trim``,
    Singular's ``minbase``).  For each degree d in increasing order:
    reduce the pending S-pairs of lcm degree d, take the normal forms of
    the degree-d rels and then of the degree-d candidates against the
    basis, insert them one by one into a ``Span`` whose columns are term
    codes, keep a candidate exactly when it enlarges the span, and append
    the span's rows to the basis.

    **Without a series** (``kernel`` None) every candidate comes in before
    the run first advances, and the run decides them all.  Nothing above
    the top candidate degree can change the kept list, so no pair above
    it is pushed (``_Basis.cap``), rels above it are dropped, and the
    rows of that last degree are not appended.

    **With a series**, ``kernel`` is the Hilbert numerator of Z as a
    Laurent polynomial over (1-t)^n, and advancing the run also sets
    ``deficient``: None when N = Z, else the least degree e with N_e !=
    Z_e.  Adding candidates, all of degree >= e, and advancing again goes
    on from there.  ``diff`` is D = HS(F/L) - HS(F/Z), L the leads of the
    basis (fixed ones included) and the pivots of the current degree's
    span, as a Laurent numerator; it starts at HS(Z), and each new lead
    x^m e_i, of a pair's remainder or a new span pivot, lowers it by
    t^(a_i + |m|) times the numerator of S/(L_i : x^m), one Bigatti run
    on the colon.  With e = min(D): D = 0 certifies; e below the next
    pending degree is returned; e > d drops all of degree d; e = d lets
    each new lead lower D[d] by one until it reaches 0, when the rest of
    the degree is dropped, or returns d when the degree runs out first.
    The proof is in the ``resolutions`` docstring.

    **Why the kept list is the graded Nakayama one.**  Let M_<d be the
    submodule generated by ``fixed`` and by the rels and kept candidates
    of degree < d.  When the rels and candidates of degree d come up,
    the basis holds generators of M_<d and every S-pair of lcm degree <= d
    has been reduced (or, with a series, dropped where the ``resolutions``
    docstring shows that it reduces to zero), so it is a Groebner basis
    of M_<d up to degree d.  Hence in degree d the normal form is a
    linear map on the degree-d piece F_d whose kernel is (M_<d)_d, and v
    lies in M_<d + span(earlier degree-d vectors) exactly when its normal
    form lies in the span of the earlier normal forms of degree d:
    ``Span.add`` returns False.  That is the criterion of a degree piece
    of F_d modulo all multiples, so the kept lists are the same.  Each
    span row is monic with its pivot as its lead code (a smaller code is
    a larger term), the leads are distinct, and no earlier lead divides
    any of their terms, so the new basis again generates M_<d' for the
    next degree d', and every new S-pair has lcm degree > d.

    **Why the S-pairs only top-reduce.**  A pair's remainder is reduced
    only until its lead is irreducible, and joins the basis with its tail
    as it is (``_Basis.top``); the rels and candidates still take full
    normal forms.  Nothing that the run decides changes:

    * Buchberger's criterion asks only that each S-pair reduce to zero
      by lead reductions, which a remainder that is zero or joins the
      basis provides.  So up to degree d the basis is a Groebner basis of
      M_<d, tail-reduced or not.  Its multiples led by the degree-d terms
      of in(M_<d), one per term, then span (M_<d)_d, and the full normal
      form of v in F_d is the one vector congruent to v modulo (M_<d)_d
      with no term in in(M_<d): a function of v and M_<d, whatever the
      tails.  So ``Span.add`` decides the same, and the span rows that
      join the basis are the same vectors.
    * Of one S-vector against one basis, the top-reduced remainder has
      the lead of the full one, and is zero exactly when the full one is:
      full reduction pops the same terms until the first irreducible one,
      its lead.  Later S-vectors carry other tails, so within a degree
      the leads may come in another order.  But each new lead of degree
      d lies in in(M_<d) and outside the leads before it, and lowers D[d]
      by exactly one, so D[d] reaches 0, and the rest of the degree is
      dropped, exactly when the leads fill in(Z)_d; and when a degree
      ends, its new leads are the minimal generators of in(M_<d) in that
      degree, in either run.  So ``_lower`` has lowered D by the same
      leads, and D, the drops and ``deficient`` are the same.
    """

    def __init__(self, order, field, fixed, rels, kernel, n):
        super().__init__([*fixed, *rels], order, field)
        self.nfixed = len(fixed)
        self.first = len(self.vectors)
        self.kernel = kernel
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
        basis = _Basis(table, self.field)
        basis.top = True
        for v in self.vectors[: self.nfixed]:
            basis.append(table.encode_vec(v), pairs=False)
        self.pending, self.kept = {}, []
        self._queue(self.nfixed)
        self.diff = None if self.kernel is None else dict(self.kernel)
        if self.diff is not None:
            self.leads = [[] for _ in self.order.twists]
            for pos, e in basis.heads:
                self.leads[pos].append(e)
            return basis
        # Rels come first in a degree: its last entry says if it has a candidate.
        top = max((d for d, queued in self.pending.items() if queued[-1][0] >= 0), default=None)
        if top is None:
            self.pending = {}
        else:
            self.pending = {d: queued for d, queued in self.pending.items() if d <= top}
            basis.cap = table.degree_floor(top)
        return basis

    def _queue(self, first):
        """Queue the vectors from place ``first`` on by degree, numbered:
        the candidates from 0, the rels below 0."""
        twists, pending = self.order.twists, self.pending
        for k, v in enumerate(self.vectors[first:], first - self.first):
            if v:  # zero lies in N: never kept
                pending.setdefault(vec_degree(v, twists), []).append((k, v))

    def _lower(self, code):
        """Lower ``diff`` by the new lead with this term code."""
        pos, m = self.table.decode(code)
        leads = self.leads[pos]
        colon = [tuple([x - y if x > y else 0 for x, y in zip(lead, m)]) for lead in leads]
        degree = self.order.twists[pos] + sum(m)
        laurent_add(self.diff, hilbert_numerator(colon, self.n), degree, -1)
        leads.append(m)

    def _decide(self, d, queued, floor):
        """Decide the rels and candidates of degree d, in order, and append
        the rows of their span to the basis."""
        basis, table, field, diff = self.basis, self.table, self.field, self.diff
        # The span's columns are term codes; its width counts those met.
        span, columns = Span(field, 0), set()
        for k, v in queued:
            if diff is not None and not diff.get(d, 0):
                break
            form = normal_form_vec(table.encode_vec(v), basis.index, table, field)
            if not form:
                continue
            columns.update(form)
            span.width = len(columns)
            if span.add(form):
                if diff is not None:  # the new row's pivot is the last key
                    self._lower(next(reversed(span.rows)))
                if k >= 0:
                    self.kept.append(k)
        # Without a series the cap is the top degree, whose rows no one uses.
        if floor > basis.cap:
            for piv, row in span.rows.items():
                basis.append({piv: field.one, **row})

    def _advance(self, degree=None):
        basis, table, diff = self.basis, self.table, self.diff
        heap, pending = basis.heap, self.pending
        while pending if diff is None else diff:
            d = min(pending, default=None)
            if heap:
                top = table.degree_of(heap[0][3])
                d = top if d is None else min(d, top)
            if diff is not None:
                e = min(diff)
                if diff[e] < 0:
                    raise StructuralError("leading terms outgrow the Hilbert series of the kernel")
                if d is None or e < d:
                    self.deficient = e
                    return
            # With e > d, D[d] is 0 already and all of degree d is dropped.
            floor = table.degree_floor(d)
            while heap and heap[0][3] >= floor and (diff is None or diff.get(d, 0) > 0):
                _, i, j, lcm = heapq.heappop(heap)
                rem = basis._remainder(i, j, lcm)
                if rem:
                    basis.append(rem)
                    if diff is not None:
                        self._lower(basis.elements[-1][1])
            queued = pending.pop(d, None)
            if queued:
                self._decide(d, queued, floor)
            if diff is not None:
                if diff.get(d, 0) > 0:
                    self.deficient = d
                    return
                while heap and heap[0][3] >= floor:
                    heapq.heappop(heap)
        self.deficient = None
