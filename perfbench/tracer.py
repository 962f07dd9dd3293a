"""Spans and counters around soclelab's public functions, added from outside.

Nothing in the package is edited.  While a ``Tracer`` or ``Counters`` is
entered, each traced function is replaced in every ``soclelab.*``
namespace that binds it (modules import each other with
``from .x import f``, so one module attribute is not enough) and each
traced method is replaced on its class.  Leaving the ``with`` block puts
every original object back.

Spans are kept in memory, one stack per thread (the scans hand rows to a
thread pool); the caller writes them out when the run ends.  A span's
self time is its duration minus the durations of its direct children, so
time spent in untraced code is charged to the nearest traced ancestor or
to the caller's root span.

The leaf counters (``orders.key.calls``, ``fields.mul.calls``) fire
hundreds of thousands of times per job, so they are counted by a separate
``Counters`` pass that records no spans; their wrapper overhead never
reaches a span's self time.
"""

import contextlib
import functools
import importlib
import itertools
import pkgutil
import threading
import time

PACKAGE = "soclelab"

# Traced callables, as (module, qualified name).  Methods are "Class.method".
SPANNED = (
    ("modgb", "buchberger_vectors"),
    ("modgb", "normal_form_vec"),
    ("linalg", "Span.add"),
    ("linalg", "Span.contains"),
    ("linalg", "Span.coordinates"),
    ("linalg", "nullspace"),
    ("groebner", "Ideal.groebner"),
    ("groebner", "minimal_generators"),
    ("groebner", "hilbert_function"),
    ("groebner", "ideal_colon"),
    ("groebner", "ideal_intersection"),
    ("modules", "nakayama_minimal_subset"),
    ("modules", "syzygies_over"),
    ("modules", "present_subquotient"),
    ("modules", "ModulePresentation.piece"),
    ("resolutions", "syzygy"),
    ("resolutions", "minimal_free_resolution"),
    ("localcoh", "ext_dual"),
    ("localcoh", "koszul_piece"),
    ("localcoh", "socle_piece"),
    ("frobenius", "fedder_module"),
    ("scans", "scan_powers"),
    ("scans", "criterion_check"),
    ("scans", "lemma37_scan"),
    ("inputfile", "parse_input_file"),
    ("report", "to_csv"),
    ("report", "to_json"),
)

# Leaf counters: metric name -> the callables whose calls it sums.
COUNTED = {
    "orders.key.calls": (("orders", "MonomialOrder.key"), ("orders", "EliminationOrder.key")),
    "fields.mul.calls": (("fields", "PrimeField.mul"), ("fields", "RationalField.mul")),
}

SPAN_FIELDS = ("id", "parent", "name", "start_s", "end_s", "thread")

SCANS = ("scans.scan_powers", "scans.criterion_check", "scans.lemma37_scan")


def _package_modules():
    """Import and return every module of the package, the package first."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Patcher:
    """Replaces callables in the package and remembers how to undo it."""

    def __init__(self):
        self._modules = _package_modules()
        self._undo = []

    def replace(self, module, qualname, make_wrapper):
        """Wrap ``module.qualname`` wherever the package binds it."""
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(mod, qualname)
        wrapper = make_wrapper(original)
        for m in self._modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _Installed:
    """Context manager: installs the wrappers ``_wrappers`` lists, then restores."""

    def _wrappers(self):
        raise NotImplementedError

    def __enter__(self):
        self._patcher = Patcher()
        try:
            for module, qualname, make_wrapper in self._wrappers():
                self._patcher.replace(module, qualname, make_wrapper)
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


class _ThreadState:
    __slots__ = ("stack", "spans", "stats", "extra")

    def __init__(self):
        self.stack = []
        self.spans = []
        self.stats = {}
        self.extra = {}


class Tracer(_Installed):
    """Span recorder: per-name calls, total and self time, plus derived counts.

    Use as a context manager around the code to trace, and ``span`` to open
    a root span (such as one job) from the caller's side.
    """

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()

    def _wrappers(self):
        for module, qualname in SPANNED:
            name = f"{module}.{qualname}"
            yield module, qualname, lambda fn, name=name: self._wrap(name, fn)

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _open(self, name):
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        # [name, id, parent id, parent name, start, child time, child count]
        frame = [
            name,
            next(self._ids),
            parent[1] if parent else 0,
            parent[0] if parent else None,
            time.perf_counter(),
            0.0,
            0,
        ]
        stack.append(frame)
        return state, frame

    def _close(self, state, frame):
        end = time.perf_counter()
        state.stack.pop()
        name, sid, pid, _, start, child, _ = frame
        dur = end - start
        if state.stack:
            parent = state.stack[-1]
            parent[5] += dur
            parent[6] += 1
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - child
        state.spans.append((sid, pid, name, start - self._epoch, end - self._epoch,
                            threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name):
        """Record one span opened by the caller, such as a whole job."""
        state, frame = self._open(name)
        try:
            yield
        finally:
            self._close(state, frame)

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, frame = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(state, frame)
            if observe:
                observe(state.extra, args, result, frame)
            return result

        return wrapper

    def stats(self):
        """{name: (calls, total_s, self_s)} merged over threads."""
        out = {}
        for state in self._states:
            for name, (calls, total, self_t) in state.stats.items():
                c, t, s = out.get(name, (0, 0.0, 0.0))
                out[name] = (c + calls, t + total, s + self_t)
        return out

    def extra(self):
        """Derived counts merged over threads (sums, except ``*_max``)."""
        out = {}
        for state in self._states:
            for key, value in state.extra.items():
                if key.endswith("_max"):
                    out[key] = max(out.get(key, value), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def spans(self):
        """Every recorded span as a tuple of ``SPAN_FIELDS``, by id."""
        return sorted((s for state in self._states for s in state.spans),
                      key=lambda s: s[0])


# Derived counts taken when a span closes: observer(extra, args, result,
# frame), where frame is the closed span's [name, id, parent id, parent
# name, start, child time, child count].


def _bump(extra, key, amount=1):
    extra[key] = extra.get(key, 0) + amount


def _span_add(extra, args, result, frame):
    span = args[0]
    # add() returns True exactly when it raised the rank by one.
    _bump(extra, "linalg.Span.add.cells", span.width * (span.rank - bool(result)))
    _bump(extra, "linalg.Span.add.useful", bool(result))
    extra["linalg.Span.add.width_max"] = max(
        extra.get("linalg.Span.add.width_max", 0), span.width
    )


def _normal_form(extra, args, result, frame):
    if frame[3] == "modgb.buchberger_vectors":
        _bump(extra, "modgb.spairs_reduced")
        if not result:
            _bump(extra, "modgb.spairs_zero")


def _cache_hits(key):
    """A call that opened no child span was answered from a cache."""

    def observe(extra, args, result, frame):
        if frame[6] == 0:
            _bump(extra, key)

    return observe


def _scan_rows(extra, args, result, frame):
    _bump(extra, "scans.rows_elapsed_ms", sum(r.elapsed_ms for r in result[0]))


_OBSERVERS = {
    "linalg.Span.add": _span_add,
    "modgb.normal_form_vec": _normal_form,
    "groebner.Ideal.groebner": _cache_hits("groebner.Ideal.groebner.hits"),
    "localcoh.ext_dual": _cache_hits("localcoh.ext_dual.hits"),
    **{name: _scan_rows for name in SCANS},
}


class Counters(_Installed):
    """Call counts of the leaf functions in ``COUNTED``; records no spans."""

    def __init__(self):
        self._counts = {name: itertools.count() for name in COUNTED}

    def _wrappers(self):
        for metric, targets in COUNTED.items():
            counter = self._counts[metric]
            for module, qualname in targets:
                yield module, qualname, lambda fn, c=counter: _counting(fn, c)

    def counts(self):
        """Calls counted; read once, after the pass (reading advances each count)."""
        return {name: next(counter) for name, counter in self._counts.items()}


def _counting(fn, counter):
    # next() on an itertools.count is one C call, so it is atomic under the
    # GIL and needs no lock when pool threads count too.
    tick = counter.__next__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    return wrapper
