"""soclelab benchmark: closed-loop jobs, exact-output digests, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload resolve-quadrics --seed 1 --seconds 20 --trace 0

One client in one process: the next job starts only when the last one has
finished.  The program is imported from ``src/`` of the checkout and gets
only the input files generated from ``--seed``.  Every output is checked
against an exact digest.

``--trace 0`` runs jobs untraced for ``--seconds`` and reports the
end-to-end metrics, with times rescaled to a nominal host speed (see
``REFERENCE_S``).  ``--trace 1`` repeats one input, alternating an
untraced job with a traced one, then runs one job under the leaf counters;
it reports the per-layer metrics and writes the spans to
``.perfbench_out/``.  Every metric is printed as ``name value unit``; the
last line of stdout is the JSON result.  The benchmark's own tests:

    python3 -m pytest perfbench/tests
"""

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 9

# This host's speed drifts by 15-20% over tens of seconds (measured with a
# fixed pure-Python loop), more than the changes the benchmark must detect.
# So every time metric is rescaled to a nominal host speed: wall time times
# REFERENCE_S over the time of ``reference_loop``, measured just before and
# just after the timed work.  The loop calls nothing in the program, so a
# change to the program cannot move it.  REFERENCE_S is the loop's median
# time on the 2-core CPython 3.11.7 host where the bounds were set.
# Unscaled medians are printed as notes.
REFERENCE_S = 0.015
REFERENCE_RUNS = 5

# End-to-end metrics.  setup_s is the median over SETUP_PROBES fresh
# interpreters of ``import soclelab`` plus parsing the run's input files;
# job_s the median time of a job; cmd_ms the latency of one top-level
# call into the program, which is one library call (the whole job) in the
# library workloads and one cli.main call in cli-corpus; peak_rss_mb the
# benchmark process's maximum resident set.  Times are rescaled as above.
# The share of failed calls is printed as fail_ratio and counted in the
# result's "failed".
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("cmd_ms.p50", "ms"),
    ("cmd_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, ``<module>.<function>.<quantity>``, in the order
# BENCHMARK.json lists them.  Span.add.cells is computed, not timed: the sum
# of width x rank before each call.  A cache hit is a call of
# Ideal.groebner or ext_dual that opened no child span.  Self times are
# wall seconds, not rescaled; trace.overhead_ratio compares rescaled times.
PER_LAYER = (
    ("modgb.buchberger_vectors.calls", "count"),
    ("modgb.buchberger_vectors.self_s", "s"),
    ("modgb.normal_form_vec.calls", "count"),
    ("modgb.normal_form_vec.self_s", "s"),
    ("modgb.spairs_reduced", "count"),
    ("modgb.spair_zero_ratio", "ratio"),
    ("orders.key.calls", "count"),
    ("fields.mul.calls", "count"),
    ("linalg.Span.add.calls", "count"),
    ("linalg.Span.add.self_s", "s"),
    ("linalg.Span.add.width_max", "columns"),
    ("linalg.Span.add.useful_ratio", "ratio"),
    ("linalg.Span.add.cells", "cells"),
    ("linalg.Span.contains.self_s", "s"),
    ("linalg.Span.coordinates.self_s", "s"),
    ("linalg.nullspace.self_s", "s"),
    ("groebner.minimal_generators.calls", "count"),
    ("groebner.minimal_generators.self_s", "s"),
    ("groebner.hilbert_function.calls", "count"),
    ("groebner.hilbert_function.self_s", "s"),
    ("groebner.ideal_colon.calls", "count"),
    ("groebner.ideal_colon.self_s", "s"),
    ("groebner.ideal_intersection.calls", "count"),
    ("groebner.ideal_intersection.self_s", "s"),
    ("groebner.Ideal.groebner.hit_ratio", "ratio"),
    ("modules.nakayama_minimal_subset.calls", "count"),
    ("modules.nakayama_minimal_subset.self_s", "s"),
    ("modules.syzygies_over.calls", "count"),
    ("modules.syzygies_over.self_s", "s"),
    ("modules.present_subquotient.calls", "count"),
    ("modules.present_subquotient.self_s", "s"),
    ("modules.ModulePresentation.piece.calls", "count"),
    ("modules.ModulePresentation.piece.self_s", "s"),
    ("resolutions.syzygy.calls", "count"),
    ("resolutions.minimal_free_resolution.calls", "count"),
    ("localcoh.ext_dual.calls", "count"),
    ("localcoh.ext_dual.computed", "count"),
    ("localcoh.koszul_piece.calls", "count"),
    ("localcoh.koszul_piece.self_s", "s"),
    ("localcoh.socle_piece.calls", "count"),
    ("localcoh.socle_piece.self_s", "s"),
    ("frobenius.fedder_module.calls", "count"),
    ("scans.elapsed_ratio", "ratio"),
    ("inputfile.parse_input_file.self_s", "s"),
    ("report.to_csv.self_s", "s"),
    ("report.to_json.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def load_program():
    """Import soclelab from this checkout's src/, or exit without a result."""
    if not (SRC / "soclelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no soclelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import soclelab

    if SRC.resolve() not in Path(soclelab.__file__).resolve().parents:
        sys.exit(f"perfbench: imported soclelab from {soclelab.__file__}, not {SRC}")
    return soclelab


def measure_setup(workdir):
    """Median of fresh-interpreter ``import soclelab`` plus input parsing.

    Returns (wall seconds, host-speed scale).
    """
    paths = sorted(str(p) for p in workdir.glob("*.ring"))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths]
    # The first probe compiles bytecode and warms the file cache; not kept.
    subprocess.run(cmd, capture_output=True, timeout=120, check=True)
    clock = ScaledClock()
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), clock.scale()


def reference_loop():
    """Tuple keys, dict updates and modular arithmetic, like the program's."""
    counts = {}
    for i in range(50000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * 31 % 101
    return counts


def reference_time():
    """Mean time of five reference loops: the host's current speed."""
    started = time.perf_counter()
    for _ in range(REFERENCE_RUNS):
        reference_loop()
    return (time.perf_counter() - started) / REFERENCE_RUNS


class ScaledClock:
    """Times jobs, each with the host-speed scale of the time it ran in."""

    def __init__(self):
        self._last = reference_time()

    def scale(self):
        """REFERENCE_S over the mean reference time around the last work."""
        now = reference_time()
        scale = 2 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale

    def run(self, job):
        """(wall seconds, scale, call latencies, correctness flags) of one job."""
        gc.collect()
        started = time.perf_counter()
        latencies, correct = job()
        wall = time.perf_counter() - started
        return wall, self.scale(), latencies, correct


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_end_to_end(jobs, seconds, workdir):
    job = next(jobs)  # writes the first input, which the set-up probes parse
    setup_wall, setup_scale = measure_setup(workdir)
    walls, job_times, cmd_times, correct = [], [], [], []
    clock = ScaledClock()
    started = time.perf_counter()
    # Start a job only if one more like the last still fits in the run.
    while not walls or time.perf_counter() - started + walls[-1] <= seconds:
        wall, scale, latencies, ok = clock.run(job)
        walls.append(wall)
        job_times.append(wall * scale)
        cmd_times.extend(t * scale for t in latencies)
        correct.extend(ok)
        job = next(jobs)
    values = {
        "setup_s": setup_wall * setup_scale,
        "job_s": statistics.median(job_times),
        "cmd_ms.p50": 1000 * statistics.median(cmd_times),
        "cmd_ms.p90": 1000 * p90(cmd_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    notes = [
        f"jobs {len(walls)}, calls {len(cmd_times)}, set-up probes {SETUP_PROBES}",
        f"fail_ratio {correct.count(False) / len(correct):.4f} ratio",
        f"unscaled setup_s {setup_wall:.4f} s, job_s {statistics.median(walls):.4f} s",
    ]
    return metrics, correct, notes


def run_traced(jobs, seconds, spans_path, meta):
    job = next(jobs)
    plain, traced, stats, correct = [], [], [], []
    spans = []
    clock = ScaledClock()
    started = time.perf_counter()
    pair_wall = 0.0
    # Start a pair only if one more like the last still fits in the run.
    while not traced or time.perf_counter() - started + pair_wall <= seconds:
        wall, scale, _, ok = clock.run(job)
        plain.append(wall * scale)
        correct.extend(ok)
        pair_wall = wall
        tr = tracing.Tracer()
        with tr:
            wall, scale, _, ok = clock.run(lambda: _in_span(tr, job))
        traced.append(wall * scale)
        correct.extend(ok)
        pair_wall += wall
        stats.append(layer_metrics(tr))
        spans.append(tr)
    with tracing.Counters() as counters:
        _, _, _, ok = clock.run(job)
    correct.extend(ok)
    leaf = counters.counts()

    notes = []
    metrics = {}
    for name, unit in PER_LAYER:
        if name in leaf:
            metrics[name] = (leaf[name], unit)
        elif name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(traced) / statistics.median(plain), unit)
        elif unit == "s" or name.endswith("elapsed_ratio"):
            metrics[name] = (statistics.median(s[name] for s in stats), unit)
        else:
            values = {s[name] for s in stats}
            if len(values) > 1:
                notes.append(f"counter {name} differs between identical jobs: {sorted(values)}")
            metrics[name] = (stats[0][name], unit)
    notes.append(f"traced jobs {len(traced)}, untraced jobs {len(plain)}, counter jobs 1")

    OUT.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema": "perfbench-trace/1",
                "meta": meta,
                "fields": list(tracing.SPAN_FIELDS),
                "jobs": [tr.spans() for tr in spans],
            },
            fh,
            separators=(",", ":"),
        )
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, correct, notes


def _in_span(tr, job):
    with tr.span("job"):
        return job()


def layer_metrics(tr):
    """Per-layer values of one traced job (leaf counters excluded)."""
    stats, extra = tr.stats(), tr.extra()
    out = {}

    def ratio(num, den):
        return num / den if den else 0.0

    for name, unit in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        calls, total, self_s = stats.get(span, (0, 0, 0.0))
        if quantity == "calls":
            out[name] = calls
        elif quantity == "self_s":
            out[name] = self_s
    adds = stats.get("linalg.Span.add", (0, 0, 0))[0]
    out["linalg.Span.add.width_max"] = extra.get("linalg.Span.add.width_max", 0)
    out["linalg.Span.add.cells"] = extra.get("linalg.Span.add.cells", 0)
    out["linalg.Span.add.useful_ratio"] = ratio(extra.get("linalg.Span.add.useful", 0), adds)
    spairs = extra.get("modgb.spairs_reduced", 0)
    out["modgb.spairs_reduced"] = spairs
    out["modgb.spair_zero_ratio"] = ratio(extra.get("modgb.spairs_zero", 0), spairs)
    gb_calls = stats.get("groebner.Ideal.groebner", (0, 0, 0))[0]
    out["groebner.Ideal.groebner.hit_ratio"] = ratio(
        extra.get("groebner.Ideal.groebner.hits", 0), gb_calls
    )
    ext_calls = stats.get("localcoh.ext_dual", (0, 0, 0))[0]
    out["localcoh.ext_dual.computed"] = ext_calls - extra.get("localcoh.ext_dual.hits", 0)
    scan_wall = sum(stats.get(n, (0, 0.0, 0))[1] for n in tracing.SCANS)
    out["scans.elapsed_ratio"] = ratio(extra.get("scans.rows_elapsed_ms", 0) / 1000, scan_wall)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_program()
    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        jobs = workload.jobs(api, rng, workdir)
        if args.trace:
            spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            meta = {"workload": args.workload, "seed": args.seed}
            metrics, correct, notes = run_traced(jobs, args.seconds, spans_path, meta)
        else:
            metrics, correct, notes = run_end_to_end(jobs, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": all(correct),
        "attempted": len(correct),
        "failed": correct.count(False),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
