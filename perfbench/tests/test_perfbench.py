"""Tests of the benchmark's own code: digests, tracing and its bookkeeping.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import run
import soclelab
import tracer
import workloads
from soclelab.scans import ScanRow

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every attribute of every soclelab module and class, by identity."""
    seen = {}
    for mod in tracer._package_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    seen[(mod.__name__, attr, name)] = member
    return seen


def _small_job(workdir):
    """A few layers' worth of work in well under a second."""
    for filename, text in workloads.CLI_FILES.items():
        (workdir / filename).write_text(text)
    cli = soclelab.cli
    for command in (("resolve", "tc.ring"), ("scan-powers", "demo.ring", "--ideal", "I", "--t-max", "3")):
        workloads.run_cli(cli, workloads.cli_argv(command, workdir))


def test_cli_digests_match_and_a_changed_output_fails(tmp_path):
    corpus = workloads.WORKLOADS["cli-corpus"]
    job = next(corpus.jobs(soclelab, random.Random(0), tmp_path))
    latencies, correct = job()
    assert len(latencies) == len(workloads.CLI_COMMANDS)
    assert all(correct)

    command = ("gb", "demo.ring", "--ideal", "I")
    code, stdout, stderr = workloads.run_cli(
        soclelab.cli, workloads.cli_argv(command, tmp_path)
    )
    expected = workloads.CLI_EXPECTED[" ".join(command)]
    assert workloads.digest(workloads.cli_output(command, code, stdout, stderr)) == expected
    changed = stdout.replace("x^2", "x^3")
    assert changed != stdout
    assert workloads.digest(workloads.cli_output(command, code, changed, stderr)) != expected
    assert workloads.digest(workloads.cli_output(command, 1, stdout, stderr)) != expected


def test_library_job_fails_on_changed_output(tmp_path):
    rows = [(0, 0, 1), (1, 2, 4), (2, 4, 6), (3, 6, 4), (4, 8, 1)]
    expected = workloads.WORKLOADS["resolve-quadrics"].expected
    assert workloads.digest(rows) == expected

    def make(output):
        lib = workloads.Library(
            "probe", lambda rng: itertools.repeat(""), lambda api, path: output, expected
        )
        return next(lib.jobs(soclelab, random.Random(0), tmp_path))

    assert make(rows)()[1] == [True]
    assert make(rows[:-1] + [(4, 8, 2)])()[1] == [False]


def test_digest_ignores_elapsed_ms_only():
    row = dict(t=1, j=0, lc_end=float("-inf"), socle_beg=float("inf"), oracle_checked=True)
    base = workloads.digest([ScanRow(elapsed_ms=3, **row)])
    assert workloads.digest([ScanRow(elapsed_ms=900, **row)]) == base
    assert workloads.digest([ScanRow(elapsed_ms=3, **{**row, "lc_end": 0})]) != base
    assert workloads.strip_csv_column("a,elapsed_ms\n1,5\n# note,x\n", "elapsed_ms") == [
        "a", "1", "# note,x"
    ]


def test_wrappers_are_restored(tmp_path):
    before = _bindings()
    original = soclelab.resolutions.minimal_free_resolution
    with tracer.Tracer():
        assert soclelab.minimal_free_resolution is not original
        assert soclelab.cli.minimal_free_resolution is soclelab.minimal_free_resolution
        assert soclelab.localcoh.minimal_free_resolution is soclelab.minimal_free_resolution
        assert soclelab.linalg.Span.add.__wrapped__ is before[("soclelab.linalg", "Span", "add")]
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with tracer.Counters():
            assert soclelab.fields.PrimeField.mul is not before[
                ("soclelab.fields", "PrimeField", "mul")
            ]
            raise RuntimeError("job failed")
    assert _bindings() == before


def test_self_time_never_exceeds_total(tmp_path):
    tr = tracer.Tracer()
    with tr:
        with tr.span("job"):
            _small_job(tmp_path)
    stats = tr.stats()
    assert stats["job"][0] == 1
    assert stats["linalg.Span.add"][0] > 0
    for name, (calls, total, self_s) in stats.items():
        assert 0 <= self_s <= total + 1e-9, name
    spans = tr.spans()
    durations = {sid: end - start for sid, _, _, start, end, _ in spans}
    children = {}
    for sid, parent, *_ in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + durations[sid]
    for sid, child_time in children.items():
        assert child_time <= durations[sid] + 1e-9


def test_counters_identical_across_hash_seeds():
    def traced_counts(hash_seed):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-corpus",
             "--seed", "3", "--seconds", "0", "--trace", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
        )
        assert "differs between identical jobs" not in done.stdout
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"]
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if m["unit"] in ("count", "columns", "cells")
            or name.endswith(("hit_ratio", "useful_ratio", "zero_ratio"))
        }

    first, second = traced_counts(1), traced_counts(2)
    assert first["orders.key.calls"] > 0 and first["linalg.Span.add.calls"] > 0
    assert first == second


def test_times_are_rescaled_by_the_reference_around_them(monkeypatch):
    probes = iter([run.REFERENCE_S / 2, run.REFERENCE_S / 2, run.REFERENCE_S * 2])
    monkeypatch.setattr(run, "reference_time", lambda: next(probes))
    clock = run.ScaledClock()
    _, scale, latencies, correct = clock.run(lambda: ([0.5], [True]))
    assert scale == 2.0 and latencies == [0.5] and correct == [True]
    assert clock.scale() == pytest.approx(0.8)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
