"""The benchmark's library jobs, each run once on seeded inputs and held
to its stored digest, so that a changed output fails here first.

``perfbench/workloads.py`` is loaded from its file and only read.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import soclelab

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["resolve-quadrics", "scan-oracle", "gauge-tc2"])
def test_one_job_matches_its_digest(workloads, name, tmp_path):
    job = next(workloads.WORKLOADS[name].jobs(soclelab, random.Random(1), tmp_path))
    latencies, correct = job()
    assert len(latencies) == 1
    assert correct == [True]
