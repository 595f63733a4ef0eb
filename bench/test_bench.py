"""Tests of the benchmark itself: seeded inputs, repeatable outputs and
counts, and refusal to run without the package sources.

Run from the repository root (about three minutes on two cores):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run  # pins the BLAS threads before numpy is imported

wl = run.import_package()
import tracing  # noqa: E402

COUNTS = ("crab.evaluations.star-creation", "crab.evaluations.seven-creation",
          "cli.output_bytes", "routing.timelines_rejected")


@pytest.fixture
def ctx():
    with tempfile.TemporaryDirectory() as d:
        yield wl.Context(Path(d))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = wl.WORKLOADS[name]()
    assert workload.inputs(7) == workload.inputs(7)
    assert workload.inputs(7) != workload.inputs(8)


def _one_op(name):
    """One op of the workload that always gets as far as a summary."""
    workload = wl.WORKLOADS[name]()
    first = workload.inputs(3)[0][0]
    if name == "dll-routing":
        # a single request cannot hit the scheduling defect
        first = wl.route_doc(wl.DLL_CELLS, first["action"]["requests"][:1])
    return workload, first


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_repeated_op_writes_identical_summary(name, ctx):
    workload, op = _one_op(name)
    a = workload.run_op(ctx, op)
    b = workload.run_op(ctx, op)
    assert a.ok and b.ok
    assert a.summary is not None
    assert a.summary == b.summary
    assert a.out_bytes == b.out_bytes


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_counts_repeat_between_runs(name, ctx):
    workload = wl.WORKLOADS[name]()
    inputs = workload.inputs(5)[:1]
    runs = [tracing.traced_run(workload, ctx, inputs, 0.0, run.run_passes)[1]
            for _ in range(2)]
    for key in COUNTS:
        assert runs[0][key] == runs[1][key], key
    assert all(isinstance(runs[0][k][1], int) for k in COUNTS)


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crab-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
