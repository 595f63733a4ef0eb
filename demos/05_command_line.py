"""
Scripting the command-line driver
=================================

Every capability is reachable through the ``clsnet`` command: one
JSON scenario in, machine-checkable files out.  Outputs embed a
digest of the scenario so results can be traced back to their exact
configuration; equal digests mean byte-identical summaries.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(command, doc, out):
    cfg = root / f"{out}.json"
    cfg.write_text(json.dumps(doc, indent=2))
    args = [sys.executable, "-m", "clsnet.cli", command,
            "--config", str(cfg), "--out", str(root / out)]
    proc = subprocess.run(args, capture_output=True, text=True)
    print(f"$ clsnet {command} --config {cfg.name}  (exit {proc.returncode})")
    print(proc.stdout.strip())
    return json.loads((root / out / "summary.json").read_text())


# Every command writes under one temporary directory, removed at the end.
with tempfile.TemporaryDirectory(prefix="clsnet_demo_") as tmp:
    root = Path(tmp)

    # ----------------------------------------------------------------
    # Spectrum of the uniform star: eigenvalues, compact states and the
    # symmetry-reduced blocks land in summary.json.

    summary = run("spectrum", {
        "system": {"kind": "star"},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "spectrum"},
    }, "spec")
    print("eigenvalues:", summary["report"]["eigenvalues"])
    print("digest:", summary["digest"][:16], "...\n")

    # ----------------------------------------------------------------
    # Simulate the flagship transfer; the trajectory table is plot-ready
    # (one row per sample, events as comment lines).

    summary = run("simulate", {
        "system": {"kind": "star"},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "simulate",
                   "schedule": {"variant": "phase-flip-transfer",
                                "k1": 1, "k2": 0}},
    }, "sim")
    print("fidelity:", summary["fidelity"])
    traj = (root / "sim" / "trajectory.csv").read_text().splitlines()
    print("trajectory header:", traj[0][:40], "...")
    print("first event line: ", next(l for l in traj if l.startswith("#")), "\n")

    # ----------------------------------------------------------------
    # Evaluate the bundled reference creation pulses (no search, no seed
    # needed).

    summary = run("optimize", {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-creation",
                   "mode": "evaluate"},
    }, "opt")
    print("infidelity:", summary["infidelity"], "\n")

    # ----------------------------------------------------------------
    # Route two stored states at once; the report shows the scheduler's
    # inserted delay and both end-to-end fidelities.

    summary = run("route", {
        "system": {"kind": "dll", "cells_x": 3, "cells_y": 3},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "route", "requests": [
            {"source": [16, 17], "destination": [26, 27]},
            {"source": [8, 9], "destination": [23, 24]},
        ]},
    }, "route")
    for r in summary["report"]["routes"]:
        print(f"route {r['source']} -> {r['destination']}: "
              f"start {r['start']:.3f}, fidelity {r['fidelity']:.12f}")
    print("delays inserted:", summary["report"]["delays_inserted"])

# ----------------------------------------------------------------
# The verification suite runs single criteria too:
#     clsnet verify --criterion C1
# and exits 0/4 with a machine-readable verify.json.
