"""Command-line driver: config schema, outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clsnet import cli
from clsnet.cli import ConfigError, ScenarioConfig, parse_config


def write_config(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return str(p)


def star_transfer_doc(out_dir):
    return {
        "system": {"kind": "star"},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "simulate",
                   "schedule": {"variant": "phase-flip-transfer",
                                "k1": 1, "k2": 0}},
        "output": {"dir": str(out_dir)},
    }


def load_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# ----------------------------------------------------------- config


def test_parse_fills_defaults():
    sc = parse_config(json.dumps({
        "system": {"kind": "star"},
        "action": {"kind": "spectrum"},
    }))
    assert sc.parameters == {"J": 0.25, "v": 0.5}
    assert sc.integrator == {"tol": 1e-11, "samples_per_segment": 33}
    assert sc.seed is None
    assert sc.output == {"dir": "."}


def test_parse_emit_round_trip(tmp_path):
    docs = [
        star_transfer_doc(tmp_path),
        {"system": {"kind": "seven"},
         "parameters": {"J": 1.0, "v": 0.0},
         "action": {"kind": "spectrum"}},
        {"system": {"kind": "dll", "cells_x": 3, "cells_y": 3},
         "parameters": {"J": 0.25, "v": 0.5},
         "action": {"kind": "route",
                    "requests": [{"source": [16, 17],
                                  "destination": [26, 27]}]},
         "seed": 4},
        {"system": {"kind": "star"},
         "action": {"kind": "optimize", "problem": "star-creation",
                    "mode": "search", "n_restarts": 4, "max_evals": 500},
         "seed": 9},
    ]
    for doc in docs:
        sc = parse_config(json.dumps(doc))
        # the path --seed/--tol/--out overrides take
        again = parse_config(json.dumps(sc.as_dict()))
        assert again == sc
        assert again.digest() == sc.digest()


def test_digest_ignores_output_dir_only():
    base = {"system": {"kind": "star"}, "action": {"kind": "spectrum"}}
    a = parse_config(json.dumps(dict(base, output={"dir": "a"})))
    b = parse_config(json.dumps(dict(base, output={"dir": "b"})))
    c = parse_config(json.dumps(dict(base, seed=1)))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


@pytest.mark.parametrize("doc, fragment", [
    ({"system": {"kind": "ring"}, "action": {"kind": "spectrum"}},
     "system.kind"),
    ({"system": {"kind": "star"}, "action": {"kind": "spectrum"},
      "extra": 1}, "unknown keys"),
    ({"system": {"kind": "star"},
      "action": {"kind": "simulate",
                 "schedule": {"variant": "phase-flip-transfer", "k1": 1}}},
     "k2"),
    ({"system": {"kind": "star"},
      "action": {"kind": "route", "requests": [
          {"source": [1, 2], "destination": [3, 4]}]}},
     "dll"),
    ({"system": {"kind": "seven"},
      "action": {"kind": "simulate",
                 "schedule": {"variant": "generation", "branch": 2,
                              "k1p": 0, "k2p": 1}}},
     "star"),
    ({"system": {"kind": "star"},
      "action": {"kind": "optimize", "problem": "seven-transfer"}},
     "does not run"),
    ({"system": {"kind": "star"},
      "action": {"kind": "optimize", "problem": "star-transfer",
                 "mode": "evaluate", "n_restarts": 2}},
     "search mode"),
    ({"system": {"kind": "star"}, "action": {"kind": "spectrum"},
      "integrator": {"tol": 1.0}}, "tol"),
    ({"system": {"kind": "star"}, "action": {"kind": "spectrum"},
      "seed": 1.5}, "seed"),
    ({"system": {"kind": "star"},
      "action": {"kind": "simulate",
                 "schedule": {"variant": "phase-flip-transfer", "k1": 1,
                              "k2": 0, "options": {"in_site": 0}}}},
     "unknown keys ['options']"),
    # json reads NaN and Infinity; none of them is a usable number
    ({"system": {"kind": "star"}, "parameters": {"J": float("nan")},
      "action": {"kind": "spectrum"}},
     "parameters: J must be a finite number"),
    ({"system": {"kind": "star"}, "parameters": {"v": float("-inf")},
      "action": {"kind": "spectrum"}},
     "parameters: v must be a finite number"),
    ({"system": {"kind": "star"}, "action": {"kind": "spectrum"},
      "integrator": {"tol": float("inf")}},
     "integrator: tol must be a finite number"),
    ({"system": {"kind": "star"},
      "parameters": {"couplings": [0.25, 0.25, True, 0.25]},
      "action": {"kind": "spectrum"}},
     "parameters.couplings: must be a list of 4 finite numbers"),
    ({"system": {"kind": "seven"},
      "parameters": {"couplings": [1.0] * 5 + [float("nan")]},
      "action": {"kind": "spectrum"}},
     "parameters.couplings: must be a list of 6 finite numbers"),
    ({"system": {"kind": "dll", "cells_x": 2, "cells_y": 1},
      "action": {"kind": "route", "requests": [
          {"source": [True, 2], "destination": [6, 7]}]}},
     "action.requests[0].source: expected a pair of site indices"),
])
def test_parse_rejects_bad_sections(doc, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(json.dumps(doc))


def test_search_without_seed_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-transfer",
                   "mode": "search"},
    })
    assert cli.main(["optimize", "--config", path]) == 2
    assert "seed" in capsys.readouterr().err


def test_malformed_json_exits_2_with_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"system": {"kind": "star"},\n  "action" oops}\n')
    assert cli.main(["spectrum", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"broken\.json:2:\d+", err)


def test_refused_config_value_exits_2(tmp_path, capsys):
    # J < 0 gives the star transfer family a negative duration
    doc = star_transfer_doc(tmp_path / "out")
    doc["parameters"]["J"] = -0.25
    path = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_library_value_error_is_not_a_config_error(tmp_path, capsys,
                                                    monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("bug in the propagator")

    monkeypatch.setattr(cli, "run_schedule", broken)
    path = write_config(tmp_path, star_transfer_doc(tmp_path / "out"))
    with pytest.raises(ValueError, match="bug in the propagator"):
        cli.main(["simulate", "--config", path])
    assert "config error" not in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["spectrum", "--config",
                     str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


# one valid config per action kind
ACTION_DOCS = {
    "spectrum": {"system": {"kind": "star"}, "action": {"kind": "spectrum"}},
    "simulate": {"system": {"kind": "star"},
                 "action": {"kind": "simulate",
                            "schedule": {"variant": "phase-flip-transfer",
                                         "k1": 1, "k2": 0}}},
    "optimize": {"system": {"kind": "star"},
                 "action": {"kind": "optimize",
                            "problem": "star-transfer"}},
    "route": {"system": {"kind": "dll", "cells_x": 2, "cells_y": 1},
              "action": {"kind": "route", "requests": [
                  {"source": [1, 2], "destination": [6, 7]}]}},
}


@pytest.mark.parametrize("command, kind", [
    (c, k) for c in ACTION_DOCS for k in ACTION_DOCS if c != k])
def test_command_refuses_other_action_kind(tmp_path, capsys, command, kind):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(ACTION_DOCS[kind],
                                       output={"dir": str(out)}))
    assert cli.main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error: action.kind" in err
    assert repr(kind) in err and repr(command) in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"system": {"kind": "star"}, "parameters": {"J": 0.0},
                  "action": {"kind": "simulate", "schedule": {
                      "variant": "phase-flip-transfer", "k1": 1, "k2": 0}}}),
    ("simulate", {"system": {"kind": "seven"}, "parameters": {"J": 0},
                  "action": {"kind": "simulate", "schedule": {
                      "variant": "hopping-flip-transfer", "k": 0}}}),
    ("route", dict(ACTION_DOCS["route"], parameters={"J": 0.0})),
], ids=["star", "seven", "dll"])
def test_zero_coupling_exits_2(tmp_path, capsys, command, doc):
    path = write_config(tmp_path, dict(doc, output={"dir": str(tmp_path)}))
    assert cli.main([command, "--config", path]) == 2
    assert "nonzero coupling J" in capsys.readouterr().err


@pytest.mark.parametrize("k2", [10**12, 669790])
def test_too_large_flip_index_exits_2(tmp_path, capsys, k2):
    # the rounding of v*T breaks the sector phases: a config error that
    # names k2, never an assertion traceback
    doc = star_transfer_doc(tmp_path / "out")
    doc["action"]["schedule"].update(k1=0, k2=k2)
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    assert f"k2={k2} too large" in capsys.readouterr().err


def _one_jump_route(tmp_path, dt):
    return write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": 1, "cells_y": 1},
        "action": {"kind": "route", "requests": [
            {"source": [1, 2], "destination": [3, 4], "dt": dt}]},
        "output": {"dir": str(tmp_path / "out")},
    })


@pytest.mark.parametrize("dt", [1e17, 1e300])
def test_route_dt_that_collapses_the_transfer_exits_2(tmp_path, capsys, dt):
    # start + 2 dt + T rounds T away, so both flips would fall on one time
    assert cli.main(["route", "--config", _one_jump_route(tmp_path, dt)]) == 2
    assert f"config error: dt={dt!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unboundable_tolerance_budget_exits_3(tmp_path, capsys):
    # ramps of 1e6 at tol 1e-6: an error budget of 1 bounds nothing
    doc = json.loads(json.dumps(ACTION_DOCS["route"]))
    doc["action"]["requests"][0]["dt"] = 1e6
    doc["output"] = {"dir": str(tmp_path / "out")}
    path = write_config(tmp_path, doc)
    assert cli.main(["route", "--config", path, "--tol", "1e-6"]) == 3
    assert "error budget" in capsys.readouterr().err


# --------------------------------------------------------- spectrum


def test_spectrum_uniform_star(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "star"},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "spectrum"},
        "output": {"dir": str(out)},
    })
    assert cli.main(["spectrum", "--config", path]) == 0
    rep = load_summary(out)["report"]
    # uniform star: flat triple at v plus v +- 2J
    want = np.sort([0.5, 0.5, 0.5, 0.0, 1.0])
    assert np.allclose(np.sort(rep["eigenvalues"]), want, atol=1e-12)
    supports = sorted(tuple(c["support"]) for c in rep["cls"])
    assert supports == [(0, 1), (3, 4)]
    for c in rep["cls"]:
        assert np.allclose(np.abs(c["amplitudes"]), 1 / np.sqrt(2.0))
    assert rep["block_spectra"] is not None


def test_spectrum_seven_sqrt3(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "seven"},
        "parameters": {"J": 1.0, "v": 0.0},
        "action": {"kind": "spectrum"},
        "output": {"dir": str(out)},
    })
    assert cli.main(["spectrum", "--config", path]) == 0
    rep = load_summary(out)["report"]
    s2 = np.sqrt(2.0)
    want = np.sort([0.0, 0.0, 0.0, s2, -s2, 2 * s2, -2 * s2])
    assert np.allclose(np.sort(rep["eigenvalues"]), want, atol=1e-12)


# --------------------------------------------------------- simulate


def test_simulate_star_transfer(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, star_transfer_doc(out))
    assert cli.main(["simulate", "--config", path]) == 0
    summary = load_summary(out)
    assert abs(summary["fidelity"] - 1.0) <= 1e-10
    assert summary["T"] == pytest.approx(2 * np.pi, abs=1e-12)
    assert summary["norm_drift"] <= 1e-10
    assert summary["seed"] is None
    assert len(summary["digest"]) == 64


def test_trajectory_file_format(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, star_transfer_doc(out))
    assert cli.main(["simulate", "--config", path]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t, " + ", ".join(
        f"re_{i}, im_{i}" for i in range(5))
    events = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines[1:] if not l.startswith("#")]
    # flip, segment marker, closing flip
    assert len(events) == 3
    for ev in events:
        assert re.fullmatch(r"# event [a-z-]+ t=[0-9eE+.-]+", ev)
    for row in rows:
        cells = [float(x) for x in row.split(", ")]
        assert len(cells) == 11
    times = [float(r.split(", ")[0]) for r in rows]
    assert times == sorted(times)
    assert times[0] == 0.0 and times[-1] == pytest.approx(2 * np.pi)


def test_simulate_optimized_creation_matches_reference(tmp_path):
    sim_out = tmp_path / "sim"
    opt_out = tmp_path / "opt"
    sim_doc = {
        "system": {"kind": "star"},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "simulate",
                   "schedule": {"variant": "optimized",
                                "problem": "star-creation"}},
        "output": {"dir": str(sim_out)},
    }
    opt_doc = {
        "system": {"kind": "star"},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "optimize", "problem": "star-creation",
                   "mode": "evaluate"},
        "output": {"dir": str(opt_out)},
    }
    assert cli.main(["simulate", "--config",
                     write_config(tmp_path, sim_doc, "sim.json")]) == 0
    assert cli.main(["optimize", "--config",
                     write_config(tmp_path, opt_doc, "opt.json")]) == 0
    f_sim = load_summary(sim_out)["fidelity"]
    f_opt = load_summary(opt_out)["fidelity"]
    assert abs(f_sim - f_opt) < 1e-10
    assert 1.0 - f_sim < 1e-4


def test_simulate_zero_duration_hold(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "star"},
        "action": {"kind": "simulate",
                   "schedule": {"variant": "hold", "T": 0.0}},
        "output": {"dir": str(out)},
    })
    assert cli.main(["simulate", "--config", path]) == 0
    summary = load_summary(out)
    assert summary["T"] == 0.0
    assert abs(summary["fidelity"] - 1.0) < 1e-12
    rows = [l for l in (out / "trajectory.csv").read_text().splitlines()
            if l and not l.startswith(("t,", "#"))]
    assert len(rows) == 1


# --------------------------------------------------------- optimize


def test_optimize_evaluate_reference_parameters(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-transfer",
                   "mode": "evaluate"},
        "output": {"dir": str(out)},
    })
    assert cli.main(["optimize", "--config", path]) == 0
    summary = load_summary(out)
    assert summary["infidelity"] < 1e-4
    assert summary["T"] == pytest.approx(2 * np.pi)
    table = (out / "pulses.csv").read_text().splitlines()
    assert table[0].startswith("t, J_")
    assert len(table) == 202


def test_optimize_seed_determinism(tmp_path):
    doc = {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-transfer",
                   "mode": "search", "n_restarts": 2, "max_evals": 300,
                   "n_steps": 64},
        "seed": 11,
    }
    for sub in ("a", "b"):
        doc["output"] = {"dir": str(tmp_path / sub)}
        path = write_config(tmp_path, doc, f"{sub}.json")
        assert cli.main(["optimize", "--config", path]) == 0
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "pulses.csv").read_bytes() == \
        (tmp_path / "b" / "pulses.csv").read_bytes()


def test_optimize_seed_override_changes_digest(tmp_path):
    doc = {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-transfer",
                   "mode": "search", "n_restarts": 1, "max_evals": 200,
                   "n_steps": 64},
        "seed": 11,
        "output": {"dir": str(tmp_path / "a")},
    }
    path = write_config(tmp_path, doc)
    assert cli.main(["optimize", "--config", path]) == 0
    assert cli.main(["optimize", "--config", path, "--seed", "12",
                     "--out", str(tmp_path / "b")]) == 0
    a = load_summary(tmp_path / "a")
    b = load_summary(tmp_path / "b")
    assert a["seed"] == 11 and b["seed"] == 12
    assert a["digest"] != b["digest"]


def test_optimize_search_32_restarts(tmp_path):
    # reduced-resolution search, winner re-propagated at the
    # problem's native resolution by cmd_optimize itself
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-creation",
                   "mode": "search", "n_restarts": 32, "max_evals": 2000,
                   "n_steps": 128},
        "seed": 7,
        "output": {"dir": str(out)},
    })
    assert cli.main(["optimize", "--config", path]) == 0
    summary = load_summary(out)
    assert summary["infidelity"] < 1e-6
    assert summary["report"]["search"]["n_restarts"] == 32
    assert len(summary["report"]["search"]["log"]) == 32


# ------------------------------------------------------------ route


def test_route_single_jump_matches_simulate(tmp_path):
    route_out = tmp_path / "route"
    sim_out = tmp_path / "sim"
    route_doc = {
        "system": {"kind": "dll", "cells_x": 1, "cells_y": 1},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "route",
                   "requests": [{"source": [1, 2],
                                 "destination": [3, 4]}]},
        "output": {"dir": str(route_out)},
    }
    assert cli.main(["route", "--config",
                     write_config(tmp_path, route_doc, "r.json")]) == 0
    sim_doc = star_transfer_doc(sim_out)
    assert cli.main(["simulate", "--config",
                     write_config(tmp_path, sim_doc, "s.json")]) == 0
    f_route = load_summary(route_out)["fidelity"]
    f_sim = load_summary(sim_out)["fidelity"]
    # one-cell lattice is the star itself; the extra ramp-window
    # holds only add a global phase to the parked dimer state
    assert abs(f_route - f_sim) < 1e-12
    rep = load_summary(route_out)["report"]
    assert rep["routes"][0]["hubs"] == [0]
    assert rep["delays_inserted"] == []


def test_route_crossing_pair_reports_delay(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": 3, "cells_y": 3},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "route", "requests": [
            {"source": [16, 17], "destination": [26, 27]},
            {"source": [8, 9], "destination": [23, 24]},
        ]},
        "output": {"dir": str(out)},
    })
    assert cli.main(["route", "--config", path]) == 0
    summary = load_summary(out)
    routes = summary["report"]["routes"]
    assert len(routes) == 2
    for r in routes:
        assert r["fidelity"] >= 1 - 1e-8
    # both want hub 20 first; the second request waits a full jump
    assert routes[0]["start"] == 0.0
    assert routes[1]["start"] > 0.0
    assert summary["report"]["delays_inserted"] == [routes[1]["start"]]
    assert summary["norm_drift"] <= 1e-10


def test_route_jumps_with_different_ramp_times_run(tmp_path):
    # hubs 0 and 5 both ramp coupling (1, 5), on different profiles, so
    # the second route waits for the first to end; the scheduler used
    # to start both at once and the build refused the timeline
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": 3, "cells_y": 3},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "route", "requests": [
            {"source": [3, 4], "destination": [1, 2], "dt": 1},
            {"source": [6, 7], "destination": [8, 9], "dt": 2},
        ]},
        "output": {"dir": str(out)},
    })
    assert cli.main(["route", "--config", path]) == 0
    routes = load_summary(out)["report"]["routes"]
    assert all(r["fidelity"] >= 1 - 1e-8 for r in routes)
    assert routes[1]["start"] == 8.283185307179586


def test_route_rejects_unknown_sites(tmp_path, capsys):
    path = write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": 1, "cells_y": 1},
        "action": {"kind": "route",
                   "requests": [{"source": [40, 41],
                                 "destination": [3, 4]}]},
    })
    assert cli.main(["route", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


# ----------------------------------------------------------- verify


# C5's checks carry numpy scalars, exercising report serialization
@pytest.mark.parametrize("cid", ["C1", "C5"])
def test_verify_single_criterion(tmp_path, capsys, cid):
    assert cli.main(["verify", "--criterion", cid,
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert cid in out and "PASS" in out
    table = json.loads((tmp_path / "verify.json").read_text())
    assert table["passed"] is True
    assert [c["cid"] for c in table["criteria"]] == [cid]
    for c in table["criteria"][0]["checks"]:
        assert isinstance(c["ok"], bool)


def test_verify_unknown_criterion(tmp_path, capsys):
    assert cli.main(["verify", "--criterion", "C99",
                     "--out", str(tmp_path)]) == 2


def test_verify_names_failed_criterion_on_fault(tmp_path, capsys,
                                                monkeypatch):
    import clsnet.evolve as evolve

    def flipped(M, psi0, durations):
        # sign slip on one eigenvector row: still unitary-looking
        # shapes, but the synthesized propagator misroutes amplitude
        w, V = np.linalg.eigh(M)
        V = V.copy()
        V[0] *= -1.0
        coef = V.conj().T @ np.asarray(psi0, dtype=complex)
        phases = np.exp(
            -1j * np.multiply.outer(np.asarray(durations, float), w))
        return (phases * coef) @ V.T

    monkeypatch.setattr(evolve, "_static_samples", flipped)
    assert cli.main(["verify", "--criterion", "C1",
                     "--out", str(tmp_path)]) == 4
    out = capsys.readouterr().out
    assert "FAILED: C1" in out
    table = json.loads((tmp_path / "verify.json").read_text())
    assert table["passed"] is False
    assert table["criteria"][0]["cid"] == "C1"
    assert table["criteria"][0]["passed"] is False


# ------------------------------------------------------ process level


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    import clsnet.evolve as evolve

    def blowup(M, psi0, durations):
        raise FloatingPointError("overflow in propagator")

    monkeypatch.setattr(evolve, "_static_samples", blowup)
    path = write_config(tmp_path, star_transfer_doc(tmp_path / "out"))
    assert cli.main(["simulate", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "system": {"kind": "star"},
        "action": {"kind": "spectrum"},
        "output": {"dir": str(out)},
    })
    # the child imports the package this suite imported, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "clsnet.cli", "spectrum", "--config", path],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (out / "summary.json").exists()
