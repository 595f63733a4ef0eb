"""Command-line driver: config schema, outputs, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from clsnet import cli
from clsnet.cli import ConfigError, ScenarioConfig, parse_config
from clsnet.crab import REFERENCE_PARAMS
from clsnet.lattice import build_dll
from clsnet.protocols import TRANSFER_VARIANTS
from clsnet.routing import dimer_adjacency
from golden import assert_outputs_pinned


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


def _doc(command, system, action=None, **parameters):
    system = system if isinstance(system, dict) else {"kind": system}
    return command, {"system": system, "parameters": parameters,
                     "action": dict(action or {}, kind=command)}


def _schedule(system, variant, parameters=None, **keys):
    return _doc("simulate", system, {"schedule": dict(keys, variant=variant)},
                **parameters or {})


_GENERATION = {"branch": 2, "k1p": 0, "k2p": 1}

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
    # numpy draws from no negative seed
    ({"system": {"kind": "star"},
      "action": {"kind": "optimize", "problem": "star-transfer",
                 "mode": "search"}, "seed": -1},
     "seed: a search action draws random bases; set a seed >= 0"),
    # null is the default of seed alone
    ({"system": {"kind": "star"},
      "action": {"kind": "optimize", "problem": "star-transfer",
                 "mode": "search", "n_steps": None}, "seed": 1},
     "action: n_steps must be an integer"),
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


# ------------------------------------------------ keys each command reads


def _candidate_configs():
    """A cheap config for every system, action, schedule variant, problem
    and mode the grammar names, whether or not the grammar accepts it."""
    schedules = [dict(keys, variant=v) for v in TRANSFER_VARIANTS
                 for keys in ({"k1": 1, "k2": 0}, {"k": 0})]
    schedules += [dict(_GENERATION, variant=v)
                  for v in ("generation", "reverse-generation")]
    schedules += [{"variant": "piecewise-transfer", "branch": 1, "k1p": 1,
                   "k2p": 0}, {"variant": "hold", "T": 1.0}]
    schedules += [{"variant": "optimized", "problem": p}
                  for p in REFERENCE_PARAMS]
    actions = [{"kind": "spectrum"}, {"kind": "route", "requests": [
        {"source": [1, 2], "destination": [3, 4]}]}]
    actions += [{"kind": "simulate", "schedule": s} for s in schedules]
    for p in REFERENCE_PARAMS:
        actions += [{"kind": "optimize", "problem": p, "mode": "evaluate"},
                    {"kind": "optimize", "problem": p, "mode": "refine",
                     "n_steps": 16},
                    {"kind": "optimize", "problem": p, "mode": "search",
                     "n_restarts": 1, "max_evals": 20, "n_steps": 16}]
    for system in ({"kind": "star"}, {"kind": "seven"},
                   {"kind": "dll", "cells_x": 1, "cells_y": 1}):
        for action in actions:
            yield {"system": system, "action": action, "seed": 1}


def _command_contexts():
    """(config, choices) of each context a command runs in: the configs
    the grammar accepts, with the choices its walk records."""
    contexts = []
    for doc in _candidate_configs():
        ctx = {}
        with suppress(ConfigError):
            cli._walk(doc, "config", "config", ctx)
            contexts.append((doc, ctx))
    return contexts


_CONTEXTS = _command_contexts()


def _admits(section, key, ctx):
    return not cli._refusal(cli._GRAMMAR[section][key].only, ctx)


def test_grammar_admits_only_the_key_slots_commands_read():
    # a slot is a parameter, integrator or step key one context admits
    keys = [(section, k) for section in ("parameters", "integrator")
            for k in cli._GRAMMAR[section]]
    keys += [("action", k) for k in ("n_restarts", "max_evals", "n_steps")]
    slots = sum(_admits(*sk, ctx) for _, ctx in _CONTEXTS for sk in keys)
    assert (len(_CONTEXTS), slots) == (29, 145)


def _two_values(key, system):
    return {"couplings": ([0.25] * 4, [0.25, 0.3] * 2) if system == "star"
            else ([0.25] * 6, [0.25, 0.3] * 3),
            "J_prime": (1.0, 2.0), "J_inner": (2.5, 3.5),
            "n_steps": (16, 32)}[key]


@pytest.mark.parametrize("section, key", [
    ("parameters", "couplings"), ("parameters", "J_prime"),
    ("parameters", "J_inner"), ("action", "n_steps")])
def test_every_admitted_key_is_read(tmp_path, section, key):
    # wherever the grammar admits the key, two values of it give two
    # different runs, apart from the echoed parameters and digest
    contexts = [(d, c) for d, c in _CONTEXTS if _admits(section, key, c)]
    assert contexts
    for i, (doc, ctx) in enumerate(contexts):
        runs = []
        for j, value in enumerate(_two_values(key, ctx["system"])):
            changed = json.loads(json.dumps(doc))
            changed.setdefault(section, {})[key] = value
            out = tmp_path / f"{i}-{j}"
            assert cli.main([doc["action"]["kind"], "--config",
                             write_config(tmp_path, changed),
                             "--out", str(out)]) == 0
            written = {p.name: p.read_bytes() for p in out.iterdir()}
            summary = json.loads(written.pop("summary.json"))
            del summary["parameters"], summary["digest"]
            runs.append((summary, written))
        assert runs[0] != runs[1], doc


_STAR_COUPLINGS = {"couplings": [1, 2, 3, 4]}


def _unread(key, case, keys=None):
    action = case[1]["action"]
    what = "-".join(v for v in action.get("schedule", action).values()
                    if isinstance(v, str))
    return pytest.param(*case, keys or [key],
                        id=f"{key}-{case[1]['system']['kind']}-{what}")


@pytest.mark.parametrize("command, doc, keys", [
    # each of the first three ran to fidelity 1 on the default unit,
    # echoing a value it never used
    _unread("couplings", _schedule("star", "phase-flip-transfer",
                                   _STAR_COUPLINGS, k1=1, k2=0)),
    _unread("couplings", _schedule("seven", "phase-flip-transfer",
                                   {"couplings": [9] * 6}, k=1)),
    _unread("J_inner", _schedule("seven", "phase-flip-transfer",
                                 {"J_inner": 0.1}, k=1)),
    _unread("couplings", _schedule("star", "generation", _STAR_COUPLINGS,
                                   **_GENERATION)),
    _unread("couplings", _schedule("star", "optimized", _STAR_COUPLINGS,
                                   problem="star-transfer")),
    _unread("couplings", _doc("optimize", "star",
                              {"problem": "star-creation"},
                              **_STAR_COUPLINGS)),
    _unread("J_prime", _doc("spectrum", "star", J_prime=1.0)),
    _unread("J_prime", _schedule("star", "hold", {"J_prime": 1.0}, T=1.0)),
    _unread("J_prime", _schedule("star", "hopping-flip-transfer",
                                 {"J_prime": 1.0}, k1=1, k2=0)),
    _unread("J_prime", _doc("optimize", "star", {"problem": "star-transfer"},
                            J_prime=1.0)),
    _unread("J_inner", _schedule("seven", "hopping-flip-transfer",
                                 {"J_inner": 0.5}, k=0)),
    _unread("J_inner", _doc("optimize", "seven",
                            {"problem": "seven-creation"}, J_inner=0.5)),
    _unread("J_inner", _schedule("seven", "optimized", {"J_inner": 0.5},
                                 problem="seven-creation")),
    _unread("n_steps", _doc("optimize", "star", {
        "problem": "star-transfer", "mode": "evaluate", "n_steps": 64})),
    # the couplings would silently win
    _unread("both", _doc("spectrum", "seven", couplings=[1] * 6,
                         J_inner=0.5), ["couplings", "J_inner"]),
    _unread("both", _schedule("seven", "hold",
                              {"couplings": [1] * 6, "J_inner": 0.5},
                              T=1.0), ["couplings", "J_inner"]),
])
def test_unread_key_exits_2(tmp_path, capsys, command, doc, keys):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(doc, output={"dir": str(out)}))
    assert cli.main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(word in err for word in (*keys, command))
    assert "None" not in err
    assert not out.exists()


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


def test_seven_transfer_time_overflow_exits_2_without_warning(tmp_path,
                                                              capsys):
    # J = 1e-310 overflows T = pi/(sqrt2 J) to inf: a config error, and
    # no overflow warning on the way
    doc = {"system": {"kind": "seven"}, "parameters": {"J": 1e-310},
           "action": {"kind": "simulate", "schedule": {
               "variant": "hopping-flip-transfer", "k": 0}},
           "output": {"dir": str(tmp_path / "out")}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2 and "finite" in err
    assert not caught and "Warning" not in err


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


@pytest.mark.parametrize("dt", [1e17, 1e300, 1e308, 1e-17])
def test_route_dt_that_collapses_the_transfer_exits_2(tmp_path, capsys, dt):
    # start + 2 dt + T rounds T away, so both flips would fall on one
    # time; or T + dt rounds dt away, so a ramp would take no time
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
    assert_outputs_pinned("spectrum-star", out)


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
    assert_outputs_pinned("spectrum-seven", out)


# sha256 of summary.json from ``clsnet spectrum --out`` on the L x L DLL
# at the benchmark's J = 0.25, v = 0.5, as written when find_cls still
# sent every pair through a batched eigvalsh; eigh's rounding is part
# of it, so another LAPACK build may need a new pin
SPECTRUM_SHA256 = {
    3: "5667b793de42c52c94045721194f19dcb953a32d5ff5432790d25656ddf1a683",
    6: "40ebb3cbdab53db1e1ad0bb0a8bf9d51bc8ef522a35c1a598b887b4256d81465",
}


@pytest.mark.parametrize("cells", sorted(SPECTRUM_SHA256))
def test_spectrum_summary_is_pinned(tmp_path, cells):
    path = write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": cells, "cells_y": cells},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "spectrum"},
    })
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", path, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "summary.json").read_bytes())
    assert digest.hexdigest() == SPECTRUM_SHA256[cells]


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
    assert_outputs_pinned("simulate-star-phase-flip-transfer", out)


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
    assert_outputs_pinned("simulate-star-optimized-star-creation", sim_out)
    assert_outputs_pinned("optimize-evaluate-star-creation", opt_out)


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
    assert_outputs_pinned("simulate-star-hold-T0", out)


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
    assert_outputs_pinned("optimize-evaluate-star-transfer", out)


def test_reference_pulse_runs_at_configured_J(tmp_path):
    # evaluate and the optimized schedule both put the reference
    # amplitudes and frequencies at parameters.J, not at the J the
    # reference was made at
    actions = {
        "optimize": {"kind": "optimize", "problem": "star-transfer",
                     "mode": "evaluate"},
        "simulate": {"kind": "simulate", "schedule": {
            "variant": "optimized", "problem": "star-transfer"}},
    }
    fid = {}
    for J in (0.25, 0.5):
        for command, action in actions.items():
            out = tmp_path / f"{command}-{J}"
            path = write_config(tmp_path, {
                "system": {"kind": "star"}, "parameters": {"J": J},
                "action": action, "output": {"dir": str(out)}})
            assert cli.main([command, "--config", path]) == 0
            summary = load_summary(out)
            fid[command, J] = summary["fidelity"]
            pinned = {"optimize": "optimize-evaluate",
                      "simulate": "simulate-star-optimized"}[command]
            assert_outputs_pinned(f"{pinned}-star-transfer-J{J}", out)
            if command == "optimize":
                assert summary["report"]["params"]["floor"] == J
    assert 1.0 - fid["optimize", 0.25] < 1e-4
    assert 1.0 - fid["optimize", 0.5] > 0.5
    for J in (0.25, 0.5):
        assert fid["simulate", J] == pytest.approx(fid["optimize", J],
                                                   abs=1e-6)


@pytest.mark.parametrize("problem", ["seven-transfer", "seven-creation"])
def test_reference_pulse_defaults_to_its_own_J(tmp_path, problem):
    # with no parameters.J, evaluate and the optimized simulate variant
    # run the seven-site reference pulse at the J it was made at, not
    # at the star's 0.25
    J = 1 / (4 * np.sqrt(2.0))
    summaries = {}
    for command, action in (
            ("optimize", {"kind": "optimize", "problem": problem,
                          "mode": "evaluate"}),
            ("simulate", {"kind": "simulate", "schedule": {
                "variant": "optimized", "problem": problem}})):
        out = tmp_path / command
        path = write_config(tmp_path, {
            "system": {"kind": "seven"}, "action": action,
            "output": {"dir": str(out)}}, name=f"{command}.json")
        assert cli.main([command, "--config", path]) == 0
        summaries[command] = summary = load_summary(out)
        assert summary["parameters"]["J"] == J
        pinned = {"optimize": "optimize-evaluate",
                  "simulate": "simulate-seven-optimized"}[command]
        assert_outputs_pinned(f"{pinned}-{problem}", out)
    assert summaries["optimize"]["infidelity"] <= 1e-6
    assert summaries["optimize"]["report"]["params"]["floor"] == J
    assert summaries["simulate"]["fidelity"] >= 1 - 1e-6


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
    assert_outputs_pinned("optimize-search-star-transfer", tmp_path / "a")


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


def test_seed_flag_supplies_a_search_seed(tmp_path, capsys):
    # --seed overrides the config seed, so it also stands in for a
    # missing one; the file's other faults are still its own
    doc = {
        "system": {"kind": "star"},
        "action": {"kind": "optimize", "problem": "star-transfer",
                   "mode": "search", "n_restarts": 1, "max_evals": 200,
                   "n_steps": 64},
        "output": {"dir": str(tmp_path / "out")},
    }
    seedless = write_config(tmp_path, doc, "seedless.json")
    assert cli.main(["optimize", "--config", seedless]) == 2
    assert "seed: a search action draws random bases; set a seed >= 0" \
        in capsys.readouterr().err
    assert cli.main(["optimize", "--config", seedless, "--seed", "5"]) == 0
    flagged = (tmp_path / "out" / "summary.json").read_bytes()
    seeded = write_config(tmp_path, dict(doc, seed=5), "seeded.json")
    assert cli.main(["optimize", "--config", seeded]) == 0
    assert (tmp_path / "out" / "summary.json").read_bytes() == flagged
    assert json.loads(flagged)["seed"] == 5
    broken = write_config(tmp_path, dict(doc, seed=1.5), "broken.json")
    capsys.readouterr()
    assert cli.main(["optimize", "--config", broken, "--seed", "5"]) == 2
    assert "config: seed must be an integer" in capsys.readouterr().err


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


def _crossing_route(tmp_path, second):
    """Config of two routes on the 3x3 DLL, (16, 17) -> (26, 27) and
    ``second`` -> (23, 24), writing into tmp_path/out<second[0]>."""
    return write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": 3, "cells_y": 3},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "route", "requests": [
            {"source": [16, 17], "destination": [26, 27]},
            {"source": list(second), "destination": [23, 24]},
        ]},
        "output": {"dir": str(tmp_path / f"out{second[0]}")},
    })


def test_route_summary_reports_leak_bounds(tmp_path, capsys):
    # with (8, 9) both routes run on their supports and each bound
    # certifies its column; with (21, 22) route 0 jumps through the dimer
    # where route 1's state rests, and route 1's bound refuses the set
    assert cli.main(["route", "--config", _crossing_route(tmp_path, (8, 9))]) \
        == 0
    routes = load_summary(tmp_path / "out8")["report"]["routes"]
    assert [0.0 <= r["leak_bound"] <= 1e-12 for r in routes] == [True] * 2
    path = _crossing_route(tmp_path, (21, 22))
    assert cli.main(["route", "--config", path]) == 3
    bound, budget = map(float, re.search(
        r"leak bound (\S+), error budget tol\*end = (\S+) ",
        capsys.readouterr().err).groups())
    assert np.isfinite(bound) and bound > budget > 0.0


def test_route_over_its_error_budget_exits_3(tmp_path, capsys):
    # on the full lattice route 1 of this set ends at fidelity 0.5627:
    # refused, naming route 1 and its leak bound, and no summary written
    path = _crossing_route(tmp_path, (21, 22))
    assert cli.main(["route", "--config", path]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^numerical failure: route 1 is not certified: leak "
                     r"bound 0\.\d+, error budget tol\*end = [\d.e+-]+ "
                     r"\(at most 0\.001\)$", err, re.M)
    assert not (tmp_path / "out21").exists()


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            cli.main(["--help"])
        assert e.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: clsnet" in texts[0]
    assert cli.main(["route", "--config", "no/such/file.json"]) == 2
    assert cli._build_parser.cache_info().misses == 1


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


def _request(src, dst, **keys):
    return {"source": list(src), "destination": list(dst), **keys}


def _drawn_route_sets(count=10):
    """Sets of two single jumps on the 3x3 DLL, no dimer repeated, with
    ramp times 1 and 2 in a drawn order: the shape of a dll-routing set."""
    g, _ = build_dll(3, 3, 0.25, 0.5)
    adj = dimer_adjacency(g)
    jumps = [(s, d) for s in g.dimers() for _, d in adj[s]]
    rng = np.random.default_rng(2026)
    sets = {}
    for k in range(count):
        used, requests = set(), []
        for dt in rng.permutation((1, 2)):
            free = [j for j in jumps if not used & set(j)]
            src, dst = free[rng.integers(len(free))]
            used |= {src, dst}
            requests.append(_request(src, dst, dt=int(dt)))
        sets[f"drawn-{k}"] = (3, requests)
    return sets


# (cells, requests) per pinned `clsnet route` scenario at J = 0.25, v = 0.5
ROUTE_SCENARIOS = {
    "crossing": (3, [_request((16, 17), (26, 27)),
                     _request((8, 9), (23, 24))]),
    "single-jump": (1, [_request((1, 2), (3, 4))]),
    "four-requests": (3, [_request((16, 17), (26, 27), dt=2),
                          _request((8, 9), (38, 39), dt=2),
                          _request((3, 4), (1, 2), dt=1),
                          _request((6, 7), (8, 9), dt=2)]),
    "dt-0.2": (2, [_request((1, 2), (6, 7), dt=0.2),
                   _request((3, 4), (8, 9), dt=0.2)]),
    "hopping-flip": (3, [_request((16, 17), (26, 27), dt=2),
                         _request((8, 9), (38, 39), dt=2,
                                  variant="hopping-flip-transfer")]),
    **_drawn_route_sets(),
}

# sha256 of summary.json from ``clsnet route --out`` on each scenario, as
# written when the support walk still took an n x n snapshot per ramped
# segment and one eigh per (route, segment); eigh's rounding is part of
# it, so another LAPACK build may need new pins
ROUTE_SHA256 = {
    "crossing":
        "e63aa8b7f7d788b95cfa3575e261ff3017c2ea517cbc650f3164775e8ff91ba6",
    "single-jump":
        "0858b94093dd40d6fe1c6d6e0c629eae6580c1acf6ada314151303d1fc06cbf1",
    "four-requests":
        "d429f5d2a5da63a8953b4f66474fbb8d2fd37d88f9a59e13c47dd52834d15448",
    "dt-0.2":
        "61bb9ee227d372fb6b93cb0dca78799e74e369e1d91808ff29f349e2970a8098",
    "hopping-flip":
        "d379108c0e2d811873a9dc63bb81184ff854e85eed2803b18f779feac0ce07f4",
    "drawn-0":
        "9ae3b8634553fa91b2e400d8802de72fe795cc06c0e9fc58d42af1096cf04a4b",
    "drawn-1":
        "24d5ed477c99fc97d2b4ff0a7f3b0840a750bab8c92f4cbd0183ac890b73f9e8",
    "drawn-2":
        "e15636036187e792a80d82d88ef69e4df919fd848191fb45bb06ce8802002482",
    "drawn-3":
        "d7636b941ddcc9eb58654825524e43076d5e9c221c852c1f4ea9ea69abe3115f",
    "drawn-4":
        "bcaf7a1647583ad04d485bfcfe5507dcfa71c73c5aaa36149b1052d4c6d7b9d7",
    "drawn-5":
        "4d71e830290a7205a758b0cf95ca56be75fcbebffd0041caadfc789f7bfba52e",
    "drawn-6":
        "e630bdeec95d9311af7f17d4e685efad702bc7a66d84b8836611fb3b79c43856",
    "drawn-7":
        "eb32e5682c1c440dae643a91dde847255f0abe84b72765f5a3fc09ec4d173d3c",
    "drawn-8":
        "acc15c3076a5e6c3e5570cf20d8f1d0e82eaaef7ee1862862882d7468d8f23bf",
    "drawn-9":
        "1e93288db7e16c03ac3606a0bbf47e70da813b72cc54710aef7d6ed79b863ce4",
}


def test_route_digests_cover_every_scenario():
    assert ROUTE_SHA256.keys() == ROUTE_SCENARIOS.keys()


@pytest.mark.parametrize("name", sorted(ROUTE_SHA256))
def test_route_summary_is_pinned(tmp_path, name):
    cells, requests = ROUTE_SCENARIOS[name]
    path = write_config(tmp_path, {
        "system": {"kind": "dll", "cells_x": cells, "cells_y": cells},
        "parameters": {"J": 0.25, "v": 0.5},
        "action": {"kind": "route", "requests": requests},
    })
    out = tmp_path / "out"
    assert cli.main(["route", "--config", path, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "summary.json").read_bytes())
    assert digest.hexdigest() == ROUTE_SHA256[name]


# (command, config) of each pinned scenario that no other test here runs;
# the tests above pin the outputs of the scenarios they run themselves
PINNED_SCENARIOS = {
    "spectrum-star-couplings": _doc("spectrum", "star",
                                    couplings=[0.25, 0.3, 0.35, 0.4]),
    "spectrum-seven-couplings": _doc("spectrum", "seven",
                                     couplings=[1, 1, 1.5, 1.5, 1, 1]),
    "spectrum-seven-J_inner": _doc("spectrum", "seven", J=1.0, v=0.0,
                                   J_inner=1.5),
    **{f"spectrum-dll-{L}": _doc("spectrum", {"kind": "dll", "cells_x": L,
                                              "cells_y": L}, J=0.25, v=0.5)
       for L in (2, 4, 5)},
    "simulate-star-hopping-flip-transfer": _schedule(
        "star", "hopping-flip-transfer", k1=1, k2=0),
    "simulate-star-generation": _schedule("star", "generation",
                                          **_GENERATION),
    "simulate-star-generation-J_prime": _schedule(
        "star", "generation", {"J_prime": 1.0}, **_GENERATION),
    "simulate-star-reverse-generation": _schedule(
        "star", "reverse-generation", **_GENERATION),
    "simulate-star-piecewise-transfer": _schedule(
        "star", "piecewise-transfer", branch=1, k1p=1, k2p=0),
    "simulate-star-hold-couplings": _schedule(
        "star", "hold", {"couplings": [0.25, 0.3, 0.25, 0.3]}, T=2.0),
    "simulate-seven-phase-flip-transfer": _schedule(
        "seven", "phase-flip-transfer", k=1),
    "simulate-seven-hopping-flip-transfer": _schedule(
        "seven", "hopping-flip-transfer", k=0),
    "simulate-seven-hold": _schedule("seven", "hold", T=2.0),
    "simulate-seven-hold-J_inner": _schedule("seven", "hold",
                                             {"J_inner": 0.5}, T=2.0),
    "simulate-seven-hold-couplings": _schedule(
        "seven", "hold", {"couplings": [0.25, 0.25, 0.5, 0.5, 0.25, 0.25]},
        T=2.0),
    "optimize-evaluate-seven-transfer-J_inner": _doc(
        "optimize", "seven", {"problem": "seven-transfer"}, J_inner=2.5),
    "optimize-refine-star-creation": _doc(
        "optimize", "star", {"problem": "star-creation", "mode": "refine",
                             "n_steps": 64}),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_scenario_outputs_are_pinned(tmp_path, name):
    command, doc = PINNED_SCENARIOS[name]
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    assert_outputs_pinned(name, out)


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


def test_verify_criterion_key_error_is_not_a_config_error(
        tmp_path, capsys, monkeypatch):
    from clsnet import acceptance

    def broken():
        return {}["missing"]

    monkeypatch.setitem(acceptance._REGISTRY, "C1", ("broken", broken))
    with pytest.raises(KeyError, match="missing"):
        cli.main(["verify", "--criterion", "C1", "--out", str(tmp_path)])
    assert "config error" not in capsys.readouterr().err


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


# ------------------------------------------------- config-space property

_NUMBER = st.one_of(st.floats(-4.0, 4.0),
                    st.floats(allow_nan=False, allow_infinity=False))
_INDEX = st.one_of(st.integers(-3, 8), st.integers(-10**15, 10**15))
# speed limits; a key listed here is always drawn
_LIMITS = {"cells_x": st.integers(1, 3), "cells_y": st.integers(1, 3),
           "n_restarts": st.integers(1, 2), "max_evals": st.integers(10, 50),
           "n_steps": st.integers(8, 64),
           "samples_per_segment": st.integers(2, 40),
           "seed": st.integers(0, 2**32)}


def _number(rule):
    """A number inside the key's bounds: a range where they close it,
    else a _NUMBER or an _INDEX."""
    bounds = dict(rule.bounds)
    if ">=" in bounds and "<=" in bounds:
        make = st.floats if rule.type is float else st.integers
        return make(bounds[">="], bounds["<="])
    return (_NUMBER if rule.type is float else _INDEX).filter(
        lambda x: all(cli._OPS[op](x, b) for op, b in rule.bounds))


def _branches(section, ctx):
    """Every system, action and schedule variant the grammar allows
    together below ``section``, named as parse_config names them; a
    problem, a mode and a route's request variants are left to the
    draw."""
    ways = [ctx]
    for key, rule in cli._GRAMMAR[section].items():
        t, name = rule.type, section if key == "kind" else key
        more = []
        for c in ways:
            if cli._refusal(rule.only, c):
                more.append(c)
            elif isinstance(t, dict) and key in ("kind", "variant"):
                more += [dict(c, **{name: v}) for v in t
                         if not cli._refusal(t[v], c)]
            elif isinstance(t, str) and t in cli._GRAMMAR:
                more += _branches(t, c)
            else:
                more.append(c)
        ways = more
    return ways


# a draw picks a branch first, so each is drawn about as often
_BRANCHES = _branches("config", {})


def _value(draw, rule, key, section, ctx, branch):
    t, name = rule.type, section if key == "kind" else key
    if isinstance(t, dict):
        v = branch[name] if name in branch else draw(st.sampled_from(
            [c for c in t if not cli._refusal(t[c], ctx)]))
    elif isinstance(t, list):
        return [_section(draw, t[0], ctx, branch)
                for _ in range(draw(st.integers(1, 3)))]
    elif t in cli._GRAMMAR:
        return _section(draw, t, ctx, branch)
    elif t == "pair":
        graph = build_dll(ctx["cells_x"], ctx["cells_y"], 1.0, 0.0)[0]
        return list(draw(st.sampled_from(graph.dimers())))
    elif t == "couplings":
        n = 4 if ctx["system"] == "star" else 6
        return draw(st.lists(_NUMBER, min_size=n, max_size=n))
    else:
        v = draw(_LIMITS.get(key, _number(rule)))
    # the choices, as parse_config names them, and the cells of a pair
    ctx[name] = v
    return v


def _section(draw, section, ctx, branch):
    doc = {}
    for key, rule in cli._GRAMMAR[section].items():
        # output.dir is the test's to set
        if cli._refusal(rule.only, ctx) or rule.type is str:
            continue
        chosen = branch.get(section if key == "kind" else key, rule.default)
        if rule.default is cli._REQUIRED or key in _LIMITS or \
                chosen != rule.default or draw(st.booleans()):
            doc[key] = _value(draw, rule, key, section, ctx, branch)
    return doc


@st.composite
def _configs(draw):
    """(command, config) drawn by walking parse_config's grammar, with
    its choices and bounds, sized only for speed by _LIMITS."""
    doc = _section(draw, "config", {}, draw(st.sampled_from(_BRANCHES)))
    return doc["action"]["kind"], doc


def _fidelities(summary):
    yield summary["fidelity"]
    for route in summary["report"].get("routes", ()):
        yield route["fidelity"]
        yield from (j["fidelity"] for j in route["per_jump"])


def _simulate(schedule, system="star", **params):
    return "simulate", {"system": {"kind": system}, "parameters": params,
                        "action": {"kind": "simulate", "schedule": schedule}}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_configs())
# overflowed couplings: NaN fidelities and infinite eigenvalues
@example(case=_simulate({"variant": "hold", "T": 1.0},
                        couplings=[1e308] * 4))
@example(case=("spectrum", {"system": {"kind": "star"},
                            "parameters": {"couplings": [1e308] * 4},
                            "action": {"kind": "spectrum"}}))
@example(case=("optimize", {
    "system": {"kind": "seven"}, "parameters": {"J": 1e200},
    "action": {"kind": "optimize", "problem": "seven-creation",
               "mode": "search", "n_restarts": 1, "max_evals": 20},
    "seed": 1}))
# round-off that put a fidelity above 1
@example(case=("simulate", {
    "system": {"kind": "seven"},
    "parameters": {"J": 3.0, "v": -195.40312197264132, "J_inner": 0.5},
    "action": {"kind": "simulate",
               "schedule": {"variant": "hold", "T": 1.0}}}))
@example(case=_simulate({"variant": "generation", "branch": 1,
                         "k1p": 1, "k2p": 0}, J_prime=1e300))
@example(case=_simulate({"variant": "generation", "branch": 1,
                         "k1p": 1, "k2p": 0}, J_prime=1e-300))
# a flip index whose sector phases miss, and a jump window that collapses
@example(case=_simulate({"variant": "phase-flip-transfer",
                         "k1": 0, "k2": 10**12}))
@example(case=("route", {
    "system": {"kind": "dll", "cells_x": 1, "cells_y": 1},
    "action": {"kind": "route", "requests": [
        {"source": [1, 2], "destination": [3, 4], "dt": 1e300}]}}))
# ramps that round to no time put two flips of one site together
@example(case=("route", {
    "system": {"kind": "dll", "cells_x": 1, "cells_y": 2},
    "action": {"kind": "route", "requests": [
        {"source": [1, 2], "destination": [6, 7], "dt": 8e-82}]}}))
# ordinary configs on branches a derandomized run need not reach
@example(case=_simulate({"variant": "generation", "branch": 2,
                         "k1p": 0, "k2p": 1}))
@example(case=_simulate({"variant": "hold", "T": 2.0}))
@example(case=_simulate({"variant": "phase-flip-transfer", "k": 1},
                        system="seven"))
@example(case=_simulate({"variant": "optimized",
                         "problem": "seven-transfer"}, system="seven"))
@example(case=("optimize", {
    "system": {"kind": "star"},
    "action": {"kind": "optimize", "problem": "star-creation",
               "mode": "refine", "n_steps": 64}}))
@example(case=("spectrum", {"system": {"kind": "seven"},
                            "parameters": {"J_inner": 0.5},
                            "action": {"kind": "spectrum"}}))
@example(case=("spectrum", {"system": {"kind": "dll", "cells_x": 2,
                                       "cells_y": 3},
                            "action": {"kind": "spectrum"}}))
def test_every_config_exits_honestly(case):
    # exit 0 finished, 2 a bad config, 3 a numerical failure; nothing
    # escapes (warnings are errors here), and an exit-0 summary holds
    # only finite numbers and fidelities in [0, 1]
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(dict(doc, output={"dir": str(out)})))
        code = cli.main([command, "--config", str(path)])
        assert code in (0, 2, 3)
        if code == 0:
            text = (out / "summary.json").read_text()
            assert "NaN" not in text and "Infinity" not in text
            for f in _fidelities(json.loads(text)):
                assert f is None or 0.0 <= f <= 1.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_configs())
def test_parse_emit_round_trip(case):
    # the path --seed/--tol/--out overrides take; every draw parses
    sc = parse_config(json.dumps(case[1]))
    again = parse_config(json.dumps(asdict(sc)))
    assert again == sc
    assert again.digest() == sc.digest()
