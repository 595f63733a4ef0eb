"""Command-line driver.

Scenario configs are JSON documents with five sections: ``system``
(which network), ``parameters`` (couplings and potentials), ``action``
(what to do), ``integrator`` (tolerances), plus ``seed`` and
``output``.  Commands dispatch to the library modules and write
machine-checkable summaries; every output embeds the config digest and
seed, and fixed inputs reproduce byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure (a
floating-point overflow, invalid value or division by zero anywhere in
a command is one), 4 verification failure.  Any other exception is a
bug in the program and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import acceptance, crab
from .evolve import ProtocolSchedule, Segment, fidelity, run_schedule
from .lattice import (
    TimedHamiltonian,
    build_dll,
    build_seven,
    build_star,
)
from .protocols import (
    TRANSFER_VARIANTS,
    GenerationParams,
    SevenTransferParams,
    StarTransferParams,
    build_schedule,
    cls_state,
)
from .routing import plan_route, schedule_multi, simulate_route
from .spectral import equitable_blocks_star, find_cls, \
    nonequitable_blocks_seven, spectrum

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "load_config",
           "cmd_spectrum", "cmd_simulate", "cmd_optimize", "cmd_route",
           "cmd_verify", "main"]

_SYSTEMS = ("star", "seven", "dll")
_ACTIONS = ("spectrum", "simulate", "optimize", "route")
_SCHEDULE_VARIANTS = (*TRANSFER_VARIANTS, "generation", "reverse-generation",
                      "piecewise-transfer", "optimized", "hold")
_PROBLEMS = ("star-transfer", "star-creation", "seven-transfer",
             "seven-creation")
_OPT_MODES = ("evaluate", "refine", "search")


class ConfigError(Exception):
    """Scenario config failed parsing or validation."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and normalized scenario: defaults filled, keys checked."""

    system: dict
    parameters: dict
    action: dict
    integrator: dict
    seed: Optional[int]
    output: dict

    def as_dict(self):
        return asdict(self)

    def digest(self):
        # output.dir says where results go, not what is computed, so
        # runs that differ only in destination share a digest
        keyed = {k: v for k, v in self.as_dict().items() if k != "output"}
        text = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _expect(cond, where, msg):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _only_keys(d, allowed, where):
    extra = sorted(set(d) - set(allowed))
    _expect(not extra, where, f"unknown keys {extra}")


def _is_finite_number(v):
    # json reads NaN and Infinity as floats; bool is a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _number(d, key, where, default=None, required=False):
    if key not in d:
        _expect(not required, where, f"missing required key {key!r}")
        return default
    v = d[key]
    _expect(_is_finite_number(v), where, f"{key} must be a finite number")
    return float(v)


def _integer(d, key, where, default=None, required=False, minimum=None):
    if key not in d:
        _expect(not required, where, f"missing required key {key!r}")
        return default
    v = d[key]
    _expect(isinstance(v, int) and not isinstance(v, bool), where,
            f"{key} must be an integer")
    if minimum is not None:
        _expect(v >= minimum, where, f"{key} must be >= {minimum}")
    return v


def _site_pair(obj, where):
    _expect(isinstance(obj, list) and len(obj) == 2
            and all(isinstance(x, int) and not isinstance(x, bool)
                    for x in obj),
            where, "expected a pair of site indices")
    return [int(obj[0]), int(obj[1])]


def _parse_system(raw):
    _expect(isinstance(raw, dict), "system", "must be an object")
    kind = raw.get("kind")
    _expect(kind in _SYSTEMS, "system.kind", f"must be one of {_SYSTEMS}")
    if kind == "dll":
        _only_keys(raw, ("kind", "cells_x", "cells_y"), "system")
        cx = _integer(raw, "cells_x", "system", required=True, minimum=1)
        cy = _integer(raw, "cells_y", "system", required=True, minimum=1)
        return {"kind": "dll", "cells_x": cx, "cells_y": cy}
    _only_keys(raw, ("kind",), "system")
    return {"kind": kind}


def _parse_parameters(raw, system):
    _expect(isinstance(raw, dict), "parameters", "must be an object")
    kind = system["kind"]
    allowed = {"star": ("J", "v", "couplings", "J_prime"),
               "seven": ("J", "v", "couplings", "J_inner"),
               "dll": ("J", "v")}[kind]
    _only_keys(raw, allowed, "parameters")
    out = {}
    out["J"] = _number(raw, "J", "parameters", default=0.25)
    out["v"] = _number(raw, "v", "parameters", default=0.5)
    if "couplings" in raw:
        want = 4 if kind == "star" else 6
        cs = raw["couplings"]
        _expect(isinstance(cs, list) and len(cs) == want
                and all(_is_finite_number(x) for x in cs),
                "parameters.couplings",
                f"must be a list of {want} finite numbers")
        out["couplings"] = [float(x) for x in cs]
    for key in ("J_prime", "J_inner"):
        if key in raw:
            out[key] = _number(raw, key, "parameters")
    return out


def _problem(raw, kind, where):
    problem = raw.get("problem")
    _expect(problem in _PROBLEMS, where, f"problem must be one of {_PROBLEMS}")
    _expect(problem.split("-")[0] == kind, where,
            f"problem {problem} does not run on a {kind} system")
    return problem


def _parse_schedule(raw, system):
    _expect(isinstance(raw, dict), "action.schedule", "must be an object")
    variant = raw.get("variant")
    _expect(variant in _SCHEDULE_VARIANTS, "action.schedule.variant",
            f"must be one of {_SCHEDULE_VARIANTS}")
    where = "action.schedule"
    kind = system["kind"]
    out = {"variant": variant}
    if variant in TRANSFER_VARIANTS:
        _expect(kind in ("star", "seven"), where,
                f"{variant} needs a star or seven system, not {kind}")
        if kind == "star":
            _only_keys(raw, ("variant", "k1", "k2"), where)
            out["k1"] = _integer(raw, "k1", where, required=True)
            out["k2"] = _integer(raw, "k2", where, required=True, minimum=0)
        else:
            _only_keys(raw, ("variant", "k"), where)
            out["k"] = _integer(raw, "k", where, required=True, minimum=0)
    elif variant in ("generation", "reverse-generation",
                     "piecewise-transfer"):
        _expect(kind == "star", where, f"{variant} needs a star system")
        _only_keys(raw, ("variant", "branch", "k1p", "k2p"), where)
        out["branch"] = _integer(raw, "branch", where, required=True)
        _expect(out["branch"] in (1, 2), where, "branch must be 1 or 2")
        out["k1p"] = _integer(raw, "k1p", where, required=True)
        out["k2p"] = _integer(raw, "k2p", where, required=True)
    elif variant == "optimized":
        _only_keys(raw, ("variant", "problem"), where)
        out["problem"] = _problem(raw, kind, where)
    else:  # hold
        _expect(kind in ("star", "seven"), where,
                "hold needs a star or seven system")
        _only_keys(raw, ("variant", "T"), where)
        T = _number(raw, "T", where, default=0.0)
        _expect(T >= 0.0, where, "T must be >= 0")
        out["T"] = T
    return out


def _parse_action(raw, system, seed):
    _expect(isinstance(raw, dict), "action", "must be an object")
    kind = raw.get("kind")
    _expect(kind in _ACTIONS, "action.kind", f"must be one of {_ACTIONS}")
    if kind == "spectrum":
        _only_keys(raw, ("kind",), "action")
        return {"kind": "spectrum"}
    if kind == "simulate":
        _only_keys(raw, ("kind", "schedule"), "action")
        _expect("schedule" in raw, "action", "simulate needs a schedule")
        return {"kind": "simulate",
                "schedule": _parse_schedule(raw["schedule"], system)}
    if kind == "optimize":
        _only_keys(raw, ("kind", "problem", "mode", "n_restarts",
                         "max_evals", "n_steps"), "action")
        problem = _problem(raw, system["kind"], "action.problem")
        mode = raw.get("mode", "evaluate")
        _expect(mode in _OPT_MODES, "action.mode",
                f"must be one of {_OPT_MODES}")
        out = {"kind": "optimize", "problem": problem, "mode": mode}
        if mode != "search":
            for key in ("n_restarts", "max_evals"):
                _expect(key not in raw, "action",
                        f"{key} only applies to search mode")
        else:
            _expect(seed is not None, "seed",
                    "a search action draws random bases; set a seed")
            out["n_restarts"] = _integer(raw, "n_restarts", "action",
                                         default=32, minimum=1)
            out["max_evals"] = _integer(raw, "max_evals", "action",
                                        default=20000, minimum=10)
        if raw.get("n_steps") is not None:
            out["n_steps"] = _integer(raw, "n_steps", "action", minimum=8)
        return out
    # route
    _only_keys(raw, ("kind", "requests"), "action")
    _expect(system["kind"] == "dll", "action",
            "route actions need a dll system")
    reqs = raw.get("requests")
    _expect(isinstance(reqs, list) and reqs, "action.requests",
            "must be a non-empty list")
    parsed = []
    for i, r in enumerate(reqs):
        where = f"action.requests[{i}]"
        _expect(isinstance(r, dict), where, "must be an object")
        _only_keys(r, ("source", "destination", "variant", "dt"), where)
        item = {
            "source": _site_pair(r.get("source"), where + ".source"),
            "destination": _site_pair(r.get("destination"),
                                      where + ".destination"),
            "variant": r.get("variant", "phase-flip-transfer"),
            "dt": _number(r, "dt", where, default=1.0),
        }
        _expect(item["variant"] in TRANSFER_VARIANTS,
                where, "unknown transfer variant")
        _expect(item["dt"] > 0, where, "dt must be positive")
        parsed.append(item)
    return {"kind": "route", "requests": parsed}


def parse_config(text, source="config"):
    """Parse and validate a JSON scenario into a ScenarioConfig.

    Raises ConfigError with a line-anchored message on malformed JSON
    and a key-path message on schema violations.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{source}:{e.lineno}:{e.colno}: {e.msg}") from e
    _expect(isinstance(raw, dict), "config", "top level must be an object")
    _only_keys(raw, ("system", "parameters", "action", "integrator",
                     "seed", "output"), "config")
    _expect("system" in raw, "config", "missing required section system")
    _expect("action" in raw, "config", "missing required section action")
    system = _parse_system(raw["system"])
    parameters = _parse_parameters(raw.get("parameters", {}), system)

    seed = raw.get("seed")
    if seed is not None:
        _expect(isinstance(seed, int) and not isinstance(seed, bool),
                "seed", "must be an integer")

    integ = raw.get("integrator", {})
    _expect(isinstance(integ, dict), "integrator", "must be an object")
    _only_keys(integ, ("tol", "samples_per_segment"), "integrator")
    tol = _number(integ, "tol", "integrator", default=1e-11)
    _expect(1e-14 <= tol <= 1e-6, "integrator.tol",
            "must lie in [1e-14, 1e-6]")
    spp = _integer(integ, "samples_per_segment", "integrator", default=33,
                   minimum=2)

    out = raw.get("output", {})
    _expect(isinstance(out, dict), "output", "must be an object")
    _only_keys(out, ("dir",), "output")
    out_dir = out.get("dir", ".")
    _expect(isinstance(out_dir, str), "output.dir", "must be a string")

    action = _parse_action(raw["action"], system, seed)
    return ScenarioConfig(system=system, parameters=parameters,
                          action=action,
                          integrator={"tol": tol,
                                      "samples_per_segment": spp},
                          seed=seed, output={"dir": out_dir})


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    return parse_config(text, source=str(path))


# ------------------------------------------------------------- builders


@contextmanager
def _as_config_error():
    """Report a ValueError from turning config values into library
    objects as the config error it is."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from e


@_as_config_error()
def _build_system(sc):
    kind = sc.system["kind"]
    p = sc.parameters
    if kind == "star":
        couplings = p.get("couplings", [p["J"]] * 4)
        return build_star(couplings, p["v"])
    if kind == "seven":
        inner = p.get("J_inner", np.sqrt(3.0) * p["J"])
        couplings = p.get("couplings",
                          [p["J"], p["J"], inner, inner, p["J"], p["J"]])
        return build_seven(couplings, p["v"])
    return _build_dll(sc)[1]


@_as_config_error()
def _build_dll(sc):
    """Site graph and Hamiltonian of a dll scenario."""
    return build_dll(sc.system["cells_x"], sc.system["cells_y"],
                     sc.parameters["J"], sc.parameters["v"])


@_as_config_error()
def _problem_factory(name, p, n_steps=None):
    kw = {"J": p["J"], "v": p["v"]}
    if n_steps is not None:
        kw["n_steps"] = n_steps
    if name == "seven-transfer" and "J_inner" in p:
        kw["J_inner"] = p["J_inner"]
    factory = {"star-transfer": crab.star_transfer,
               "star-creation": crab.star_creation,
               "seven-transfer": crab.seven_transfer,
               "seven-creation": crab.seven_creation}[name]
    return factory(**kw)


def _reference_point(problem):
    """The reference pulse of ``problem``'s kind at its own J and horizon."""
    ref = crab.REFERENCE_PARAMS[problem.kind]
    return problem.make_params(ref.x, ref.xp, ref.omega)


@_as_config_error()
def _build_protocol_schedule(sc):
    sched = sc.action["schedule"]
    variant = sched["variant"]
    kind = sc.system["kind"]
    p = sc.parameters
    if variant in TRANSFER_VARIANTS:
        if kind == "star":
            params = StarTransferParams(sched["k1"], sched["k2"], p["J"])
        else:
            params = SevenTransferParams(sched["k"], p["J"], p["v"])
        return build_schedule(variant, params)
    if variant in ("generation", "reverse-generation",
                   "piecewise-transfer"):
        Jp = p.get("J_prime", 3 * np.sqrt(2.0) * p["J"])
        params = GenerationParams(sched["branch"], sched["k1p"],
                                  sched["k2p"], Jp)
        return build_schedule(variant, params)
    if variant == "optimized":
        problem = _problem_factory(sched["problem"], p)
        point = _reference_point(problem)
        H = crab.assemble_hamiltonian(problem, point)
        base = TimedHamiltonian(np.asarray(H.base), {})
        return ProtocolSchedule(base, (Segment(point.horizon, H),),
                                initial_state=problem.initial_state,
                                target_state=problem.target_state)
    # hold: the stored state parked under the static network
    H = _build_system(sc)
    psi = cls_state(kind, "I")
    items = (Segment(sched["T"]),) if sched["T"] > 0 else ()
    return ProtocolSchedule(H, items, initial_state=psi, target_state=psi)


# --------------------------------------------------------------- output


def _plain(obj):
    """Recursively convert numpy containers to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_plain(payload), sort_keys=True, indent=2)
                    + "\n")


def _summary(sc, fidelity_=None, T=None, norm_drift=None, report=None):
    infid = None if fidelity_ is None else 1.0 - fidelity_
    return {
        "fidelity": fidelity_,
        "infidelity": infid,
        "norm_drift": norm_drift,
        "T": T,
        "parameters": sc.parameters,
        "seed": sc.seed,
        "digest": sc.digest(),
        "report": report or {},
    }


def _write_trajectory(path, traj):
    n = traj.states.shape[1]
    header = "t, " + ", ".join(f"re_{i}, im_{i}" for i in range(n))
    events = sorted(traj.events, key=lambda e: e[0])
    lines = [header]
    k = 0
    for t, psi in zip(traj.times, traj.states):
        while k < len(events) and events[k][0] <= t + 1e-12:
            lines.append(f"# event {events[k][1]} t={events[k][0]!r}")
            k += 1
        cells = [t] + [x for z in psi for x in (z.real, z.imag)]
        lines.append(", ".join(repr(float(x)) for x in cells))
    for t_ev, kind, _ in events[k:]:
        lines.append(f"# event {kind} t={t_ev!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# -------------------------------------------------------------- commands


def cmd_spectrum(sc, out_dir):
    H = _build_system(sc)
    spec = spectrum(H)
    states = find_cls(H, 2)
    kind = sc.system["kind"]
    blocks = None
    try:
        if kind in ("star", "seven"):
            pb = equitable_blocks_star(H) if kind == "star" \
                else nonequitable_blocks_seven(H)
            blocks = [sorted(np.linalg.eigvalsh(b).tolist())
                      for b in pb.blocks]
    except ValueError:
        blocks = None
    report = {
        "eigenvalues": spec.eigenvalues,
        "cls": [{"support": list(s.support),
                 "amplitudes": [float(x) for x in
                                np.real_if_close(s.vector[list(s.support)])],
                 "energy": s.energy} for s in states],
        "block_spectra": blocks,
    }
    _write_json(out_dir / "summary.json", _summary(sc, report=report))
    print(f"spectrum: {len(spec.eigenvalues)} eigenvalues, "
          f"{len(states)} compact states -> {out_dir / 'summary.json'}")
    return 0


def cmd_simulate(sc, out_dir):
    s = _build_protocol_schedule(sc)
    traj = run_schedule(s, s.initial_state,
                        samples_per_segment=sc.integrator[
                            "samples_per_segment"],
                        tol=sc.integrator["tol"])
    fid = fidelity(traj.final_state, s.target_state)
    T = s.duration
    report = {
        "events": [{"t": t, "type": kind, "detail": detail}
                   for t, kind, detail in traj.events],
        "samples": int(len(traj.times)),
        "schedule": sc.action["schedule"],
    }
    _write_trajectory(out_dir / "trajectory.csv", traj)
    _write_json(out_dir / "summary.json",
                _summary(sc, fidelity_=fid, T=T,
                         norm_drift=traj.norm_drift, report=report))
    print(f"simulate: fidelity {fid:.12f} over T={T:.6g} "
          f"-> {out_dir / 'summary.json'}")
    return 0


def cmd_optimize(sc, out_dir):
    act = sc.action
    name = act["problem"]
    problem = _problem_factory(name, sc.parameters)
    search_problem = problem if "n_steps" not in act else \
        _problem_factory(name, sc.parameters, n_steps=act["n_steps"])
    report = {"problem": name, "mode": act["mode"]}
    if act["mode"] == "evaluate":
        params = _reference_point(problem)
    elif act["mode"] == "refine":
        params, _ = crab.refine(search_problem,
                                crab.REFERENCE_PARAMS[name])
    else:
        res = crab.optimize_crab(search_problem,
                                 n_restarts=act["n_restarts"],
                                 seed=sc.seed, max_evals=act["max_evals"])
        params = res.best_params
        report["search"] = {
            "n_restarts": act["n_restarts"],
            "max_evals": act["max_evals"],
            "evaluations": res.evaluations,
            "log": list(res.log),
        }
    infid = crab.verify_infidelity(problem, params)
    report["params"] = {"x": list(params.x), "xp": list(params.xp),
                        "omega": list(params.omega),
                        "floor": params.floor, "horizon": params.horizon}
    times, table = crab.pulse_table(problem, params)
    lines = ["t, " + ", ".join(f"J_{n}" for n in sorted(table))]
    for i, t in enumerate(times):
        row = [repr(float(t))] + [repr(float(table[n][i]))
                                  for n in sorted(table)]
        lines.append(", ".join(row))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "pulses.csv").write_text("\n".join(lines) + "\n")
    _write_json(out_dir / "summary.json",
                _summary(sc, fidelity_=1.0 - infid, T=problem.horizon,
                         report=report))
    print(f"optimize[{act['mode']}]: verified infidelity {infid:.3e} "
          f"-> {out_dir / 'summary.json'}")
    return 0


def cmd_route(sc, out_dir):
    graph, H = _build_dll(sc)
    with _as_config_error():
        plans = [plan_route(graph, H, tuple(r["source"]),
                            tuple(r["destination"]), variant=r["variant"],
                            dt=r["dt"])
                 for r in sc.action["requests"]]
        tl = schedule_multi(plans)
    rep = simulate_route(graph, H, tl, tol=sc.integrator["tol"])
    routes = []
    for plan, start, fid, jumps, leak in zip(tl.routes, tl.starts, *(
            rep.fidelities, rep.per_jump, rep.leak_bound)):
        routes.append({
            "source": list(plan.source),
            "destination": list(plan.destination),
            "start": start,
            "duration": plan.duration,
            "hubs": [j.star.center for j in plan.jumps],
            "fidelity": fid,
            "per_jump": [{"t": t, "fidelity": f} for t, f in jumps],
            "leak_bound": leak,
        })
    report = {
        "routes": routes,
        "busy": [[{"star": c, "t0": a, "t1": b} for c, a, b in row]
                 for row in tl.busy],
        "delays_inserted": [s for s in tl.starts if s > 0],
        "makespan": tl.end,
    }
    worst = min(rep.fidelities) if rep.fidelities else None
    _write_json(out_dir / "summary.json",
                _summary(sc, fidelity_=worst, T=tl.end,
                         norm_drift=rep.norm_drift, report=report))
    print(f"route: {len(plans)} route(s), worst fidelity {worst:.12f}, "
          f"makespan {tl.end:.6g} -> {out_dir / 'summary.json'}")
    return 0


def cmd_verify(criterion, out_dir):
    ids = [criterion] if criterion else None
    try:
        reports = acceptance.run_all(ids)
    except KeyError as e:
        raise ConfigError(str(e.args[0])) from e
    table = []
    for r in reports:
        print(r.line())
        for c in r.checks:
            mark = "ok " if c.ok else "FAIL"
            print(f"    {mark} {c.name}: {c.value!r} (want {c.bound})")
        table.append({
            "cid": r.cid, "title": r.title, "passed": r.passed,
            "elapsed": r.elapsed, "norm_drift": r.norm_drift,
            "checks": [{"name": c.name, "ok": c.ok, "value": c.value,
                        "bound": c.bound} for c in r.checks],
        })
    all_passed = all(r.passed for r in reports)
    _write_json(out_dir / "verify.json",
                {"passed": all_passed, "criteria": table})
    if not all_passed:
        failed = ", ".join(r.cid for r in reports if not r.passed)
        print(f"FAILED: {failed}")
        return 4
    print("all criteria passed")
    return 0


# ------------------------------------------------------------------ main


@cache  # built once per process; each build costs about 1.5 ms
def _build_parser():
    p = argparse.ArgumentParser(
        prog="clsnet",
        description="Stored-state networks: spectra, transfer protocols, "
                    "pulse optimization, lattice routing, verification.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_config in (("spectrum", True), ("simulate", True),
                               ("optimize", True), ("route", True),
                               ("verify", False)):
        q = sub.add_parser(name)
        if needs_config:
            q.add_argument("--config", required=True,
                           help="path to a JSON scenario")
            q.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
            q.add_argument("--tol", type=float, default=None,
                           help="override the integrator tolerance")
        q.add_argument("--out", default=None,
                       help="output directory (default: config output.dir)")
        if name == "verify":
            q.add_argument("--criterion", default=None,
                           help="run a single criterion, e.g. C7")
    return p


def _apply_overrides(sc, args):
    changed = sc.as_dict()
    if args.seed is not None:
        changed["seed"] = args.seed
    if args.tol is not None:
        changed["integrator"] = dict(changed["integrator"], tol=args.tol)
    if args.out is not None:
        changed["output"] = {"dir": args.out}
    return parse_config(json.dumps(changed), source="<overrides>")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # an overflowed number is a numerical failure, never a result
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "verify":
                return cmd_verify(args.criterion, Path(args.out or "."))
            sc = _apply_overrides(load_config(args.config), args)
            _expect(sc.action["kind"] == args.command, "action.kind",
                    f"the config asks for {sc.action['kind']!r}, but the "
                    f"command is {args.command!r}")
            handler = {"spectrum": cmd_spectrum, "simulate": cmd_simulate,
                       "optimize": cmd_optimize, "route": cmd_route}
            return handler[args.command](sc, Path(sc.output["dir"]))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError, RuntimeError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
