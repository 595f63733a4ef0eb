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
import operator
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple, Optional

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

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "cmd_spectrum",
           "cmd_simulate", "cmd_optimize", "cmd_route", "cmd_verify", "main"]

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

    def digest(self):
        # output.dir says where results go, not what is computed, so
        # runs that differ only in destination share a digest
        keyed = {k: v for k, v in vars(self).items() if k != "output"}
        text = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------- grammar

_REQUIRED, _OMIT = object(), object()


class _Key(NamedTuple):
    """One config key.

    ``type`` is float, int or str; ``"pair"`` (two site indices);
    ``"couplings"`` (one finite number per network edge); the name of
    a ``_GRAMMAR`` section, or ``[name]`` for a non-empty list of
    them; or a dict of choices, each mapped to the conditions it
    needs.  ``default`` may be a function of the choices made so far.
    ``bounds`` are (operator, value) pairs.  ``only`` lists conditions
    ``(choice, *accepted values)``; a choice is named by its key, a
    ``kind`` by its section, and one not made is None.  A key is
    admitted only where a command reads it.
    """

    type: object
    default: object = _REQUIRED
    bounds: tuple = ()
    only: tuple = ()


def _reference_J(ctx):
    """J of an action that starts from a reference pulse: the J that
    pulse was made at.  Otherwise the star's."""
    if "problem" in ctx and ctx.get("mode") != "search":
        return crab.REFERENCE_PARAMS[ctx["problem"]].floor
    return 0.25


_STAR, _SEVEN, _DLL = ((("system", k),) for k in ("star", "seven", "dll"))
_STAR_SEVEN = (("system", "star", "seven"),)
_TRANSFER = ("variant", *TRANSFER_VARIANTS)
_GENERATION = ("variant", "generation", "reverse-generation",
               "piecewise-transfer")
_OPTIMIZE = (("action", "optimize"),)
_SEARCH = _OPTIMIZE + (("mode", "search"),)
_PROBLEMS = {name: (("system", name.split("-")[0]),)
             for name in crab.REFERENCE_PARAMS}

_GRAMMAR = {
    # the action before the parameters: a reference pulse sets J's default
    "config": {
        "system": _Key("system"),
        "action": _Key("action"),
        "parameters": _Key("parameters", {}),
        "integrator": _Key("integrator", {}),
        "seed": _Key(int, None),
        "output": _Key("output", {}),
    },
    "system": {
        "kind": _Key({"star": (), "seven": (), "dll": ()}),
        "cells_x": _Key(int, bounds=((">=", 1),), only=_DLL),
        "cells_y": _Key(int, bounds=((">=", 1),), only=_DLL),
    },
    "action": {
        "kind": _Key({"spectrum": (), "simulate": _STAR_SEVEN,
                      "optimize": _STAR_SEVEN, "route": _DLL}),
        "schedule": _Key("schedule", only=(("action", "simulate"),)),
        "problem": _Key(_PROBLEMS, only=_OPTIMIZE),
        "mode": _Key(dict.fromkeys(("evaluate", "refine", "search"), ()),
                     "evaluate", only=_OPTIMIZE),
        "n_restarts": _Key(int, 32, ((">=", 1),), _SEARCH),
        "max_evals": _Key(int, 20000, ((">=", 10),), _SEARCH),
        "n_steps": _Key(int, _OMIT, ((">=", 8),),
                        _OPTIMIZE + (("mode", "refine", "search"),)),
        "requests": _Key(["request"], only=(("action", "route"),)),
    },
    "schedule": {
        "variant": _Key({**dict.fromkeys(TRANSFER_VARIANTS, _STAR_SEVEN),
                         **dict.fromkeys(_GENERATION[1:], _STAR),
                         "optimized": (), "hold": _STAR_SEVEN}),
        "k1": _Key(int, only=(_TRANSFER, *_STAR)),
        "k2": _Key(int, bounds=((">=", 0),), only=(_TRANSFER, *_STAR)),
        "k": _Key(int, bounds=((">=", 0),), only=(_TRANSFER, *_SEVEN)),
        "branch": _Key(int, bounds=((">=", 1), ("<=", 2)),
                       only=(_GENERATION,)),
        "k1p": _Key(int, only=(_GENERATION,)),
        "k2p": _Key(int, only=(_GENERATION,)),
        "problem": _Key(_PROBLEMS, only=(("variant", "optimized"),)),
        "T": _Key(float, 0.0, ((">=", 0),), (("variant", "hold"),)),
    },
    "request": {
        "source": _Key("pair"),
        "destination": _Key("pair"),
        "variant": _Key(dict.fromkeys(TRANSFER_VARIANTS, ()),
                        "phase-flip-transfer"),
        "dt": _Key(float, 1.0, ((">", 0),)),
    },
    "parameters": {
        "J": _Key(float, _reference_J),
        "v": _Key(float, 0.5),
        "couplings": _Key("couplings", _OMIT, only=(
            ("action", "spectrum", "simulate"), ("variant", None, "hold"),
            *_STAR_SEVEN)),
        "J_prime": _Key(float, _OMIT, only=(*_STAR, _GENERATION)),
        "J_inner": _Key(float, _OMIT, only=(
            *_SEVEN, ("variant", None, "hold", "optimized"),
            ("problem", None, "seven-transfer"))),
    },
    "integrator": {
        "tol": _Key(float, 1e-11, ((">=", 1e-14), ("<=", 1e-6))),
        "samples_per_segment": _Key(int, 33, ((">=", 2),)),
    },
    "output": {"dir": _Key(str, ".")},
}
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _expect(cond, where, msg):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _is_finite_number(v):
    # json reads NaN and Infinity as floats; bool is a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _refusal(conditions, ctx):
    """Why the choices in ``ctx`` rule out what ``conditions`` guard,
    or None when they allow it."""
    for choice, *accepted in conditions:
        made = ctx.get(choice)
        if made not in accepted:
            on = [ctx["action"]] if "action" in ctx else []
            if made and choice != "action":
                on.append(f"{made} {choice}s")
            return (f"does not run on {' with '.join(on)}, only on "
                    f"{' or '.join(filter(None, accepted))} {choice}s")
    return None


def _walk(raw, where, section, ctx):
    """Check ``raw`` against ``_GRAMMAR[section]`` and fill in its
    defaults; ``ctx`` collects the choices made so far."""
    _expect(isinstance(raw, dict), where, "must be an object")
    table = _GRAMMAR[section]
    _expect(set(raw) <= set(table), where,
            f"unknown keys {sorted(set(raw) - set(table))}")
    out = {}
    for key, rule in table.items():
        why = _refusal(rule.only, ctx)
        if why:
            _expect(key not in raw, where, f"{key} {why}")
            continue
        v = raw.get(key, rule.default)
        v = v(ctx) if callable(v) else v
        if v is not _OMIT:
            _expect(v is not _REQUIRED, where, f"missing required key {key!r}")
            out[key] = _value(v, rule, key, where, ctx)
            if isinstance(rule.type, dict):
                ctx[section if key == "kind" else key] = out[key]
    return out


def _value(v, rule, key, where, ctx):
    """``v`` checked against ``rule`` and normalized."""
    t, path = rule.type, key if where == "config" else f"{where}.{key}"
    if v is None and rule.default is None:
        return None  # null is accepted only where it is the default
    if isinstance(t, dict):
        _expect(isinstance(v, str) and v in t, path,
                f"must be one of {tuple(t)}")
        why = _refusal(t[v], ctx)
        _expect(not why, path, f"{v} {why}")
        return v
    if isinstance(t, list):
        _expect(isinstance(v, list) and v, path, "must be a non-empty list")
        return [_walk(x, f"{path}[{i}]", t[0], ctx) for i, x in enumerate(v)]
    if t in _GRAMMAR:
        return _walk(v, path, t, ctx)
    if t == "couplings":
        n = 4 if ctx["system"] == "star" else 6
        _expect(isinstance(v, list) and len(v) == n
                and all(map(_is_finite_number, v)), path,
                f"must be a list of {n} finite numbers")
        return [float(x) for x in v]
    if t == "pair":
        _expect(isinstance(v, list) and len(v) == 2
                and all(map(_is_integer, v)), path,
                "expected a pair of site indices")
        return list(v)
    if t is str:
        _expect(isinstance(v, str), path, "must be a string")
        return v
    _expect(_is_finite_number(v) if t is float else _is_integer(v), where,
            f"{key} must be " + ("a finite number" if t is float
                                 else "an integer"))
    for op, bound in rule.bounds:
        _expect(_OPS[op](v, bound), where, f"{key} must be {op} {bound}")
    return float(v) if t is float else v


def parse_config(text, source="config"):
    """Parse and validate a JSON scenario into a ScenarioConfig.

    Raises ConfigError with a line-anchored message on malformed JSON
    and a key-path message on schema violations.
    """
    sc = _parse(text, source)
    _expect(sc.action.get("mode") != "search" or sc.seed is not None
            and sc.seed >= 0, "seed",
            "a search action draws random bases; set a seed >= 0")
    return sc


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e


def _parse(text, source):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{source}:{e.lineno}:{e.colno}: {e.msg}") from e
    return ScenarioConfig(**_walk(raw, "config", "config", {}))


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
        _expect("couplings" not in p or "J_inner" not in p, "parameters",
                f"{sc.action['kind']} reads couplings or J_inner, not both")
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
def _problem_factory(name, p):
    factory = {"star-transfer": crab.star_transfer,
               "star-creation": crab.star_creation,
               "seven-transfer": crab.seven_transfer,
               "seven-creation": crab.seven_creation}[name]
    return factory(**p)  # J and v, and J_inner where the grammar admits it


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


def _jsonable(obj):
    """What json writes for a value it cannot: a numpy array or scalar
    as its list or number, a complex as {re, im}, a Fraction as float."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return float(obj) if isinstance(obj, Fraction) else obj.tolist()


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_jsonable) + "\n")


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
    with suppress(ValueError):  # no block split: blocks stay None
        if kind in ("star", "seven"):
            pb = equitable_blocks_star(H) if kind == "star" \
                else nonequitable_blocks_seven(H)
            blocks = [sorted(np.linalg.eigvalsh(b).tolist())
                      for b in pb.blocks]
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
    search_problem = replace(problem, n_steps=act.get("n_steps",
                                                     problem.n_steps))
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
    report["params"] = asdict(params)
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
        "busy": [[{"star": j.star.center, "t0": t0, "t1": t1}
                  for j, t0, *_, t1 in row] for row in tl.windows],
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
    _expect(criterion in (None, *acceptance.CRITERION_IDS), "--criterion",
            f"unknown criterion {criterion!r}; known: "
            f"{', '.join(acceptance.CRITERION_IDS)}")
    reports = acceptance.run_all([criterion] if criterion else None)
    for r in reports:
        print(r.line())
        for c in r.checks:
            mark = "ok " if c.ok else "FAIL"
            print(f"    {mark} {c.name}: {c.value!r} (want {c.bound})")
    all_passed = all(r.passed for r in reports)
    _write_json(out_dir / "verify.json",
                {"passed": all_passed,
                 "criteria": [asdict(r) for r in reports]})
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


def _apply_overrides(args):
    """The scenario at --config under the command line's overrides:
    --seed and --tol re-walk it, --out (a str, all output.dir asks) is
    set as it is, and parse_config's search-seed check runs once."""
    text, source = _read(args.config), str(args.config)
    if args.seed is not None or args.tol is not None:
        changed = asdict(_parse(text, source))
        if args.seed is not None:
            changed["seed"] = args.seed
        if args.tol is not None:
            changed["integrator"] = dict(changed["integrator"], tol=args.tol)
        text, source = json.dumps(changed), "<overrides>"
    sc = parse_config(text, source)
    return sc if args.out is None else replace(sc, output={"dir": args.out})


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # an overflowed number is a numerical failure, never a result
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "verify":
                return cmd_verify(args.criterion, Path(args.out or "."))
            sc = _apply_overrides(args)
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
