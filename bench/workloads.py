"""The three benchmark workloads: seeded inputs, ops and their checks.

Every workload is one closed loop in one process: the next op starts
when the previous one has returned.  An op either drives the command
line in-process through ``clsnet.cli.main`` or calls ``clsnet.routing``
directly, and its output is checked before the next op starts.  An op
that fails its check counts as failed; nothing is filtered out.

Ops come in passes.  A pass is the smallest unit of work that covers
every op kind of a workload once.  ``pass_seconds`` is a pass's
nominal wall time on a two-vCPU KVM guest, from which run.py sets the
number of passes in a run.  ``work_metric`` names the rate that stands
for the workload in the final line as ``work_per_s``.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from clsnet import cli, crab, lattice, routing

# Passes generated per run.  No workload gets near this within the
# longest run the launcher allows (60 s).
MAX_PASSES = 64

# Output checks, taken from the repository's own bounds.
CRAB_INFIDELITY_MAX = 1e-6      # CLI 32-restart search test
ROUTE_FIDELITY_MIN = 1 - 1e-8   # acceptance criterion C12

DLL_J, DLL_V = 0.25, 0.5


def dll(cells):
    """(graph, H) of the cells x cells decorated Lieb lattice."""
    return lattice.build_dll(cells, cells, DLL_J, DLL_V)


@dataclass
class Op:
    """Outcome of one timed op."""

    kind: str
    seconds: float
    ok: bool
    # the output contradicts an independent check (see run.py)
    wrong: bool = False
    # units of checked work: objective evaluations, delivered jumps or
    # certified compact states
    work: int = 0
    out_bytes: int = 0
    note: str = ""
    # summary.json exactly as the command wrote it
    summary: str = field(default=None, repr=False)
    # mean time of the host reference around and during the op (run.py)
    host_s: float = None


class Context:
    """Per-run scratch directory for CLI configs and outputs, and the
    clock that times ops."""

    def __init__(self, scratch, clock=time.perf_counter):
        self.scratch = scratch
        self.clock = clock
        self.count = 0

    def run_cli(self, command, doc):
        """Run ``clsnet <command>`` on ``doc`` in-process and time it.

        Returns (exit code, seconds, summary.json text or None, bytes
        written, captured stderr).  Only the ``cli.main`` call is timed,
        on the context's clock; writing the config and reading the
        summary back are not.
        """
        self.count += 1
        work = self.scratch / f"op{self.count}"
        work.mkdir()
        config = work / "config.json"
        config.write_text(json.dumps(doc))
        out = work / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t0 = self.clock()
            try:
                code = cli.main([command, "--config", str(config),
                                 "--out", str(out)])
            except Exception as e:
                # a bug that escapes the command's own error handling
                # fails this op and the run goes on
                code = f"uncaught {type(e).__name__}"
                print(e, file=stderr)
            seconds = self.clock() - t0
        summary = (out / "summary.json").read_text() if code == 0 else None
        nbytes = sum(f.stat().st_size for f in out.iterdir()) \
            if out.is_dir() else 0
        shutil.rmtree(work)
        return code, seconds, summary, nbytes, stderr.getvalue().strip()


def _median(unit, samples):
    """(unit, median, sample count); NaN when there is no sample."""
    value = statistics.median(samples) if samples else float("nan")
    return unit, value, len(samples)


def _rate(ops):
    """Checked work per second of op wall time, over every op."""
    seconds = sum(op.seconds for op in ops)
    return "1/s", sum(op.work for op in ops) / seconds, len(ops)


def _failure(code, err):
    return f"exit {code}: {err.splitlines()[-1] if err else ''}"


# ------------------------------------------------------------ crab-search
#
# Why: nearly all of its time goes to crab objective calls, which run
# evolve's fixed-step CF4 integrator on lattice.evaluate_grid output at
# n = 5 (star) and n = 7 (seven-site unit).  It runs no routing and no
# spectral code.  The two op kinds keep apart a star-only special case
# of the objective and the generic path the seven-site kinds keep.

CRAB_KINDS = {
    # kind: (system, n_steps, n_restarts, max_evals)
    "star-creation": ("star", 128, 4, 1000),
    "seven-creation": ("seven", 256, 2, 1000),
}


def crab_doc(kind, seed, n_restarts=None, max_evals=None):
    system, n_steps, restarts, evals = CRAB_KINDS[kind]
    return {
        "system": {"kind": system},
        "action": {"kind": "optimize", "problem": kind, "mode": "search",
                   "n_restarts": n_restarts or restarts,
                   "max_evals": max_evals or evals, "n_steps": n_steps},
        "seed": seed,
    }


class CrabSearch:
    name = "crab-search"
    covers = {"crab"}
    work_metric = "mix_evals_per_s"
    pass_seconds = 8.5

    def __init__(self):
        # the problems the command builds from a config without
        # parameters (J 0.25, v 0.5), at native resolution
        self.problems = {"star-creation": crab.star_creation(J=0.25, v=0.5),
                         "seven-creation": crab.seven_creation(J=0.25,
                                                               v=0.5)}

    def enough(self, passes):
        return bool(passes)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return [[crab_doc(kind, int(rng.integers(2**31)))
                 for kind in CRAB_KINDS]
                for _ in range(MAX_PASSES)]

    def warm_up(self, ctx, inputs):
        # one search of each kind with one restart: every code path of
        # an op, at a fraction of its cost
        for doc in inputs[0]:
            act = doc["action"]
            ctx.run_cli("optimize", crab_doc(act["problem"], doc["seed"],
                                             n_restarts=1, max_evals=100))

    def run_op(self, ctx, doc):
        kind = doc["action"]["problem"]
        code, seconds, text, nbytes, err = ctx.run_cli("optimize", doc)
        if code != 0:
            return Op(kind, seconds, False, out_bytes=nbytes,
                      note=_failure(code, err))
        summary = json.loads(text)
        infid = summary["infidelity"]
        # the reported pulse must give the reported infidelity
        again = crab.verify_infidelity(self.problems[kind],
                                       crab.CrabParams(**summary["report"]
                                                       ["params"]))
        wrong = abs(again - infid) > 1e-12
        ok = not wrong and infid <= CRAB_INFIDELITY_MAX
        note = f"reported infidelity {infid!r}, re-evaluated {again!r}" \
            if wrong else "" if ok else f"infidelity {infid!r}"
        return Op(kind, seconds, ok, wrong=wrong,
                  work=summary["report"]["search"]["evaluations"],
                  out_bytes=nbytes, summary=text, note=note)

    def metrics(self, passes):
        ops = [op for ops in passes for op in ops]
        out = {f"search_s.{kind}": _median("s", [op.seconds for op in ops
                                                 if op.kind == kind])
               for kind in CRAB_KINDS}
        out["evals_per_s"] = _rate(ops)
        # The same rate for a mix of one evaluation of each kind.  A
        # seven-site evaluation costs about three star ones, and the
        # share of each kind in a run's evaluations varies with the
        # seed; this rate does not.
        per_eval = [sum(op.seconds for op in ops if op.kind == kind)
                    / sum(op.work for op in ops if op.kind == kind)
                    for kind in CRAB_KINDS]
        out["mix_evals_per_s"] = ("1/s", len(per_eval) / sum(per_eval),
                                  len(ops))
        out["pass_s"] = _median("s", [sum(op.seconds for op in p)
                                      for p in passes])
        return out


# ------------------------------------------------------------ dll-routing
#
# Why: nearly all of its time goes to routing.simulate_route, which runs
# evolve.run_schedule calibration on 45x45 ramp segments.  It runs no
# crab code.  Its 45-site exponentials contrast with the 5- and 7-site
# ones of crab-search, so a rewrite of the exponential that helps one and
# hurts the other shows.
#
# Each request of a set is one dimer-jump, and the two requests get the
# two ramp times 1 and 2 in a random order.  Routes of several jumps made
# a set cost 5 to 24 s, too few sets per run for a steady median; two
# concurrent single jumps with different ramp times are what the
# schedule_multi defect needs (two ramps that drive one entry to
# different values), and the sets that hit it exit 2 and count as failed.

DLL_CELLS = 3
DLL_REQUESTS = 2
DLL_RAMPS = (1, 2)


def route_doc(cells, requests):
    return {
        "system": {"kind": "dll", "cells_x": cells, "cells_y": cells},
        "parameters": {"J": DLL_J, "v": DLL_V},
        "action": {"kind": "route", "requests": requests},
    }


def single_jumps(graph):
    """Every (source, destination) dimer pair one jump apart."""
    adjacency = routing.dimer_adjacency(graph)
    return [(src, dst) for src in graph.dimers()
            for _, dst in adjacency[src]]


class DllRouting:
    name = "dll-routing"
    covers = {"routing-sim"}
    work_metric = "jumps_per_s"
    pass_seconds = 5.0

    def __init__(self):
        graph, _ = dll(DLL_CELLS)
        self.jumps = single_jumps(graph)

    def enough(self, passes):
        # route_set_s needs one set that went through
        return any(op.ok for ops in passes for op in ops)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        sets = []
        for _ in range(MAX_PASSES):
            used, requests = set(), []
            for dt in rng.permutation(DLL_RAMPS):
                # no dimer repeats within a set
                free = [j for j in self.jumps if not used & set(j)]
                src, dst = free[rng.integers(len(free))]
                used |= {src, dst}
                requests.append({"source": list(src),
                                 "destination": list(dst), "dt": int(dt)})
            sets.append([route_doc(DLL_CELLS, requests)])
        return sets

    def warm_up(self, ctx, inputs):
        # the first request of the first set on its own
        doc = inputs[0][0]
        ctx.run_cli("route", route_doc(DLL_CELLS,
                                       doc["action"]["requests"][:1]))

    def run_op(self, ctx, doc):
        code, seconds, text, nbytes, err = ctx.run_cli("route", doc)
        if code != 0:
            return Op("route-set", seconds, False, out_bytes=nbytes,
                      note=_failure(code, err))
        routes = json.loads(text)["report"]["routes"]
        asked = [(r["source"], r["destination"])
                 for r in doc["action"]["requests"]]
        # the report must answer the requests that were made
        wrong = [(r["source"], r["destination"]) for r in routes] != asked
        fids = [r["fidelity"] for r in routes]
        ok = not wrong and min(fids) >= ROUTE_FIDELITY_MIN
        jumps = sum(1 for r in routes for j in r["per_jump"]
                    if j["fidelity"] >= ROUTE_FIDELITY_MIN)
        note = "report does not match the requests" if wrong else \
            "" if ok else f"worst fidelity {min(fids)!r}"
        return Op("route-set", seconds, ok, wrong=wrong, work=jumps,
                  out_bytes=nbytes, summary=text, note=note)

    def metrics(self, passes):
        ops = [op for ops in passes for op in ops]
        out = {"route_set_s": _median("s", [op.seconds for op in ops
                                            if op.ok]),
               "jumps_per_s": _rate(ops)}
        return out


# --------------------------------------------------------- lattice-survey
#
# Why: it covers spectral.find_cls, whose support scan grows with the
# lattice, and the routing planner, each under 1% of the other two
# workloads.  It uses routing differently from dll-routing: many
# requests, planning only, no integrator.  The plan op builds the
# schedule of its timeline but does not run it.

SURVEY_SIZES = (3, 4, 5, 6)
SURVEY_REQUESTS = 50


def spectrum_doc(cells):
    return {
        "system": {"kind": "dll", "cells_x": cells, "cells_y": cells},
        "parameters": {"J": DLL_J, "v": DLL_V},
        "action": {"kind": "spectrum"},
    }


def draw_requests(rng, dimers, count):
    """``count`` (source, destination, dt) triples, source != destination."""
    out = []
    for _ in range(count):
        a, b = rng.choice(len(dimers), 2, replace=False)
        out.append((dimers[a], dimers[b], float(rng.choice([1, 2]))))
    return out


def plan_op(graph, H, requests):
    """Plan, schedule and check one request batch; return (ok, wrong, note).

    ``verify_timeline`` raising means the scheduler emitted a timeline
    that breaks its own rule, a wrong output.  An exception from the
    planner, or ``timeline_schedule`` refusing an accepted timeline,
    fails the op.
    """
    try:
        plans = [routing.plan_route(graph, H, s, d, dt=dt)
                 for s, d, dt in requests]
        tl = routing.schedule_multi(plans)
    except Exception as e:
        # a bug in the planner fails this op and the run goes on
        return False, False, f"schedule_multi: {type(e).__name__} {e}"
    try:
        routing.verify_timeline(tl)
    except ValueError as e:
        return False, True, f"verify_timeline: {e}"
    try:
        routing.timeline_schedule(graph, H, tl)
    except ValueError as e:
        return False, False, f"timeline_schedule: {e}"
    return True, False, ""


class LatticeSurvey:
    name = "lattice-survey"
    covers = {"spectral", "routing-plan"}
    work_metric = "cls_per_s"
    pass_seconds = 4.3

    def __init__(self):
        self.lattices = {L: dll(L) for L in SURVEY_SIZES}

    def enough(self, passes):
        return bool(passes)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        passes = []
        for _ in range(MAX_PASSES):
            ops = []
            for L in SURVEY_SIZES:
                dimers = self.lattices[L][0].dimers()
                ops.append(("spectrum", L, spectrum_doc(L)))
                ops.append(("plan", L,
                            draw_requests(rng, dimers, SURVEY_REQUESTS)))
            passes.append(ops)
        return passes

    def warm_up(self, ctx, inputs):
        for op in inputs[0][:2]:   # both ops at the smallest size
            self.run_op(ctx, op)

    def run_op(self, ctx, op):
        what, L, payload = op
        kind = f"{what}.L{L}"
        if what == "spectrum":
            code, seconds, text, nbytes, err = ctx.run_cli("spectrum",
                                                           payload)
            if code != 0:
                return Op(kind, seconds, False, out_bytes=nbytes,
                          note=_failure(code, err))
            found = len(json.loads(text)["report"]["cls"])
            ok = found == 2 * L * L
            return Op(kind, seconds, ok, wrong=not ok,
                      work=found if ok else 0, out_bytes=nbytes,
                      summary=text,
                      note="" if ok else f"{found} compact states")
        graph, H = self.lattices[L]
        t0 = ctx.clock()
        ok, wrong, note = plan_op(graph, H, payload)
        seconds = ctx.clock() - t0
        return Op(kind, seconds, ok, wrong=wrong, note=note)

    def metrics(self, passes):
        def per_pass(what):
            return _median("s", [sum(op.seconds for op in p
                                     if op.kind.startswith(what))
                                 for p in passes])
        out = {"spectrum_s": per_pass("spectrum."),
               "plan_s": per_pass("plan."),
               "cls_per_s": _rate([op for p in passes for op in p])}
        out["pass_s"] = per_pass("")
        return out


WORKLOADS = {w.name: w for w in (CrabSearch, DllRouting, LatticeSurvey)}
