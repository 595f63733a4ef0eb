"""Spans around calls into clsnet's modules, and the per-layer metrics.

Tracing wraps public functions from outside: for the length of a traced
run, module attributes are replaced by wrappers that record a span per
call, and the originals are put back afterwards.  Nothing inside the
package changes.  A function imported by name into another module is
wrapped where that module looks it up.

A span is [name, start, end, parent index, op id, attributes, error];
spans are kept in a list and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from clsnet import cli, crab, evolve, lattice, routing, spectral

import workloads as wl

NAME, START, END, PARENT, OP, ATTRS, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrap(self, name, fn, attrs):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.op,
                    attrs(*args, **kwargs), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, attrs in _TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "attrs", "error")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _no_attrs(*args, **kwargs):
    return {}


def _kind(problem, *args, **kwargs):
    return {"kind": problem.kind}


def _n(H, *args, **kwargs):
    return {"n": H.n_sites}


def _n_schedule(s, *args, **kwargs):
    return {"n": s.base.n_sites}


def _n_routes(routes):
    return {"routes": len(routes)}


# (module, attribute, span name, attributes of a call)
_TARGETS = [
    (cli, "main", "cli.main", _no_attrs),
    (cli, "parse_config", "cli.parse_config", _no_attrs),
    (cli, "find_cls", "spectral.find_cls", _n),
    (cli, "plan_route", "routing.plan_route", _no_attrs),
    (cli, "schedule_multi", "routing.schedule_multi", _n_routes),
    (cli, "simulate_route", "routing.simulate_route", _no_attrs),
    (crab, "optimize_crab", "crab.optimize_crab", _kind),
    (crab, "infidelity_objective", "crab.infidelity_objective", _kind),
    (crab, "verify_infidelity", "crab.verify_infidelity", _kind),
    (crab, "assemble_hamiltonian", "crab.assemble_hamiltonian", _kind),
    (crab, "evolve_timedep_fixed", "evolve.evolve_timedep_fixed", _n),
    (evolve, "evolve_timedep_fixed", "evolve.evolve_timedep_fixed", _n),
    (evolve, "evaluate_grid", "lattice.evaluate_grid", _n),
    (evolve, "run_schedule", "evolve.run_schedule", _n_schedule),
    (lattice, "evaluate_grid", "lattice.evaluate_grid", _n),
    (routing, "run_schedule", "evolve.run_schedule", _n_schedule),
    (routing, "plan_route", "routing.plan_route", _no_attrs),
    (routing, "schedule_multi", "routing.schedule_multi", _n_routes),
    (routing, "verify_timeline", "routing.verify_timeline", _no_attrs),
    (routing, "timeline_schedule", "routing.timeline_schedule", _no_attrs),
    (routing, "simulate_route", "routing.simulate_route", _no_attrs),
]


# ------------------------------------------------------------------ probes
#
# Fixed inputs, the same for every workload and seed.  The evolve and
# lattice probes always run.  The op probes run only for the layers the
# workload's own ops do not reach, so that every traced run reports
# every per-layer metric.

# fixed-step resolution per matrix size: the crab-search resolution for
# the star (5) and the seven-site unit (7), and the finer run of the
# calibration pair for a 45-site ramp
PROBE_STEPS = {5: 128, 7: 256, 45: 128}
PROBE_REPEATS = {5: 100, 7: 60, 45: 8}
RAMP_REPEATS = 3
RAMP_TOL = 1e-11
RAMP_HUB = 20        # the middle hub of the 3x3 lattice
PROBE_SEED = 0


def _probe_inputs():
    """(H, psi0, duration) per matrix size, and the ramp segment."""
    out = {}
    for problem in (crab.star_creation(), crab.seven_creation()):
        ref = crab.REFERENCE_PARAMS[problem.kind]
        H = crab.assemble_hamiltonian(problem, ref)
        out[H.n_sites] = (H, problem.initial_state, ref.horizon)
    graph, H = wl.dll(wl.DLL_CELLS)
    star = routing.extract_star(graph, H, RAMP_HUB)
    seg = routing.build_ramp(H, star.boundary_entries, "down", 1.0)
    psi = spectral.dimer_state(H.n_sites, star.dimer_in)
    out[H.n_sites] = (seg.H, psi, seg.duration)
    return out, seg


def layer_probes(tracer):
    """Time evaluate_grid, fixed-step propagation and one ramp segment."""
    inputs, seg = _probe_inputs()
    for n, (H, psi0, T) in inputs.items():
        steps = PROBE_STEPS[n]
        nodes = (np.arange(steps) + 0.5) * (T / steps)
        tracer.op = f"probe.fixed.n{n}"
        for _ in range(PROBE_REPEATS[n]):
            evolve.evolve_timedep_fixed(H, psi0, 0.0, T, steps)
        tracer.op = f"probe.grid.n{n}"
        for _ in range(PROBE_REPEATS[n]):
            lattice.evaluate_grid(H, nodes)
    tracer.op = "probe.ramp"
    sched = evolve.ProtocolSchedule(
        lattice.TimedHamiltonian(seg.H.base, {}), (seg,))
    for _ in range(RAMP_REPEATS):
        evolve.run_schedule(sched, inputs[seg.H.n_sites][1], tol=RAMP_TOL)
    tracer.op = None


def op_probes(tracer, ctx, covered):
    """One fixed op for each layer the workload's ops leave untouched."""
    if "crab" not in covered:
        for kind in wl.CRAB_KINDS:
            tracer.op = f"probe.{kind}"
            ctx.run_cli("optimize", wl.crab_doc(kind, PROBE_SEED,
                                                n_restarts=1, max_evals=60))
    if "routing-sim" not in covered:
        graph, _ = wl.dll(wl.DLL_CELLS)
        src, dst = wl.single_jumps(graph)[0]
        tracer.op = "probe.route"
        ctx.run_cli("route", wl.route_doc(wl.DLL_CELLS, [
            {"source": list(src), "destination": list(dst), "dt": 1}]))
    if "spectral" not in covered:
        for L in wl.SURVEY_SIZES:
            tracer.op = f"probe.spectrum.L{L}"
            ctx.run_cli("spectrum", wl.spectrum_doc(L))
    if "routing-plan" not in covered:
        graph, H = wl.dll(wl.DLL_CELLS)
        requests = wl.draw_requests(np.random.default_rng(PROBE_SEED),
                                    graph.dimers(), wl.SURVEY_REQUESTS)
        tracer.op = "probe.plan"
        wl.plan_op(graph, H, requests)
    tracer.op = None


# ----------------------------------------------------------------- metrics


def _dur(span):
    return span[END] - span[START]


def _median(values):
    return statistics.median(values) if values else float("nan")


def layer_metrics(spans, first_pass_ops):
    """Per-layer metrics from the spans of one traced run.

    Times are medians over every matching span of the run, probes
    included.  Counts cover only the workload's first pass (op ids in
    ``first_pass_ops``) and the probes, which the seed fixes, so they
    repeat exactly between runs.
    """
    def counted(span):
        return span[OP] in first_pass_ops \
            or str(span[OP]).startswith("probe.")

    by_name, children = {}, {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append((i, s))
        children.setdefault(s[PARENT], []).append(s)

    def indexed(name, op_prefix=None, **attrs):
        return [(i, s) for i, s in by_name.get(name, ())
                if all(s[ATTRS].get(k) == v for k, v in attrs.items())
                and (op_prefix is None
                     or str(s[OP]).startswith(op_prefix))]

    def select(name, op_prefix=None, **attrs):
        return [s for _, s in indexed(name, op_prefix, **attrs)]

    def ms(name, **attrs):
        return ("ms", 1e3 * _median([_dur(s) for s in select(name, **attrs)]))

    def sec(name, **attrs):
        return ("s", _median([_dur(s) for s in select(name, **attrs)]))

    out = {}
    for kind in wl.CRAB_KINDS:
        out[f"crab.objective_ms.{kind}"] = ms("crab.infidelity_objective",
                                              kind=kind)
        out[f"crab.assemble_ms.{kind}"] = ms("crab.assemble_hamiltonian",
                                             kind=kind)
        out[f"crab.verify_ms.{kind}"] = ms("crab.verify_infidelity",
                                           kind=kind)
        out[f"crab.evaluations.{kind}"] = ("count", sum(
            1 for s in select("crab.infidelity_objective", kind=kind)
            if counted(s)))
        # self time: the search span minus its objective calls
        selfs = []
        for i, s in indexed("crab.optimize_crab", kind=kind):
            selfs.append(_dur(s) - sum(_dur(c) for c in children.get(i, ())))
        out[f"crab.search_self_s.{kind}"] = ("s", _median(selfs))

    for n, steps in PROBE_STEPS.items():
        out[f"evolve.fixed_ms.n{n}"] = ms("evolve.evolve_timedep_fixed",
                                          op_prefix=f"probe.fixed.n{n}")
        out[f"lattice.evaluate_grid_ms.n{n}"] = ms(
            "lattice.evaluate_grid", op_prefix=f"probe.grid.n{n}")
        # computed, not timed: two exponentials per CF4 step
        fixed_s = out[f"evolve.fixed_ms.n{n}"][1] / 1e3
        out[f"evolve.exp_per_s.n{n}"] = ("1/s", 2 * steps / fixed_s)
    out["evolve.ramp_segment_s"] = sec("evolve.run_schedule",
                                       op_prefix="probe.ramp")

    # simulate_route raises at once on a timeline it cannot run; only
    # the calls that ran a route time the integrator
    out["routing.simulate_route_s"] = ("s", _median(
        [_dur(s) for s in select("routing.simulate_route")
         if s[ERROR] is None]))
    out["routing.timeline_schedule_ms"] = ms("routing.timeline_schedule")
    out["routing.plan_route_ms"] = ms("routing.plan_route")
    out["routing.schedule_multi_ms"] = ms("routing.schedule_multi",
                                          routes=wl.SURVEY_REQUESTS)
    # accepted by schedule_multi and verify_timeline, refused when built
    rejected = 0
    for i, s in indexed("routing.timeline_schedule"):
        if counted(s) and s[ERROR] \
                and not any(c[ERROR] for c in children.get(i, ())):
            rejected += 1
    out["routing.timelines_rejected"] = ("count", rejected)

    for L in wl.SURVEY_SIZES:
        out[f"spectral.find_cls_s.L{L}"] = sec("spectral.find_cls",
                                               n=5 * L * L)
    out["cli.parse_config_ms"] = ms("cli.parse_config")
    return out


def traced_run(workload, ctx, inputs, seconds, run_passes):
    """Traced passes, probes and per-layer metrics of one run.

    The first pass runs once untraced before the traced ones, so the
    difference between the two is the tracing overhead.  Returns
    (passes, metrics, tracer).
    """
    tracer = Tracer()
    reference = [workload.run_op(ctx, op) for op in inputs[0]]
    with tracer.installed():
        passes = run_passes(workload, ctx, inputs, seconds, tracer)
        layer_probes(tracer)
        op_probes(tracer, ctx, workload.covers)
    first = {f"p0.{j}" for j in range(len(inputs[0]))}
    metrics = layer_metrics(tracer.spans, first)
    metrics["cli.output_bytes"] = ("count",
                                   sum(op.out_bytes for op in passes[0]))
    base = sum(op.seconds for op in reference)
    metrics["trace.overhead_pct"] = (
        "%", 100 * (sum(op.seconds for op in passes[0]) - base) / base)
    return passes, metrics, tracer
