"""Built-in verification suite.

Thirteen numbered criteria cover the analytic transfer and generation
protocols, the optimized-pulse reproductions, the partition theorems,
CLS protection, lattice routing, and fixed-seed determinism.  Each
criterion runs standalone and only computes its checks;
:func:`run_criterion` times it and applies the suite-wide bounds.  The
CLI ``verify`` command and the test suite both drive this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from . import crab
from .evolve import (
    PhaseFlip,
    ProtocolSchedule,
    Segment,
    evolve_static,
    fidelity,
    run_schedule,
)
from .lattice import CrabTransferPulse, TimedHamiltonian, LinearRamp, \
    build_dll, build_star, build_seven
from .protocols import (
    TRANSFER_VARIANTS,
    GenerationParams,
    SevenTransferParams,
    StarTransferParams,
    build_schedule,
    cls_state,
)
from .routing import plan_route, schedule_multi, simulate_route, \
    verify_timeline
from .spectral import (
    equitable_blocks_star,
    find_cls,
    nonequitable_blocks_seven,
    spectrum,
)

__all__ = ["Check", "CriterionReport", "CRITERION_IDS", "run_criterion",
           "run_all"]

_S2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Check:
    """One named pass/fail observation inside a criterion."""

    name: str
    ok: bool
    value: float
    bound: str

    def __post_init__(self):
        # numpy comparisons leak np.bool_/np.float64; keep the report
        # made of plain Python scalars
        object.__setattr__(self, "ok", bool(self.ok))
        if isinstance(self.value, np.generic):
            object.__setattr__(self, "value", self.value.item())


@dataclass(frozen=True)
class CriterionReport:
    cid: str
    title: str
    passed: bool
    checks: tuple
    elapsed: float
    norm_drift: Optional[float] = None

    def line(self):
        word = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {self.title}: {word} ({self.elapsed:.2f}s)"


_REGISTRY = {}
_RUNTIME_LIMIT = {}  # cid -> seconds on run_criterion's clock, or None


def _criterion(cid, title, runtime=None):
    def deco(fn):
        _REGISTRY[cid] = (title, fn)
        _RUNTIME_LIMIT[cid] = runtime
        return fn
    return deco


def _near_one(name, value, eps):
    """Check ``value >= 1 - eps``, its bound text written from ``eps``."""
    return Check(name, value >= 1 - eps, value, f">= 1 - {eps}")


# ------------------------------------------------------------ analytic


@_criterion("C1", "star phase-flip transfer", runtime=1.0)
def _c1():
    p = StarTransferParams(1, 0, 0.25)
    s = build_schedule("phase-flip-transfer", p)
    traj = run_schedule(s, s.initial_state)
    checks = [
        Check("family values v=1/2, T=2*pi",
              p.v == 0.5 and abs(p.T - 2 * np.pi) < 1e-15, p.T,
              "v exact, |T - 2*pi| < 1e-15"),
        _near_one("final fidelity",
                  fidelity(traj.final_state, s.target_state), 1e-10),
    ]
    return checks, traj.norm_drift


@_criterion("C2", "star hopping-flip transfer matches phase-flip profiles")
def _c2():
    p = StarTransferParams(1, 0, 0.25)
    sp = build_schedule("phase-flip-transfer", p)
    sh = build_schedule("hopping-flip-transfer", p)  # (J1, J3)
    tp = run_schedule(sp, sp.initial_state)
    th = run_schedule(sh, sh.initial_state)
    same_grid = np.array_equal(tp.times, th.times)
    dev = float(np.max(np.abs(np.abs(tp.states) - np.abs(th.states)))) \
        if same_grid else np.inf
    checks = [
        _near_one("final fidelity",
                  fidelity(th.final_state, sh.target_state), 1e-10),
        Check("|psi_i(t)| profile deviation", dev <= 1e-10, dev, "<= 1e-10"),
    ]
    return checks, max(tp.norm_drift, th.norm_drift)


@_criterion("C3", "transfer parameter family grid")
def _c3():
    worst, drifts, members = 1.0, [], set()
    for k1 in range(-2, 4):
        for k2 in range(0, 3):
            p = StarTransferParams(k1, k2, 0.25)
            s = build_schedule("phase-flip-transfer", p)
            traj = run_schedule(s, s.initial_state)
            worst = min(worst, fidelity(traj.final_state, s.target_state))
            drifts.append(traj.norm_drift)
            members.add((p.v, p.T))
    checks = [
        Check("grid size", len(members) == 18, len(members),
              "18 distinct (v, T) members"),
        _near_one("worst fidelity", worst, 1e-10),
    ]
    return checks, max(drifts)


@_criterion("C4", "generation reaches the dimer, flip completes it")
def _c4():
    J = 0.25
    gp = GenerationParams(2, 0, 1, 3 * _S2 * J)
    s = build_schedule("generation", gp, final_flip=False)
    traj = run_schedule(s, s.initial_state)
    fid_L = fidelity(traj.final_state, cls_state("star", "L"))
    fid_I = fidelity(PhaseFlip(1).apply(traj.final_state),
                     cls_state("star", "I"))
    # scale misreading: an absolute coupling 3*sqrt(2) instead of
    # 3*sqrt(2)*J winds the hub-dimer rotation through full turns
    bad_H = build_star([3 * _S2, 3 * _S2, 0.0, 0.0], 0.5)
    bad_final = evolve_static(bad_H, cls_state("star", "c"), gp.T)
    fid_bad = fidelity(bad_final, cls_state("star", "L"))
    checks = [
        Check("timing v=1/2, T_g=pi",
              abs(gp.v - 0.5) < 1e-12 and abs(gp.T - np.pi) < 1e-12,
              gp.T, "to 1e-12"),
        _near_one("hub to symmetric dimer state", fid_L, 1e-10),
        _near_one("flip lands on stored state", fid_I, 1e-10),
        Check("flip is exact", fid_I == fid_L, abs(fid_I - fid_L), "== 0"),
        Check("unscaled coupling reading fails", fid_bad < 1 - 1e-10,
              fid_bad, "< 1 - 1e-10"),
    ]
    return checks, traj.norm_drift


@_criterion("C5", "piecewise transfer through the hub")
def _c5():
    gp = GenerationParams(2, 0, 1, 3 * _S2 * 0.25)
    s = build_schedule("piecewise-transfer", gp)
    traj = run_schedule(s, s.initial_state)
    checks = [
        Check("total time 2*pi", abs(s.duration - 2 * np.pi) < 1e-12,
              s.duration, "|T - 2*pi| < 1e-12"),
        _near_one("final fidelity",
                  fidelity(traj.final_state, s.target_state), 1e-10),
    ]
    return checks, traj.norm_drift


# ----------------------------------------------------- optimized pulses


def _reference_and_refined(problem, search_problem, direct_bound,
                           refined_bound):
    ref = crab.REFERENCE_PARAMS[problem.kind]
    direct = crab.verify_infidelity(problem, ref)
    refined_params, _ = crab.refine(search_problem, ref)
    refined = crab.verify_infidelity(problem, refined_params)
    checks = [
        Check("reference parameters, direct", direct < direct_bound, direct,
              f"< {direct_bound}"),
        Check("refined from reference parameters", refined < refined_bound,
              refined, f"< {refined_bound}"),
    ]
    return checks, refined_params


@_criterion("C6", "optimized star transfer pulses", runtime=60.0)
def _c6():
    checks, _ = _reference_and_refined(
        crab.star_transfer(), crab.star_transfer(n_steps=512), 1e-4, 1e-8)
    return checks, None


@_criterion("C7", "optimized star creation pulses need negative coupling")
def _c7():
    checks, refined_params = _reference_and_refined(
        crab.star_creation(), crab.star_creation(n_steps=256), 1e-4, 1e-8)
    grid = np.linspace(0.0, np.pi, 4001)
    for label, p in (("reference", crab.REFERENCE_PARAMS["star-creation"]),
                     ("refined", refined_params)):
        low = float(crab.eval_pulse("star-creation", 1, grid, p).min())
        checks.append(Check(f"min_t J1 < 0 for {label} optimum", low < 0.0,
                            low, "< 0"))
    return checks, None


@_criterion("C8", "seven-site eigenvalues and flip transfers")
def _c8():
    H = build_seven([1, 1, np.sqrt(3), np.sqrt(3), 1, 1], 0.0)
    w = spectrum(H).eigenvalues
    expected = np.array(sorted([0, 0, 0, -_S2, _S2, -2 * _S2, 2 * _S2]))
    dev = float(np.max(np.abs(w - expected)))
    p = SevenTransferParams(0, 1.0, 0.0)
    fids, drifts = [], []
    for variant in TRANSFER_VARIANTS:
        s = build_schedule(variant, p)
        traj = run_schedule(s, s.initial_state)
        fids.append(fidelity(traj.final_state, s.target_state))
        drifts.append(traj.norm_drift)
    checks = [
        Check("eigenvalue deviation", dev <= 1e-12, dev, "<= 1e-12"),
        Check("transfer time pi/sqrt(2)", abs(p.T - np.pi / _S2) < 1e-15,
              p.T, "|T - pi/sqrt(2)| < 1e-15"),
        _near_one("phase-flip fidelity", fids[0], 1e-10),
        _near_one("hopping-flip fidelity", fids[1], 1e-10),
    ]
    return checks, max(drifts)


@_criterion("C9", "optimized seven-site transfer and creation pulses")
def _c9():
    checks = []
    for label, make, n_steps in (("transfer", crab.seven_transfer, 1024),
                                 ("creation", crab.seven_creation, 512)):
        sub, _ = _reference_and_refined(make(), make(n_steps=n_steps),
                                        1e-4, 1e-7)
        checks += [Check(f"{label}: {c.name}", c.ok, c.value, c.bound)
                   for c in sub]
    return checks, None


# ----------------------------------------------- symmetry and protection


def _partition_errors(H, pb):
    """Spectrum deviation and worst lifted-eigenvector residual of ``pb``."""
    M = np.asarray(H.base)
    spec = float(np.max(np.abs(pb.union_eigenvalues()
                               - np.linalg.eigvalsh(M))))
    return spec, max(float(np.linalg.norm(M @ vec - energy * vec))
                     for energy, vec in pb.lifted_pairs())


@_criterion("C10", "partition theorems on random parameterizations")
def _c10():
    rng = np.random.default_rng(1001)
    errors = []
    for _ in range(100):
        J = rng.uniform(-2, 2)
        v_out, v_hub = rng.uniform(-2, 2, size=2)
        H = build_star([J] * 4, [v_out] * 2 + [v_hub] + [v_out] * 2)
        errors.append(_partition_errors(H, equitable_blocks_star(H)))
    for _ in range(100):
        J = rng.uniform(0.2, 2)
        J3, J4 = rng.uniform(-2, 2, size=2)
        if J3 ** 2 + J4 ** 2 < 1e-4:
            J3 = 1.0
        v12, vc, vhub = rng.uniform(-1, 1, size=3)
        H = build_seven([J, J, J3, J4, J, J],
                        [v12, v12, vc, vhub, vc, v12, v12])
        errors.append(_partition_errors(H, nonequitable_blocks_seven(H)))
    worst_spec, worst_res = (max(0.0, *col) for col in zip(*errors))
    checks = [
        Check("union spectrum deviation, 200 trials",
              worst_spec <= 1e-12, worst_spec, "<= 1e-12"),
        Check("lifted eigenvector residual, 200 trials",
              worst_res <= 1e-12, worst_res, "<= 1e-12"),
    ]
    return checks, None


@_criterion("C11", "stored-state protection and its limits")
def _c11():
    rng = np.random.default_rng(77)
    psi_I = cls_state("star", "I")
    # (a) arbitrary shared driving: one random smooth pulse on both
    worst_sym = 1.0
    drifts = []
    T = 5.0
    for _ in range(3):
        floor, x, xp = rng.uniform(0.05, 0.6), *rng.uniform(-1.5, 1.5, 2)
        pulse = CrabTransferPulse(floor, x, xp, rng.uniform(0.5, 3.0))
        base = build_star([0.25] * 4, 0.5)
        H = TimedHamiltonian(base.base, {(0, 2): pulse, (1, 2): pulse})
        traj = run_schedule(ProtocolSchedule(base, (Segment(T, H),)), psi_I)
        worst_sym = min(worst_sym, fidelity(traj.final_state, psi_I))
        drifts.append(traj.norm_drift)
    # (b) static perturbations that avoid the dimer sites entirely
    worst_overlap = 1.0
    for _ in range(10):
        M = np.asarray(build_star([0.25] * 4, 0.5).base).copy()
        block = rng.uniform(-0.5, 0.5, size=(3, 3))
        M[2:, 2:] += block + block.T
        hits = [s for s in find_cls(TimedHamiltonian(M, {}), 2)
                if s.support == (0, 1)]
        overlap = fidelity(hits[0].vector, psi_I) if hits else 0.0
        worst_overlap = min(worst_overlap, overlap)
    # (c) mismatched ramp profiles leak population out of the dimer
    dt, tol, J = 1.0, 1e-11, 0.25
    M0 = build_star([J] * 4, 0.5)
    Hr = TimedHamiltonian(M0.base, {
        (0, 2): LinearRamp(J, 0.0, dt),
        (1, 2): LinearRamp(J, 0.1 * J, dt),
    })
    traj = run_schedule(ProtocolSchedule(M0, (Segment(dt, Hr),)), psi_I,
                        tol=tol)
    drifts.append(traj.norm_drift)
    leak = 1.0 - float(np.sum(np.abs(traj.final_state[[0, 1]]) ** 2))
    checks = [
        _near_one("symmetric driving fidelity", worst_sym, 1e-10),
        _near_one("re-detected overlap after outside perturbation",
                  worst_overlap, 1e-12),
        Check("asymmetric ramp leakage", leak > 100 * tol * dt, leak,
              f"> {100 * tol * dt}"),
    ]
    return checks, max(drifts)


# --------------------------------------------------------------- routing


@_criterion("C12", "lattice routing: single, chained and concurrent jumps",
            runtime=120.0)
def _c12():
    g1, H1 = build_dll(1, 1, 0.25, 0.5)
    plan1 = plan_route(g1, H1, (1, 2), (3, 4))
    rep1 = simulate_route(g1, H1, schedule_multi([plan1]))

    g3, H3 = build_dll(3, 3, 0.25, 0.5)
    plan3 = plan_route(g3, H3, (1, 2), (36, 37), dt=1.0)
    rep3 = simulate_route(g3, H3, schedule_multi([plan3]))

    east = plan_route(g3, H3, (16, 17), (26, 27))
    north = plan_route(g3, H3, (8, 9), (23, 24))
    tl = schedule_multi([east, north])
    disjoint = verify_timeline(tl)
    repx = simulate_route(g3, H3, tl)
    checks = [
        _near_one("single jump fidelity", rep1.fidelities[0], 1e-10),
        Check("three-jump route length", len(plan3.jumps) == 3,
              len(plan3.jumps), "== 3"),
        _near_one("three-jump route fidelity", rep3.fidelities[0], 1e-8),
        *(_near_one(f"crossing route fidelity ({way})", fid, 1e-8)
          for way, fid in zip(("east", "north"), repx.fidelities)),
        Check("no star serves two routes at once", disjoint, 1.0,
              "timeline check"),
    ]
    return checks, max(rep1.norm_drift, rep3.norm_drift, repx.norm_drift)


# ----------------------------------------------------------- determinism


@_criterion("C13", "fixed-seed determinism")
def _c13():
    prob = crab.star_transfer(n_steps=64)
    r1 = crab.optimize_crab(prob, n_restarts=2, seed=11, max_evals=300)
    r2 = crab.optimize_crab(prob, n_restarts=2, seed=11, max_evals=300)
    opt_same = (r1.best_params == r2.best_params
                and r1.infidelity == r2.infidelity and r1.log == r2.log)

    p = StarTransferParams(1, 0, 0.25)
    s = build_schedule("phase-flip-transfer", p)
    ta = run_schedule(s, s.initial_state)
    tb = run_schedule(s, s.initial_state)
    run_same = np.array_equal(ta.states, tb.states)

    g, H = build_dll(1, 1, 0.25, 0.5)
    tl = schedule_multi([plan_route(g, H, (1, 2), (3, 4))])
    ra = simulate_route(g, H, tl)
    rb = simulate_route(g, H, tl)
    route_same = (np.array_equal(ra.final_states[0], rb.final_states[0])
                  and ra.fidelities == rb.fidelities)

    return [Check(f"{what} runs byte-identical", same, float(same),
                  "identical")
            for what, same in (("seeded optimizer", opt_same),
                               ("schedule", run_same),
                               ("routing", route_same))], None


CRITERION_IDS = tuple(_REGISTRY)


def run_criterion(cid):
    """Execute one criterion, timed, and wrap its checks in a report.

    Adds the suite-wide bounds: a norm drift of at most 1e-10 wherever
    the criterion reports one, and its registered runtime limit.
    """
    title, fn = _REGISTRY[cid]
    t0 = perf_counter()
    checks, drift = fn()
    elapsed = perf_counter() - t0
    if drift is not None:
        checks.append(Check("norm drift", drift <= 1e-10, drift, "<= 1e-10"))
    if (limit := _RUNTIME_LIMIT.get(cid)) is not None:
        checks.append(Check("runtime", elapsed < limit, elapsed,
                            f"< {limit:g} s"))
    passed = all(c.ok for c in checks)
    return CriterionReport(cid, title, passed, tuple(checks), elapsed, drift)


def run_all(ids=None):
    """Run the selected criteria, all by default, in order."""
    return [run_criterion(cid) for cid in ids or CRITERION_IDS]
