"""Randomized-basis pulse optimization for the star and seven-site units.

Couplings are modulated by a small trigonometric basis whose amplitudes
(and optionally frequencies) are tuned by a derivative-free simplex
search under a multistart scheme with seeded random frequency draws.
Four problem kinds are built in: dimer-to-dimer transfer and
hub-to-dimer creation, on the five-site star and on the seven-site
unit.

Conventions frozen here:

* transfer ansatz: J_n(t) = J (1 + sin(t/a) [x_n sin(w_n t)
  + x'_n cos(w_n t)]^2) with a = 2 on the star (T = 2 pi) and a = 4 on
  the seven-site unit (T = 4 pi); never dips below the floor J.
* star creation ansatz: J_1(t) = (1 + x sin(w t) + x' sin(w' t))
  * 3 sqrt2 (1 - t/T), J_2(t) = 3 sqrt2 (1 - t/T); the 3 sqrt2 scale
    is part of the ansatz.  The declared profile runs the dimer state
    down into the hub; the creation objective |c> -> |I> drives the
    time-mirrored profile, which has the same fidelity since the
    Hamiltonian is real.
* seven-site creation ansatz: J_n(t) = J (1 + sin(t/2) [x_n sin(w_n t)
  + x'_n cos(w_n t)]) for n in {1, 2} (bracket not squared, may go
  negative), with the inner coupling ramped linearly from 0 to 1 and
  evaluated forward from the hub state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evolve import _check_count, evolve_timedep_fixed, fidelity
from .lattice import SEVEN_EDGES, STAR_EDGES, CrabTransferPulse, \
    CreationSevenPulse, CreationStarPulse, LinearRamp, TimeMirrored, \
    TimedHamiltonian, _unit_matrix
from .protocols import cls_state

__all__ = [
    "OMEGA_RANGE",
    "CrabParams",
    "OptResult",
    "ControlProblem",
    "star_transfer",
    "star_creation",
    "seven_transfer",
    "seven_creation",
    "REFERENCE_PARAMS",
    "eval_pulse",
    "assemble_hamiltonian",
    "infidelity_objective",
    "verify_infidelity",
    "pulse_table",
    "nelder_mead",
    "refine",
    "optimize_crab",
]

OMEGA_RANGE = (0.4, 2.6)

_CHANNELS = {
    "star-transfer": ((1, (0, 2)), (2, (1, 2)), (3, (2, 3)), (4, (2, 4))),
    "seven-transfer": ((1, (0, 2)), (2, (1, 2)), (5, (4, 5)), (6, (4, 6))),
    "star-creation": ((1, (0, 2)), (2, (1, 2))),
    "seven-creation": ((1, (0, 2)), (2, (1, 2)), (3, (2, 3))),
}

# the simplex stops once every vertex lies this close to the best one
_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class CrabParams:
    """One point in pulse-parameter space.

    ``floor`` is the undriven coupling J and ``horizon`` the pulse
    duration T; ``x``/``xp`` are the basis amplitudes and ``omega``
    the basis frequencies.
    """

    x: tuple
    xp: tuple
    omega: tuple
    floor: float
    horizon: float

    def __post_init__(self):
        for name in ("x", "xp", "omega"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        vals = self.x + self.xp + self.omega + (self.floor, self.horizon)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite")
        if len(self.x) != len(self.xp) or not self.x:
            raise ValueError("x and xp must be equal-length and nonempty")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")


def _arity(p):
    return len(p.x), len(p.xp), len(p.omega)


def _check_arity(kind, p):
    want, got = _arity(REFERENCE_PARAMS[kind]), _arity(p)
    if got != want:
        raise ValueError(f"{kind} expects arity {want}, got {got}")


@dataclass(frozen=True)
class OptResult:
    """Best point of a multistart run plus bookkeeping for replay."""

    best_params: CrabParams
    infidelity: float
    evaluations: int
    log: tuple = ()

    def __post_init__(self):
        if not 0 <= self.infidelity <= 1:
            raise ValueError("infidelity must lie in [0, 1]")


@dataclass(frozen=True)
class ControlProblem:
    """A pulse-design task: evolve ``initial_state`` to ``target_state``
    under the kind's ansatz; REFERENCE_PARAMS[kind] fixes horizon and arity."""

    kind: str
    initial_state: np.ndarray
    target_state: np.ndarray
    v: float
    floor: float
    n_steps: int
    extra: tuple = ()

    @property
    def arity(self):
        return _arity(REFERENCE_PARAMS[self.kind])

    @property
    def horizon(self):
        return REFERENCE_PARAMS[self.kind].horizon

    def make_params(self, x, xp, omega):
        p = CrabParams(x=tuple(np.atleast_1d(x)), xp=tuple(np.atleast_1d(xp)),
                       omega=tuple(np.atleast_1d(omega)),
                       floor=self.floor, horizon=self.horizon)
        _check_arity(self.kind, p)
        return p


def star_transfer(J=0.25, v=0.5, n_steps=1024):
    """Dimer-to-dimer transfer across the star hub, all four couplings
    driven, duration one family period."""
    return ControlProblem("star-transfer", cls_state("star", "I"),
                          cls_state("star", "F"), v, J, n_steps)


def star_creation(J=0.25, v=0.5, n_steps=512):
    """Hub excitation to stored dimer state on the star; only the input
    dimer couplings are active, ramping up from zero."""
    return ControlProblem("star-creation", cls_state("star", "c"),
                          cls_state("star", "I"), v, J, n_steps)


def seven_transfer(J=1 / (4 * np.sqrt(2.0)), J_inner=3.0, v=0.5,
                   n_steps=2048):
    """Dimer-to-dimer transfer across the seven-site unit; the four
    outer couplings are driven, the two inner ones held constant."""
    return ControlProblem("seven-transfer", cls_state("seven", "I"),
                          cls_state("seven", "F"), v, J, n_steps,
                          extra=(("J_inner", J_inner),))


def seven_creation(J=1 / (4 * np.sqrt(2.0)), v=0.5, n_steps=1024):
    """Hub excitation to stored dimer state on the seven-site unit; the
    inner coupling ramps linearly from zero while the input dimer
    couplings are driven."""
    return ControlProblem("seven-creation", cls_state("seven", "c"),
                          cls_state("seven", "I"), v, J, n_steps)


REFERENCE_PARAMS = {
    "star-transfer": CrabParams(
        x=(0.5850, 2.4015, 2.5033, 0.2199),
        xp=(2.9997, 0.5954, 0.4555, 2.8103),
        omega=(1.4452, 1.3069, 1.1680, 1.3510),
        floor=0.25, horizon=2 * np.pi),
    "star-creation": CrabParams(
        x=(0.8292,), xp=(1.5246,), omega=(1.7638, 1.9434),
        floor=0.25, horizon=np.pi),
    "seven-transfer": CrabParams(
        x=(4.1435, 3.2435, 2.5509, 4.7169),
        xp=(2.2124, 3.3942, 3.3221, 1.9491),
        omega=(1.9171, 0.9476, 0.4496, 0.9671),
        floor=1 / (4 * np.sqrt(2.0)), horizon=4 * np.pi),
    "seven-creation": CrabParams(
        x=(6.9763, 4.1098), xp=(2.1072, 6.4490), omega=(1.7465, 0.7946),
        floor=1 / (4 * np.sqrt(2.0)), horizon=2 * np.pi),
}


def _pulse_for(kind, n, p):
    """Printed-profile pulse object for channel n of the given kind;
    the caller has checked the arity of ``p``."""
    channels = dict(_CHANNELS[kind])
    _check_count("channel", n, 1)  # True == 1.0 == 1 would pass as a key
    if n not in channels:
        raise ValueError(f"{kind} has no channel {n}")
    k = list(channels).index(n)
    if kind == "seven-creation" and n == 3:
        # the inner coupling ramps linearly from 0, reaching 1 at 2*pi
        return LinearRamp(0.0, p.horizon / (2 * np.pi), p.horizon)
    if kind.endswith("transfer"):
        return CrabTransferPulse(p.floor, p.x[k], p.xp[k], p.omega[k],
                                 env_div=2.0 if kind == "star-transfer" else 4.0)
    if kind == "star-creation":
        if p.horizon <= 0:
            raise ValueError("creation pulses need a positive horizon")
        # the creation ansatz carries its own absolute scale 3*sqrt2
        amp = 3 * np.sqrt(2.0)
        if n == 1:
            return CreationStarPulse(p.x[0], p.xp[0], p.omega[0], p.omega[1],
                                     amp, p.horizon)
        return CreationStarPulse(0.0, 0.0, 1.0, 1.0, amp, p.horizon)
    return CreationSevenPulse(p.floor, p.x[k], p.xp[k], p.omega[k])


def eval_pulse(kind, n, t, p):
    """Coupling value of channel ``n`` at time ``t`` under the declared
    ansatz (star creation profiles fall to zero at the horizon): a float
    for a scalar time, else an array of the shape of ``t``."""
    _check_arity(kind, p)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= -1e-12) & (t <= p.horizon + 1e-12)):  # NaN too
        raise ValueError("t outside [0, horizon]")
    return _pulse_for(kind, n, p).value(t)


@lru_cache(maxsize=32)
def _skeleton(kind, floor, v, extra):
    """Pulse-free H of a kind, validated once: every H that
    :func:`assemble_hamiltonian` builds shares its read-only base."""
    if kind.startswith("star"):
        base = _unit_matrix(5, STAR_EDGES,
                            floor if kind == "star-transfer" else 0.0, v)
    else:
        Ji = dict(extra)["J_inner"] if kind == "seven-transfer" else 0.0
        base = _unit_matrix(7, SEVEN_EDGES,
                            [floor, floor, Ji, Ji, floor, floor], v)
    return TimedHamiltonian(base, {})


def assemble_hamiltonian(problem, p):
    """Time-dependent Hamiltonian the objective actually integrates.

    For star creation the declared falling profiles are time-mirrored
    so the drive runs hub -> dimer; all other kinds run as declared.
    """
    _check_arity(problem.kind, p)
    kind = problem.kind
    overrides = {}
    for n, entry in _CHANNELS[kind]:
        pulse = _pulse_for(kind, n, p)
        overrides[entry] = TimeMirrored(pulse, p.horizon) \
            if kind == "star-creation" else pulse
    sk = _skeleton(kind, p.floor, problem.v, problem.extra)
    return TimedHamiltonian._trusted(sk.base, overrides)


def infidelity_objective(problem, p):
    """1 - |<target|psi(T)>|^2 at the problem's fixed step count."""
    return _infidelity(problem, p, problem.n_steps)


def verify_infidelity(problem, p):
    """Same objective at twice the step resolution, for cross-checks."""
    return _infidelity(problem, p, 2 * problem.n_steps)


def _infidelity(problem, p, n_steps):
    if p.horizon == 0:
        return 1.0 - fidelity(problem.initial_state, problem.target_state)
    H = assemble_hamiltonian(problem, p)
    psi = evolve_timedep_fixed(H, problem.initial_state, 0.0, p.horizon,
                               n_steps)
    return 1.0 - fidelity(psi, problem.target_state)


def pulse_table(problem, p):
    """Sample of every driven coupling, declared profile, at 201
    uniform times over the horizon.

    Returns (times, {channel: values}), one column per channel.
    """
    times = np.linspace(0.0, p.horizon, 201)
    table = {n: eval_pulse(problem.kind, n, times, p)
             for n, _ in _CHANNELS[problem.kind]}
    return times, table


# ------------------------------------------------------------ optimizer


def nelder_mead(objective, x0, max_evals=20000):
    """Downhill simplex search (reflection 1, expansion 2, contraction
    0.5, shrink 0.5).

    The initial simplex perturbs each coordinate by 5% (0.05 absolute
    at zero).  Terminates when every vertex lies within 1e-12 of the
    best one in the max norm, or on the evaluation budget.
    Deterministic; raises if the objective goes non-finite.  Returns
    (x, f, evaluations).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite vector")
    dim = x0.size
    _check_count("max_evals", max_evals, dim + 1)  # covers the simplex

    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        val = float(objective(x))
        if not np.isfinite(val):
            raise FloatingPointError(f"objective non-finite at {x.tolist()}")
        return val

    pts = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        pts[i + 1, i] = pts[i + 1, i] * 1.05 if pts[i + 1, i] != 0.0 else 0.05
    vals = np.array([f(x) for x in pts])

    while evals < max_evals:
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        if np.max(np.abs(pts[1:] - pts[0])) < _SPREAD_TOL:
            break
        centroid = pts[:-1].mean(axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = f(xr)
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = f(xe) if evals < max_evals else np.inf
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = f(xc)
            if fc < min(fr, vals[-1]):
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    if evals >= max_evals:
                        break
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])

    best = int(np.argmin(vals))
    return pts[best].copy(), float(vals[best]), evals


def _unpack(problem, vec, omega=None):
    """Params from a simplex vector: the amplitudes x and xp, then the
    frequencies unless ``omega`` holds them fixed."""
    nx, nxp, _ = problem.arity
    w = vec[nx + nxp:] if omega is None else omega
    return problem.make_params(vec[:nx], vec[nx:nx + nxp], w)


def _objective_from_vector(problem, omega=None):
    def g(vec):
        return infidelity_objective(problem, _unpack(problem, vec, omega))
    return g


def refine(problem, p):
    """Local simplex refinement seeded at ``p`` over amplitudes and
    frequencies together, on a budget of 20000 evaluations.  Returns
    (params, infidelity)."""
    _check_arity(problem.kind, p)
    xb, fb, _ = nelder_mead(_objective_from_vector(problem),
                            np.array(p.x + p.xp + p.omega))
    return _unpack(problem, xb), fb


def optimize_crab(problem, n_restarts=32, seed=0, max_evals=20000):
    """Seeded multistart pulse search.

    Each restart k draws its frequencies uniformly from ``OMEGA_RANGE``
    and its starting amplitudes from U(0, 3) with an independent
    generator derived from (seed, k), then runs the simplex on the
    amplitudes, at most ``max_evals`` evaluations per restart.  Zero
    starting amplitudes would strand the search on the flat
    stored-state plateau, hence the draw; the upper end brackets the
    reference amplitude sets.  The creation ansatz on the star is small
    enough that its frequencies join the simplex too.  Restarts are
    merged by (infidelity, restart index), so the result is
    reproducible from the seed alone.
    """
    _check_count("n_restarts", n_restarts, 1)
    nx, nxp, nw = problem.arity
    refine_omega = problem.kind == "star-creation"
    lo, hi = OMEGA_RANGE

    log, found = [], []
    for k in range(n_restarts):
        rng = np.random.default_rng([seed, k])
        omega = rng.uniform(lo, hi, size=nw)
        amps = rng.uniform(0.0, 3.0, size=nx + nxp)
        x0 = np.concatenate([amps, omega]) if refine_omega else amps
        fixed = None if refine_omega else tuple(omega)
        xb, fb, evals = nelder_mead(_objective_from_vector(problem, fixed),
                                    x0, max_evals=max_evals)
        found.append((fb, k, _unpack(problem, xb, fixed)))
        log.append({"restart": k, "omega": tuple(omega),
                    "infidelity": fb, "evaluations": evals,
                    "stopped": "budget" if evals >= max_evals else "converged"})
    fb, _, params = min(found)  # (infidelity, restart) never ties
    return OptResult(best_params=params, infidelity=fb, log=tuple(log),
                     evaluations=sum(r["evaluations"] for r in log))
