"""Time evolution, fidelity, and protocol-schedule execution.

Propagation convention: psi(t) = exp(-i H t) psi(0) with hbar = 1.
Static Hamiltonians are propagated by spectral decomposition; pulsed
ones by a fourth-order commutator-free exponential integrator (two
matrix exponentials of weighted Hamiltonian averages per step), which
is unitary up to roundoff.  States have shape (n,), or (n, k) for k
columns propagated together.  A pulsed stretch to a tolerance runs a
convergence pair of n and 2n steps, growing n until the worst column
deviates by at most tol times the duration; the result and every
sample come from the finer run of the accepted pair.  The first pair
is cheap, 8 and 16 steps (rounded up to the sample grid): a state the
couplings leave alone, such as a stored dimer under a symmetric ramp,
passes it at round-off.  When it fails, its error is pre-asymptotic
and sizes nothing: the pairs resume at 64 steps as if it had not run.

A pulsed H must be chiral, as every network here is: bipartite (hubs
and connectors couple only to dimer sites), with a uniform on-site
potential and no driven diagonal; any other raises ValueError.  A step
runs only the connected components the state occupies (the rest stay
exactly 0) and samples their coupling block C(t) from the smaller
sublattice: p = 1 on the star and in seven-site creation, 2 in its
transfer, 9 on the 3x3 DLL.  It exponentiates through the eigenpairs
of the p x p Gram matrix C C^T (closed forms for p <= 2, one batched
eigh per call for p > 2), never n x n.  A state the couplings annihilate
(an antisymmetric dimer under symmetric driving) is left alone exactly.
What a run needs besides the pulse amplitudes is planned once per base,
driven entries, start state, clock and step count, and the last few
plans are kept by that value, so a CRAB search builds one.

A :class:`ProtocolSchedule` is an ordered sequence of instantaneous
flips (phase flips on the state, sign flips on couplings, each applied
by the flip itself) and evolution segments.  No item carries a time:
the clock starts at 0, each segment advances it by its duration, and a
flip acts at the instant between two segments.  Pulses inside a
segment run on a segment-local clock starting at 0.  The static matrix
in force starts as the base; a hopping flip negates its entry, and a
segment with its own Hamiltonian leaves its end snapshot behind, so
reconfigurations (e.g. swapping which couplings are active) are
expressed by consecutive segments.  :meth:`ProtocolSchedule.walk` is
the one place that applies this rule; running a schedule, its end
Hamiltonian and the routing support walk all read it.
A fidelity lies in [0, 1], or computing it raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

# evaluate_grid is unused here; bench/tracing.py wraps evolve.evaluate_grid
from .lattice import TimeMirrored, TimedHamiltonian, _block_plan, \
    _fill_block, evaluate_grid, static_matrix

__all__ = ["evolve_static", "evolve_timedep", "evolve_timedep_fixed",
           "fidelity", "PhaseFlip", "HoppingFlip", "Segment",
           "ProtocolSchedule", "Trajectory", "run_schedule",
           "reverse_schedule", "end_hamiltonian"]

# Gauss-Legendre nodes and exponential weights of the 4th-order
# commutator-free scheme.  Per step, with A1 = H(t + C1*h) and
# A2 = H(t + C2*h), the update is
#   psi <- exp(-i*h*(X1*A1 + X2*A2)) @ exp(-i*h*(X2*A1 + X1*A2)) @ psi
_C1 = 0.5 - np.sqrt(3.0) / 6.0
_C2 = 0.5 + np.sqrt(3.0) / 6.0
_X1 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
_X2 = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0

_N_MAX = 1 << 23        # step ceiling; beyond this the request is reported
_CHUNK = 4096           # steps exponentiated per batch (memory bound)
_FIRST_STEPS = 8        # coarse resolution of the first convergence pair
_CAL_STEPS = 64         # where the pairs resume after a failed first pair
# largest budget tol*(t1-t0) a convergence pair can certify: two unit
# columns differ by at most 2, so near 1 a pair passes whatever its error
_BUDGET_MAX = 1e-3
# plans kept by value: a crab-search pass (bench/workloads.py) uses four
# keys, per creation kind its search's n and the check at twice native n
_PLANS_KEPT = 4
_PLANS = {}


def evolve_static(H, psi0, t):
    """Propagate ``psi0`` for duration ``t`` under a static Hamiltonian.

    Computes exp(-i H t) psi0 via spectral decomposition.  ``H`` may be
    a plain Hermitian matrix or a pulse-free :class:`TimedHamiltonian`.
    """
    return _static_samples(static_matrix(H), psi0, [float(t)])[0]


def _static_samples(M, psi0, durations, eig=None):
    """States after each duration in ``durations`` under static M, whose
    eigh may come as ``eig``: one per duration, each shaped as ``psi0``."""
    w, V = np.linalg.eigh(M) if eig is None else eig
    phases = np.exp(-1j * np.multiply.outer(np.asarray(durations, float), w))
    return (V * phases[:, None]) @ (V.conj().T @ np.asarray(psi0, complex))


def _chain_product(stack):
    """Ordered product stack[-1] @ ... @ stack[0] by pairwise reduction."""
    if len(stack) == 0:
        raise ValueError("empty propagator stack")
    while len(stack) > 1:
        k = len(stack) - len(stack) % 2  # an odd last factor waits a round
        paired = stack[1:k:2] @ stack[0:k:2]
        stack = np.concatenate([paired, stack[k:]]) if k < len(stack) else paired
    return stack[0]


def _sublattice_exponentials(C, h):
    """Real-frame exponentials of the chiral generators K = [[0, C], [C^T, 0]].

    ``C`` is a (k, p, q) stack of real couplings from sublattice A (p
    sites) to B (q sites).  With X = h^2 C C^T,

        exp(-i h K) = [[c,            -i h s C         ],
                       [-i h C^T s,   I + h^2 C^T f C  ]]

    where c = cos(sqrt X), s = sin(sqrt X)/sqrt X and f = (cos(sqrt X) -
    1)/X are entire functions of X, so zero or tiny singular values cost
    no accuracy.  Returns the real (k, p+q, p+q) stack F exp(-i h K)
    F^-1 in the frame F = diag(1_A, -i 1_B): there the off-diagonal
    blocks are S and -S^T with S = h s C, so products of steps stay
    real.  The functions come from the eigenpairs C C^T = W diag(s^2)
    W^T: in closed form for p <= 2, from one batched eigh of the Gram
    stack for p > 2, which first refuses non-finite couplings.
    """
    k, p, q = C.shape
    n = p + q
    Ct = np.ascontiguousarray(C.swapaxes(1, 2))
    gram = C @ Ct
    R = np.empty((k, n, n))
    if p == 1:
        lam, W = gram[:, 0], np.ones((k, 1, 1))
    elif p == 2:
        # the Jacobi rotation W = [[c, -s], [s, c]] diagonalizes [[a, b], [b, d]]
        a, b, d = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        theta = 0.5 * np.arctan2(2.0 * b, a - d)
        r = np.hypot(0.5 * (a - d), b)
        lam = np.stack([0.5 * (a + d) + r, 0.5 * (a + d) - r], axis=1)
        c, s = np.cos(theta), np.sin(theta)
        W = np.stack([c, -s, s, c], axis=1).reshape(k, 2, 2)
    elif not np.isfinite(gram).all():
        raise FloatingPointError("non-finite couplings in a pulsed step")
    else:
        lam, W = np.linalg.eigh(gram)
    hs = h * np.sqrt(np.maximum(lam, 0.0))
    Wt = np.ascontiguousarray(W.swapaxes(1, 2))
    WtC = Wt @ C
    CtW = np.ascontiguousarray(WtC.swapaxes(1, 2))
    g = (h * np.sinc(hs / np.pi))[:, :, None]
    f = (-0.5 * h * h * np.sinc(hs / (2 * np.pi)) ** 2)[:, :, None]
    # blocks are written in place; the lower-left one is -(upper-right)^T
    np.matmul(W, np.cos(hs)[:, :, None] * Wt, out=R[:, :p, :p])
    np.matmul(W, g * WtC, out=R[:, :p, p:])
    np.negative(R[:, :p, p:].swapaxes(1, 2), out=R[:, p:, :p])
    np.matmul(CtW, f * WtC, out=R[:, p:, p:])
    R.reshape(k, n * n)[:, p * (n + 1)::n + 1] += 1.0
    return R


def _sublattices(H):
    """Chiral split of the sites of H: (order, p, parts), sublattice A first.

    Every pulsed H must have one: a uniform on-site potential, no pulse
    on a diagonal entry, and a 2-colourable graph of nonzero base
    couplings plus driven entries; else ValueError names what fails.
    Then H(t) = v*I + [[0, C(t)], [C(t)^T, 0]] in the basis ``order``,
    whose first ``p`` sites form A: the smaller colour class of each
    connected component (an isolated site joins B).  ``parts[i]``
    numbers the component of site ``order[i]``; H(t) is block diagonal
    over them.
    """
    n = H.n_sites
    diag = np.diagonal(H.base)
    driven = [e for e in H.overrides if e[0] == e[1]]
    if driven or (diag != diag[0]).any():
        why = f"a pulse drives the diagonal entry {driven[0]}" \
            if driven else "the on-site potential is not uniform"
        raise ValueError(f"{why}: not a chiral Hamiltonian")
    adjacent = [[] for _ in range(n)]
    rows, cols = np.nonzero(np.triu(H.base, 1))
    for i, j in chain(zip(rows.tolist(), cols.tolist()), H.overrides):
        adjacent[i].append(j)
        adjacent[j].append(i)
    colour, part, roots = [-1] * n, [0] * n, 0
    a_sites, b_sites = [], []
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root], part[root], roots = 0, roots, roots + 1
        classes = ([root], [])
        stack = [root]
        while stack:
            i = stack.pop()
            for j in adjacent[i]:
                if colour[j] < 0:
                    colour[j], part[j] = 1 - colour[i], part[root]
                    classes[colour[j]].append(j)
                    stack.append(j)
                elif colour[j] == colour[i]:
                    raise ValueError(f"sites {i} and {j} close an odd "
                                     f"cycle: not a chiral Hamiltonian")
        small, large = sorted(classes, key=len)
        a_sites += small
        b_sites += large
    order = np.array(sorted(a_sites) + sorted(b_sites))
    return order, len(a_sites), np.array(part)[order]


class _CF4Plan:
    """What :func:`_cf4_run` keeps while only the pulse amplitudes change,
    for H's base and driven entries, ``psi0`` and n steps over [t0, t1]:
    the A sites ``a`` and B sites ``b`` of the components ``psi0``
    occupies (p = len(a); every other row stays exactly 0), the start
    state permuted A-first in the real frame, the base A x B block with
    the slots its pulses drive, and the first chunk's nodes."""

    def __init__(self, H, psi0, t0, t1, n):
        self.t0, self.n = t0, n
        h = self.h = (t1 - t0) / n
        if t0 + 0.5 * h == t0:
            raise RuntimeError(f"step size underflow: h={h!r} vanishes at t={t0!r}")
        order, p, parts = _sublattices(H)
        psi = np.asarray(psi0, dtype=complex)[order]
        hit = np.zeros(len(parts), bool)
        hit[parts[(psi != 0).reshape(len(psi), -1).any(axis=1)]] = True
        keep = hit[parts]
        if not keep.all():
            order, p, psi = order[keep], np.count_nonzero(keep[:p]), psi[keep]
        psi[p:] *= -1j
        psi.flags.writeable = False
        self.psi, self.p, self.a, self.b = psi, p, order[:p], order[p:]
        self.shape = (len(parts),) + psi.shape[1:]
        self.vh = -1j * H.base[0, 0] * h
        self.block, self.slots = _block_plan(H, self.a, self.b)
        self.first = self.grid(0)

    def grid(self, done):
        """The C1 then the C2 node times of the chunk from step ``done``."""
        ts = self.t0 + (done + np.arange(min(_CHUNK, self.n - done))) * self.h
        return np.concatenate([ts + _C1 * self.h, ts + _C2 * self.h])

    def state(self, phi, steps):
        """Full state of ``phi`` after ``steps``: phase and frame undone."""
        phase, out = np.exp(self.vh * steps), np.zeros(self.shape, complex)
        out[self.a] = phi[:self.p] * phase
        out[self.b] = 1j * phi[self.p:] * phase
        return out


def _cf4_run(H, psi0, t0, t1, n_steps, record_every=None):
    """Fixed-step commutator-free propagation of psi over [t0, t1].

    Times refer to the pulse clock of ``H``; ``psi0`` is (n,) or (n, k).
    Returns (final_state, samples) where samples is a list of states
    taken after every ``record_every`` steps (or None if not requested).
    Each CF4 generator is (v/2) I + [[0, C], [C^T, 0]] in the site order
    of :func:`_sublattices` (ValueError if H has none).  The run takes its
    :class:`_CF4Plan` from ``_PLANS`` by the value of all the plan reads,
    else builds it there; a chunk then samples the pulses into the plan's
    block, as one (2m, p, q) stack on the C1 and C2 nodes, and each
    exponential is e^{-ihv/2} times :func:`_sublattice_exponentials`.
    """
    psi0, n = np.asarray(psi0), int(n_steps)
    key = (H.base.shape, H.base.tobytes(), tuple(H.overrides),
           psi0.dtype.str, psi0.shape, psi0.tobytes(), t0, t1, n)
    if (plan := _PLANS.get(key)) is None:
        if len(_PLANS) == _PLANS_KEPT:
            del _PLANS[next(iter(_PLANS))]  # first in, first out
        plan = _PLANS[key] = _CF4Plan(H, psi0, t0, t1, n)
    psi, p, h, done = plan.psi, plan.p, plan.h, 0
    samples = [] if record_every else None
    if not p:  # no A site (isolated sites or a zero state): a phase only
        return plan.state(psi, n), samples if samples is None else [
            plan.state(psi, k) for k in range(record_every, n + 1, record_every)]
    while done < n:
        nodes = plan.grid(done) if done else plan.first
        m = len(nodes) // 2
        A = _fill_block(H, nodes, plan.block, plan.slots)
        A1, A2 = A[:m], A[m:]
        stacked = np.concatenate([_X2 * A1 + _X1 * A2, _X1 * A1 + _X2 * A2])
        E = _sublattice_exponentials(stacked, h)
        U = E[m:] @ E[:m]
        marks = range(record_every - done % record_every, m + 1,
                      record_every) if record_every else ()
        start = 0
        for stop in marks:
            psi = _chain_product(U[start:stop]) @ psi
            samples.append(plan.state(psi, done + stop))
            start = stop
        if start < m:
            psi = _chain_product(U[start:]) @ psi
        done += m
    return plan.state(psi, n), samples


def _check_count(name, value, least):
    """ValueError for a bool, a non-integer or a value below ``least``."""
    if isinstance(value, bool) or \
            not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def evolve_timedep_fixed(H, psi0, t0, t1, n_steps):
    """Propagate under a pulsed Hamiltonian in ``n_steps`` >= 1 steps."""
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    _check_count("n_steps", n_steps, 1)
    return _cf4_run(H, psi0, t0, t1, n_steps)[0]


def _check_tol(tol):
    if not 1e-14 <= tol <= 1e-6:  # NaN fails this too
        raise ValueError("tol must lie in [1e-14, 1e-6]")


def _propagate(H, psi0, t0, t1, tol, n_chunks=1):
    """Propagate over [t0, t1] to ``tol`` per unit time by convergence pair.

    Runs n and 2n steps, n a multiple of ``n_chunks``, and accepts once
    the worst column of the two runs deviates by at most tol*(t1-t0).
    The first pair has n = _FIRST_STEPS.  If it fails below _CAL_STEPS,
    its error is pre-asymptotic and the next pair has n = _CAL_STEPS;
    after that n grows by the fourth-order error model (at least
    doubling).  So a stretch whose first pair fails runs, after it,
    exactly the pairs of a ladder started at _CAL_STEPS, and so does
    every stretch with ``n_chunks`` >= _CAL_STEPS.  Returns (final,
    samples) of the finer run, with ``n_chunks`` evenly spaced samples.
    Raises ValueError for a tol outside [1e-14, 1e-6], and RuntimeError
    before a finer run past _N_MAX steps or a budget past _BUDGET_MAX.
    """
    _check_tol(tol)
    budget = tol * (t1 - t0)
    if budget > _BUDGET_MAX:
        raise RuntimeError(f"error budget tol*(t1-t0) = {budget:g} exceeds "
                           f"{_BUDGET_MAX:g}: no convergence pair bounds it")
    n = _FIRST_STEPS
    while True:
        n = -(-n // n_chunks) * n_chunks
        if 2 * n > _N_MAX:
            raise RuntimeError(
                f"step size underflow: {2 * n} steps needed for tol={tol:g} "
                f"over [{t0:g}, {t1:g}] exceeds the {_N_MAX} ceiling")
        coarse, _ = _cf4_run(H, psi0, t0, t1, n)
        fine, samples = _cf4_run(H, psi0, t0, t1, 2 * n,
                                 record_every=2 * n // n_chunks)
        err = float(np.max(np.linalg.norm(coarse - fine, axis=0)))
        if err <= budget:
            return fine, samples
        if n < _CAL_STEPS:
            n = _CAL_STEPS
        else:
            n = max(int(np.ceil(n * (err / (0.25 * budget)) ** 0.25)), 2 * n)


def evolve_timedep(H, psi0, t0, t1, tol):
    """Propagate under a pulsed Hamiltonian to ``tol`` per unit time.

    The state comes from the finer run of a convergence pair within
    tol*(t1-t0).  Raises RuntimeError, rather than clamping, when the
    step count or the budget is out of reach (see :func:`_propagate`).
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    return _propagate(H, psi0, t0, t1, tol)[0]


def fidelity(psi, phi):
    """Squared overlap |<phi|psi>|^2 in [0, 1], insensitive to global
    phases: round-off above 1 is clamped, a non-finite overlap raises
    FloatingPointError."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    overlap = float(abs(np.vdot(phi, psi)) ** 2)
    if not math.isfinite(overlap):
        raise FloatingPointError(f"non-finite overlap {overlap}")
    return min(1.0, overlap)


@dataclass(frozen=True)
class PhaseFlip:
    """Instantaneous sign flip of the state amplitude on one site."""

    site: int

    def apply(self, psi):
        """Copy of ``psi`` with the amplitude on the site negated; exact
        and norm-preserving.  A block (n, k) flips the row."""
        psi = np.array(psi)
        if not 0 <= self.site < len(psi):
            raise IndexError(f"site {self.site} outside the state")
        psi[self.site] = -psi[self.site]
        return psi


@dataclass(frozen=True)
class HoppingFlip:
    """Instantaneous sign flip of one coupling (and its mirror)."""

    entry: tuple

    def __post_init__(self):
        i, j = self.entry
        if i == j:
            raise ValueError("cannot sign-flip a diagonal entry")
        object.__setattr__(self, "entry", (min(i, j), max(i, j)))

    def negate(self, M):
        """Negate the coupling and its mirror in matrix ``M``, in place."""
        i, j = self.entry
        M[i, j] = -M[i, j]
        M[j, i] = -M[j, i]


@dataclass(frozen=True)
class Segment:
    """Evolution over ``duration``.  ``H`` overrides the working Hamiltonian.

    With H=None the segment evolves under the static matrix in force
    (see :meth:`ProtocolSchedule.walk`).  A segment with its own H runs
    the pulses on a clock starting at 0.
    """

    duration: float
    H: Optional[TimedHamiltonian] = None

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("segment must have positive duration")


@dataclass(frozen=True)
class ProtocolSchedule:
    """Ordered flips and segments over a static base Hamiltonian.

    The clock starts at 0 and each segment advances it by its duration.
    ``initial_state`` and ``target_state`` declare what the schedule is
    meant to do; executing it is the job of :func:`run_schedule`.
    Construction rejects two flips of one kind on the same site or
    entry between the same two segments, flips outside the base
    (IndexError) and segments of another size (ValueError).
    """

    base: TimedHamiltonian
    items: tuple
    initial_state: Optional[np.ndarray] = None
    target_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.base, TimedHamiltonian) or not self.base.static:
            raise ValueError("schedule base must be a pulse-free TimedHamiltonian")
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        n = self.base.n_sites
        touched = set()
        for item in items:
            if isinstance(item, Segment):
                if item.H is not None and item.H.n_sites != n:
                    raise ValueError(f"segment H has {item.H.n_sites} sites, "
                                     f"the base {n}")
                touched.clear()
            elif isinstance(item, (PhaseFlip, HoppingFlip)):
                sites = (item.site,) if isinstance(item, PhaseFlip) \
                    else item.entry
                if not all(0 <= i < n for i in sites):
                    raise IndexError(f"{item!r} acts outside sites 0..{n - 1}")
                if item in touched:
                    raise ValueError(f"conflicting flips {item!r} between "
                                     "two segments")
                touched.add(item)
            else:
                raise TypeError(f"unknown schedule item {item!r}")
        for state in (self.initial_state, self.target_state):
            if state is not None and len(state) != self.base.n_sites:
                raise ValueError("declared state has wrong dimension")

    @property
    def duration(self):
        """Sum of the segment durations: where the clock ends."""
        return sum((item.duration for item in self.items
                    if isinstance(item, Segment)), 0.0)

    def walk(self):
        """Yield (t, item, M) per item: the clock t at which the item acts
        and the static matrix M in force once it has acted.  M starts as
        the base; a hopping flip negates its entry on a copy, and a
        segment with its own H leaves its base, each pulse at the duration
        (``evaluate_grid``'s bits); a matrix once yielded never changes."""
        M, t = self.base.base, 0.0
        for item in self.items:
            if isinstance(item, HoppingFlip):
                M = M.copy()
                item.negate(M)
            elif isinstance(item, Segment) and item.H is not None:
                M, drives = item.H.base.copy(), item.H.overrides
                end = {p: p.value(item.duration) for p in set(drives.values())}
                for (i, j), p in drives.items():
                    M[i, j] = M[j, i] = end[p]
            yield t, item, M
            if isinstance(item, Segment):
                t += item.duration


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along a schedule run.

    ``times`` are strictly increasing; a sample at an event time holds
    the post-event state.  ``states`` has shape (m, n) for a run from a
    vector, (m, n, k) for a run from an (n, k) block; samples inside a
    pulsed segment come from the accepted finer run of its convergence
    pair.  ``events`` are (time, kind, detail) markers.
    """

    times: np.ndarray
    states: np.ndarray
    events: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or states.shape[0] != times.size:
            raise ValueError("one state per sample time required")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def norm_drift(self):
        return float(np.max(np.abs(np.linalg.norm(self.states, axis=1) - 1.0)))


def run_schedule(s, psi0, samples_per_segment=33, tol=1e-11):
    """Execute a schedule from ``psi0`` and sample the state along it.

    ``psi0`` is a state of shape (n,) or a block of shape (n, k) whose
    columns run side by side.  Flips apply themselves as exact operations;
    static stretches use the spectral propagator; pulsed segments use
    the commutator-free integrator, whose convergence pair meets ``tol``
    per unit time on every column, and their samples come from the
    accepted finer run.  Returns a :class:`Trajectory` whose last
    sample is the final state.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.ndim not in (1, 2) or psi.shape[0] != s.base.n_sites:
        raise ValueError("state dimension does not match the Hamiltonian")
    _check_count("samples_per_segment", samples_per_segment, 2)
    times, kept, events = [], [], []

    def put(t, psi):
        # post-event samples overwrite a pre-event sample at the same time
        if times and t == times[-1]:
            kept[-1] = np.array(psi, dtype=complex)
        else:
            times.append(float(t))
            kept.append(np.array(psi, dtype=complex))

    put(0.0, psi)
    for clock, item, M in s.walk():
        if isinstance(item, PhaseFlip):
            psi = item.apply(psi)
            events.append((clock, "phase-flip", f"site={item.site}"))
            put(clock, psi)
        elif isinstance(item, HoppingFlip):
            i, j = item.entry
            events.append((clock, "hopping-flip", f"entry=({i},{j})"))
        else:
            n_chunks = samples_per_segment - 1
            taus = item.duration * np.arange(1, n_chunks + 1) / n_chunks
            taus[-1] = item.duration  # the last sample sits on the clock
            if item.H is None or item.H.static:
                states = _static_samples(M, psi, taus)
            else:
                _, samples = _propagate(item.H, psi, 0.0, item.duration, tol,
                                        n_chunks)
                states = np.asarray(samples)
            for tau, state in zip(taus, states):
                put(clock + tau, state)
            psi = states[-1].copy()
            events.append((clock, "segment",
                           f"t={clock:g}..{clock + item.duration:g}"))
    return Trajectory(np.asarray(times), np.asarray(kept), tuple(events))


def end_hamiltonian(s):
    """Static matrix the schedule leaves behind after its last item."""
    M = s.base.base
    for *_, M in s.walk():
        pass
    return np.array(M)


def _mirrored(seg):
    """``seg`` with its pulses replayed backwards, on the same base."""
    if seg.H is None:
        return seg
    return Segment(seg.duration, TimedHamiltonian._trusted(seg.H.base, {
        entry: TimeMirrored(p, seg.duration)
        for entry, p in seg.H.overrides.items()}))


def reverse_schedule(s):
    """Schedule that runs ``s`` backwards in time.

    Items run in reverse order; pulses inside segments are replayed
    backwards.  The base is the Hamiltonian ``s`` ends with.  For real
    Hamiltonians, running the reverse schedule on the conjugated final
    state and conjugating the result recovers the initial state.
    """
    return ProtocolSchedule(
        TimedHamiltonian(end_hamiltonian(s)),
        tuple(_mirrored(it) if isinstance(it, Segment) else it
              for it in reversed(s.items)),
        initial_state=s.target_state,
        target_state=s.initial_state,
    )
