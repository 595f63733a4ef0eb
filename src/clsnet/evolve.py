"""Time evolution, fidelity, and protocol-schedule execution.

Propagation convention: psi(t) = exp(-i H t) psi(0) with hbar = 1.
Static Hamiltonians are propagated by spectral decomposition; pulsed
ones by a fourth-order commutator-free exponential integrator (two
matrix exponentials of weighted Hamiltonian averages per step), which
is unitary up to roundoff.  States have shape (n,), or (n, k) for k
columns propagated together.  A pulsed stretch to a tolerance runs a
convergence pair of n and 2n steps, growing n until the worst column
deviates by at most tol times the duration; the result and every
sample come from the finer run of the accepted pair.

A pulsed H must be chiral, as every network here is: bipartite (hubs
and connectors couple only to dimer sites), with a uniform on-site
potential and no driven diagonal; any other raises ValueError.  The
integrator samples only the coupling block C(t) from the smaller
sublattice (p = 1 on the star, 2 on the seven-site unit, 9 on the 3x3
DLL) and exponentiates through the p x p Gram matrix C C^T.  The Gram
functions cos(sqrt X), sin(sqrt X)/sqrt X and (cos(sqrt X) - 1)/X of
X = h^2 C C^T are closed forms for p <= 2; for p > 2 they are Taylor
series with double-angle recovery, cut where the first dropped term
falls below 1e-17, and no step calls eigh.  A step acts through the
couplings alone, so a state they annihilate (say an antisymmetric
dimer under symmetric driving) is left alone exactly.

A :class:`ProtocolSchedule` is an ordered timeline of instantaneous
events (phase flips on the state, sign flips on couplings, each
applied by the flip itself and checked when the schedule is built)
and evolution segments.  Segments may carry their own pulsed Hamiltonian;
pulses inside a segment run on a segment-local clock starting at 0.
When a segment with its own Hamiltonian ends, the snapshot of that
Hamiltonian at the segment's end becomes the working Hamiltonian for
whatever follows, so reconfigurations (e.g. swapping which couplings
are active) are expressed by consecutive segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import (
    TimeMirrored,
    TimedHamiltonian,
    _sample_block,
    evaluate_at,
    evaluate_grid,  # unused here; bench/tracing.py wraps evolve.evaluate_grid
    static_matrix,
)

__all__ = [
    "evolve_static",
    "evolve_timedep",
    "evolve_timedep_fixed",
    "fidelity",
    "PhaseFlip",
    "HoppingFlip",
    "Segment",
    "ProtocolSchedule",
    "Trajectory",
    "run_schedule",
    "reverse_schedule",
    "end_hamiltonian",
]

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
_CAL_STEPS = 64         # coarse resolution of the first convergence pair
# largest budget tol*(t1-t0) a convergence pair can certify: two unit
# columns differ by at most 2, so near 1 a pair passes whatever its error
_BUDGET_MAX = 1e-3


def evolve_static(H, psi0, t):
    """Propagate ``psi0`` for duration ``t`` under a static Hamiltonian.

    Computes exp(-i H t) psi0 via spectral decomposition.  ``H`` may be
    a plain Hermitian matrix or a pulse-free :class:`TimedHamiltonian`.
    """
    return _static_samples(static_matrix(H), psi0, [float(t)])[0]


def _static_samples(M, psi0, durations):
    """States after each duration in ``durations`` under static M."""
    w, V = np.linalg.eigh(M)
    coef = (V.conj().T @ np.asarray(psi0, dtype=complex)).T
    phases = np.exp(-1j * np.multiply.outer(np.asarray(durations, float), w))
    if coef.ndim == 2:
        phases = phases[:, None, :]
    return np.moveaxis((phases * coef) @ V.T, -1, 1)


def _chain_product(stack):
    """Ordered product stack[-1] @ ... @ stack[0] by pairwise reduction."""
    if len(stack) == 0:
        raise ValueError("empty propagator stack")
    while len(stack) > 1:
        tail = stack[-1] if len(stack) % 2 else None
        if tail is not None:
            stack = stack[:-1]
        stack = stack[1::2] @ stack[0::2]
        if tail is not None:
            stack = np.concatenate([stack, tail[None]])
    return stack[0]


def _gram_functions(X):
    """c = cos(sqrt X), s = sin(sqrt X)/sqrt X, f = (cos(sqrt X) - 1)/X.

    X is a (k, p, p) stack, scaled by 4^-sigma to ||X||_inf <= 1/2.  Horner
    runs s = sum (-X)^j/(2j+1)! and f = -sum (-X)^j/(2j+2)! over j < m,
    the least m whose first dropped term r^m/(2m+1)! at the scaled norm
    r is below 1e-17 (m <= 9).  Then sigma double-angle steps
    c <- 2c^2 - 1, s <- s c, f <- f (c + 1)/2 undo the scaling (Higham &
    Smith, Numer. Algorithms 34, 13 (2003)); they run on d = c - I =
    X f, so small angles keep their relative accuracy.
    """
    r = float(np.abs(X).sum(axis=2).max(initial=0.0))
    if not np.isfinite(r):
        raise FloatingPointError("non-finite couplings in a pulsed step")
    # r < 2^e, so r / 4^sigma < 2^(e - 2 sigma) <= 1/2
    sigma = (math.frexp(r)[1] + 2) // 2 if r > 0.5 else 0
    r, X = r / 4.0 ** sigma, X / 4.0 ** sigma
    m = 1
    while r ** m / math.factorial(2 * m + 1) >= 1e-17:
        m += 1
    eye = np.eye(X.shape[1])
    s = np.broadcast_to(eye / math.factorial(2 * m - 1), X.shape)
    f = np.broadcast_to(eye / -math.factorial(2 * m), X.shape)
    for j in range(m - 2, -1, -1):
        s = eye / math.factorial(2 * j + 1) - X @ s
        f = eye / -math.factorial(2 * j + 2) - X @ f
    d = X @ f
    for _ in range(sigma):
        s = s + s @ d
        f = f + 0.5 * (f @ d)
        d = 2.0 * (d @ d) + 4.0 * d
    return eye + d, s, f


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
    real.  For p <= 2 the functions come from the closed-form eigenpairs
    C C^T = W diag(s^2) W^T; larger p uses the Taylor series of
    :func:`_gram_functions` with double-angle recovery.
    """
    k, p, q = C.shape
    n = p + q
    Ct = np.ascontiguousarray(C.swapaxes(1, 2))
    gram = C @ Ct
    R = np.empty((k, n, n))
    if p > 2:
        c, s, f = _gram_functions(h * h * gram)
        R[:, :p, :p] = c
        np.matmul(h * s, C, out=R[:, :p, p:])
        np.negative(R[:, :p, p:].swapaxes(1, 2), out=R[:, p:, :p])
        np.matmul(Ct, (h * h) * f @ C, out=R[:, p:, p:])
        R.reshape(k, n * n)[:, p * (n + 1)::n + 1] += 1.0
        return R
    if p == 1:
        lam, W = gram[:, 0], np.ones((k, 1, 1))
    else:
        # the Jacobi rotation W = [[c, -s], [s, c]] diagonalizes [[a, b], [b, d]]
        a, b, d = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        theta = 0.5 * np.arctan2(2.0 * b, a - d)
        r = np.hypot(0.5 * (a - d), b)
        lam = np.stack([0.5 * (a + d) + r, 0.5 * (a + d) - r], axis=1)
        c, s = np.cos(theta), np.sin(theta)
        W = np.stack([c, -s, s, c], axis=1).reshape(k, 2, 2)
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


def _cf4_run(H, psi0, t0, t1, n_steps, record_every=None):
    """Fixed-step commutator-free propagation of psi over [t0, t1].

    Times refer to the pulse clock of ``H``; ``psi0`` is (n,) or (n, k).
    Returns (final_state, samples) where samples is a list of states
    taken after every ``record_every`` steps (or None if not requested).

    ``H`` must have a chiral split (``TimedHamiltonian._sublattices``
    raises ValueError otherwise): each CF4 generator is (v/2) I +
    [[0, C], [C^T, 0]] in its site order.  A chunk samples only C(t), as
    one (2m, p, q) stack on the C1 and C2 nodes, and each exponential is
    e^{-ihv/2} times :func:`_sublattice_exponentials`.  The state runs
    permuted A-first, in the frame where those are real; the phase and
    the frame are undone for every sample and the result.
    """
    n = int(n_steps)
    h = (t1 - t0) / n
    if t0 + 0.5 * h == t0:
        raise RuntimeError(f"step size underflow: h={h!r} vanishes at t={t0!r}")
    order, p = H._sublattices
    a, b = order[:p], order[p:]
    v = H.base[0, 0]
    psi = np.asarray(psi0, dtype=complex)[order]
    psi[p:] *= -1j

    def state(phi, steps):
        out = np.empty_like(phi)
        out[a] = phi[:p]
        out[b] = 1j * phi[p:]
        return out * np.exp(-1j * v * h * steps)

    samples = [] if record_every else None
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        ts = t0 + (done + np.arange(m)) * h
        nodes = np.concatenate([ts + _C1 * h, ts + _C2 * h])
        A = _sample_block(H, nodes, a, b)
        A1, A2 = A[:m], A[m:]
        stacked = np.concatenate([_X2 * A1 + _X1 * A2, _X1 * A1 + _X2 * A2])
        E = _sublattice_exponentials(stacked, h)
        U = E[m:] @ E[:m]
        marks = range(record_every - done % record_every, m + 1,
                      record_every) if record_every else ()
        start = 0
        for stop in marks:
            psi = _chain_product(U[start:stop]) @ psi
            samples.append(state(psi, done + stop))
            start = stop
        if start < m:
            psi = _chain_product(U[start:]) @ psi
        done += m
    return state(psi, n), samples


def evolve_timedep_fixed(H, psi0, t0, t1, n_steps):
    """Propagate under a pulsed Hamiltonian with a fixed step count."""
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    return _cf4_run(H, psi0, t0, t1, n_steps)[0]


def _propagate(H, psi0, t0, t1, tol, n_chunks=1):
    """Propagate over [t0, t1] to ``tol`` per unit time by convergence pair.

    Runs n and 2n steps from n = _CAL_STEPS, n a multiple of
    ``n_chunks``, and accepts once the worst column of the two runs
    deviates by at most tol*(t1-t0); otherwise n grows by the
    fourth-order error model (at least doubling) and the pair reruns.
    Returns (final, samples) of the finer run, with ``n_chunks``
    evenly spaced samples.  Raises RuntimeError past _N_MAX steps, or
    before integrating when the budget tol*(t1-t0) exceeds _BUDGET_MAX.
    """
    budget = tol * (t1 - t0)
    if budget > _BUDGET_MAX:
        raise RuntimeError(f"error budget tol*(t1-t0) = {budget:g} exceeds "
                           f"{_BUDGET_MAX:g}: no convergence pair bounds it")
    n = _CAL_STEPS
    while True:
        n = -(-n // n_chunks) * n_chunks
        if n > _N_MAX:
            raise RuntimeError(
                f"step size underflow: {n} steps needed for tol={tol:g} "
                f"over [{t0:g}, {t1:g}] exceeds the {_N_MAX} ceiling")
        coarse, _ = _cf4_run(H, psi0, t0, t1, n)
        fine, samples = _cf4_run(H, psi0, t0, t1, 2 * n,
                                 record_every=2 * n // n_chunks)
        err = float(np.max(np.linalg.norm(coarse - fine, axis=0)))
        if err <= budget:
            return fine, samples
        n = max(int(np.ceil(n * (err / (0.25 * budget)) ** 0.25)), 2 * n)


def evolve_timedep(H, psi0, t0, t1, tol):
    """Propagate under a pulsed Hamiltonian to ``tol`` per unit time.

    The state comes from the finer run of a convergence pair within
    tol*(t1-t0).  Raises RuntimeError, rather than clamping, when the
    step count or the budget is out of reach (see :func:`_propagate`).
    """
    if not (1e-14 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-14, 1e-6]")
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    return _propagate(H, psi0, t0, t1, tol)[0]


def fidelity(psi, phi):
    """Squared overlap |<phi|psi>|^2; insensitive to global phases."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return float(abs(np.vdot(phi, psi)) ** 2)


@dataclass(frozen=True)
class PhaseFlip:
    """Instantaneous sign flip of the state amplitude on one site."""

    time: float
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

    time: float
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
    """Evolution interval.  ``H`` overrides the working Hamiltonian.

    With H=None the segment evolves under the schedule's working
    Hamiltonian (base plus accumulated coupling flips).  A segment
    with its own H runs the pulses on a clock starting at 0, and its
    end snapshot becomes the working Hamiltonian afterwards.
    """

    t_start: float
    t_end: float
    H: Optional[TimedHamiltonian] = None

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("segment must have positive duration")

    @property
    def duration(self):
        return self.t_end - self.t_start


@dataclass(frozen=True)
class ProtocolSchedule:
    """Time-ordered flips and segments over a static base Hamiltonian.

    ``initial_state`` and ``target_state`` declare what the schedule is
    meant to do; executing it is the job of :func:`run_schedule`.
    Construction validates chronology (each segment starts where the
    previous one ended; flips sit at segment boundaries) and rejects
    same-time events acting on the same site or entry, flips outside
    the base (IndexError) and segments of another size (ValueError).
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
        t_now = None
        touched = set()
        for item in items:
            if isinstance(item, Segment):
                if item.H is not None and item.H.n_sites != n:
                    raise ValueError(f"segment H has {item.H.n_sites} sites, "
                                     f"the base {n}")
                if t_now is not None and abs(item.t_start - t_now) > 1e-9:
                    raise ValueError(
                        f"segment starting at {item.t_start} does not begin at "
                        f"the current schedule time {t_now}")
                t_now = item.t_end
            elif isinstance(item, (PhaseFlip, HoppingFlip)):
                if t_now is None:
                    t_now = item.time
                elif abs(item.time - t_now) > 1e-9:
                    raise ValueError(
                        f"event at t={item.time} is not at a segment boundary "
                        f"(schedule time {t_now})")
                sites = (item.site,) if isinstance(item, PhaseFlip) \
                    else item.entry
                if not all(0 <= i < n for i in sites):
                    raise IndexError(f"{item!r} acts outside sites 0..{n - 1}")
                key = (round(item.time, 10), type(item), sites)
                if key in touched:
                    raise ValueError(
                        f"conflicting events at t={item.time} on {item!r}")
                touched.add(key)
            else:
                raise TypeError(f"unknown schedule item {item!r}")
        for state in (self.initial_state, self.target_state):
            if state is not None and len(state) != self.base.n_sites:
                raise ValueError("declared state has wrong dimension")

    @property
    def t_origin(self):
        if not self.items:
            return 0.0
        first = self.items[0]
        return first.t_start if isinstance(first, Segment) else first.time

    @property
    def t_final(self):
        t = self.t_origin
        for item in self.items:
            t = max(t, item.t_end if isinstance(item, Segment) else item.time)
        return t


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
    if samples_per_segment < 2:
        raise ValueError("need at least 2 samples per segment")
    times, kept, events = [], [], []

    def put(t, psi):
        # post-event samples overwrite a pre-event sample at the same time
        if times and abs(t - times[-1]) <= 1e-12:
            kept[-1] = np.array(psi, dtype=complex)
        else:
            times.append(float(t))
            kept.append(np.array(psi, dtype=complex))

    working = np.array(s.base.base)
    put(s.t_origin, psi)
    for item in s.items:
        if isinstance(item, PhaseFlip):
            psi = item.apply(psi)
            events.append((item.time, "phase-flip", f"site={item.site}"))
            put(item.time, psi)
        elif isinstance(item, HoppingFlip):
            item.negate(working)
            i, j = item.entry
            events.append((item.time, "hopping-flip", f"entry=({i},{j})"))
        else:
            n_chunks = samples_per_segment - 1
            taus = item.duration * np.arange(1, n_chunks + 1) / n_chunks
            if item.H is None or item.H.static:
                M = working if item.H is None else np.asarray(item.H.base)
                states = _static_samples(M, psi, taus)
            else:
                _, samples = _propagate(item.H, psi, 0.0, item.duration, tol,
                                        n_chunks)
                states = np.asarray(samples)
            for tau, state in zip(taus, states):
                put(item.t_start + tau, state)
            psi = states[-1].copy()
            events.append((item.t_start, "segment",
                           f"t={item.t_start:g}..{item.t_end:g}"))
            if item.H is not None:
                working = evaluate_at(item.H, item.duration)
    return Trajectory(np.asarray(times), np.asarray(kept), tuple(events))


def end_hamiltonian(s):
    """Static matrix the schedule leaves behind after its last item."""
    working = np.array(s.base.base)
    for item in s.items:
        if isinstance(item, HoppingFlip):
            item.negate(working)
        elif isinstance(item, Segment) and item.H is not None:
            working = evaluate_at(item.H, item.duration)
    return working


def _mirror_pulses(H, duration):
    overrides = {entry: TimeMirrored(p, duration)
                 for entry, p in H.overrides.items()}
    return TimedHamiltonian(np.array(H.base), overrides)


def reverse_schedule(s):
    """Schedule that runs ``s`` backwards in time.

    Items are reversed and re-anchored on the mirrored clock
    t -> t_origin + t_final - t; pulses inside segments are replayed
    backwards.  The base is the Hamiltonian ``s`` ends with.  For real
    Hamiltonians, running the reverse schedule on the conjugated final
    state and conjugating the result recovers the initial state.
    """
    t_lo, t_hi = s.t_origin, s.t_final

    def m(t):
        return t_lo + t_hi - t

    items = []
    for item in reversed(s.items):
        if isinstance(item, PhaseFlip):
            items.append(PhaseFlip(m(item.time), item.site))
        elif isinstance(item, HoppingFlip):
            items.append(HoppingFlip(m(item.time), item.entry))
        else:
            H_rev = None if item.H is None else _mirror_pulses(item.H, item.duration)
            items.append(Segment(m(item.t_end), m(item.t_start), H_rev))
    return ProtocolSchedule(
        TimedHamiltonian(end_hamiltonian(s)),
        tuple(items),
        initial_state=s.target_state,
        target_state=s.initial_state,
    )
