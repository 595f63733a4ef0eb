"""Site graphs, pulses, and time-dependent tight-binding Hamiltonians.

This module builds the three network geometries used throughout the
package and provides the machinery to make individual matrix entries
time dependent:

* a five-site star (two dimers coupled through a hub),
* a seven-site chain-of-hubs unit (two dimers, two connector sites,
  one central hub),
* a decorated Lieb lattice (DLL) of unit cells with one hub and two
  dimers each, with open boundary conditions.

A Hamiltonian is stored as a dense real symmetric ``base`` matrix plus
a mapping from matrix entries to :class:`Pulse` objects, all sampled by
:func:`_fill_block`.  Conventions: hbar = 1, energies in abstract
units, times in inverse energy units.  All couplings and potentials are
real, so Hermitian means symmetric here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping

import numpy as np

__all__ = [
    "Pulse",
    "LinearRamp",
    "CrabTransferPulse",
    "CreationStarPulse",
    "CreationSevenPulse",
    "TimeMirrored",
    "SiteGraph",
    "TimedHamiltonian",
    "build_star",
    "build_seven",
    "build_dll",
    "static_matrix",
    "evaluate_at",
    "evaluate_grid",
    "STAR_EDGES",
    "SEVEN_EDGES",
]

# Edge lists in coupling order.  Star sites: 0,1 first dimer, 2 hub,
# 3,4 second dimer.  Seven sites: 0,1 dimer, 2 connector, 3 central
# hub, 4 connector, 5,6 dimer.
STAR_EDGES = ((0, 2), (1, 2), (2, 3), (2, 4))
SEVEN_EDGES = ((0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6))


class Pulse:
    """Scalar function of time attached to one Hamiltonian entry.

    Subclasses implement ``_sample(t)`` on a float ndarray of times,
    returning the same shape; :meth:`value` is the one place a scalar
    time becomes a float.  Pulses are immutable.
    """

    def value(self, t):
        """A float for a scalar ``t``, sampled as a one-element array,
        else an array of ``t``'s shape."""
        if np.ndim(t):
            return self._sample(np.asarray(t, dtype=float))
        return float(self._sample(np.array([t], dtype=float))[0])

    def _sample(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearRamp(Pulse):
    """Linear interpolation from ``start`` to ``end`` over ``duration``.

    The declared endpoints are returned exactly at t <= 0 and
    t >= duration; no floating-point drift at the boundaries.
    """

    start: float
    end: float
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("ramp duration must be positive")

    def _sample(self, t):
        s = t / self.duration
        v = self.start + (self.end - self.start) * s
        v = np.where(s <= 0.0, self.start, v)
        return np.where(s >= 1.0, self.end, v)


@dataclass(frozen=True)
class CrabTransferPulse(Pulse):
    """Transfer-pulse ansatz: floor * (1 + envelope * bracket^2).

    value(t) = floor * (1 + sin(t / env_div) * (x sin(w t) + xp cos(w t))^2)

    with env_div = 2 on horizon 2*pi (star) or env_div = 4 on horizon
    4*pi (seven-site).  The envelope is non-negative on the horizon and
    the bracket enters squared, so the value never drops below
    ``floor`` there, and equals ``floor`` exactly at both ends.
    """

    floor: float
    x: float
    xp: float
    omega: float
    env_div: float = 2.0

    def _sample(self, t):
        bracket = self.x * np.sin(self.omega * t) + self.xp * np.cos(self.omega * t)
        return self.floor * (1.0 + np.sin(t / self.env_div) * bracket**2)


@dataclass(frozen=True)
class CreationStarPulse(Pulse):
    """Oscillating creation pulse with a linear envelope.

    value(t) = (1 + x sin(w t) + xp sin(wp t)) * amplitude * (1 - t / horizon)

    The bracket is not squared; the value may become negative.  The
    linear factor vanishes exactly at t = horizon.  The plain ramp
    partner of this pulse is ``LinearRamp(amplitude, 0, horizon)``.
    """

    x: float
    xp: float
    omega: float
    omegap: float
    amplitude: float
    horizon: float

    def _sample(self, t):
        bracket = 1.0 + self.x * np.sin(self.omega * t) + self.xp * np.sin(self.omegap * t)
        lin = np.where(t >= self.horizon, 0.0, 1.0 - t / self.horizon)
        return bracket * self.amplitude * lin


@dataclass(frozen=True)
class CreationSevenPulse(Pulse):
    """Seven-site creation pulse: floor * (1 + sin(t/2) * bracket).

    Unlike the transfer ansatz the bracket is not squared, so the
    coupling may become negative.  Equals ``floor`` exactly at t = 0
    and t = 2*pi.
    """

    floor: float
    x: float
    xp: float
    omega: float

    def _sample(self, t):
        bracket = self.x * np.sin(self.omega * t) + self.xp * np.cos(self.omega * t)
        return self.floor * (1.0 + np.sin(t / 2.0) * bracket)


@dataclass(frozen=True)
class TimeMirrored(Pulse):
    """An inner pulse at (horizon - t): its profile run backwards, e.g.
    a decoupling profile turned into the matching coupling one."""

    inner: Pulse
    horizon: float

    def _sample(self, t):
        return self.inner._sample(self.horizon - t)


@dataclass(frozen=True)
class SiteGraph:
    """Static connectivity and site roles of a network: sites dense in
    [0, n_sites), unordered coupling ``edges`` stored as (i, j) with
    i < j, and one label per site, 'dimer-upper', 'dimer-lower' or
    'hub' (dimer partners are adjacent in index order, upper first)."""

    n_sites: int
    edges: tuple
    labels: tuple
    _adjacent: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        adjacent = {}
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-edge on site {i}")
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
                raise ValueError(f"edge ({i},{j}) outside site range")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not stored in (low, high) order")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            adjacent.setdefault(i, []).append(j)
            adjacent.setdefault(j, []).append(i)
        if len(self.labels) != self.n_sites:
            raise ValueError("one label per site required")
        object.__setattr__(self, "_adjacent", {
            i: tuple(sorted(v)) for i, v in adjacent.items()})
        object.__setattr__(self, "_hash", hash(
            (self.n_sites, self.edges, self.labels)))

    def __hash__(self):
        return self._hash

    def dimers(self):
        """All dimer pairs (upper, lower), in site-index order."""
        out = []
        for i, lab in enumerate(self.labels):
            if lab == "dimer-upper":
                if i + 1 >= self.n_sites or self.labels[i + 1] != "dimer-lower":
                    raise ValueError(f"dimer-upper at {i} lacks a lower partner")
                out.append((i, i + 1))
        return tuple(out)

    def hubs(self):
        """All hub site indices."""
        return tuple(i for i, lab in enumerate(self.labels) if lab == "hub")

    def neighbors(self, site):
        """Sites sharing an edge with ``site``, ascending."""
        return self._adjacent.get(site, ())


def _check_hermitian(M, name, kind):
    """Raise ValueError unless square ``M`` has finite entries and
    max |M - M^H| <= 1e-12."""
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must have finite entries")
    # an exact mirror, the usual case, needs no difference matrix
    if not (M == M.conj().T).all() and \
            np.abs(M - M.conj().T).max() > 1e-12:
        raise ValueError(f"{name} must be {kind}")


def _normalize_entry(entry, n):
    i, j = int(entry[0]), int(entry[1])
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i},{j}) outside a {n}x{n} matrix")
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class TimedHamiltonian:
    """Real symmetric matrix with optional per-entry pulse overrides.

    ``base`` holds the static couplings and on-site potentials.  Each
    override maps an entry (i, j) with i <= j to a :class:`Pulse`; the
    entry and its mirror take the pulse value instead of the base
    value.  Entries without an override are constant in time.
    Instances are immutable.
    """

    base: np.ndarray
    overrides: Mapping = field(default_factory=dict)

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError("base must be a square matrix")
        _check_hermitian(base, "base", "symmetric")
        base.setflags(write=False)
        object.__setattr__(self, "base", base)
        fixed = {}
        for entry, pulse in dict(self.overrides).items():
            key = _normalize_entry(entry, base.shape[0])
            if not isinstance(pulse, Pulse):
                raise TypeError("override values must be Pulse instances")
            fixed[key] = pulse
        object.__setattr__(self, "overrides", fixed)

    @property
    def n_sites(self):
        return self.base.shape[0]

    @property
    def static(self):
        return not self.overrides

    @classmethod
    def _trusted(cls, base, overrides, **cached):
        """The one constructor that skips ``__post_init__``, sharing the
        read-only ``base`` of a validated instance; ``overrides`` are keyed
        by (i, j), i <= j, and ``cached`` presets cached properties."""
        H = object.__new__(cls)
        H.__dict__.update(base=base, overrides=overrides, **cached)
        return H

    @cached_property
    def _eigh(self):
        """Read-only eigh of the base, a static instance's spectrum."""
        w, V = np.linalg.eigh(self.base)
        w.flags.writeable = V.flags.writeable = False
        return w, V

    @cached_property
    def _plans(self):
        """evolve's plan of the last pulsed run, keyed by its inputs."""
        return {}

    @cached_property
    def _sublattices(self):
        """Chiral split of the sites: (order, p, parts), sublattice A first.

        Every pulsed H must have one: a uniform on-site potential, no
        pulse on a diagonal entry, and a 2-colourable graph of nonzero
        base couplings plus driven entries; else ValueError names what
        fails.  Then H(t) = v*I + [[0, C(t)], [C(t)^T, 0]] in the basis
        ``order``, whose first ``p`` sites form A: the smaller colour
        class of each connected component (an isolated site joins B).
        ``parts[i]`` numbers the component of site ``order[i]``; H(t) is
        block diagonal over them.  Computed on first use.
        """
        n = self.n_sites
        diag = np.diagonal(self.base)
        driven = [e for e in self.overrides if e[0] == e[1]]
        if driven or (diag != diag[0]).any():
            why = f"a pulse drives the diagonal entry {driven[0]}" \
                if driven else "the on-site potential is not uniform"
            raise ValueError(f"{why}: not a chiral Hamiltonian")
        adjacent = [[] for _ in range(n)]
        rows, cols = np.nonzero(np.triu(self.base, 1))
        for i, j in chain(zip(rows.tolist(), cols.tolist()), self.overrides):
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


def _unit_matrix(n, edges, J, v):
    """Base matrix of an n-site unit: couplings ``J`` (scalar or one per
    edge, in ``edges`` order) and on-site potentials ``v`` (scalar or
    one per site)."""
    J = np.broadcast_to(np.asarray(J, dtype=float), (len(edges),))
    v = np.broadcast_to(np.asarray(v, dtype=float), (n,))
    base = np.diag(v)
    for coupling, (i, j) in zip(J, edges):
        base[i, j] = base[j, i] = coupling
    return base


def build_star(J, v):
    """Five-site star: the four couplings ``J`` of outer sites 0, 1, 3, 4
    to hub 2, in ``STAR_EDGES`` order, and on-site potentials ``v``
    (scalar, or five in site order)."""
    return TimedHamiltonian(_unit_matrix(5, STAR_EDGES, J, v), {})


def build_seven(J, v):
    """Seven-site unit, dimer - connector - hub - connector - dimer: the
    six couplings ``J`` in ``SEVEN_EDGES`` order (dimer sites 0, 1 to
    connector 2, 2 to hub 3, 3 to connector 4, 4 to dimer sites 5, 6)
    and on-site potentials ``v`` (scalar, or seven)."""
    return TimedHamiltonian(_unit_matrix(7, SEVEN_EDGES, J, v), {})


def build_dll(cells_x, cells_y, J, v):
    """Decorated Lieb lattice with open boundaries.

    Each unit cell contributes one hub and two dimers (5 sites).  The
    horizontal dimer of cell (i, j) couples to the hubs of cells
    (i, j) and (i+1, j); the vertical dimer to the hubs of (i, j) and
    (i, j+1).  Dimers on the right or top boundary keep only their
    single adjacent hub.  Dimer sites never couple to each other.
    Returns (SiteGraph, TimedHamiltonian) for cell counts >= 1, a
    uniform hub-dimer coupling J and a uniform on-site potential v.
    """
    if cells_x < 1 or cells_y < 1:
        raise ValueError("need at least one cell in each direction")
    n = 5 * cells_x * cells_y

    def hub(i, j):
        return 5 * (j * cells_x + i)

    labels = []
    edges = []
    for j in range(cells_y):
        for i in range(cells_x):
            h = hub(i, j)
            labels += ["hub", "dimer-upper", "dimer-lower", "dimer-upper", "dimer-lower"]
            for s in (h + 1, h + 2):          # horizontal dimer
                edges.append(tuple(sorted((s, h))))
                if i + 1 < cells_x:
                    edges.append(tuple(sorted((s, hub(i + 1, j)))))
            for s in (h + 3, h + 4):          # vertical dimer
                edges.append(tuple(sorted((s, h))))
                if j + 1 < cells_y:
                    edges.append(tuple(sorted((s, hub(i, j + 1)))))

    graph = SiteGraph(n, tuple(sorted(set(edges))), tuple(labels))
    return graph, TimedHamiltonian(_unit_matrix(n, graph.edges, J, v), {})


def static_matrix(H):
    """Matrix of a pulse-free Hamiltonian or of a checked Hermitian array."""
    if isinstance(H, TimedHamiltonian):
        if not H.static:
            raise ValueError("Hamiltonian has pulse overrides; "
                             "need a pulse-free one")
        return np.asarray(H.base)
    M = np.asarray(H)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    _check_hermitian(M, "Hamiltonian", "Hermitian")
    return M


def evaluate_at(H, t):
    """Dense symmetric snapshot of ``H`` at time ``t``: the one-time
    case of :func:`evaluate_grid`."""
    return evaluate_grid(H, [t])[0]


def evaluate_grid(H, times):
    """Stacked snapshots of ``H`` at an array of times, shape
    (len(times), n, n); pulses are evaluated vectorized over time."""
    sites = np.arange(H.n_sites)
    return _fill_block(H, times, *_block_plan(H, sites, sites))


def _block_plan(H, rows, cols):
    """The base block H.base[rows][:, cols] and the (entry, row, column)
    slots in it that H's overrides drive, in override order: all that
    sampling the block needs besides the pulses, built once per plan."""
    at_row = dict(zip(rows.tolist(), range(len(rows))))
    at_col = dict(zip(cols.tolist(), range(len(cols))))
    return H.base[np.ix_(rows, cols)], tuple(
        (e, at_row[r], at_col[c]) for e in H.overrides
        for r, c in (e, e[::-1]) if r in at_row and c in at_col)


def _fill_block(H, times, block, slots):
    """C-contiguous (len(times),) + block.shape stack of ``block`` with
    H's pulses at ``times`` in ``slots`` (:func:`_block_plan`): each
    distinct pulse is sampled once, and no n x n snapshot is formed."""
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size,) + block.shape)
    out[:] = block
    pulses = [H.overrides[e] for e, _, _ in slots]
    sampled = {p: p._sample(times) for p in set(pulses)}
    for (_, r, c), pulse in zip(slots, pulses):
        out[:, r, c] = sampled[pulse]
    return out
