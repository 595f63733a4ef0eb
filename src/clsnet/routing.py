"""CLS transport across the decorated Lieb lattice.

A stored dimer state moves through the network by dimer-jumps: ramp the
surrounding couplings of one five-site star to zero (symmetrically on
the dimer couplings, so the state is untouched), run the star
protocol's flip transfer inside the isolated star (the flips of
``build_schedule(variant, params)`` for the lattice's member
``transfer_member_for(J, v)``), and ramp the couplings back.  Longer
routes chain jumps through adjacent hubs.  Over its window a jump
holds its four spokes exclusively and ramps its boundary couplings;
routes run at once as long as no coupling is held twice at
overlapping times, unless both holds are ramps with the same window
and ramp time (one profile).

All planning and scheduling here is deterministic: shortest routes in
the dimer-adjacency graph with lexicographic tie-breaks, greedy
earliest-start scheduling in request order.

Each ``SiteGraph`` gets its dimer tables (hubs, each hub's dimers, the
dimer adjacency, the edge index) once, on first use, and planning reads
them.  Each plan's holds are built once and shifted per start examined.

Simulation runs each route's column only where its stored state lives,
its dimer or, over a jump window, its star; a Duhamel leak bound
certifies it, and the full-lattice run replaces it where a bound or a
clash says so (see :func:`simulate_route`).
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    Segment,
    _static_samples,
    fidelity,
    run_schedule,
)
from .lattice import LinearRamp, TimedHamiltonian
from .protocols import TRANSFER_VARIANTS, StarTransferParams, \
    build_schedule, transfer_member_for
from .spectral import dimer_state

__all__ = [
    "StarView",
    "Jump",
    "RoutePlan",
    "Timeline",
    "RouteReport",
    "extract_star",
    "build_ramp",
    "dimer_adjacency",
    "plan_route",
    "schedule_multi",
    "verify_timeline",
    "timeline_schedule",
    "simulate_route",
]


@dataclass(frozen=True)
class StarView:
    """One five-site star embedded in a larger lattice.

    ``boundary_entries`` are exactly the couplings that leave the star;
    ramping them to zero isolates it.
    """

    center: int
    dimer_in: tuple
    dimer_out: tuple
    boundary_entries: tuple

    @property
    def sites(self):
        """Star sites in protocol order (in-pair, center, out-pair)."""
        return (*self.dimer_in, self.center, *self.dimer_out)

    @cached_property
    def spokes(self):
        """The four hub couplings, in protocol order of the dimer sites."""
        return tuple(tuple(sorted((s, self.center)))
                     for s in (*self.dimer_in, *self.dimer_out))


@dataclass(frozen=True)
class Jump:
    """One dimer-jump: isolate ``star``, transfer, reconnect."""

    star: StarView
    variant: str
    dt: float
    params: StarTransferParams

    @property
    def duration(self):
        return 2 * self.dt + self.params.T


@dataclass(frozen=True)
class RoutePlan:
    """Chain of dimer-jumps from ``source`` to ``destination``."""

    jumps: tuple
    source: tuple
    destination: tuple

    def __post_init__(self):
        prev = self.source
        for j in self.jumps:
            if j.star.dimer_in != prev:
                raise ValueError("jumps do not chain source to destination")
            prev = j.star.dimer_out
        if prev != self.destination:
            raise ValueError("jumps do not chain source to destination")

    @property
    def duration(self):
        return sum(j.duration for j in self.jumps)


@dataclass(frozen=True)
class Timeline:
    """Scheduled routes and their start times."""

    routes: tuple
    starts: tuple

    @cached_property
    def jumps(self):
        """Per route, its jumps' (jump, t0, t1, holds) from its start."""
        return tuple(tuple(_shifted(_jump_holds(plan), start))
                     for plan, start in zip(self.routes, self.starts))

    @cached_property
    def busy(self):
        """Per route, the (center, t0, t1) window of each jump."""
        return tuple(tuple((j.star.center, t0, t1) for j, t0, t1, _ in row)
                     for row in self.jumps)

    @property
    def end(self):
        return max((iv[2] for row in self.busy for iv in row), default=0.0)


@dataclass(frozen=True)
class RouteReport:
    """Outcome of simulating one timeline.  ``norm_drift`` is the
    largest deviation from 1 of any column's norm over the samples at
    segment ends, the only ones the simulation takes.  ``leak_bound``
    is, per route, the support walk's bound on its column's distance
    from the full-lattice one (inf where the walk could not run)."""

    fidelities: tuple
    per_jump: tuple
    final_states: tuple
    norm_drift: float
    leak_bound: tuple


def _dimer_hubs(graph, pair):
    shared = set(graph.neighbors(pair[0])) & set(graph.neighbors(pair[1]))
    return tuple(sorted(shared - set(pair)))


# per graph, on its first use: hubs, hub -> its dimers, the read-only
# dimer adjacency and the edge index; keyed weakly, so an entry goes
# with the graph that built it, and equal graphs share it meanwhile
_Tables = namedtuple("_Tables", "hubs hub_dimers adjacency edge_index")
_TABLES = weakref.WeakKeyDictionary()


def _tables(graph):
    tables = _TABLES.get(graph)
    if tables is None:
        hub_dimers = {}
        for d in graph.dimers():
            for h in _dimer_hubs(graph, d):
                hub_dimers.setdefault(h, []).append(d)
        adj = {d: [] for d in graph.dimers()}
        for h, ds in sorted(hub_dimers.items()):
            for d in ds:
                adj[d] += [(h, d2) for d2 in ds if d2 != d]
        tables = _TABLES[graph] = _Tables(
            graph.hubs(),
            {h: tuple(sorted(ds)) for h, ds in hub_dimers.items()},
            MappingProxyType({d: tuple(sorted(v)) for d, v in adj.items()}),
            tuple(np.array(graph.edges, dtype=int).reshape(-1, 2).T))
    return tables


def extract_star(graph, H, center, dimer_in=None, dimer_out=None):
    """View of the five-site star around a hub of the lattice.

    The two dimers give the transfer direction; by default the two
    lexicographically smallest dimers adjacent to the hub are used.
    """
    tables = _tables(graph)
    if center not in tables.hubs:
        raise ValueError(f"site {center} is not a hub")
    adjacent = tables.hub_dimers.get(center, ())
    if len(adjacent) < 2:
        raise ValueError(f"hub {center} has fewer than two adjacent dimers")
    if dimer_in is None:
        dimer_in = adjacent[0]
    if dimer_out is None:
        dimer_out = next(d for d in adjacent if d != tuple(dimer_in))
    dimer_in, dimer_out = tuple(dimer_in), tuple(dimer_out)
    for d in (dimer_in, dimer_out):
        if d not in adjacent:
            raise ValueError(f"dimer {d} is not adjacent to hub {center}")
    if dimer_in == dimer_out:
        raise ValueError("input and output dimers must differ")

    sites = {center, *dimer_in, *dimer_out}
    inside, boundary = set(), []
    for a in sites:
        for b in graph.neighbors(a):
            e = (a, b) if a < b else (b, a)
            if b in sites:
                inside.add(e)
            else:
                boundary.append(e)
    star = StarView(center, dimer_in, dimer_out, tuple(sorted(boundary)))
    # the induced subgraph must be the star: four spokes, nothing else
    if inside != set(star.spokes):
        raise ValueError("induced subgraph around the hub is not a star")
    return star


def _ramp_slice(base_v, r0, r1, direction, b, b2):
    """LinearRamp over [b, b2] cut from one entry's linear ramp over
    [r0, r1]: 'down' from ``base_v`` to exactly 0, 'up' the reverse."""
    s, s2 = (b - r0) / (r1 - r0), (b2 - r0) / (r1 - r0)
    if direction == "down":
        return LinearRamp(base_v * (1.0 - s), base_v * (1.0 - s2), b2 - b)
    return LinearRamp(base_v * s, base_v * s2, b2 - b)


def build_ramp(H, entries, direction, dt):
    """Linear ramp segment over [0, dt] for the given entries.

    ``direction`` 'down' takes each entry from its base value to
    exactly 0, 'up' the reverse.  Entries with equal base values get
    identical profiles, which is what keeps a stored dimer state
    unperturbed.
    """
    if not isinstance(H, TimedHamiltonian) or not H.static:
        raise ValueError("ramps are built from a static Hamiltonian")
    if not dt > 0:
        raise ValueError("ramp duration must be positive")
    if direction not in ("down", "up"):
        raise ValueError(f"unknown ramp direction {direction!r}")
    entries = [tuple(sorted(e)) for e in entries]
    if len(set(entries)) != len(entries):
        raise ValueError("duplicate ramp entries")
    overrides = {}
    for e in entries:
        if e[0] == e[1]:
            raise ValueError("cannot ramp a diagonal entry")
        overrides[e] = _ramp_slice(float(H.base[e]), 0.0, dt, direction,
                                   0.0, dt)
    return Segment(dt, TimedHamiltonian(H.base, overrides))


def dimer_adjacency(graph):
    """Read-only map dimer -> sorted tuple of (hub, neighbor dimer)."""
    return _tables(graph).adjacency


def plan_route(graph, H, src_dimer, dst_dimer, variant="phase-flip-transfer",
               dt=1.0):
    """Shortest dimer-jump chain from one dimer to another.

    Breadth-first search on the dimer-adjacency graph; among equal-
    length routes the lexicographically smallest (hub, dimer) moves
    win.  Raises when the dimers are not connected.
    """
    src, dst = tuple(src_dimer), tuple(dst_dimer)
    tables = _tables(graph)
    adj = tables.adjacency
    if src not in adj or dst not in adj:
        raise ValueError("source and destination must be lattice dimers")
    if variant not in TRANSFER_VARIANTS:
        raise ValueError(f"unknown transfer variant {variant!r}")
    if src == dst:
        return RoutePlan((), src, dst)

    parent = {src: None}
    frontier = [src]
    while frontier and dst not in parent:
        nxt = []
        for d in frontier:
            for h, d2 in adj[d]:
                if d2 not in parent:
                    parent[d2] = (d, h)
                    nxt.append(d2)
        frontier = nxt
    if dst not in parent:
        raise ValueError(f"no route from {src} to {dst}")

    chain = []
    d = dst
    while parent[d] is not None:
        prev, hub = parent[d]
        chain.append((prev, hub, d))
        d = prev
    chain.reverse()

    vals, diag = H.base[tables.edge_index], np.diag(H.base)
    if vals.size == 0 or np.ptp(vals) > 1e-12 or np.ptp(diag) > 1e-12:
        raise ValueError("route planning needs uniform couplings and "
                         "potentials")
    params = transfer_member_for(float(vals[0]), float(diag[0]))
    jumps = tuple(
        Jump(extract_star(graph, H, hub, dimer_in=a, dimer_out=b),
             variant, dt, params)
        for a, hub, b in chain)
    return RoutePlan(jumps, src, dst)


def _jump_holds(plan):
    """Per jump of ``plan``: (jump, r0, r1, holds) relative to its
    start, the one jump model of scheduling, checking and building.
    r0 sums the durations of the earlier jumps, r1 = r0 + duration;
    ``holds`` are the (entry, ramped) couplings held all of the window:
    the spokes exclusively, the boundary entries as a ramp."""
    out, r0 = [], 0.0
    for j in plan.jumps:
        r1 = r0 + j.duration
        holds = tuple((e, False) for e in j.star.spokes) + \
            tuple((e, True) for e in j.star.boundary_entries)
        out.append((j, r0, r1, holds))
        r0 = r1
    return out


def _shifted(jumps, start):
    """:func:`_jump_holds` ``jumps`` run from ``start``: (jump, t0, t1,
    holds), t0 = start + r0 and t1 = start + r1.  Raises ValueError
    unless, in floating point, both ramps last and the flips at t0 + dt
    and t1 - dt stay T apart to 1e-9; a huge or tiny dt breaks it."""
    out = []
    for j, r0, r1, holds in jumps:
        t0, t1 = start + r0, start + r1
        if not (t0 < t0 + j.dt and t1 - j.dt < t1):
            raise ValueError(f"dt={j.dt!r} vanishes beside t={t0:g}: a "
                             "ramp of the jump would take no time")
        gap = (t1 - j.dt) - (t0 + j.dt)
        if not abs(gap - j.params.T) <= 1e-9 * j.params.T:
            raise ValueError(f"dt={j.dt!r} leaves the flips of a jump at "
                             f"t={t0:g} {gap:g} apart, not T={j.params.T:g}")
        out.append((j, t0, t1, holds))
    return out


def _admit(index, jumps, route):
    """Add the holds of the shifted ``jumps`` to ``index`` (entry ->
    holds as (center, t0, t1, key, route), key None for a spoke) unless
    one clashes: windows overlap on one entry, other than two ramps with
    the same key.  Returns the first clash as (center, t0, t1, entry,
    held), or None."""
    for j, t0, t1, holds in jumps:
        key = (t0, t1, j.dt)
        for e, ramped in holds:
            for held in index.get(e, ()):
                if held[1] < t1 and t0 < held[2] and \
                        (not ramped or key != held[3]):
                    return j.star.center, t0, t1, e, held
    for j, t0, t1, holds in jumps:
        key = (t0, t1, j.dt)
        for e, ramped in holds:
            index.setdefault(e, []).append(
                (j.star.center, t0, t1, key if ramped else None, route))
    return None


def schedule_multi(routes):
    """Assign start times so no two routes hold a coupling at once.

    Greedy earliest-start in request order: each route starts at the
    smallest delay at which none of its jumps' holds (spokes alone,
    boundary couplings as a ramp) clashes with a hold committed on the
    same coupling.  Ramps with equal window and ramp time share one
    profile, so routes may run concurrently through adjacent stars.
    """
    index = {}
    starts = []
    for r, plan in enumerate(routes):
        jumps = _jump_holds(plan)
        candidates = {0.0}
        for _, r0, _, holds in jumps:
            for e, _ in holds:
                for held in index.get(e, ()):
                    # (t1 - r0) + r0 may round below the hold's end t1;
                    # step up to the first delay starting the jump at t1
                    delay = held[2] - r0
                    while delay + r0 < held[2]:
                        delay = math.nextafter(delay, math.inf)
                    candidates.add(max(delay, 0.0))
        for delay in sorted(candidates):
            if _admit(index, _shifted(jumps, delay), r) is None:
                break
        else:  # the latest candidate clears every hold, so never here
            raise AssertionError("no admissible delay")
        starts.append(delay)
    return Timeline(routes=tuple(routes), starts=tuple(starts))


def verify_timeline(tl):
    """Recheck, from the routes and start times, that no two routes
    hold a coupling at overlapping times other than as ramps with the
    same window and ramp time."""
    index = {}
    for r, jumps in enumerate(tl.jumps):
        clash = _admit(index, jumps, r)
        if clash is not None:
            c, a0, a1, e, (c2, b0, b1, _, r2) = clash
            what = f"occupy star {c}" if c == c2 else f"hold coupling {e}"
            raise ValueError(f"routes {r2} and {r} both {what} during "
                             f"[{max(a0, b0)}, {min(a1, b1)}]")
    return True


def _moved(flip, sites):
    """Star-protocol ``flip`` on the lattice sites ``sites[k]``."""
    if isinstance(flip, PhaseFlip):
        return PhaseFlip(sites[flip.site])
    return HoppingFlip((sites[flip.entry[0]], sites[flip.entry[1]]))


def timeline_schedule(graph, H, tl):
    """One global schedule executing every route of the timeline.

    Checks the timeline with :func:`verify_timeline` first.  Each jump
    ramps its boundary couplings down over the first ``dt`` of its
    window and up over the last, exact linear slices shared by ramps
    with one key; the static stretches run on the working Hamiltonian.
    In between run the flips of ``build_schedule(variant, params)``,
    star site k moved to ``StarView.sites[k]``: those before its
    segment at the end of the down-ramp, the rest at the start of the
    up-ramp.  The rule covers couplings: a state resting in a dimer that
    another route jumps through is not protected.  Every jump's window
    end is a segment bound.
    """
    verify_timeline(tl)
    ramps, flips, star_items, bounds = [], {}, {}, {0.0}
    for row in tl.jumps:
        for j, t0, t1, _ in row:
            sv = j.star
            bounds.add(t1)
            down_end, up_start = t0 + j.dt, t1 - j.dt
            if sv.boundary_entries:
                ramps.append((t0, down_end, sv.boundary_entries, "down"))
                ramps.append((up_start, t1, sv.boundary_entries, "up"))
            key = (j.variant, j.params)
            if key not in star_items:
                star_items[key] = build_schedule(*key).items
            t = down_end
            for f in star_items[key]:
                if isinstance(f, Segment):
                    t = up_start
                else:
                    flips.setdefault(t, []).append(_moved(f, sv.sites))

    bounds.update(t for r in ramps for t in r[:2])
    bounds.update(flips)
    bounds = sorted(bounds)

    # ramp ends are bounds: a ramp spans segments pos[start]..pos[end]-1
    pos = {t: k for k, t in enumerate(bounds)}
    active = [[] for _ in bounds]
    for r in ramps:
        for k in range(pos[r[0]], pos[r[1]]):
            active[k].append(r)
    M = np.array(H.base, dtype=float, copy=True)
    items = []
    for k, (b, b2) in enumerate(zip(bounds, bounds[1:] + [None])):
        for f in flips.get(b, ()):
            items.append(f)
            if isinstance(f, HoppingFlip):
                f.negate(M)
        if b2 is None or b2 == b:
            continue
        if not active[k]:
            items.append(Segment(b2 - b))
            continue
        overrides = {}
        for r0, r1, entries, kind in active[k]:
            for e in entries:
                # verify_timeline let only equal-key ramps share an entry
                if e not in overrides:
                    overrides[e] = _ramp_slice(float(H.base[e]), r0, r1,
                                               kind, b, b2)
        items.append(Segment(b2 - b, TimedHamiltonian(M, overrides)))
        # exact at a ramp's end; mid-ramp values stay overridden
        for e, pulse in overrides.items():
            M[e] = M[e[::-1]] = pulse.end
    return ProtocolSchedule(TimedHamiltonian(H.base, {}), tuple(items))


def _unit_fidelity(psi, target):
    return fidelity(psi / np.linalg.norm(psi), target)


# Gauss-Legendre nodes and weights on [0, 1] for a segment's leak integral
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X, _GL_W = (_GL_X + 1.0) / 2.0, _GL_W / 2.0


def _walk_supports(tl, windows, schedule, psi):
    """The (n, k) block ``psi`` walked through ``schedule`` on the
    routes' supports: (final block, block at each jump end, drift, leak
    bounds, whether a flip hit a resting dimer); None when a driven
    entry lies inside a support."""
    k, ends = psi.shape[1], {t1 for w in windows for _, t1, _ in w}

    def support(r, b, b2):
        """Route r's star if a window of it meets [b, b2], else its dimer."""
        for t0, t1, star in windows[r]:
            if b < t1:
                return list(star.sites if t0 < b2 else star.dimer_in)
        return list(tl.routes[r].destination)

    psi, leak, reads, foreign = psi + 0j, np.zeros(k), {}, False
    norms = [np.linalg.norm(psi, axis=0)]
    for clock, item, M in schedule.walk():
        if not isinstance(item, Segment):
            on = {item.site} if isinstance(item, PhaseFlip) else {*item.entry}
            # a route's own flips act inside its star; two sites: a rest
            foreign |= any(len(S) == 2 and not on.isdisjoint(S) for S in
                           (support(r, clock, clock) for r in range(k)))
            if isinstance(item, PhaseFlip):
                psi = item.apply(psi)
            continue
        d, end = item.duration, clock + item.duration
        taus = np.append(d * _GL_X, d)
        for r in range(k):
            S = support(r, clock, end)
            cols = np.repeat(M[:, S][None], len(taus), axis=0)
            for (i, j), pulse in (item.H.overrides if item.H else {}).items():
                for a, b in ((i, j), (j, i)):
                    if b in S:
                        if a in S:
                            return None
                        cols[:, a, S.index(b)] = pulse.value(taus)
            # H[S, S] is static here: one spectral step on at most 5 sites
            states = _static_samples(M[np.ix_(S, S)], psi[S, r], taus)
            cols[:, S] = 0.0
            rates = np.linalg.norm(cols @ states[..., None], axis=(1, 2))
            # the Duhamel integral, and the norm dropped outside S
            leak[r] += d * (_GL_W @ rates[:-1]) + \
                np.linalg.norm(np.delete(psi[:, r], S))
            psi[:, r] = 0.0
            psi[S, r] = states[-1]
        norms.append(np.linalg.norm(psi, axis=0))
        if end in ends:
            reads[end] = psi.copy()
    drift = float(np.max(np.abs(np.array(norms) - 1.0), initial=0.0))
    return psi, reads, drift, tuple(leak.tolist()), foreign


def simulate_route(graph, H, tl, tol=1e-11):
    """Run every route of a timeline on its stored state's support.

    The routes share the one schedule of :func:`timeline_schedule`, so
    they see each other's ramps and flips as one joint state would.
    Route r's column runs on its support S, its dimer while it rests
    and its star over each jump window; H[S, S] is static on every
    segment, so a segment is one spectral step on at most 5 sites.  By
    Duhamel's formula the column is within ``leak_bound[r]`` of the
    full-lattice one: the 8-node Gauss-Legendre integral of
    ||H(t)[S^c, S] psi_S(t)|| per segment plus the norm dropped where S
    shrinks.  When a bound exceeds tol times the timeline's end (or that
    exceeds 1e-3), a flip hits a resting route's dimer or a driven entry
    lies inside S, the k sources run as one (n, k) block in one
    :func:`run_schedule` pass over the full lattice instead.  Returns
    per-route fidelities of the normalized states to the destination
    CLS, per jump the same at its window end (read at its exact time),
    the final states, the largest norm drift over segment ends and the
    leak bounds."""
    n = graph.n_sites
    windows = [[(t0, t1, j.star) for j, t0, t1, _ in row] for row in tl.jumps]
    schedule = timeline_schedule(graph, H, tl)
    psi0 = np.reshape([dimer_state(n, plan.source) for plan in tl.routes],
                      (-1, n)).T
    walked = _walk_supports(tl, windows, schedule, psi0)
    # as for a convergence pair, a threshold above 1e-3 certifies nothing
    if walked is not None and not walked[4] and \
            max(walked[3], default=0.0) <= tol * tl.end <= 1e-3:
        finals, reads, drift, leaks, _ = walked
    else:
        traj = run_schedule(schedule, psi0, samples_per_segment=2, tol=tol)
        finals, drift = traj.final_state, traj.norm_drift
        reads = dict(zip(traj.times, traj.states))
        leaks = (math.inf,) * len(windows) if walked is None else walked[3]
    fids = tuple(_unit_fidelity(f, dimer_state(n, plan.destination))
                 for f, plan in zip(finals.T, tl.routes))
    per_jump = tuple(
        tuple((t1, _unit_fidelity(reads[t1][:, r],
                                  dimer_state(n, star.dimer_out)))
              for _, t1, star in w) for r, w in enumerate(windows))
    return RouteReport(fids, per_jump, tuple(finals.T), drift, leaks)
