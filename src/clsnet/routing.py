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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    Segment,
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
    def busy(self):
        """Per route, the (center, t_begin, t_end) of each jump."""
        return tuple(tuple((c, t0, t1) for _, c, t0, t1, _ in
                           _jump_holds(plan, start))
                     for plan, start in zip(self.routes, self.starts))

    @property
    def end(self):
        return max((iv[2] for row in self.busy for iv in row), default=0.0)


@dataclass(frozen=True)
class RouteReport:
    """Outcome of simulating one timeline."""

    fidelities: tuple
    per_jump: tuple
    final_states: tuple
    norm_drift: float


def _dimer_hubs(graph, pair):
    shared = set(graph.neighbors(pair[0])) & set(graph.neighbors(pair[1]))
    return tuple(sorted(shared - set(pair)))


def extract_star(graph, H, center, dimer_in=None, dimer_out=None):
    """View of the five-site star around a hub of the lattice.

    The two dimers give the transfer direction; by default the two
    lexicographically smallest dimers adjacent to the hub are used.
    """
    if center not in graph.hubs():
        raise ValueError(f"site {center} is not a hub")
    adjacent = sorted(d for d in graph.dimers()
                      if center in _dimer_hubs(graph, d))
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
    inside = [e for e in graph.edges if e[0] in sites and e[1] in sites]
    boundary = [e for e in graph.edges if (e[0] in sites) != (e[1] in sites)]
    star = StarView(center, dimer_in, dimer_out, tuple(sorted(boundary)))
    # the induced subgraph must be the star: four spokes, nothing else
    if set(inside) != set(star.spokes):
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
    return Segment(0.0, dt, TimedHamiltonian(H.base, overrides))


def dimer_adjacency(graph):
    """Map dimer -> sorted tuple of (shared hub, neighbor dimer)."""
    dimers = list(graph.dimers())
    by_hub = {}
    for d in dimers:
        for h in _dimer_hubs(graph, d):
            by_hub.setdefault(h, []).append(d)
    adj = {d: [] for d in dimers}
    for h, ds in sorted(by_hub.items()):
        for d in ds:
            adj[d] += [(h, d2) for d2 in ds if d2 != d]
    return {d: tuple(sorted(v)) for d, v in adj.items()}


def _uniform_lattice_scales(graph, H):
    vals = np.array([H.base[e] for e in graph.edges])
    diag = np.diag(H.base)
    if vals.size == 0 or np.ptp(vals) > 1e-12 or np.ptp(diag) > 1e-12:
        raise ValueError("route planning needs uniform couplings and "
                         "potentials")
    return float(vals[0]), float(diag[0])


def plan_route(graph, H, src_dimer, dst_dimer, variant="phase-flip-transfer",
               dt=1.0):
    """Shortest dimer-jump chain from one dimer to another.

    Breadth-first search on the dimer-adjacency graph; among equal-
    length routes the lexicographically smallest (hub, dimer) moves
    win.  Raises when the dimers are not connected.
    """
    src, dst = tuple(src_dimer), tuple(dst_dimer)
    adj = dimer_adjacency(graph)
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

    J, v = _uniform_lattice_scales(graph, H)
    params = transfer_member_for(J, v)
    jumps = tuple(
        Jump(extract_star(graph, H, hub, dimer_in=a, dimer_out=b),
             variant, dt, params)
        for a, hub, b in chain)
    return RoutePlan(jumps, src, dst)


def _jump_holds(plan, start):
    """Per jump of ``plan`` run from ``start``: (jump, center, t0, t1,
    holds), the one jump model of scheduling, checking and building.

    The window is t0 = start + r0, t1 = start + r1, where r0 sums the
    durations of the earlier jumps and r1 = r0 + duration; ``holds``
    are the (entry, key) couplings held for all of it: the spokes
    exclusively (key None), the boundary entries as a ramp keyed
    (t0, t1, dt).  Raises ValueError unless the flips at t0 + dt and
    t1 - dt stay T apart to 1e-9 in floating point; a huge dt breaks it.
    """
    out, r0 = [], 0.0
    for j in plan.jumps:
        r1 = r0 + j.duration
        t0, t1 = start + r0, start + r1
        gap = (t1 - j.dt) - (t0 + j.dt)
        if not abs(gap - j.params.T) <= 1e-9 * j.params.T:
            raise ValueError(f"dt={j.dt!r} leaves the flips of a jump at "
                             f"t={t0:g} {gap:g} apart, not T={j.params.T:g}")
        holds = [(e, None) for e in j.star.spokes]
        holds += [(e, (t0, t1, j.dt)) for e in j.star.boundary_entries]
        out.append((j, j.star.center, t0, t1, holds))
        r0 = r1
    return out


def _admit(index, jumps, route):
    """Add the holds of ``jumps`` to ``index`` (entry -> holds as
    (center, t0, t1, key, route)) unless one clashes: windows overlap
    on one entry, other than two ramps with the same key.  Returns the
    first clash as (center, t0, t1, entry, held), or None."""
    for _, c, t0, t1, holds in jumps:
        for e, key in holds:
            for held in index.get(e, ()):
                if held[1] < t1 and t0 < held[2] and \
                        (key is None or key != held[3]):
                    return c, t0, t1, e, held
    for _, c, t0, t1, holds in jumps:
        for e, key in holds:
            index.setdefault(e, []).append((c, t0, t1, key, route))
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
        candidates = {0.0}
        for _, _, r0, _, holds in _jump_holds(plan, 0.0):
            for e, _ in holds:
                for held in index.get(e, ()):
                    # (t1 - r0) + r0 may round below the hold's end t1;
                    # step up to the first delay starting the jump at t1
                    delay = held[2] - r0
                    while delay + r0 < held[2]:
                        delay = math.nextafter(delay, math.inf)
                    candidates.add(max(delay, 0.0))
        for delay in sorted(candidates):
            if _admit(index, _jump_holds(plan, delay), r) is None:
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
    for r, (plan, start) in enumerate(zip(tl.routes, tl.starts)):
        clash = _admit(index, _jump_holds(plan, start), r)
        if clash is not None:
            c, a0, a1, e, (c2, b0, b1, _, r2) = clash
            what = f"occupy star {c}" if c == c2 else f"hold coupling {e}"
            raise ValueError(f"routes {r2} and {r} both {what} during "
                             f"[{max(a0, b0)}, {min(a1, b1)}]")
    return True


def _moved(flip, time, sites):
    """Star-protocol ``flip`` at ``time`` on the lattice sites ``sites[k]``."""
    if isinstance(flip, PhaseFlip):
        return PhaseFlip(time, sites[flip.site])
    return HoppingFlip(time, (sites[flip.entry[0]], sites[flip.entry[1]]))


def timeline_schedule(graph, H, tl):
    """One global schedule executing every route of the timeline.

    Checks the timeline with :func:`verify_timeline` first.  Each jump
    ramps its boundary couplings down over the first ``dt`` of its
    window and up over the last, exact linear slices shared by ramps
    with one key; the static stretches run on the working Hamiltonian.
    In between run the flips of ``build_schedule(variant, params)``,
    star site k moved to ``StarView.sites[k]``, time 0 to the end of
    the down-ramp and T to the start of the up-ramp.  The rule covers
    couplings: a state resting in a dimer that another route jumps
    through is not protected.
    """
    verify_timeline(tl)
    ramps, flips, star_flips = [], {}, {}
    for plan, start in zip(tl.routes, tl.starts):
        for j, _, t0, t1, _ in _jump_holds(plan, start):
            sv = j.star
            down_end, up_start = t0 + j.dt, t1 - j.dt
            if sv.boundary_entries:
                ramps.append((t0, down_end, sv.boundary_entries, "down"))
                ramps.append((up_start, t1, sv.boundary_entries, "up"))
            key = (j.variant, j.params)
            if key not in star_flips:
                star_flips[key] = [f for f in build_schedule(*key).items
                                   if not isinstance(f, Segment)]
            for f in star_flips[key]:
                t = down_end if f.time == 0.0 else up_start
                flips.setdefault(t, []).append(_moved(f, t, sv.sites))

    bounds = {0.0, tl.end}
    bounds.update(t for r in ramps for t in r[:2])
    bounds.update(flips)
    bounds = sorted(bounds)

    M = np.array(H.base, dtype=float, copy=True)
    items = []
    for b, b2 in zip(bounds, bounds[1:] + [None]):
        for f in flips.get(b, ()):
            items.append(f)
            if isinstance(f, HoppingFlip):
                f.negate(M)
        if b2 is None or b2 == b:
            continue
        active = [r for r in ramps if r[0] < b2 and b < r[1]]
        if not active:
            items.append(Segment(b, b2))
            continue
        overrides = {}
        for r0, r1, entries, kind in active:
            for e in entries:
                # verify_timeline let only equal-key ramps share an entry
                if e not in overrides:
                    overrides[e] = _ramp_slice(float(H.base[e]), r0, r1,
                                               kind, b, b2)
        items.append(Segment(b, b2, TimedHamiltonian(M, overrides)))
        # exact at a ramp's end; mid-ramp values stay overridden
        for e, pulse in overrides.items():
            M[e] = M[e[::-1]] = pulse.end
    return ProtocolSchedule(TimedHamiltonian(H.base, {}), tuple(items))


def _unit_fidelity(psi, target):
    # min() drops the last-ulp rounding of a unit vector's overlap
    return min(1.0, fidelity(psi / np.linalg.norm(psi), target))


def simulate_route(graph, H, tl, tol=1e-11):
    """Run every route of a timeline on the full lattice state.

    Each route's source CLS is propagated under the one shared
    time-dependent Hamiltonian (flips included), so concurrent routes
    see each other's ramps exactly as a single joint state would by
    linearity.  The k sources run as the columns of one (n, k) block
    in a single :func:`run_schedule` pass.  Returns per-route
    fidelities of the normalized states to the destination CLS, a
    per-jump table of the same, the final route states and the largest
    norm drift of any column.
    """
    n = graph.n_sites
    sources = [dimer_state(n, plan.source) for plan in tl.routes]
    targets = [dimer_state(n, plan.destination) for plan in tl.routes]

    if tl.end == 0.0:
        fids = tuple(fidelity(s, t) for s, t in zip(sources, targets))
        return RouteReport(fids, tuple(() for _ in tl.routes),
                           tuple(sources), 0.0)

    schedule = timeline_schedule(graph, H, tl)
    traj = run_schedule(schedule, np.column_stack(sources), tol=tol)
    finals = tuple(traj.final_state.T)
    fids, per_jump = [], []
    for r, (plan, start, tgt) in enumerate(zip(tl.routes, tl.starts, targets)):
        fids.append(_unit_fidelity(finals[r], tgt))
        table = []
        for j, _, _, t, _ in _jump_holds(plan, start):
            idx = int(np.argmin(np.abs(traj.times - t)))
            out_state = dimer_state(n, j.star.dimer_out)
            table.append((t, _unit_fidelity(traj.states[idx, :, r],
                                            out_state)))
        per_jump.append(tuple(table))
    return RouteReport(tuple(fids), tuple(per_jump), finals,
                       traj.norm_drift)
