"""CLS transport across the decorated Lieb lattice.

A stored dimer state moves through the network by dimer-jumps: ramp the
surrounding couplings of one five-site star to zero (symmetrically on
the dimer couplings, so the state is untouched), run a flip-transfer
inside the isolated star, and ramp the couplings back.  Longer routes
chain jumps through adjacent hubs; several routes may run at once as
long as no star is occupied by two routes at the same time.

All planning and scheduling here is deterministic: shortest routes in
the dimer-adjacency graph with lexicographic tie-breaks, greedy
earliest-start scheduling in request order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    Segment,
    fidelity,
    run_schedule,
)
from .lattice import LinearRamp, TablePulse, TimedHamiltonian
from .protocols import TransferParams, solve_transfer_params
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
    "transfer_member_for",
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


@dataclass(frozen=True)
class Jump:
    """One dimer-jump: isolate ``star``, transfer, reconnect."""

    star: StarView
    variant: str
    dt: float
    params: TransferParams

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

    def busy_relative(self):
        """Per-jump (center, begin, end) intervals relative to start."""
        out, t = [], 0.0
        for j in self.jumps:
            out.append((j.star.center, t, t + j.duration))
            t += j.duration
        return tuple(out)


@dataclass(frozen=True)
class Timeline:
    """Scheduled routes with absolute star-occupancy intervals."""

    routes: tuple
    starts: tuple
    busy: tuple  # per route: tuple of (center, t_begin, t_end)

    @property
    def end(self):
        return max((iv[2] for row in self.busy for iv in row), default=0.0)


@dataclass(frozen=True)
class RouteReport:
    """Outcome of simulating one timeline."""

    fidelities: tuple
    per_jump: tuple
    final_states: tuple
    combined_final: np.ndarray
    norm_drift: float
    timeline: Timeline = field(repr=False)


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
    inside, boundary = [], []
    for e in graph.edges:
        n_in = (e[0] in sites) + (e[1] in sites)
        if n_in == 2:
            inside.append(e)
        elif n_in == 1:
            boundary.append(e)
    # the induced subgraph must be the star: four spokes, nothing else
    spokes = {tuple(sorted((s, center))) for s in (*dimer_in, *dimer_out)}
    if set(inside) != spokes:
        raise ValueError("induced subgraph around the hub is not a star")
    return StarView(center, dimer_in, dimer_out, tuple(sorted(boundary)))


def build_ramp(H, entries, direction, dt, paired=(), t0=0.0):
    """Linear ramp segment over [t0, t0+dt] for the given entries.

    ``direction`` 'down' takes each entry from its base value to
    exactly 0, 'up' the reverse.  Entry pairs listed in ``paired`` are
    constrained to identical profiles, which requires equal base
    values; this is what keeps a stored dimer state unperturbed.
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
    for a, b in paired:
        a, b = tuple(sorted(a)), tuple(sorted(b))
        if a not in entries or b not in entries:
            raise ValueError(f"paired entries {(a, b)} not in the ramp set")
        if abs(H.base[a] - H.base[b]) > 1e-12:
            raise ValueError(f"paired entries {(a, b)} have unequal base "
                             "values; their profiles cannot match")
    overrides = {}
    for e in entries:
        if e[0] == e[1]:
            raise ValueError("cannot ramp a diagonal entry")
        base_v = float(H.base[e])
        if direction == "down":
            overrides[e] = LinearRamp(base_v, 0.0, dt)
        else:
            overrides[e] = LinearRamp(0.0, base_v, dt)
    return Segment(t0, t0 + dt, TimedHamiltonian(H.base, overrides))


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
            for d2 in ds:
                if d2 != d:
                    adj[d].append((h, d2))
    return {d: tuple(sorted(v)) for d, v in adj.items()}


def transfer_member_for(J, v, k2_range=range(0, 8)):
    """Flip-transfer family member matching a lattice's (J, v), with
    the smallest admissible duration."""
    for k2 in k2_range:
        x = (v / J + 2.0) * (1 + 2 * k2) / 4.0
        k1 = round(x)
        if abs(k1 - x) < 1e-9:
            return solve_transfer_params(k1, k2, J)
    raise ValueError(f"no flip-transfer timing exists for J={J}, v={v}")


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
    if variant not in ("phase-flip-transfer", "hopping-flip-transfer"):
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


def _overlaps(a0, a1, b0, b1):
    return a0 < b1 and b0 < a1


def schedule_multi(routes):
    """Assign start times so no star serves two routes at once.

    Greedy earliest-start in request order: each route starts at the
    smallest delay at which none of its star intervals overlaps an
    interval already committed on the same star.  Stars may be reused
    at disjoint times.
    """
    committed = []
    starts = []
    busy_abs = []
    for plan in routes:
        rel = plan.busy_relative()
        candidates = {0.0}
        for c, t0, t1 in committed:
            for c2, r0, r1 in rel:
                if c2 == c:
                    # (t1 - r0) + r0 may round below t1; step up to the
                    # first delay that starts the interval at or after t1
                    delay = t1 - r0
                    while delay + r0 < t1:
                        delay = math.nextafter(delay, math.inf)
                    candidates.add(delay)
        best = None
        for delay in sorted(candidates):
            if delay < 0:
                continue
            ok = all(not (c2 == c and _overlaps(delay + r0, delay + r1,
                                                t0, t1))
                     for c, t0, t1 in committed
                     for c2, r0, r1 in rel)
            if ok:
                best = delay
                break
        assert best is not None  # the latest end time always works
        abs_iv = tuple((c, best + r0, best + r1) for c, r0, r1 in rel)
        committed.extend(abs_iv)
        starts.append(best)
        busy_abs.append(abs_iv)
    return Timeline(routes=tuple(routes), starts=tuple(starts),
                    busy=tuple(busy_abs))


def verify_timeline(tl):
    """Recheck the disjoint-star rule between distinct routes."""
    for i in range(len(tl.busy)):
        for j in range(i + 1, len(tl.busy)):
            for c, a0, a1 in tl.busy[i]:
                for c2, b0, b1 in tl.busy[j]:
                    if c == c2 and _overlaps(a0, a1, b0, b1):
                        raise ValueError(
                            f"routes {i} and {j} both occupy star {c} "
                            f"during [{max(a0, b0)}, {min(a1, b1)}]")
    return True


def _jump_events(plan, start):
    """(ramps, flips) of one route at an absolute start time."""
    ramps, flips = [], []
    t = start
    for j in plan.jumps:
        sv = j.star
        # anchor the jump end on the same float arithmetic used by
        # busy_relative, so segment bounds match occupancy intervals
        t1 = t + j.dt
        t3 = t + j.duration
        t2 = t3 - j.dt
        if sv.boundary_entries:
            ramps.append((t, t1, sv.boundary_entries, "down"))
            ramps.append((t2, t3, sv.boundary_entries, "up"))
        if j.variant == "phase-flip-transfer":
            flips.append((t1, "phase", sv.dimer_in[1]))
            flips.append((t2, "phase", sv.dimer_out[1]))
        else:
            e_in = tuple(sorted((sv.dimer_in[0], sv.center)))
            e_out = tuple(sorted((sv.center, sv.dimer_out[0])))
            for e in (e_in, e_out):
                flips.append((t1, "hopping", e))
                flips.append((t2, "hopping", e))
        t = t3
    return ramps, flips


def timeline_schedule(graph, H, tl):
    """One global schedule executing every route of the timeline.

    Ramp windows become segments whose pulses interpolate the linear
    profiles exactly; the static stretches in between run on the
    working Hamiltonian.  Raises if two ramps drive the same entry at
    overlapping times (routes sharing a dimer are not protected).
    """
    verify_timeline(tl)
    ramps, flips = [], []
    for plan, start in zip(tl.routes, tl.starts):
        r, f = _jump_events(plan, start)
        ramps.extend(r)
        flips.extend(f)

    bounds = {0.0, tl.end}
    bounds.update(t for r in ramps for t in r[:2])
    bounds.update(f[0] for f in flips)
    bounds = sorted(bounds)

    def ramp_value(entry_base, r0, r1, kind, t):
        s = (t - r0) / (r1 - r0)
        return entry_base * (1.0 - s) if kind == "down" else entry_base * s

    M = np.array(H.base, dtype=float, copy=True)
    items = []
    for b, b2 in zip(bounds, bounds[1:] + [None]):
        for ft, kind, target in sorted(f for f in flips if f[0] == b):
            if kind == "phase":
                items.append(PhaseFlip(b, target))
            else:
                items.append(HoppingFlip(b, target))
                items[-1].negate(M)
        if b2 is None or b2 == b:
            continue
        active = [r for r in ramps if r[0] < b2 and b < r[1]]
        if not active:
            items.append(Segment(b, b2))
            continue
        overrides = {}
        for r0, r1, entries, kind in active:
            for e in entries:
                base_v = float(H.base[e])
                vals = (ramp_value(base_v, r0, r1, kind, b),
                        ramp_value(base_v, r0, r1, kind, b2))
                if e in overrides:
                    # adjacent stars share the couplings of their common
                    # dimer; concurrent jumps may demand the same profile
                    # on them, which is fine, but never different ones
                    if overrides[e].values != vals:
                        raise ValueError(
                            f"two ramps drive entry {e} to different "
                            f"values over [{b}, {b2}]")
                    continue
                overrides[e] = TablePulse((0.0, b2 - b), vals)
        items.append(Segment(b, b2, TimedHamiltonian(M.copy(), overrides)))
        for r0, r1, entries, kind in active:
            if r1 == b2:
                for e in entries:
                    end_v = 0.0 if kind == "down" else float(H.base[e])
                    M[e] = end_v
                    M[e[::-1]] = end_v
    return ProtocolSchedule(TimedHamiltonian(H.base, {}), tuple(items))


def simulate_route(graph, H, tl, psi0=None, tol=1e-11):
    """Run every route of a timeline on the full lattice state.

    Each route's source CLS is propagated under the one shared
    time-dependent Hamiltonian (flips included), so concurrent routes
    see each other's ramps exactly as a single joint state would by
    linearity.  The sources and the combined state (``psi0``, shape
    (n,), by default the uniform superposition of the sources) run as
    the columns of one (n, k+1) block in a single :func:`run_schedule`
    pass.  Returns per-route fidelities to the destination CLS, a
    per-jump fidelity table, and the evolved combined state.
    """
    n = graph.n_sites
    sources = [dimer_state(n, plan.source) for plan in tl.routes]
    targets = [dimer_state(n, plan.destination) for plan in tl.routes]
    if psi0 is None:
        psi0 = sum(sources) / np.sqrt(len(sources)) if sources else None

    if tl.end == 0.0:
        fids = tuple(fidelity(s, t) for s, t in zip(sources, targets))
        return RouteReport(fids, tuple(() for _ in tl.routes),
                           tuple(sources), psi0, 0.0, tl)

    schedule = timeline_schedule(graph, H, tl)
    traj = run_schedule(schedule, np.column_stack(sources + [psi0]), tol=tol)
    finals = tuple(traj.final_state[:, :-1].T)
    fids, per_jump = [], []
    for r, (plan, start, tgt) in enumerate(zip(tl.routes, tl.starts, targets)):
        fids.append(fidelity(finals[r], tgt))
        table = []
        t = start
        for j in plan.jumps:
            t += j.duration
            idx = int(np.argmin(np.abs(traj.times - t)))
            out_state = dimer_state(n, j.star.dimer_out)
            table.append((t, fidelity(traj.states[idx, :, r], out_state)))
        per_jump.append(tuple(table))

    # the drift of the route columns only: a caller's psi0 may be unnormalized
    norms = np.linalg.norm(traj.states[:, :, :-1], axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    return RouteReport(tuple(fids), tuple(per_jump), finals,
                       traj.final_state[:, -1], drift, tl)
