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
earliest-start scheduling in request order, on exact times.

Each ``SiteGraph`` gets its dimer tables (hubs, dimers per hub, dimer
adjacency, edge index, stars, the last H's transfer member) once, and on
first use each source's search (resumed a level at a time), each star's
boundary entries by the last scheduled H's base values and its moved
flips.  Holds stay sorted per (hub, dimer) link, which stars hold whole,
and a clash skips a run of them; the final check sweeps couplings.

Simulation runs each route's column only where its stored state lives,
its dimer or, over a jump window, its star, on the matrix in force of
``ProtocolSchedule.walk()``; a Duhamel leak bound certifies it, and the
full-lattice run replaces one over its budget (see :func:`simulate_route`).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .evolve import HoppingFlip, PhaseFlip, ProtocolSchedule, Segment, \
    _BUDGET_MAX, _check_tol, _static_samples, fidelity, run_schedule
from .lattice import LinearRamp, TimedHamiltonian
from .protocols import TRANSFER_VARIANTS, StarTransferParams, \
    build_schedule, transfer_member_for
from .spectral import dimer_state

__all__ = ["StarView", "Jump", "RoutePlan", "Timeline", "RouteReport",
           "extract_star", "build_ramp", "dimer_adjacency", "plan_route",
           "schedule_multi", "verify_timeline", "timeline_schedule",
           "simulate_route"]


@dataclass(frozen=True)
class StarView:
    """One five-site star embedded in a larger lattice.

    ``boundary_entries`` are exactly the couplings that leave the star;
    ramping them to zero isolates it.  ``links`` are :attr:`holds` as
    the scheduler keys them, (key, ramped), by link (see extract_star).
    """

    center: int
    dimer_in: tuple
    dimer_out: tuple
    boundary_entries: tuple
    links: tuple

    @property
    def sites(self):
        """Star sites in protocol order (in-pair, center, out-pair)."""
        return (*self.dimer_in, self.center, *self.dimer_out)

    @cached_property
    def spokes(self):
        """The four hub couplings, in protocol order of the dimer sites."""
        return tuple(tuple(sorted((s, self.center)))
                     for s in (*self.dimer_in, *self.dimer_out))

    @cached_property
    def holds(self):
        """(entry, ramped): spokes held alone, boundary entries ramped."""
        return tuple((e, False) for e in self.spokes) + \
            tuple((e, True) for e in self.boundary_entries)


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


# a time is an int of ticks; one tick, the finest float step, is 2**-1074
_ONE = 1 << 1074


def _ticks(t):
    """The exact tick count of a float or of a dyadic Fraction."""
    n, d = t.as_integer_ratio()
    return n * _ONE // d


@dataclass(frozen=True)
class Timeline:
    """Scheduled routes and their exact start times."""

    routes: tuple
    starts: tuple

    def __post_init__(self):
        if len(self.routes) != len(self.starts):
            raise ValueError("a timeline takes one start time per route")

    @cached_property
    def jumps(self):
        """Per route, its jumps' (jump, t0, t1, links) in ticks."""
        return tuple(_shifted(_jump_holds(plan), _ticks(start))
                     for plan, start in zip(self.routes, self.starts))

    @cached_property
    def windows(self):
        """Per route, each jump's (jump, t0, t0 + dt, t1 - dt, t1) as
        floats on the emitted clock: the grid of 2**m ticks (ties up)
        for an end of m + 53 bits, on which sums and differences are
        exact.  An instant less than a step after the last one kept
        emits as it, so sums of dt that agree in decimal (0.7 + 0.3,
        0.5 + 0.5) leave no sliver.  Raises ValueError where a jump
        collapses on this clock, naming the largest such dt (a huge one
        coarsens the clock for all): a ramp takes no time, or the flips
        are not T apart to 1e-9, as past the largest float, where images
        are inf."""
        d = {dt: _ticks(dt) for dt in {j.dt for row in self.jumps
                                       for j, *_ in row}}
        rows = [[(j, t0, t0 + d[j.dt], t1 - d[j.dt], t1)
                 for j, t0, t1, _ in row] for row in self.jumps]
        ticks = sorted({t for row in rows for r in row for t in r[1:]})
        m = max(max(ticks, default=0).bit_length() - 53, 0)
        at, kept, image, step = {}, 0, 0.0, 2.0 ** (m - 1074)
        for t in ticks:
            if t - kept >= 1 << m:
                kept, image = t, ((t + (1 << m >> 1)) >> m) * step
            at[t] = image
        windows = tuple(tuple((j, at[a], at[b], at[c], at[e])
                              for j, a, b, c, e in row) for row in rows)
        if collapsed := [w for row in windows for w in row if not (
                w[1] < w[2] and w[3] < w[4] and
                abs(w[3] - w[2] - w[0].params.T) <= 1e-9 * w[0].params.T)]:
            j, a, b, c, e = max(collapsed, key=lambda w: w[0].dt)
            raise ValueError(f"dt={j.dt!r} collapses the jump at t={a:g}: "
                             f"ramps of {b - a:g} and {e - c:g}, flips "
                             f"{c - b:g} apart, not T={j.params.T:g}")
        return windows

    @property
    def end(self):
        return max((w[4] for row in self.windows for w in row), default=0.0)

    @cached_property
    def _verified(self):
        """:func:`verify_timeline`'s verdict, kept once True: each coupling's
        holds, sorted by start, swept against the one ending last so far."""
        by_entry = {}
        for r, row in enumerate(self.jumps):
            for j, t0, t1, _ in row:
                for e, ramped in j.star.holds:
                    by_entry.setdefault(e, []).append(
                        (t0, t1, j.dt if ramped else None, j.star.center, r))
        for e, held in by_entry.items():
            last, *rest = sorted(held, key=lambda h: h[0])
            for h in rest:
                if h[0] < last[1] and (h[2] is None or h[:3] != last[:3]):
                    what = f"occupy star {h[3]}" if h[3] == last[3] else \
                        f"hold coupling {e}"
                    r2, r = sorted((last[4], h[4]))
                    raise ValueError(f"routes {r2} and {r} both {what} during "
                                     f"[{h[0] / _ONE}, "
                                     f"{min(h[1], last[1]) / _ONE}]")
                last = h if h[1] > last[1] else last
        return True


@dataclass(frozen=True)
class RouteReport:
    """Outcome of simulating one timeline.  ``norm_drift`` is the
    largest deviation from 1 of any column's norm over the samples at
    segment ends, the only ones the simulation takes.  ``leak_bound``
    is, per route, the support walk's bound on its column's distance
    from the full-lattice one, finite for every timeline."""

    fidelities: tuple
    per_jump: tuple
    final_states: tuple
    norm_drift: float
    leak_bound: tuple


def _dimer_hubs(graph, pair):
    shared = set(graph.neighbors(pair[0])) & set(graph.neighbors(pair[1]))
    return tuple(sorted(shared - set(pair)))


# per graph: hubs, hub -> its dimers, the read-only dimer adjacency, the
# edge index, extract_star's stars by (hub, dimer_in, dimer_out), the last
# H planned [weakref, member], source -> (paths, frontier), the last H
# scheduled [weakref, star -> entries by value] and (star, (variant,
# member)) -> moved flips; keyed by value, equal graphs sharing it
_Tables = namedtuple("_Tables", "hubs hub_dimers adjacency edge_index stars "
                     "member searches groups moved")


@lru_cache(maxsize=16)
def _tables(graph):
    hub_dimers = {}
    for d in graph.dimers():
        for h in _dimer_hubs(graph, d):
            hub_dimers.setdefault(h, []).append(d)
    adj = {d: [] for d in graph.dimers()}
    for h, ds in sorted(hub_dimers.items()):
        for d in ds:
            adj[d] += [(h, d2) for d2 in ds if d2 != d]
    return _Tables(
        graph.hubs(),
        {h: tuple(sorted(ds)) for h, ds in hub_dimers.items()},
        MappingProxyType({d: tuple(sorted(v)) for d, v in adj.items()}),
        tuple(np.array(graph.edges, dtype=int).reshape(-1, 2).T), {},
        [lambda: None, None], {}, [lambda: None, {}], {})


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
    if (star := tables.stars.get((center, dimer_in, dimer_out))) is not None:
        return star

    sites = {center, *dimer_in, *dimer_out}
    edges = {tuple(sorted((a, b))) for a in sites for b in graph.neighbors(a)}
    inside = {e for e in edges if e[0] in sites and e[1] in sites}
    boundary, hd = tuple(sorted(edges - inside)), tables.hub_dimers
    # key: the first link (hub h, dimer d), (h, d[0]) and (h, d[1]), with
    # the coupling, else itself; a star holds a link whole, in one role
    keys = (next(((h, d) for h, s in (e, e[::-1]) for d in hd.get(h, ())
                  if s in d), e) for e in boundary)
    star = StarView(center, dimer_in, dimer_out, boundary, (
        ((center, dimer_in), False), ((center, dimer_out), False),
        *dict.fromkeys((k, True) for k in keys)))
    # the induced subgraph must be the star: four spokes, nothing else
    if inside != set(star.spokes):
        raise ValueError("induced subgraph around the hub is not a star")
    tables.stars[center, dimer_in, dimer_out] = star
    return star


def _ramp_slice(base_v, r0, r1, direction, b, b2):
    """LinearRamp over [b, b2] cut from one entry's linear ramp over
    [r0, r1]: 'down' from ``base_v`` to exactly 0, 'up' the reverse."""
    s, s2 = (b - r0) / (r1 - r0), (b2 - r0) / (r1 - r0)
    if direction == "down":
        return LinearRamp(base_v * (1.0 - s), base_v * (1.0 - s2), b2 - b)
    return LinearRamp(base_v * s, base_v * s2, b2 - b)


def _by_value(H, entries):
    """``entries`` grouped by base value: value -> its entries, in order."""
    groups = {}
    for e in entries:
        groups.setdefault(H.base.item(e), []).append(e)
    return groups


def build_ramp(H, entries, direction, dt):
    """Linear ramp segment over [0, dt] for the given entries.

    ``direction`` 'down' takes each entry from its base value to
    exactly 0, 'up' the reverse.  Entries with equal base values get
    identical profiles, which is what keeps a stored dimer state
    unperturbed.
    """
    if not isinstance(H, TimedHamiltonian) or not H.static:
        raise ValueError("ramps are built from a static Hamiltonian")
    if isinstance(dt, bool) or not 0 < dt < np.inf:  # NaN fails this too
        raise ValueError(f"dt must be a positive finite number, not {dt!r}")
    if direction not in ("down", "up"):
        raise ValueError(f"unknown ramp direction {direction!r}")
    entries = [tuple(sorted(e)) for e in entries]
    if len(set(entries)) != len(entries):
        raise ValueError("duplicate ramp entries")
    if any(e[0] == e[1] for e in entries):
        raise ValueError("cannot ramp a diagonal entry")
    overrides = {}
    for v, es in _by_value(H, entries).items():
        overrides.update(dict.fromkeys(es, _ramp_slice(v, 0.0, dt, direction,
                                                       0.0, dt)))
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
    if isinstance(dt, bool) or not 0 < dt < np.inf:  # NaN fails this too
        raise ValueError(f"dt must be a positive finite number, not {dt!r}")
    if src == dst:
        return RoutePlan((), src, dst)

    # each dimer reached, with the (dimer, hub, dimer) moves reaching it;
    # kept per source, whole levels at a time, so a path is the first found
    paths, frontier = tables.searches.setdefault(src, ({src: ()}, [src]))
    while frontier and dst not in paths:
        nxt = []
        for d in frontier:
            for h, d2 in adj[d]:
                if d2 not in paths:
                    paths[d2] = paths[d] + ((d, h, d2),)
                    nxt.append(d2)
        frontier[:] = nxt
    if dst not in paths:
        raise ValueError(f"no route from {src} to {dst}")

    ref, params = tables.member  # checked once per H, which is immutable
    if ref() is not H:
        vals, diag = H.base[tables.edge_index], np.diag(H.base)
        if vals.size == 0 or np.ptp(vals) > 1e-12 or np.ptp(diag) > 1e-12:
            raise ValueError("route planning needs uniform couplings and "
                             "potentials")
        params = transfer_member_for(float(vals[0]), float(diag[0]))
        tables.member[:] = weakref.ref(H), params
    stars = tables.stars  # the search's moves are valid stars' keys
    jumps = tuple(
        Jump(stars.get((hub, a, b)) or extract_star(graph, H, hub, a, b),
             variant, dt, params)
        for a, hub, b in paths[dst])
    return RoutePlan(jumps, src, dst)


def _jump_holds(plan):
    """Per jump of ``plan``: (jump, r0, r1, links) relative to its
    start in ticks, the one jump model of scheduling, checking and
    building.  r0 sums 2 dt + T of the earlier jumps, r1 = r0 + 2 dt + T;
    ``links`` are the star's :attr:`StarView.links`."""
    out, r0, span = [], 0, {}  # (dt, T) -> ticks, once per distinct pair
    for j in plan.jumps:
        if (key := (j.dt, j.params.T)) not in span:
            span[key] = 2 * _ticks(j.dt) + _ticks(j.params.T)
        r1 = r0 + span[key]
        out.append((j, r0, r1, j.star.links))
        r0 = r1
    return out


def _shifted(jumps, start):
    """``jumps`` of :func:`_jump_holds` run from ``start``, in ticks."""
    return tuple((j, start + r0, start + r1, h) for j, r0, r1, h in jumps)


def _clash(index, jumps, delay):
    """How much later than ``delay`` to try the ``jumps`` of
    :func:`_jump_holds` next, 0 if none clashes with ``index`` (link ->
    its admitted holds (t0, t1, dt), dt None for a spoke, sorted).  They
    are disjoint but for ramps of one key, so only the last to start
    before a hold ends can overlap it.  From there the next try is the
    end of the run of holds, each meeting the jump started at the end of
    the one before, or the first ramp in it that the jump could share."""
    for j, r0, r1, links in jumps:
        t0, t1 = delay + r0, delay + r1
        for key, ramped in links:
            if k := bisect_left(held := index.get(key, ()), (t1,)):
                h0, h1, dt = held[k - 1]
                if t0 < h1 and not (ramped and (h0, h1, dt) == (t0, t1, j.dt)):
                    t, w = t0, t1 - t0  # the run's end so far, the window
                    for g0, g1, dt in held[k - 1:]:
                        if g0 >= t + w:
                            break
                        if ramped and dt == j.dt and g1 - g0 == w and g0 >= t:
                            return g0 - t0
                        t = g1
                    return t - t0
    return 0


def schedule_multi(routes):
    """Assign start times so no two routes hold a coupling at once.

    Greedy earliest-start in request order: each route starts at the
    smallest delay at which none of its jumps' holds (spokes alone,
    boundary couplings as a ramp) clashes with a hold committed on the
    same coupling.  Ramps with equal window and ramp time share one
    profile, so routes run concurrently through adjacent stars, and a
    jump may start on exactly a held ramp's window.  Relaxation from 0
    finds the exact delay (a ``Fraction``): each clash names the next.
    """
    routes = tuple(routes)
    index, starts, rows = {}, [], []  # link -> its admitted holds
    for plan in routes:
        jumps, delay = _jump_holds(plan), 0
        while step := _clash(index, jumps, delay):
            delay += step
        starts.append(Fraction(delay, _ONE))
        rows.append(row := _shifted(jumps, delay))
        for j, t0, t1, links in row:
            for key, ramped in links:
                insort(index.setdefault(key, []),
                       (t0, t1, j.dt if ramped else None))
    tl = Timeline(routes, tuple(starts))
    vars(tl)["jumps"] = tuple(rows)  # as admitted: no holds built twice
    tl.windows  # the emitted clock refuses a dt that collapses a jump on it
    return tl


def verify_timeline(tl):
    """Recheck, from the routes and start times, that no two routes
    hold a coupling at overlapping times other than as ramps with the
    same window and ramp time.  The first call that passes keeps its
    verdict on ``tl``; a clash raises on every call."""
    return tl._verified


def _moved(flip, sites):
    """Star-protocol ``flip`` on the lattice sites ``sites[k]``."""
    if isinstance(flip, PhaseFlip):
        return PhaseFlip(sites[flip.site])
    return HoppingFlip((sites[flip.entry[0]], sites[flip.entry[1]]))


def timeline_schedule(graph, H, tl):
    """One global schedule executing every route of the timeline.

    Checks the timeline with :func:`verify_timeline` first, free once it
    has passed; ``H`` is the schedule's base, so a pulsed ``H`` raises
    ValueError.  Each jump ramps its boundary couplings down over the
    first ``dt`` of its window and up over the last, exact linear slices
    shared by ramps with one key; the static stretches run on the working
    Hamiltonian.  In between run the flips of ``build_schedule(variant,
    params)``, star site k moved to ``StarView.sites[k]``: those before
    its segment at the end of the down-ramp, the rest at the start of the
    up-ramp.  The rule covers couplings: a state resting in a dimer that
    another route jumps through is not protected.  Every jump's window
    end is a segment bound, and every bound a time on the emitted clock.

    Every ramped segment shares the validated, read-only ``H.base``; its
    overrides are its ramp slices and, under them, the entries held off
    the base: a ramp's end at 0 and a flipped spoke, each a constant
    ``LinearRamp``, one per value.  One sweep over the bounds opens each
    ramp (one per key, its entries grouped by base value once per star,
    kept in the graph's tables with the star's moved flips) at its start
    and closes it at its end: a segment takes one slice per open ramp
    and base value, a closing ramp one held update per value.
    """
    verify_timeline(tl)
    tables = _tables(graph)
    ref, groups = tables.groups  # star -> base value -> entries
    if ref() is not H:
        tables.groups[:] = weakref.ref(H), (groups := {})
    ramps, flips, star_items = {}, {}, {}  # ramp -> base value -> entries
    for row in tl.windows:
        for j, t0, down_end, up_start, t1 in row:
            if (by_value := groups.get(star := j.star)) is None:
                by_value = groups[star] = _by_value(H, star.boundary_entries)
            for r in ((t0, down_end, "down"), (up_start, t1, "up")):
                ramp = ramps.setdefault(r, {})
                for v, es in by_value.items():
                    ramp.setdefault(v, []).extend(es)
            key = (j.variant, j.params)
            if (moved := tables.moved.get((star, key))) is None:
                if key not in star_items:
                    star_items[key] = build_schedule(*key).items
                fs = star_items[key]
                k = next(k for k, f in enumerate(fs) if isinstance(f, Segment))
                moved = tables.moved[star, key] = tuple(
                    tuple(_moved(f, star.sites) for f in part)
                    for part in (fs[:k], fs[k + 1:]))
            flips.setdefault(down_end, []).extend(moved[0])
            flips.setdefault(up_start, []).extend(moved[1])

    bounds = sorted({0.0, *(t for row in tl.windows for w in row
                           for t in w[1:])})
    opening, closing = {}, {}  # ramp ends are bounds
    for r in ramps:
        opening.setdefault(r[0], []).append(r)
        closing.setdefault(r[1], []).append(r)

    held, const, items, active = {}, {}, [], {}  # entry -> a constant
    def hold(es, v, base):  # ``es`` at v exactly, where off their base
        if v != base:
            key = v or str(v)  # 0.0 and -0.0 apart
            held.update(dict.fromkeys(es, const.get(key) or const.setdefault(
                key, LinearRamp(v, v, 1.0))))
        else:
            for e in es:
                held.pop(e, None)
    for b, b2 in zip(bounds, bounds[1:]):
        for f in flips.get(b, ()):
            items.append(f)
            if isinstance(f, HoppingFlip):
                e, base = f.entry, H.base.item(f.entry)
                hold((e,), -(held[e].end if e in held else base), base)
        active.update((r, ramps[r]) for r in opening.get(b, ()))
        if not active:
            items.append(Segment(b2 - b))
            continue
        # verify_timeline let only equal-key ramps, merged, share an entry
        overrides = dict(held)
        for r, groups in active.items():
            for v, es in groups.items():
                overrides.update(dict.fromkeys(es, _ramp_slice(v, *r, b, b2)))
        items.append(Segment(b2 - b, TimedHamiltonian._trusted(H.base,
                                                               overrides)))
        # down ends at exactly 0 with v's sign, held; up at v, dropped
        for r in closing.get(b2, ()):
            for v, es in active.pop(r).items():
                hold(es, 0.0 * v if r[2] == "down" else v, v)
    return ProtocolSchedule(H, tuple(items))


def _unit_fidelity(psi, target):
    return fidelity(psi / np.linalg.norm(psi), target)


# Gauss-Legendre nodes and weights on [0, 1] for a segment's leak integral
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X, _GL_W = (_GL_X + 1.0) / 2.0, _GL_W / 2.0


def _walk_supports(tl, schedule, psi):
    """The (n, k) block ``psi`` walked through ``schedule`` on the
    supports of ``tl``'s routes: (final block, block at each jump end,
    drift, leak bounds).  Route r's bound covers all of H(t) - H[S, S]
    on its column: couplings out of S, and drives of entries inside S."""
    k, ends = psi.shape[1], {w[4] for row in tl.windows for w in row}

    def support(r, b, b2):
        """Route r's star if a window of it meets [b, b2], else its dimer."""
        for j, t0, *_, t1 in tl.windows[r]:
            if b < t1:
                return list(j.star.sites if t0 < b2 else j.star.dimer_in)
        return list(tl.routes[r].destination)

    psi, leak, reads, eighs = psi + 0j, np.zeros(k), {}, {}
    norms = [np.linalg.norm(psi, axis=0)]
    sites = [np.flatnonzero(c).tolist() for c in psi.T]  # 0 elsewhere
    for clock, item, M in schedule.walk():
        if not isinstance(item, Segment):
            if isinstance(item, PhaseFlip):
                psi = item.apply(psi)
            continue
        d, end = item.duration, clock + item.duration
        taus = np.append(d * _GL_X, d)
        pulses = item.H.overrides if item.H else {}
        # sampled here: lattice._fill_block gives the same bits, slower
        vals = {p: p.value(taus) for p in set(pulses.values())}
        for r in range(k):
            S = support(r, clock, end)
            cols = np.repeat(M[:, S][None], len(taus), axis=0)
            for (i, j), pulse in pulses.items():
                for a, b in ((i, j), (j, i)):
                    if b in S:
                        cols[:, a, S.index(b)] = vals[pulse]
            MS = M[:, S][S]  # one eigh per distinct static block
            if (eig := eighs.get(key := MS.tobytes())) is None:
                eig = eighs[key] = np.linalg.eigh(MS)
            states = _static_samples(MS, psi[S, r], taus, eig)
            cols[:, S] -= MS
            rates = np.linalg.norm(cols @ states[..., None], axis=(1, 2))
            # the Duhamel integral, and the norm S drops of the last support
            leak[r] += d * (_GL_W @ rates[:-1]) + (np.linalg.norm(np.delete(
                psi[:, r], S)) if any(s not in S for s in sites[r]) else 0.0)
            psi[:, r], sites[r] = 0.0, S
            psi[S, r] = states[-1]
        norms.append(np.linalg.norm(psi, axis=0))
        if end in ends:
            reads[end] = psi.copy()
    drift = float(np.max(np.abs(np.array(norms) - 1.0), initial=0.0))
    return psi, reads, drift, tuple(leak.tolist())


def simulate_route(graph, H, tl, tol=1e-11):
    """Run every route of a timeline on its stored state's support.

    The routes share the one schedule of :func:`timeline_schedule`, so
    they see each other's ramps and flips as one joint state would.
    Route r's column runs on its support S, its dimer while it rests
    and its star over each jump window; H[S, S] of the matrix in force
    that ``schedule.walk()`` yields is static on each segment, one
    spectral step per segment and one eigh per distinct block.  By
    Duhamel's formula the column is within ``leak_bound[r]`` of the
    full-lattice one: the 8-node Gauss-Legendre integral of
    ||(H(t) - H[S, S]) psi_S(t)|| per segment (couplings out of S and
    drives inside it) plus the norm dropped where S shrinks.  Unless
    every bound is within tol (in [1e-14, 1e-6], or ValueError) times
    the timeline's end, within ``_BUDGET_MAX``, the k sources run as
    one (n, k) block in one :func:`run_schedule` pass instead.  Returns
    per-route fidelities of the normalized states to the destination
    CLS, per jump the same at its window end (read at its exact time),
    the final states, the largest norm drift over segment ends and the
    leak bounds."""
    _check_tol(tol)
    n = graph.n_sites
    schedule = timeline_schedule(graph, H, tl)
    psi0 = np.reshape([dimer_state(n, plan.source) for plan in tl.routes],
                      (-1, n)).T
    finals, reads, drift, leaks = _walk_supports(tl, schedule, psi0)
    # as for a convergence pair, a budget above _BUDGET_MAX certifies nothing
    if not max(leaks, default=0.0) <= tol * tl.end <= _BUDGET_MAX:
        traj = run_schedule(schedule, psi0, samples_per_segment=2, tol=tol)
        finals, drift = traj.final_state, traj.norm_drift
        reads = dict(zip(traj.times, traj.states))
    fids = tuple(_unit_fidelity(f, dimer_state(n, plan.destination))
                 for f, plan in zip(finals.T, tl.routes))
    per_jump = tuple(
        tuple((t1, _unit_fidelity(reads[t1][:, r],
                                  dimer_state(n, j.star.dimer_out)))
              for j, *_, t1 in row) for r, row in enumerate(tl.windows))
    return RouteReport(fids, per_jump, tuple(finals.T), drift, leaks)
