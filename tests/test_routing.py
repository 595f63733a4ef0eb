"""Routing: star extraction, ramps, planning, scheduling, simulation."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

import clsnet.evolve
import clsnet.routing
from clsnet.evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    Segment,
    end_hamiltonian,
    evolve_static,
    fidelity,
    reverse_schedule,
    run_schedule,
)
from clsnet.lattice import (
    SiteGraph,
    TimedHamiltonian,
    LinearRamp,
    build_dll,
    evaluate_at,
)
from clsnet.protocols import TRANSFER_VARIANTS, build_schedule, \
    transfer_member_for
from clsnet.routing import (
    RoutePlan,
    StarView,
    Timeline,
    build_ramp,
    dimer_adjacency,
    extract_star,
    plan_route,
    schedule_multi,
    simulate_route,
    timeline_schedule,
    verify_timeline,
)
from clsnet.spectral import dimer_state
from golden import assert_pinned

J, V = 0.25, 0.5  # uniform lattice matching the shortest flip transfer


def dll(nx, ny):
    return build_dll(nx, ny, J, V)


@pytest.fixture
def full_lattice(monkeypatch):
    """simulate_route on its full-lattice path: the support walk reports
    an infinite leak bound for every route, which no budget admits."""
    monkeypatch.setattr(clsnet.routing, "_walk_supports",
                        lambda tl, schedule, psi:
                        (None, None, None, (math.inf,) * len(tl.windows)))


# ---------------------------------------------------------------- stars


def test_extract_star_of_standalone_star_is_whole_graph():
    # one DLL cell is a standalone star: hub 0, dimers (1, 2) and (3, 4)
    g, H = dll(1, 1)
    sv = extract_star(g, H, 0)
    assert sv.sites == (1, 2, 0, 3, 4)
    assert sv.dimer_in == (1, 2) and sv.dimer_out == (3, 4)
    assert sv.boundary_entries == ()


def test_extract_star_boundary_partitions_crossing_edges():
    g, H = dll(2, 2)
    for hub in g.hubs():
        adjacent = [d for d in g.dimers()
                    if hub in (set(g.neighbors(d[0])) & set(g.neighbors(d[1])))]
        if len(adjacent) < 2:
            continue
        sv = extract_star(g, H, hub)
        sites = set(sv.sites)
        crossing = {e for e in g.edges
                    if (e[0] in sites) + (e[1] in sites) == 1}
        assert set(sv.boundary_entries) == crossing
        # spokes stay inside; boundary entries never touch the center pair
        for e in sv.boundary_entries:
            assert (e[0] in sites) != (e[1] in sites)


def test_extract_star_direction_override():
    g, H = dll(2, 1)
    sv = extract_star(g, H, 5, dimer_in=(6, 7), dimer_out=(1, 2))
    assert sv.sites == (6, 7, 5, 1, 2)


def test_extract_star_rejects_non_hub():
    g, H = dll(1, 1)
    with pytest.raises(ValueError, match="not a hub"):
        extract_star(g, H, 1)


def test_extract_star_rejects_single_dimer_hub():
    # hub 2 couples to the one dimer (0, 1) only
    g = SiteGraph(3, ((0, 2), (1, 2)), ("dimer-upper", "dimer-lower", "hub"))
    H = TimedHamiltonian(np.eye(3))
    with pytest.raises(ValueError, match="fewer than two"):
        extract_star(g, H, 2)


def test_extract_star_rejects_foreign_or_equal_dimers():
    g, H = dll(2, 2)
    with pytest.raises(ValueError, match="not adjacent"):
        extract_star(g, H, 0, dimer_in=(11, 12))
    with pytest.raises(ValueError, match="must differ"):
        extract_star(g, H, 0, dimer_in=(1, 2), dimer_out=(1, 2))


# ---------------------------------------------------------------- ramps


def test_build_ramp_hits_exact_endpoints():
    g, H = dll(2, 1)
    sv = extract_star(g, H, 0)
    down = build_ramp(H, sv.boundary_entries, "down", 0.7)
    up = build_ramp(H, sv.boundary_entries, "up", 0.7)
    M0 = evaluate_at(down.H, 0.0)
    M1 = evaluate_at(down.H, 0.7)
    for e in sv.boundary_entries:
        assert M0[e] == J
        assert M1[e] == 0.0
        assert evaluate_at(up.H, 0.0)[e] == 0.0
        assert evaluate_at(up.H, 0.7)[e] == J
    assert up.duration == 0.7


def test_build_ramp_validates_input():
    g, H = dll(2, 1)
    entries = ((1, 5), (2, 5))
    with pytest.raises(ValueError, match="positive"):
        build_ramp(H, entries, "down", 0.0)
    with pytest.raises(ValueError, match="direction"):
        build_ramp(H, entries, "sideways", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        build_ramp(H, ((1, 5), (5, 1)), "down", 1.0)
    with pytest.raises(ValueError, match="diagonal"):
        build_ramp(H, ((3, 3),), "down", 1.0)


@pytest.mark.parametrize("dt", [True, math.nan, math.inf, -1.0, 0.0])
def test_build_ramp_refuses_a_dt_it_cannot_ramp(dt):
    # True built a ramp of duration True, inf one whose pulses end at NaN
    g, H = dll(2, 1)
    with pytest.raises(ValueError, match=r"^dt must be a positive finite"):
        build_ramp(H, ((1, 5), (2, 5)), "down", dt)


def test_build_ramp_shares_one_pulse_per_base_value():
    g, H = dll(2, 2)
    sv = extract_star(g, H, 0)
    first, rest = sv.boundary_entries[0], sv.boundary_entries[1:]
    M = np.array(H.base, copy=True)
    M[first] = M[first[::-1]] = 2 * J
    pulses = build_ramp(TimedHamiltonian(M), sv.boundary_entries,
                        "down", 0.7).H.overrides
    assert pulses[first] == LinearRamp(2 * J, 0.0, 0.7)
    # equal base values, one profile: the same pulse object
    assert len(rest) > 1 and all(pulses[e] is pulses[rest[0]] for e in rest)
    assert pulses[rest[0]] == LinearRamp(J, 0.0, 0.7)


def test_symmetric_ramp_preserves_stored_state():
    # couplings of the occupied dimer share one base value, so they ramp
    # with one profile; the state never notices, for any ramp duration
    g, H = dll(2, 1)
    sv = extract_star(g, H, 0, dimer_in=(1, 2), dimer_out=(3, 4))
    psi = dimer_state(g.n_sites, (1, 2))
    rng = np.random.default_rng(71)
    for dt in rng.uniform(0.01, 10.0, size=50):
        seg = build_ramp(H, sv.boundary_entries, "down", float(dt))
        traj = run_schedule(ProtocolSchedule(H, (seg,)), psi, tol=1e-12)
        assert fidelity(traj.final_state, psi) >= 1.0 - 1e-10


def test_asymmetric_ramp_leaks_population():
    # a 10% profile mismatch between the two dimer couplings pushes
    # occupation out of the dimer far above integrator error
    g, H = dll(2, 1)
    psi = dimer_state(g.n_sites, (1, 2))
    dt, tol = 1.0, 1e-11
    Hr = TimedHamiltonian(H.base, {
        (1, 5): LinearRamp(J, 0.0, dt),
        (2, 5): LinearRamp(J, 0.1 * J, dt),
    })
    traj = run_schedule(ProtocolSchedule(H, (Segment(dt, Hr),)),
                        psi, tol=tol)
    inside = np.sum(np.abs(traj.final_state[[1, 2]]) ** 2)
    assert 1.0 - inside > 100 * tol * dt


def test_down_ramped_star_evolves_like_isolated_star():
    # once the boundary is exactly zero the five sites are their own
    # closed system
    g, H = dll(2, 1)
    sv = extract_star(g, H, 0, dimer_in=(1, 2), dimer_out=(3, 4))
    M = np.array(H.base, copy=True)
    for e in sv.boundary_entries:
        M[e] = M[e[::-1]] = 0.0
    psi = np.zeros(g.n_sites, dtype=complex)
    psi[1] = psi[2] = 1 / np.sqrt(2)  # symmetric: moves through the hub
    t = 3.7
    full = evolve_static(M, psi, t)
    sub = evolve_static(M[np.ix_(sv.sites, sv.sites)], psi[list(sv.sites)], t)
    assert np.max(np.abs(full[list(sv.sites)] - sub)) < 1e-10
    assert np.max(np.abs(np.delete(full, sv.sites))) < 1e-12


# ------------------------------------------------------------- planning


def _oracle_hops(g):
    """Dimer hop-count matrix straight from neighbor sets."""
    dimers = list(g.dimers())
    idx = {d: k for k, d in enumerate(dimers)}
    A = np.zeros((len(dimers), len(dimers)))
    for a in dimers:
        for b in dimers:
            if a != b and (set(g.neighbors(a[0])) & set(g.neighbors(b[0]))
                           - set(a) - set(b)):
                A[idx[a], idx[b]] = 1
    return shortest_path(A, unweighted=True), idx


def test_dimer_adjacency_matches_neighbor_sets():
    g, _ = dll(3, 2)
    adj = dimer_adjacency(g)
    _, idx = _oracle_hops(g)
    assert set(adj) == set(idx)
    for d, nbrs in adj.items():
        for h, d2 in nbrs:
            assert h in set(g.neighbors(d[0])) & set(g.neighbors(d2[0]))
        # symmetric relation
        for h, d2 in nbrs:
            assert any(dd == d for _, dd in adj[d2])


def test_plan_route_lengths_match_shortest_path_oracle():
    g, H = dll(3, 2)
    dist, idx = _oracle_hops(g)
    dimers = list(idx)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.choice(len(dimers), size=2, replace=False)
        plan = plan_route(g, H, dimers[a], dimers[b])
        assert len(plan.jumps) == dist[a, b]


def test_plan_route_deterministic_lexicographic_tie_break():
    # two shortest routes exist; the smaller (hub, dimer) moves win
    g, H = dll(2, 2)
    plan = plan_route(g, H, (3, 4), (8, 9))
    hubs = tuple(j.star.center for j in plan.jumps)
    assert hubs == (0, 5)
    assert plan.jumps[0].star.dimer_out == (1, 2)


def test_plan_route_trivial_and_bad_input():
    g, H = dll(1, 1)
    assert plan_route(g, H, (1, 2), (1, 2)).jumps == ()
    with pytest.raises(ValueError, match="lattice dimers"):
        plan_route(g, H, (0, 1), (3, 4))
    with pytest.raises(ValueError, match="variant"):
        plan_route(g, H, (1, 2), (3, 4), variant="teleport")


def test_plan_route_disconnected_raises():
    labels = ("dimer-upper", "dimer-lower", "hub", "dimer-upper",
              "dimer-lower") * 2
    edges = [(0, 2), (1, 2), (2, 3), (2, 4), (5, 7), (6, 7), (7, 8), (7, 9)]
    g = SiteGraph(10, tuple(edges), labels)
    M = np.zeros((10, 10))
    for e in edges:
        M[e] = M[e[::-1]] = J
    np.fill_diagonal(M, V)
    H = TimedHamiltonian(M, {})
    with pytest.raises(ValueError, match="no route"):
        plan_route(g, H, (0, 1), (5, 6))


def test_plan_route_requires_uniform_lattice():
    g, H = dll(1, 1)
    M = np.array(H.base)
    M[0, 1] = M[1, 0] = 2 * J
    with pytest.raises(ValueError, match="uniform"):
        plan_route(g, TimedHamiltonian(M), (1, 2), (3, 4))


def test_plan_route_checks_each_hamiltonian_it_is_given():
    # the transfer member is kept per graph for the last H planned on it;
    # another H, uniform or not, is checked and gets its own member
    g, H = dll(2, 2)
    assert plan_route(g, H, (1, 2), (3, 4)).jumps[0].params == \
        transfer_member_for(J, V)
    M = np.array(H.base)
    M[0, 1] = M[1, 0] = 2 * J
    with pytest.raises(ValueError, match="route planning needs uniform "
                                         "couplings and potentials"):
        plan_route(g, TimedHamiltonian(M), (1, 2), (3, 4))
    _, H2 = build_dll(2, 2, J, 1.5)
    member = plan_route(g, H2, (1, 2), (3, 4)).jumps[0].params
    assert member == transfer_member_for(J, 1.5) != transfer_member_for(J, V)
    assert plan_route(g, H, (1, 2), (3, 4)).jumps[0].params == \
        transfer_member_for(J, V)


@pytest.mark.parametrize("dt", [True, math.nan, math.inf, -1.0, 0.0])
def test_plan_route_refuses_a_dt_it_cannot_schedule(dt):
    # True planned and ran as a 1.0 ramp, NaN failed in schedule_multi
    # converting to a ratio, inf raised OverflowError
    g, H = dll(2, 2)
    with pytest.raises(ValueError, match=r"^dt must be"):
        plan_route(g, H, (1, 2), (3, 4), dt=dt)


def test_plan_route_takes_int_and_tiny_dt():
    # an int is a number of time units; a tiny positive dt plans, and
    # the emitted clock refuses the jump it collapses
    g, H = dll(2, 2)
    assert plan_route(g, H, (1, 2), (3, 4), dt=1) == \
        plan_route(g, H, (1, 2), (3, 4), dt=1.0)
    plan = plan_route(g, H, (1, 2), (3, 4), dt=1e-320)
    with pytest.raises(ValueError, match=r"^dt=1e-320 collapses"):
        schedule_multi([plan])


# ----------------------------------------------------------- scheduling


def test_schedule_disjoint_routes_start_together():
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (1, 2), (6, 7))     # jump at hub 5
    r2 = plan_route(g, H, (31, 32), (36, 37))  # jump at hub 35
    tl = schedule_multi([r1, r2])
    assert tl.starts == (0.0, 0.0)
    verify_timeline(tl)


def test_schedule_shared_star_delays_second_request():
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (16, 17), (21, 22))  # hub 20, horizontal
    r2 = plan_route(g, H, (8, 9), (23, 24))    # hub 20, vertical
    tl = schedule_multi([r1, r2])
    assert tl.starts[0] == 0.0
    assert tl.starts[1] == r1.jumps[0].duration
    verify_timeline(tl)
    # priority follows request order
    tl2 = schedule_multi([r2, r1])
    assert tl2.starts == (0.0, r2.jumps[0].duration)


def test_schedule_overlap_only_where_stars_differ():
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (16, 17), (26, 27))  # hubs 20 then 25
    r2 = plan_route(g, H, (8, 9), (23, 24))    # hub 20 only
    tl = schedule_multi([r1, r2])
    # second route waits for hub 20 to free, then runs concurrently
    # with the first route's second jump at hub 25
    assert tl.starts[1] == r1.jumps[0].duration
    assert tl.starts[1] < r1.duration
    verify_timeline(tl)


class _StubPlan:
    # the jump model reads each jump's star, ramp time, duration and
    # transfer time; the stars here have no boundary, only their spokes,
    # held as the links (hub, dimer)
    _DIMERS = {5: ((1, 2), (6, 7)), 20: ((16, 17), (21, 22))}

    def __init__(self, jumps):
        self.jumps = tuple(
            SimpleNamespace(star=StarView(
                c, *self._DIMERS[c], (),
                tuple(((c, d), False) for d in self._DIMERS[c])),
                dt=1.0, duration=d, params=SimpleNamespace(T=d - 2.0))
            for c, d in jumps)


def test_schedule_survives_delay_round_off():
    # jump windows (20, 0, 115.68140899333461) for the first route and
    # (5, 0, 24.84955592153876), (20, 24.84955592153876,
    # 33.13274122871835) for the second: (t1 - r0) + r0 rounds one ulp
    # below t1 for them, which used to leave no admissible delay
    first = _StubPlan(((20, 115.68140899333461),))
    second = _StubPlan(((5, 24.84955592153876), (20, 8.283185307179593)))
    j, t0, *_, t1 = Timeline((second,), (0.0,)).windows[0][1]
    assert (j.star.center, t0, t1) == \
        (20, 24.84955592153876, 33.13274122871835)
    tl = schedule_multi([first, second])
    assert tl.starts[0] == 0.0
    assert tl.windows[1][1][1] >= 115.68140899333461
    verify_timeline(tl)


def test_schedule_starts_a_ramp_on_a_held_ramps_window():
    # at delay 0 route 3 (hub 10, dt 2) clashes with route 2 (hub 15,
    # dt 2, window [8.28, 18.57]) on couplings (10, 11) and (10, 12),
    # which both ramp; started with route 2 it ramps them along route
    # 2's profile.  Relaxing to the end of each clashing hold alone
    # would start it at 18.57
    g, H = dll(2, 2)
    phase, hopping = TRANSFER_VARIANTS
    plans = [plan_route(g, H, a, b, variant=v, dt=dt)
             for a, b, v, dt in (((16, 17), (8, 9), phase, 1.0),
                                 ((18, 19), (11, 12), phase, 2.0),
                                 ((13, 14), (3, 4), hopping, 2.0))]
    tl = schedule_multi(plans)
    assert tl.starts == (0, plans[0].duration, plans[0].duration)
    assert tl.windows[2][0][1::3] == tl.windows[1][0][1::3] == \
        (8.283185307179586, 18.566370614359172)
    rep = simulate_route(g, H, tl)
    assert all(f >= 1 - 1e-8 for f in rep.fidelities)


def test_schedule_multi_takes_a_generator_of_routes():
    # the routes were consumed by the scheduling loop before the
    # timeline kept them, which left 0 routes beside 2 start times
    g, H = dll(2, 2)
    pairs = (((16, 17), (8, 9)), ((18, 19), (11, 12)))
    plans = [plan_route(g, H, a, b) for a, b in pairs]
    tl = schedule_multi(plan_route(g, H, a, b) for a, b in pairs)
    assert tl == schedule_multi(plans) and len(tl.routes) == 2
    assert len(simulate_route(g, H, tl).fidelities) == 2


def test_timeline_refuses_unpaired_routes_and_starts():
    g, H = dll(1, 1)
    r = plan_route(g, H, (1, 2), (3, 4))
    for routes, starts in (((), (0,)), ((r, r), (0,)), ((r,), ())):
        with pytest.raises(ValueError, match="one start time per route"):
            Timeline(routes, starts)


def _held(*holds):
    """An index of one link's sorted holds (t0, t1, dt), dt None for a
    spoke, and a ramped jump of 5 ticks and dt 1.0 on that link."""
    jump = SimpleNamespace(dt=1.0)
    return {"link": list(holds)}, [(jump, 0, 5, (("link", True),))]


def test_clash_skips_a_run_of_held_windows():
    # three back-to-back holds, each less than the jump's 5 ticks after
    # the one before, none it could share: one call moves past them all
    index, jumps = _held((0, 10, None), (12, 20, 2.0), (21, 30, None))
    assert clsnet.routing._clash(index, jumps, 0) == 30
    assert clsnet.routing._clash(index, jumps, 30) == 0
    # a gap the jump fits in ends the run
    index, jumps = _held((0, 10, None), (15, 20, None))
    assert clsnet.routing._clash(index, jumps, 0) == 10


def test_clash_stops_at_a_ramp_it_could_share():
    # the third hold is a ramp of the jump's own window length and dt:
    # the walk does not pass it, and the jump starts with it, sharing it
    index, jumps = _held((0, 10, None), (10, 20, None), (22, 27, 1.0))
    assert clsnet.routing._clash(index, jumps, 0) == 22
    assert clsnet.routing._clash(index, jumps, 22) == 0
    # a ramp on another dt is a clash like any other
    index, jumps = _held((0, 10, None), (10, 20, None), (22, 27, 2.0))
    assert clsnet.routing._clash(index, jumps, 0) == 27


def test_concurrent_starts_emit_no_sliver_segment():
    # routes 2 and 3 start together; float start arithmetic put them at
    # 13.366370614359173 and 13.366370614359175, and the schedule had
    # segments of 1.8e-15
    g, H = dll(2, 2)
    plans = [plan_route(g, H, a, b, dt=0.2) for a, b in
             (((18, 19), (1, 2)), ((8, 9), (1, 2)), ((13, 14), (8, 9)))]
    tl = schedule_multi(plans)
    assert tl.starts[1] == tl.starts[2]
    assert float(tl.starts[1]) == 13.366370614359173
    items = timeline_schedule(g, H, tl).items
    assert min(it.duration for it in items if isinstance(it, Segment)) \
        >= 1e-9


def test_decimal_dt_sums_emit_no_sliver_segment():
    # sums of 0.7, 0.5 and 0.3 that agree in decimal differ in binary by
    # far less than a float step at the end; emitted apart, they made a
    # segment of 1.4e-14 at t = 22.35
    g, H = dll(4, 4)
    phase, hopping = TRANSFER_VARIANTS
    plans = [plan_route(g, H, a, b, variant=v, dt=dt)
             for a, b, v, dt in (((43, 44), (26, 27), hopping, 0.7),
                                 ((16, 17), (23, 24), phase, 0.5),
                                 ((71, 72), (56, 57), phase, 0.7),
                                 ((58, 59), (23, 24), hopping, 0.3),
                                 ((31, 32), (38, 39), hopping, 0.3),
                                 ((41, 42), (76, 77), hopping, 0.5))]
    items = timeline_schedule(g, H, schedule_multi(plans)).items
    assert min(it.duration for it in items if isinstance(it, Segment)) \
        >= 1e-9


def test_collapse_names_the_largest_dt():
    # a huge dt coarsens the emitted clock until the other route's
    # ramps collapse too; the refusal names the dt that did it
    g, H = dll(3, 3)
    plans = [plan_route(g, H, (16, 17), (26, 27)),
             plan_route(g, H, (1, 2), (3, 4), dt=1e17)]
    with pytest.raises(ValueError, match=r"^dt=1e\+17 collapses"):
        schedule_multi(plans)


def test_schedule_shared_dimer_pair_builds():
    # route 2 rests in (21, 22), which route 1 passes through; both
    # route 1's jumps hold couplings of route 2's jump at hub 20, so it
    # waits for route 1 to end
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (16, 17), (26, 27))  # hubs 20 then 25
    r2 = plan_route(g, H, (21, 22), (23, 24))  # hub 20
    tl = schedule_multi([r1, r2])
    timeline_schedule(g, H, tl)
    assert tl.starts[1] == r1.duration


def test_shared_dimer_pair_falls_back_to_the_full_lattice(monkeypatch):
    # route 1 jumps through (21, 22) while route 2's state rests there:
    # its flips hit the resting dimer and its leak bound exceeds
    # tol * end, so the whole timeline runs on the full lattice
    passes = []

    def counted(s, psi0, **kwargs):
        passes.append(np.shape(psi0))
        return run_schedule(s, psi0, **kwargs)

    monkeypatch.setattr(clsnet.routing, "run_schedule", counted)
    g, H = dll(3, 3)
    tl = schedule_multi([plan_route(g, H, (16, 17), (26, 27)),
                         plan_route(g, H, (21, 22), (23, 24))])
    rep = simulate_route(g, H, tl)
    assert passes == [(g.n_sites, 2)]
    assert rep.leak_bound[1] > 1e-11 * tl.end
    assert rep.leak_bound[0] <= 1e-12
    assert rep.fidelities[1] == pytest.approx(0.5627, abs=1e-4)


@pytest.mark.xfail(strict=True, reason=(
    "the jump model covers couplings, not resting states: route 1 moves "
    "its state into (21, 22) while route 2's state rests there, and "
    "route 2 ends with fidelity 0.5627"))
def test_shared_dimer_pair_keeps_both_states():
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (16, 17), (26, 27))
    r2 = plan_route(g, H, (21, 22), (23, 24))
    rep = simulate_route(g, H, schedule_multi([r1, r2]))
    assert all(f >= 1 - 1e-8 for f in rep.fidelities)


def test_route_fidelities_never_exceed_one(full_lattice):
    # three concurrent routes on the 3x3 DLL: the propagated states
    # drift in norm by ~5e-14, which the reported fidelities used to
    # carry above 1 (1.0000000000000915 for the first route)
    g, H = dll(3, 3)
    plans = [plan_route(g, H, a, b) for a, b in
             (((16, 17), (26, 27)), ((8, 9), (23, 24)), ((1, 2), (3, 4)))]
    rep = simulate_route(g, H, schedule_multi(plans))
    assert rep.norm_drift > 0.0
    jump_fids = [f for table in rep.per_jump for _, f in table]
    assert len(jump_fids) == sum(len(p.jumps) for p in plans)
    for f in list(rep.fidelities) + jump_fids:
        assert 1 - 1e-8 <= f <= 1.0


def test_timeline_busy_follows_starts():
    # the occupancy is derived from the routes and start times, so a
    # late start moves the makespan with it
    g, H = dll(1, 1)
    r = plan_route(g, H, (1, 2), (3, 4))
    tl = Timeline(routes=(r,), starts=(5.0,))
    assert [[(j.star.center, t0, t1) for j, t0, *_, t1 in row]
            for row in tl.windows] == \
        [[(r.jumps[0].star.center, 5.0, 5.0 + r.duration)]]
    assert tl.end == 5.0 + r.duration


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_window_instants_are_segment_bounds(data):
    # Timeline.windows is the one emitted view of a timeline: each
    # jump's t0, t0 + dt, t1 - dt and t1 are bounds of its schedule,
    # exactly, and the latest t1 is the schedule's duration
    cells = data.draw(st.integers(2, 3), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.2, 0.3, 0.5, 0.7, 1.0, 2.0))),
        min_size=1, max_size=5), label="requests")
    tl = schedule_multi([plan_route(g, H, a, b, variant=v, dt=dt)
                         for a, b, v, dt in requests])
    s = timeline_schedule(g, H, tl)
    bounds = {0.0, *accumulate(it.duration for it in s.items
                               if isinstance(it, Segment))}
    assert len(tl.windows) == len(tl.routes)
    for plan, row in zip(tl.routes, tl.windows):
        assert [w[0] for w in row] == list(plan.jumps)
        for _, *instants in row:
            assert set(instants) <= bounds
    assert tl.end == s.duration


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_scheduled_timeline_builds(data):
    cells = data.draw(st.integers(2, 4), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.2, 0.3, 0.5, 0.7, 1.0, 2.0))),
        min_size=1, max_size=7), label="requests")
    plans = [plan_route(g, H, a, b, variant=v, dt=dt)
             for a, b, v, dt in requests]
    tl = schedule_multi(plans)
    verify_timeline(tl)
    s = timeline_schedule(g, H, tl)
    # every jump's ramps start and end on its busy interval, exactly at
    # the base couplings; segment windows come from the schedule clock
    segments, clock = [], 0.0
    for it in s.items:
        if isinstance(it, Segment):
            segments.append((clock, clock + it.duration, it))
            clock += it.duration
    assert clock == pytest.approx(tl.end, rel=1e-12)
    # distinct bounds lie apart: no sliver segment between them
    assert all(b - a >= 1e-9 * tl.end for a, b, _ in segments)
    seg_starts = np.array([a for a, _, _ in segments])
    seg_ends = np.array([b for _, b, _ in segments])
    for plan, row in zip(tl.routes, tl.windows):
        for j, (w, t0, *_, t1) in zip(plan.jumps, row):
            assert w.star.center == j.star.center
            a0, _, first = segments[np.argmin(np.abs(seg_starts - t0))]
            _, b1, last = segments[np.argmin(np.abs(seg_ends - t1))]
            assert a0 == pytest.approx(t0, abs=1e-9)
            assert b1 == pytest.approx(t1, abs=1e-9)
            for e in j.star.boundary_entries:
                assert first.H.overrides[e].start == H.base[e]
                assert last.H.overrides[e].end == H.base[e]


@pytest.mark.parametrize("variant", TRANSFER_VARIANTS)
def test_jump_flips_are_the_star_protocol_flips(variant):
    # each jump runs the isolated star's protocol: star site k is the
    # jump's sites[k]; the flips before its segment act at the end of
    # the down-ramp, those after it at the start of the up-ramp
    g, H = dll(3, 3)
    plan = plan_route(g, H, (16, 17), (26, 27), variant=variant)
    assert len(plan.jumps) == 2
    s = timeline_schedule(g, H, schedule_multi([plan]))
    emitted, clock = [], 0.0
    for it in s.items:
        if isinstance(it, Segment):
            clock += it.duration
        else:
            emitted.append((clock, it))
    expected, t0 = [], 0.0
    for j in plan.jumps:
        t1 = t0 + j.duration
        t, sites = t0 + j.dt, j.star.sites
        for f in build_schedule(variant, j.params).items:
            if isinstance(f, Segment):
                t = t1 - j.dt
            elif isinstance(f, PhaseFlip):
                expected.append((t, PhaseFlip(sites[f.site])))
            else:
                i, k = f.entry
                expected.append((t, HoppingFlip((sites[i], sites[k]))))
        t0 = t1
    assert [f for _, f in emitted] == [f for _, f in expected]
    assert [t for t, _ in emitted] == \
        pytest.approx([t for t, _ in expected], abs=1e-12)


def test_verify_timeline_rejects_double_booked_star():
    g, H = dll(3, 3)
    r = plan_route(g, H, (16, 17), (21, 22))
    tl = Timeline(routes=(r, r), starts=(0.0, 0.0))
    with pytest.raises(ValueError, match="both occupy star 20"):
        verify_timeline(tl)


def test_verify_timeline_rejects_ramps_on_different_profiles():
    # hubs 0 and 5 both ramp (1, 5), over ramp times 1 and 2
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (3, 4), (1, 2), dt=1.0)
    r2 = plan_route(g, H, (6, 7), (8, 9), dt=2.0)
    tl = Timeline(routes=(r1, r2), starts=(0.0, 0.0))
    with pytest.raises(ValueError, match=r"both hold coupling \(1, 5\)"):
        verify_timeline(tl)


def test_verify_timeline_keeps_only_a_passing_verdict():
    g, H = dll(3, 3)
    r = plan_route(g, H, (16, 17), (21, 22))
    # schedule_multi leaves the check to verify_timeline
    tl = schedule_multi([r, r])
    assert tl.starts[1] > 0 and "_verified" not in vars(tl)
    assert verify_timeline(tl) and vars(tl)["_verified"] is True
    # a clash is never kept: every call, and every build, raises again
    r1 = plan_route(g, H, (3, 4), (1, 2), dt=1.0)
    r2 = plan_route(g, H, (6, 7), (8, 9), dt=2.0)
    for bad, what in ((dataclasses.replace(tl, starts=(0.0, 0.0)),
                       "both occupy star 20"),
                      (Timeline(routes=(r1, r2), starts=(0.0, 0.0)),
                       r"both hold coupling \(1, 5\)")):
        for check in (verify_timeline, verify_timeline,
                      lambda t: timeline_schedule(g, H, t)):
            with pytest.raises(ValueError, match=what):
                check(bad)
        assert "_verified" not in vars(bad)


def test_route_plan_rejects_broken_chain():
    g, H = dll(3, 1)
    r = plan_route(g, H, (1, 2), (6, 7))
    with pytest.raises(ValueError, match="chain"):
        RoutePlan(r.jumps, (1, 2), (11, 12))
    with pytest.raises(ValueError, match="chain"):
        RoutePlan(r.jumps, (3, 4), (6, 7))


# ----------------------------------------------------------- simulation


def test_single_jump_transfer_on_smallest_lattice():
    g, H = dll(1, 1)
    for variant in ("phase-flip-transfer", "hopping-flip-transfer"):
        plan = plan_route(g, H, (1, 2), (3, 4), variant=variant)
        assert len(plan.jumps) == 1
        tl = schedule_multi([plan])
        report = simulate_route(g, H, tl)
        assert report.fidelities[0] >= 1.0 - 1e-10
        assert report.norm_drift <= 1e-10


def test_timeline_schedule_restores_base_hamiltonian():
    g, H = dll(2, 1)
    plan = plan_route(g, H, (1, 2), (6, 7), variant="hopping-flip-transfer")
    tl = schedule_multi([plan])
    s = timeline_schedule(g, H, tl)
    assert np.allclose(end_hamiltonian(s), H.base, atol=1e-12)
    assert s.duration == pytest.approx(plan.duration)


def test_pulsed_lattice_hamiltonian_is_refused():
    # the schedule's base is H itself: a drive on H is never dropped
    # in favour of its static base
    g, H = dll(2, 2)
    tl = schedule_multi([plan_route(g, H, (1, 2), (3, 4))])
    pulsed = TimedHamiltonian(H.base, {(0, 1): LinearRamp(J, 5.0, 1.0)})
    for run in (timeline_schedule, simulate_route):
        with pytest.raises(ValueError, match="pulse-free"):
            run(g, pulsed, tl)
    assert timeline_schedule(g, H, tl).base is H


def test_two_jump_route_passes_through_intermediate_dimer():
    g, H = dll(3, 1)
    plan = plan_route(g, H, (1, 2), (11, 12))
    assert len(plan.jumps) == 2
    tl = schedule_multi([plan])
    report = simulate_route(g, H, tl)
    assert report.fidelities[0] >= 1.0 - 1e-9
    times, fids = zip(*report.per_jump[0])
    assert times == pytest.approx((plan.jumps[0].duration, plan.duration))
    assert all(f >= 1.0 - 1e-9 for f in fids)


def test_crossing_routes_share_star_at_distinct_times():
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (16, 17), (26, 27))  # east through 20, 25
    r2 = plan_route(g, H, (8, 9), (23, 24))    # north through 20
    tl = schedule_multi([r1, r2])
    report = simulate_route(g, H, tl)
    assert all(f >= 1.0 - 1e-8 for f in report.fidelities)
    assert report.norm_drift <= 1e-10


def test_simulate_route_runs_one_pass_per_timeline(monkeypatch,
                                                   full_lattice):
    calls = []

    def counted(s, psi0, **kwargs):
        calls.append(np.shape(psi0))
        return run_schedule(s, psi0, **kwargs)

    monkeypatch.setattr(clsnet.routing, "run_schedule", counted)
    g, H = dll(3, 3)
    r1 = plan_route(g, H, (1, 2), (6, 7))
    r2 = plan_route(g, H, (31, 32), (36, 37))
    report = simulate_route(g, H, schedule_multi([r1, r2]))
    assert calls == [(g.n_sites, 2)]
    assert all(f >= 1.0 - 1e-8 for f in report.fidelities)


@pytest.mark.parametrize("cells, requests, dt", [
    # the one star of a cell has no boundary couplings, so no ramp ends
    # where the first route's jump does
    (1, [((1, 2), (3, 4)), ((3, 4), (1, 2))], 1.0),
    # start times an ulp apart put two segment bounds 1.8e-15 apart
    (3, [((41, 42), (3, 4)), ((11, 12), (38, 39))], 0.3),
])
def test_per_jump_states_read_at_their_exact_time(monkeypatch, full_lattice,
                                                  cells, requests, dt):
    seen = []

    def captured(s, psi0, **kwargs):
        seen.append(run_schedule(s, psi0, **kwargs))
        return seen[-1]

    monkeypatch.setattr(clsnet.routing, "run_schedule", captured)
    g, H = dll(cells, cells)
    tl = schedule_multi([plan_route(g, H, a, b, dt=dt) for a, b in requests])
    report = simulate_route(g, H, tl)
    times = set(seen[0].times.tolist())
    ends = [t for row in report.per_jump for t, _ in row]
    assert len(ends) == sum(len(plan.jumps) for plan in tl.routes)
    assert all(t in times for t in ends)
    assert all(f >= 1.0 - 1e-8 for _, f in report.per_jump[0])


def test_stored_states_pass_the_first_pair(monkeypatch, full_lattice):
    # on C12's three-jump route every ramp leaves the stored state alone,
    # so each pulsed segment runs one (8, 16) pair and no more
    steps = []
    cf4 = clsnet.evolve._cf4_run

    def counted(H, psi0, t0, t1, n_steps, record_every=None):
        steps.append(n_steps)
        return cf4(H, psi0, t0, t1, n_steps, record_every)

    monkeypatch.setattr(clsnet.evolve, "_cf4_run", counted)
    g, H = dll(3, 3)
    tl = schedule_multi([plan_route(g, H, (1, 2), (36, 37), dt=1.0)])
    pulsed = sum(isinstance(it, Segment) and it.H is not None
                 and not it.H.static
                 for it in timeline_schedule(g, H, tl).items)
    report = simulate_route(g, H, tl)
    assert pulsed >= 6
    assert steps == [8, 16] * pulsed
    assert report.fidelities[0] >= 1.0 - 1e-8


def test_stored_states_run_no_integrator(monkeypatch):
    # C12's three-jump route runs on its supports, where every segment is
    # static: no pulsed step at all
    steps = []
    cf4 = clsnet.evolve._cf4_run

    def counted(*args, **kwargs):
        steps.append(args[4])
        return cf4(*args, **kwargs)

    monkeypatch.setattr(clsnet.evolve, "_cf4_run", counted)
    g, H = dll(3, 3)
    tl = schedule_multi([plan_route(g, H, (1, 2), (36, 37), dt=1.0)])
    report = simulate_route(g, H, tl)
    assert steps == []
    assert report.fidelities[0] >= 1.0 - 1e-8
    assert report.leak_bound[0] <= 1e-12


def test_leak_bound_covers_a_drive_inside_a_support():
    # no planned timeline drives an entry inside a support, so by hand:
    # over a jump window on the 1x1 DLL, whose star is the whole lattice,
    # a ramp switches off the spoke (0, 1), which the walk holds at its
    # end value 0 over the segment.  (A drive inside a resting dimer
    # closes an odd cycle, which run_schedule refuses.)
    g, H = dll(1, 1)
    plan = plan_route(g, H, (1, 2), (3, 4))
    ramp = TimedHamiltonian(H.base, {(0, 1): LinearRamp(J, 0.0, 2.0)})
    s = ProtocolSchedule(TimedHamiltonian(H.base), (Segment(2.0, ramp),))
    psi0 = dimer_state(g.n_sites, (1, 2))[:, None]
    final, _, _, (bound,) = clsnet.routing._walk_supports(
        Timeline((plan,), (0,)), s, psi0)
    full = run_schedule(s, psi0, tol=1e-11).final_state
    assert bound >= np.linalg.norm(final[:, 0] - full[:, 0]) > 0.0


def _full_lattice_report(g, H, tl, tol=1e-11):
    """The oracle: every source as a column of one block in one
    run_schedule pass over the whole lattice, read as simulate_route
    reads it."""
    n = g.n_sites
    traj = run_schedule(timeline_schedule(g, H, tl), np.column_stack(
        [dimer_state(n, p.source) for p in tl.routes]),
        samples_per_segment=2, tol=tol)
    at = {t: k for k, t in enumerate(traj.times)}

    def unit(psi, pair):
        return fidelity(psi / np.linalg.norm(psi), dimer_state(n, pair))

    fids = tuple(unit(traj.final_state[:, r], p.destination)
                 for r, p in enumerate(tl.routes))
    per_jump = tuple(
        tuple((t1, unit(traj.states[at[t1], :, r], j.star.dimer_out))
              for j, *_, t1 in row)
        for r, row in enumerate(tl.windows))
    return fids, per_jump, tuple(traj.final_state.T), traj.norm_drift


def _flip_hits_a_resting_dimer(g, H, tl):
    """Whether a flip of the timeline's schedule acts on a site of a
    dimer where some route's state rests at that instant."""
    rests = []  # (dimer, from, to), closed: a route rests at its ends
    for plan, row in zip(tl.routes, tl.windows):
        t = 0.0
        for j, t0, *_, t1 in row:
            rests.append((j.star.dimer_in, t, t0))
            t = t1
        rests.append((plan.destination, t, math.inf))
    clock = 0.0
    for it in timeline_schedule(g, H, tl).items:
        if isinstance(it, Segment):
            clock += it.duration
            continue
        on = {it.site} if isinstance(it, PhaseFlip) else {*it.entry}
        if any(a <= clock <= b and not on.isdisjoint(d) for d, a, b in rests):
            return True
    return False


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_support_walk_matches_the_full_lattice_pass(data):
    cells = data.draw(st.integers(2, 3), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.2, 0.3, 0.5, 0.7, 1.0, 2.0))),
        min_size=1, max_size=4), label="requests")
    tl = schedule_multi([plan_route(g, H, a, b, variant=v, dt=dt)
                         for a, b, v, dt in requests])
    passes = []

    def counted(s, psi0, **kwargs):
        passes.append(np.shape(psi0))
        return run_schedule(s, psi0, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clsnet.routing, "run_schedule", counted)
        rep = simulate_route(g, H, tl)
    fids, per_jump, finals, drift = _full_lattice_report(g, H, tl)
    assert len(rep.leak_bound) == len(tl.routes)
    assert all(map(math.isfinite, rep.leak_bound))
    # a flip on another route's resting dimer leaks past the budget
    assert passes or not _flip_hits_a_resting_dimer(g, H, tl)
    if passes:
        # a fallback returns the full-lattice pass bit for bit
        assert (rep.fidelities, rep.per_jump, rep.norm_drift) == \
            (fids, per_jump, drift)
        assert all(np.array_equal(a, b)
                   for a, b in zip(rep.final_states, finals))
        return
    assert max(rep.leak_bound) <= 1e-12
    assert np.allclose(rep.fidelities, fids, rtol=0, atol=1e-12)
    for got, want in zip(rep.per_jump, per_jump):
        assert [t for t, _ in got] == [t for t, _ in want]
        assert np.allclose([f for _, f in got], [f for _, f in want],
                           rtol=0, atol=1e-12)
    for a, b in zip(rep.final_states, finals):
        assert np.linalg.norm(a - b) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_walk_leaves_each_drawn_segment_its_snapshot(data):
    # walk() writes each pulse's end value into a copy of the segment's
    # base rather than gathering evaluate_at's n x n snapshot; on route
    # timelines, after ramps, flips and flipped spokes, it must leave
    # the snapshot's bits, which the support walk then reads
    cells = data.draw(st.integers(2, 3), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    hopping = data.draw(st.tuples(dimers, dimers).filter(
        lambda p: p[0] != p[1]), label="hopping request")
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.2, 0.5, 1.0, 2.0))),
        min_size=1, max_size=3), label="requests")
    plans = [plan_route(g, H, *hopping, variant="hopping-flip-transfer")]
    plans += [plan_route(g, H, a, b, variant=v, dt=dt)
              for a, b, v, dt in requests]
    s = timeline_schedule(g, H, schedule_multi(plans))
    prev = s.base.base
    for _, item, M in s.walk():
        if isinstance(item, HoppingFlip):
            prev = prev.copy()
            item.negate(prev)
        elif isinstance(item, Segment) and item.H is not None:
            prev = evaluate_at(item.H, item.duration)
        assert M.tobytes() == prev.tobytes()
    assert any(isinstance(it, HoppingFlip) for it in s.items)
    assert any(isinstance(it, Segment) and it.H is not None
               and not it.H.static for it in s.items)


def test_walk_takes_one_eigh_per_distinct_block(monkeypatch):
    g, H = dll(3, 3)
    plans = [plan_route(g, H, a, b, variant=v, dt=dt) for a, b, v, dt in (
        ((16, 17), (26, 27), "phase-flip-transfer", 2.0),
        ((8, 9), (38, 39), "hopping-flip-transfer", 2.0),
        ((3, 4), (1, 2), "phase-flip-transfer", 1.0))]
    tl = schedule_multi(plans)
    s = timeline_schedule(g, H, tl)
    psi0 = np.column_stack([dimer_state(g.n_sites, p.source) for p in plans])
    blocks, eigh = [], np.linalg.eigh

    def counted(M):
        blocks.append(M.tobytes())
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    clsnet.routing._walk_supports(tl, s, psi0)
    pairs = len(plans) * sum(isinstance(it, Segment) for it in s.items)
    # one call per (route, segment) pair before; the blocks are the
    # dimer's, the star's and the star's with a flipped spoke
    assert len(blocks) == len(set(blocks)) == 3 and pairs == 33


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 1e-5])
def test_out_of_range_tol_raises_before_integrating(tol):
    # nan failed converting a step count to int, -1.0 in np.ceil; only
    # evolve_timedep checked the range.  The support walk certifies this
    # jump, so simulate_route checks tol without integrating at all
    g, H = dll(2, 2)
    tl = schedule_multi([plan_route(g, H, (1, 2), (3, 4))])
    assert simulate_route(g, H, tl).leak_bound[0] <= 1e-11 * tl.end
    with pytest.raises(ValueError, match=r"^tol must lie in \[1e-14, 1e-6\]"):
        run_schedule(timeline_schedule(g, H, tl),
                     dimer_state(g.n_sites, (1, 2)), tol=tol)
    with pytest.raises(ValueError, match=r"^tol must lie in \[1e-14, 1e-6\]"):
        simulate_route(g, H, tl, tol=tol)


def test_each_route_runs_as_if_alone(monkeypatch):
    # the paper's independent paths, by linearity: a route of a joint
    # timeline that does not fall back ends as it would alone from the
    # same start, up to the resting phase e^{-iv t} until the joint end
    # no fallback: it would call run_schedule
    monkeypatch.setattr(clsnet.routing, "run_schedule", None)
    g, H = dll(3, 3)
    plans = [plan_route(g, H, a, b) for a, b in
             (((16, 17), (26, 27)), ((8, 9), (23, 24)), ((1, 2), (3, 4)))]
    tl = schedule_multi(plans)
    assert len(set(tl.starts)) < len(plans)  # some routes run at once
    joint = simulate_route(g, H, tl)
    for r, (plan, start) in enumerate(zip(plans, tl.starts)):
        solo_tl = Timeline((plan,), (start,))
        solo = simulate_route(g, H, solo_tl).final_states[0]
        rest = np.exp(-1j * V * (tl.end - solo_tl.end))
        assert np.linalg.norm(joint.final_states[r] - rest * solo) <= 1e-12


def test_corner_to_corner_route_on_6x6():
    # the longest planned route: 11 jumps across 180 sites
    g, H = dll(6, 6)
    plan = plan_route(g, H, (26, 27), (153, 154))
    assert len(plan.jumps) == 11
    report = simulate_route(g, H, schedule_multi([plan]))
    assert report.fidelities[0] >= 1.0 - 1e-8
    assert all(f >= 1.0 - 1e-8 for _, f in report.per_jump[0])
    assert report.norm_drift <= 1e-10


def test_concurrent_disjoint_routes_keep_unit_fidelity():
    g, H = dll(2, 1)
    r1 = plan_route(g, H, (1, 2), (6, 7))
    r2 = plan_route(g, H, (3, 4), (3, 4))  # parked state, zero jumps
    tl = schedule_multi([r1, r2])
    report = simulate_route(g, H, tl)
    assert report.fidelities[0] >= 1.0 - 1e-10
    assert report.fidelities[1] >= 1.0 - 1e-10


def test_empty_timeline_report():
    g, H = dll(1, 1)
    plan = plan_route(g, H, (1, 2), (1, 2))
    report = simulate_route(g, H, schedule_multi([plan]))
    assert abs(report.fidelities[0] - 1.0) < 1e-12
    assert report.per_jump == ((),)


def test_simulation_is_deterministic():
    g, H = dll(1, 1)
    plan = plan_route(g, H, (1, 2), (3, 4))
    tl = schedule_multi([plan])
    a = simulate_route(g, H, tl)
    b = simulate_route(g, H, tl)
    assert np.array_equal(a.final_states[0], b.final_states[0])
    assert a.fidelities == b.fidelities


def test_jump_duration_and_busy_accounting():
    g, H = dll(2, 1)
    plan = plan_route(g, H, (1, 2), (6, 7), dt=0.5)
    (j, b0, *_, b1), = Timeline((plan,), (0.0,)).windows[0]
    assert j.star.center == 5
    assert b0 == 0.0
    assert b1 == pytest.approx(1.0 + 2 * np.pi)
    assert plan.duration == b1


# ------------------------------------------------- oracles of the planner
#
# The planner's scans before it kept per-graph tables and per-plan holds:
# each request rebuilt the dimer adjacency and scanned every edge of the
# lattice, each candidate delay rebuilt its plan's holds, and each
# segment rescanned every ramp.  The planner must emit the same output.


def _oracle_hub_dimers(g):
    """Each common neighbour h of a dimer's two sites -> its dimers."""
    by_hub = {}
    for d in g.dimers():
        shared = set(g.neighbors(d[0])) & set(g.neighbors(d[1]))
        for h in sorted(shared - set(d)):
            by_hub.setdefault(h, []).append(d)
    return by_hub


def _oracle_dimer_adjacency(g):
    adj = {d: [] for d in g.dimers()}
    for h, ds in sorted(_oracle_hub_dimers(g).items()):
        for d in ds:
            adj[d] += [(h, d2) for d2 in ds if d2 != d]
    return {d: tuple(sorted(v)) for d, v in adj.items()}


def _oracle_link_keys(g):
    """Each coupling -> its scheduling key: the link (h, d) whose
    couplings (h, d[0]) and (h, d[1]) include it, else itself.  On the
    lattices tested here no coupling is in two links."""
    links = {}
    for h, ds in _oracle_hub_dimers(g).items():
        for d in ds:
            for s in d:
                links.setdefault(tuple(sorted((h, s))), []).append((h, d))
    assert all(len(ls) == 1 for ls in links.values())
    return {e: links[e][0] if e in links else e for e in g.edges}


def _oracle_star(g, center, dimer_in, dimer_out):
    sites = {center, *dimer_in, *dimer_out}
    inside = {e for e in g.edges if e[0] in sites and e[1] in sites}
    boundary = tuple(sorted(
        e for e in g.edges if (e[0] in sites) != (e[1] in sites)))
    spokes = [tuple(sorted((s, center))) for s in (*dimer_in, *dimer_out)]
    key = _oracle_link_keys(g)
    links = dict.fromkeys([(key[e], False) for e in spokes] +
                          [(key[e], True) for e in boundary])
    star = StarView(center, dimer_in, dimer_out, boundary, tuple(links))
    assert inside == set(star.spokes)
    return star


def _oracle_jump_holds(plan, start):
    """Each jump's (jump, t0, t1, holds) run from ``start``, in exact
    Fractions: t1 = t0 + 2 dt + T."""
    out, t0 = [], Fraction(start)
    for j in plan.jumps:
        dt = Fraction(j.dt)
        t1 = t0 + 2 * dt + Fraction(j.params.T)
        holds = [(e, None) for e in j.star.spokes]
        holds += [(e, (t0, t1, dt)) for e in j.star.boundary_entries]
        out.append((j, t0, t1, holds))
        t0 = t1
    return out


def _oracle_admit(index, jumps):
    for _, t0, t1, holds in jumps:
        for e, key in holds:
            for h0, h1, held_key in index.get(e, ()):
                if h0 < t1 and t0 < h1 and (key is None or key != held_key):
                    return False
    for _, t0, t1, holds in jumps:
        for e, key in holds:
            index.setdefault(e, []).append((t0, t1, key))
    return True


def _oracle_starts(plans):
    """Brute force on the exact clock: the smallest admissible delay is
    0, a delay that starts a jump where a hold on one of its couplings
    ends, or one that starts it where a held ramp starts; try them all
    in order."""
    index, starts = {}, []
    for plan in plans:
        candidates = {Fraction(0)}
        for _, r0, _, holds in _oracle_jump_holds(plan, 0):
            for e, _ in holds:
                for h0, h1, key in index.get(e, ()):
                    candidates.add(h1 - r0)
                    if key is not None:
                        candidates.add(h0 - r0)
        starts.append(next(
            d for d in sorted(candidates)
            if d >= 0 and _oracle_admit(index, _oracle_jump_holds(plan, d))))
    return tuple(starts)


def _oracle_timeline(tl):
    """The ramps (r0, r1, entries, kind), flips by time and sorted
    segment bounds of timeline_schedule(tl), all exact."""
    ramps, flips, end = [], {}, Fraction(0)
    for plan, start in zip(tl.routes, tl.starts):
        for j, t0, t1, _ in _oracle_jump_holds(plan, start):
            down_end, up_start = t0 + Fraction(j.dt), t1 - Fraction(j.dt)
            if j.star.boundary_entries:
                ramps.append((t0, down_end, j.star.boundary_entries, "down"))
                ramps.append((up_start, t1, j.star.boundary_entries, "up"))
            star = build_schedule(j.variant, j.params).items
            k = next(k for k, f in enumerate(star) if isinstance(f, Segment))
            for t, fs in ((down_end, star[:k]), (up_start, star[k + 1:])):
                flips.setdefault(t, []).extend(
                    clsnet.routing._moved(f, j.star.sites) for f in fs)
            end = max(end, t1)
    bounds = sorted({Fraction(0), end, *flips,
                     *(t for r in ramps for t in r[:2])})
    return ramps, flips, bounds


def _oracle_items(H, tl):
    """timeline_schedule's items, as (flip) or (duration, working matrix,
    ramp slices) with both None on a static stretch.  Each exact
    bound is emitted as the nearest multiple (ties up) of the ulp of the
    end's binade, a bound less than one ulp after the last one kept as
    that one, and a duration is the difference of two such floats."""
    ramps, flips, bounds = _oracle_timeline(tl)
    end = bounds[-1]
    p = end.numerator.bit_length() - end.denominator.bit_length()
    p -= Fraction(2) ** p > end  # now 2**p <= end < 2**(p + 1)
    ulp = Fraction(2) ** max(p - 52, -1074)
    at, kept = {}, bounds[0]
    for b in bounds:
        kept = b if b - kept >= ulp else kept
        at[b] = float(math.floor(kept / ulp + Fraction(1, 2)) * ulp)

    # ramp ends are bounds; compare their places, not their Fractions
    place = {b: k for k, b in enumerate(bounds)}
    spans = [(place[r[0]], place[r[1]], r) for r in ramps]
    M = np.array(H.base, dtype=float, copy=True)
    items = []
    for k, (b, b2) in enumerate(zip(bounds, bounds[1:] + [None])):
        for f in flips.get(b, ()):
            items.append(f)
            if isinstance(f, HoppingFlip):
                f.negate(M)
        if b2 is None or at[b2] == at[b]:
            continue
        overrides = {}
        for r0, r1, entries, kind in (r for lo, hi, r in spans
                                      if lo <= k < hi):
            for e in entries:
                overrides.setdefault(e, clsnet.routing._ramp_slice(
                    float(H.base[e]), at[r0], at[r1], kind, at[b], at[b2]))
        if not overrides:
            items.append((at[b2] - at[b], None, None))
            continue
        items.append((at[b2] - at[b], M.copy(), list(overrides.items())))
        for e, pulse in overrides.items():
            M[e] = M[e[::-1]] = pulse.end
    return items


def _same_item(H, got, want):
    """``got``, an item of timeline_schedule, is the oracle's ``want``.
    A ramped segment shares ``H.base``, its ramp slices are the
    oracle's, and its other overrides are constants, each off the base,
    that written onto ``H.base`` give the oracle's working matrix bit for
    bit (where a slice overrides both, the matrices are not compared)."""
    if not isinstance(want, tuple):
        return type(got) is type(want) and got == want
    duration, M, slices = want
    if not isinstance(got, Segment) or got.duration != duration:
        return False
    if M is None:
        return got.H is None
    slices = dict(slices)
    pulses = got.H.overrides
    held = {e: p for e, p in pulses.items() if e not in slices}
    if got.H.base is not H.base or \
            {e: pulses.get(e) for e in slices} != slices or \
            not all(type(p) is LinearRamp and p.start == p.end != H.base[e]
                    for e, p in held.items()):
        return False
    got_M, want_M = H.base.copy(), M.copy()
    for e, p in held.items():
        got_M[e] = got_M[e[::-1]] = p.end
    for e in slices:
        got_M[e] = got_M[e[::-1]] = want_M[e] = want_M[e[::-1]] = 0.0
    return got_M.tobytes() == want_M.tobytes()


@pytest.mark.parametrize("cells", [2, 3, 4, 5, 6])
def test_dimer_adjacency_matches_oracle(cells):
    g, _ = dll(cells, cells)
    assert dict(dimer_adjacency(g)) == _oracle_dimer_adjacency(g)


@pytest.mark.parametrize("cells", [3, 4])
def test_extract_star_matches_full_edge_scan(cells):
    g, H = dll(cells, cells)
    adjacency = _oracle_dimer_adjacency(g)
    for hub in g.hubs():
        adjacent = sorted({d for ds in adjacency.values()
                           for h, d in ds if h == hub})
        for a in adjacent:
            for b in adjacent:
                if a != b:
                    assert extract_star(g, H, hub, a, b) == \
                        _oracle_star(g, hub, a, b)
        assert extract_star(g, H, hub) == \
            _oracle_star(g, hub, adjacent[0], adjacent[1])


@pytest.mark.parametrize("cells", range(1, 7))
def test_dll_stars_hold_whole_links_in_one_role(cells):
    # each coupling a DLL star holds is one of the two of a (hub, dimer)
    # link, and the star holds that link's other coupling too, in the
    # same role: the scheduler keys the pair once, exactly
    g, H = dll(cells, cells)
    key = _oracle_link_keys(g)
    stars = [extract_star(g, H, h, a, b)
             for h, ds in sorted(_oracle_hub_dimers(g).items())
             for a in ds for b in ds if a != b]
    for star in stars:
        role = dict(star.holds)
        for e, ramped in star.holds:
            h, d = key[e]
            assert [role.get(tuple(sorted((h, s)))) for s in d] == \
                [ramped, ramped]
        assert star.links == tuple(dict.fromkeys(
            (key[e], ramped) for e, ramped in star.holds))
        assert len(star.links) == len(star.holds) // 2
    # every ordered dimer pair of every hub: 852 stars in all
    assert len(stars) == {1: 2, 2: 26, 3: 74, 4: 146, 5: 242, 6: 362}[cells]


def test_a_coupling_of_no_link_keeps_its_own_key():
    # on the 3x3 DLL plus a coupling from dimer site 1 to hub 15, which
    # its partner 2 lacks: (1, 15) belongs to no link, so it is
    # scheduled alone, and the starts are the per-coupling brute force's
    base, _ = dll(3, 3)
    g = SiteGraph(base.n_sites, tuple(sorted(base.edges + ((1, 15),))),
                  base.labels)
    M = np.diag(np.full(g.n_sites, V))
    for i, j in g.edges:
        M[i, j] = M[j, i] = J
    H = TimedHamiltonian(M, {})
    for hub, a, b in ((0, (1, 2), (3, 4)), (15, (3, 4), (16, 17))):
        star = extract_star(g, H, hub, a, b)
        assert star == _oracle_star(g, hub, a, b)
        assert ((1, 15), True) in star.links
    rng = np.random.default_rng(17)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)),
                        dt=float(rng.choice([1.0, 2.0])))
             for _ in range(40)]
    assert any(((1, 15), True) in j.star.links
               for p in plans for j in p.jumps)
    tl = schedule_multi(plans)
    assert tl.starts == _oracle_starts(plans)
    verify_timeline(tl)


# no shrinking: each example plans 50 requests, and a failing one is
# reported as drawn
@settings(max_examples=15, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_planner_output_matches_oracle(data):
    cells = data.draw(st.integers(2, 6), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((1.0, 2.0))),
        min_size=50, max_size=50), label="requests")
    plans = [plan_route(g, H, a, b, variant=v, dt=dt)
             for a, b, v, dt in requests]
    tl = schedule_multi(plans)
    assert tl.starts == _oracle_starts(plans)
    got = timeline_schedule(g, H, tl).items
    want = _oracle_items(H, tl)
    assert len(got) == len(want)
    assert all(_same_item(H, a, b) for a, b in zip(got, want))


def _mixed_base_timeline():
    """A 30-request 4x4 timeline planned on the uniform H, and Hm: H
    with each coupling drawn from J, -J, 0.4 and -0.7."""
    g, H = dll(4, 4)
    rng = np.random.default_rng(30)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)),
                        dt=float(rng.choice([1.0, 2.0])))
             for _ in range(30)]
    tl = schedule_multi(plans)
    M = np.array(H.base)
    for e in g.edges:
        M[e] = M[e[::-1]] = rng.choice([J, -J, 0.4, -0.7])
    return g, H, TimedHamiltonian(M), tl


def test_timeline_schedule_mixed_base_values_match_oracle():
    # planning needs a uniform lattice, the schedule's base does not:
    # a star's boundary entries of different base values take their own
    # slices, and a ramp down from a negative value holds -0.0
    g, _, Hm, tl = _mixed_base_timeline()
    got = timeline_schedule(g, Hm, tl).items
    want = _oracle_items(Hm, tl)
    assert len(got) == len(want)
    assert all(_same_item(Hm, a, b) for a, b in zip(got, want))
    assert_pinned("timeline/4x4-seed30-mixed-base", _items_text(got))
    held = [p for it in _ramped(got) for p in it.H.overrides.values()
            if p.start == p.end == 0.0]
    assert any(math.copysign(1.0, p.end) < 0 for p in held)
    assert any(math.copysign(1.0, p.end) > 0 for p in held)


def _ramped(items):
    return [it for it in items if isinstance(it, Segment) and it.H]


def _items_text(items):
    """timeline_schedule's items, one line each, every float as
    float.hex: a segment's duration and each override's pulse fields."""
    def text(x):
        return x.hex() if isinstance(x, float) else repr(x)

    lines = []
    for it in items:
        row = [type(it).__name__] + [text(getattr(it, f.name)) for f in
                                     dataclasses.fields(it) if f.name != "H"]
        if isinstance(it, Segment) and it.H:
            row += [f"{e}:{type(p).__name__}:"
                    + ",".join(map(text, dataclasses.astuple(p)))
                    for e, p in sorted(it.H.overrides.items())]
        lines.append(" ".join(row))
    return "\n".join(lines).encode()


# sha256 of the matrices reverse_schedule(_fifty_requests()[1]).walk()
# yields, as a reversal that copied and re-validated each base gave them
REVERSED_WALK_SHA256 = \
    "6affd76892875cd29df3e4dd8ca4557028ddc142b8d3093e39e465196c3ad9f5"


@functools.cache
def _fifty_requests():
    """(H, schedule) of 50 random requests on the 6x6 DLL."""
    g, H = dll(6, 6)
    rng = np.random.default_rng(17)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)),
                        dt=float(rng.choice([1.0, 2.0])))
             for _ in range(50)]
    return H, timeline_schedule(g, H, schedule_multi(plans))


def test_ramped_segments_share_the_lattice_base():
    # no matrix per segment: each ramped segment names the entries held
    # off the lattice's one base matrix instead of copying it
    H, s = _fifty_requests()
    ramped = _ramped(s.items)
    assert len(ramped) > 100
    assert all(it.H.base is H.base for it in ramped)
    assert_pinned("timeline/6x6-seed17", _items_text(s.items))


def test_timeline_items_of_both_variants_are_pinned():
    g, H = dll(6, 6)
    rng = np.random.default_rng(18)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)),
                        variant=str(rng.choice(TRANSFER_VARIANTS)),
                        dt=float(rng.choice([1.0, 2.0])))
             for _ in range(30)]
    items = timeline_schedule(g, H, schedule_multi(plans)).items
    assert any(isinstance(it, HoppingFlip) for it in items)
    assert_pinned("timeline/6x6-seed18-both-variants", _items_text(items))


def test_reversed_segments_share_the_lattice_base():
    H, s = _fifty_requests()
    r = reverse_schedule(s)
    ramped = _ramped(r.items)
    assert len(ramped) == len(_ramped(s.items))
    assert all(it.H.base is H.base for it in ramped)
    # the matrices in force, pinned to the bits of the copying reversal
    digest = hashlib.sha256()
    for *_, M in r.walk():
        digest.update(M.tobytes())
    assert digest.hexdigest() == REVERSED_WALK_SHA256


def test_end_hamiltonian_keeps_one_matrix():
    _, s = _fifty_requests()
    tracemalloc.start()
    try:
        E = end_hamiltonian(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6  # a list of every walk matrix peaked near 51 MB
    *_, (*_, last) = s.walk()
    assert np.array_equal(E, last)


def _holds_a_flipped_spoke(H, items):
    """Some ramped segment holds an entry at minus its base value: a
    spoke hopping-flipped while another route ramps."""
    return any(type(p) is LinearRamp and p.start == p.end == -H.base[e]
               for it in _ramped(items) for e, p in it.H.overrides.items())


@settings(max_examples=12, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_timeline_schedule_runs_backwards_to_its_sources(data):
    cells = data.draw(st.integers(2, 3), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.5, 1.0, 2.0))),
        min_size=2, max_size=4), label="requests")
    plans = [plan_route(g, H, a, b, variant=v, dt=dt)
             for a, b, v, dt in requests]
    s = timeline_schedule(g, H, schedule_multi(plans))
    assume(_holds_a_flipped_spoke(H, s.items))
    psi0 = np.array([dimer_state(g.n_sites, p.source) for p in plans]).T
    final = run_schedule(s, psi0, samples_per_segment=2).final_state
    back = run_schedule(reverse_schedule(s), final.conj(),
                        samples_per_segment=2).final_state.conj()
    assert np.abs(back - psi0).max() <= 1e-10


# --------------------------------------------------- work done per plan


def test_plan_route_builds_dimer_tables_once_per_graph(monkeypatch):
    g, H = dll(6, 6)
    calls, hubs = [], clsnet.routing._dimer_hubs

    def counted(graph, pair):
        calls.append(pair)
        return hubs(graph, pair)

    monkeypatch.setattr(clsnet.routing, "_dimer_hubs", counted)
    rng = np.random.default_rng(14)
    pairs = [rng.choice(len(g.dimers()), 2, replace=False)
             for _ in range(50)]
    counts = []
    for batch in (pairs[:1], pairs):
        clsnet.routing._tables.cache_clear()
        calls.clear()
        for a, b in batch:
            plan_route(g, H, g.dimers()[a], g.dimers()[b])
        counts.append(len(calls))
    assert counts == [len(g.dimers())] * 2


def test_plan_route_builds_each_star_once(monkeypatch):
    g, H = dll(6, 6)
    built, star_view = Counter(), clsnet.routing.StarView

    def counted(center, dimer_in, dimer_out, *rest):
        built[center, dimer_in, dimer_out] += 1
        return star_view(center, dimer_in, dimer_out, *rest)

    monkeypatch.setattr(clsnet.routing, "StarView", counted)
    clsnet.routing._tables.cache_clear()
    rng = np.random.default_rng(14)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)))
             for _ in range(50)]
    used = Counter((j.star.center, j.star.dimer_in, j.star.dimer_out)
                   for p in plans for j in p.jumps)
    assert sum(used.values()) > len(used)  # some star serves two jumps
    assert built == Counter(dict.fromkeys(used, 1))
    assert extract_star(g, H, 0) is extract_star(g, H, 0, *g.dimers()[:2])


def test_schedule_multi_builds_each_plans_holds_once(monkeypatch):
    g, H = dll(3, 3)
    rng = np.random.default_rng(15)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)))
             for _ in range(50)]
    built, scans = Counter(), []
    holds, clash = clsnet.routing._jump_holds, clsnet.routing._clash

    def counted_holds(plan):
        built[id(plan)] += 1
        return holds(plan)

    def counted_clash(*args):
        scans.append(args)
        return clash(*args)

    monkeypatch.setattr(clsnet.routing, "_jump_holds", counted_holds)
    monkeypatch.setattr(clsnet.routing, "_clash", counted_clash)
    tl = schedule_multi(plans)
    assert built == Counter(id(p) for p in plans)
    # rejected delays were examined, each scanning the same holds; the
    # returned timeline keeps the jumps as admitted
    assert len(scans) > len(plans) and max(tl.starts) > 0
    timeline_schedule(g, H, tl)
    assert built == Counter(id(p) for p in plans)


def _seed16_plans():
    """50 random 6x6 requests, dt 1 or 2, drawn from seed 16."""
    g, H = dll(6, 6)
    rng = np.random.default_rng(16)
    dimers = g.dimers()
    return g, H, [plan_route(g, H, *(dimers[k] for k in rng.choice(
        len(dimers), 2, replace=False)), dt=float(rng.choice([1.0, 2.0])))
        for _ in range(50)]


def test_schedule_multi_bisects_once_per_link(monkeypatch):
    # a jump checks its star's (hub, dimer) links, 6 rows for 12
    # couplings, and a clash skips the run of holds behind it: at most
    # half the 8,738 bisections of one per coupling and held window
    _, _, plans = _seed16_plans()
    calls, bisect_left = [], clsnet.routing.bisect_left

    def counted(*args):
        calls.append(args)
        return bisect_left(*args)

    monkeypatch.setattr(clsnet.routing, "bisect_left", counted)
    tl = schedule_multi(plans)
    assert 0 < len(calls) <= 4369
    monkeypatch.undo()
    assert tl.starts == _oracle_starts(plans)


def test_timeline_schedule_builds_one_slice_per_ramp_and_segment(
        monkeypatch):
    g, H, plans = _seed16_plans()
    tl = schedule_multi(plans)
    ramps, _, bounds = _oracle_timeline(tl)
    pairs = sum(r[0] < b2 and b < r[1]
                for b, b2 in zip(bounds, bounds[1:]) for r in ramps)
    calls, ramp_slice = [], clsnet.routing._ramp_slice

    def counted(*args):
        calls.append(args)
        return ramp_slice(*args)

    monkeypatch.setattr(clsnet.routing, "_ramp_slice", counted)
    items = timeline_schedule(g, H, tl).items
    # every entry of a ramp shares its slice: one per (ramp, segment),
    # not one per entry
    assert 0 < len(calls) <= pairs
    assert_pinned("timeline/6x6-seed16", _items_text(items))


@pytest.mark.parametrize("cells", [3, 4])
def test_warm_searches_plan_as_cold(cells):
    # each source's search resumes where an earlier request left it, a
    # whole level at a time, so every plan is the one a fresh search finds
    g, H = dll(cells, cells)
    dimers = g.dimers()
    pairs = [(a, b) for a in dimers for b in dimers]
    clsnet.routing._tables.cache_clear()
    warm = {pairs[k]: plan_route(g, H, *pairs[k])
            for k in np.random.default_rng(cells).permutation(len(pairs))}
    for a, b in pairs:
        clsnet.routing._tables.cache_clear()
        assert plan_route(g, H, a, b) == warm[a, b]


def test_timeline_schedule_alternating_hamiltonians_match_cold():
    # a star's entries by base value are kept for the last H scheduled
    # on the graph only, so neither H is scheduled with the other's
    g, H, Hm, tl = _mixed_base_timeline()
    cold = []
    for h in (H, Hm):
        clsnet.routing._tables.cache_clear()
        cold.append(_items_text(timeline_schedule(g, h, tl).items))
    assert cold[0] != cold[1]
    for k in (0, 1, 0, 1):
        assert _items_text(timeline_schedule(g, (H, Hm)[k], tl).items) == \
            cold[k]


def test_equal_graphs_share_hash_and_tables():
    # the hash is taken once, at construction; equal lattices built
    # apart hash and compare equal, so they share one set of tables
    (g, _), (g2, _) = dll(4, 4), dll(4, 4)
    assert g is not g2 and g == g2 and hash(g) == hash(g2)
    assert hash(g) == hash((g.n_sites, g.edges, g.labels))
    assert clsnet.routing._tables(g) is clsnet.routing._tables(g2)
    assert dll(4, 3)[0] != g


def test_dimer_adjacency_is_read_only():
    g, H = dll(3, 3)
    before = plan_route(g, H, (1, 2), (36, 37))
    adj = dimer_adjacency(g)
    with pytest.raises(TypeError):
        adj[(1, 2)] = ()
    with pytest.raises(TypeError):
        del adj[(36, 37)]
    assert isinstance(adj[(1, 2)], tuple)
    assert plan_route(g, H, (1, 2), (36, 37)) == before
    assert dict(dimer_adjacency(g)) == _oracle_dimer_adjacency(g)
