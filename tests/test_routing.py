"""Routing: star extraction, ramps, planning, scheduling, simulation."""

import math
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
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
    run_schedule,
)
from clsnet.lattice import (
    SiteGraph,
    TimedHamiltonian,
    LinearRamp,
    _check_hermitian,
    build_dll,
    evaluate_at,
)
from clsnet.protocols import TRANSFER_VARIANTS, build_schedule
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

J, V = 0.25, 0.5  # uniform lattice matching the shortest flip transfer


def dll(nx, ny):
    return build_dll(nx, ny, J, V)


@pytest.fixture
def full_lattice(monkeypatch):
    """simulate_route on its full-lattice path: the support walk declines
    every timeline, as it does one with a driven entry inside a support."""
    monkeypatch.setattr(clsnet.routing, "_walk_supports", lambda *a: None)


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
    # transfer time; the stars here have no boundary, only their spokes
    _DIMERS = {5: ((1, 2), (6, 7)), 20: ((16, 17), (21, 22))}

    def __init__(self, jumps):
        self.jumps = tuple(
            SimpleNamespace(star=StarView(c, *self._DIMERS[c], ()), dt=1.0,
                            duration=d, params=SimpleNamespace(T=d - 2.0))
            for c, d in jumps)


def test_schedule_survives_delay_round_off():
    # jump windows (20, 0, 115.68140899333461) for the first route and
    # (5, 0, 24.84955592153876), (20, 24.84955592153876,
    # 33.13274122871835) for the second: (t1 - r0) + r0 rounds one ulp
    # below t1 for them, which used to leave no admissible delay
    first = _StubPlan(((20, 115.68140899333461),))
    second = _StubPlan(((5, 24.84955592153876), (20, 8.283185307179593)))
    assert Timeline((second,), (0.0,)).busy[0][1] == \
        (20, 24.84955592153876, 33.13274122871835)
    tl = schedule_multi([first, second])
    assert tl.starts[0] == 0.0
    assert tl.busy[1][1][1] >= 115.68140899333461
    verify_timeline(tl)


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
    assert tl.busy == (((r.jumps[0].star.center, 5.0, 5.0 + r.duration),),)
    assert tl.end == 5.0 + r.duration


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_scheduled_timeline_builds(data):
    cells = data.draw(st.integers(2, 4), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.5, 1.0, 2.0))),
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
    seg_starts = np.array([a for a, _, _ in segments])
    seg_ends = np.array([b for _, b, _ in segments])
    for plan, row in zip(tl.routes, tl.busy):
        for j, (c, t0, t1) in zip(plan.jumps, row):
            assert c == j.star.center
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
              for j, (_, _, t1) in zip(p.jumps, row))
        for r, (p, row) in enumerate(zip(tl.routes, tl.busy)))
    return fids, per_jump, tuple(traj.final_state.T), traj.norm_drift


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_support_walk_matches_the_full_lattice_pass(data):
    cells = data.draw(st.integers(2, 3), label="cells")
    g, H = dll(cells, cells)
    dimers = st.sampled_from(g.dimers())
    requests = data.draw(st.lists(
        st.tuples(dimers, dimers, st.sampled_from(TRANSFER_VARIANTS),
                  st.sampled_from((0.5, 1.0, 2.0))),
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
    (center, b0, b1), = Timeline((plan,), (0.0,)).busy[0]
    assert center == 5
    assert b0 == 0.0
    assert b1 == pytest.approx(1.0 + 2 * np.pi)
    assert plan.duration == b1


# ------------------------------------------------- oracles of the planner
#
# The planner's scans before it kept per-graph tables and per-plan holds:
# each request rebuilt the dimer adjacency and scanned every edge of the
# lattice, each candidate delay rebuilt its plan's holds, and each
# segment rescanned every ramp.  The planner must emit the same output.


def _oracle_dimer_adjacency(g):
    by_hub = {}
    for d in g.dimers():
        shared = set(g.neighbors(d[0])) & set(g.neighbors(d[1]))
        for h in sorted(shared - set(d)):
            by_hub.setdefault(h, []).append(d)
    adj = {d: [] for d in g.dimers()}
    for h, ds in sorted(by_hub.items()):
        for d in ds:
            adj[d] += [(h, d2) for d2 in ds if d2 != d]
    return {d: tuple(sorted(v)) for d, v in adj.items()}


def _oracle_star(g, center, dimer_in, dimer_out):
    sites = {center, *dimer_in, *dimer_out}
    inside = {e for e in g.edges if e[0] in sites and e[1] in sites}
    boundary = [e for e in g.edges if (e[0] in sites) != (e[1] in sites)]
    star = StarView(center, dimer_in, dimer_out, tuple(sorted(boundary)))
    assert inside == set(star.spokes)
    return star


def _oracle_jump_holds(plan, start):
    out, r0 = [], 0.0
    for j in plan.jumps:
        r1 = r0 + j.duration
        t0, t1 = start + r0, start + r1
        assert abs((t1 - j.dt) - (t0 + j.dt) - j.params.T) <= \
            1e-9 * j.params.T
        holds = [(e, None) for e in j.star.spokes]
        holds += [(e, (t0, t1, j.dt)) for e in j.star.boundary_entries]
        out.append((j, t0, t1, holds))
        r0 = r1
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
    index, starts = {}, []
    for plan in plans:
        candidates = {0.0}
        for _, r0, _, holds in _oracle_jump_holds(plan, 0.0):
            for e, _ in holds:
                for _, h1, _ in index.get(e, ()):
                    delay = h1 - r0
                    while delay + r0 < h1:
                        delay = math.nextafter(delay, math.inf)
                    candidates.add(max(delay, 0.0))
        starts.append(next(
            d for d in sorted(candidates)
            if _oracle_admit(index, _oracle_jump_holds(plan, d))))
    return tuple(starts)


def _oracle_timeline(tl):
    """The ramps (r0, r1, entries, kind), flips by time and sorted
    segment bounds of timeline_schedule(tl)."""
    ramps, flips = [], {}
    for plan, start in zip(tl.routes, tl.starts):
        for j, t0, t1, _ in _oracle_jump_holds(plan, start):
            down_end, up_start = t0 + j.dt, t1 - j.dt
            if j.star.boundary_entries:
                ramps.append((t0, down_end, j.star.boundary_entries, "down"))
                ramps.append((up_start, t1, j.star.boundary_entries, "up"))
            star = build_schedule(j.variant, j.params).items
            k = next(k for k, f in enumerate(star) if isinstance(f, Segment))
            for t, fs in ((down_end, star[:k]), (up_start, star[k + 1:])):
                flips.setdefault(t, []).extend(
                    clsnet.routing._moved(f, j.star.sites) for f in fs)
    bounds = sorted({0.0, tl.end, *flips, *(t for r in ramps for t in r[:2])})
    return ramps, flips, bounds


def _oracle_items(H, tl):
    """timeline_schedule's items, as (flip) or (duration, base, override
    items) with base and overrides None on a static stretch."""
    ramps, flips, bounds = _oracle_timeline(tl)
    M = np.array(H.base, dtype=float, copy=True)
    items = []
    for b, b2 in zip(bounds, bounds[1:] + [None]):
        for f in flips.get(b, ()):
            items.append(f)
            if isinstance(f, HoppingFlip):
                f.negate(M)
        if b2 is None:
            continue
        overrides = {}
        for r0, r1, entries, kind in (r for r in ramps
                                      if r[0] < b2 and b < r[1]):
            for e in entries:
                overrides.setdefault(e, clsnet.routing._ramp_slice(
                    float(H.base[e]), r0, r1, kind, b, b2))
        if not overrides:
            items.append((b2 - b, None, None))
            continue
        items.append((b2 - b, M.copy(), list(overrides.items())))
        for e, pulse in overrides.items():
            M[e] = M[e[::-1]] = pulse.end
    return items


def _as_oracle_item(item):
    if not isinstance(item, Segment):
        return item
    if item.H is None:
        return item.duration, None, None
    return item.duration, item.H.base, list(item.H.overrides.items())


def _same_item(got, want):
    if not isinstance(want, tuple):
        return type(got) is type(want) and got == want
    return got[0] == want[0] and got[2] == want[2] and (
        got[1] is None if want[1] is None
        else np.array_equal(got[1], want[1]))


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
    items = timeline_schedule(g, H, tl).items
    # ramped segment bases skip TimedHamiltonian's checks, so recheck
    for it in items:
        if isinstance(it, Segment) and it.H is not None:
            assert not it.H.base.flags.writeable
            _check_hermitian(it.H.base, "segment base", "symmetric")
    got = [_as_oracle_item(it) for it in items]
    want = _oracle_items(H, tl)
    assert len(got) == len(want)
    assert all(_same_item(a, b) for a, b in zip(got, want))


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
        monkeypatch.setattr(clsnet.routing, "_TABLES",
                            weakref.WeakKeyDictionary())
        calls.clear()
        for a, b in batch:
            plan_route(g, H, g.dimers()[a], g.dimers()[b])
        counts.append(len(calls))
    assert counts == [len(g.dimers())] * 2


def test_schedule_multi_builds_each_plans_holds_once(monkeypatch):
    g, H = dll(3, 3)
    rng = np.random.default_rng(15)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)))
             for _ in range(50)]
    built, shifted = Counter(), []
    holds, shift = clsnet.routing._jump_holds, clsnet.routing._shifted

    def counted_holds(plan):
        built[id(plan)] += 1
        return holds(plan)

    def counted_shift(jumps, start):
        shifted.append(start)
        return shift(jumps, start)

    monkeypatch.setattr(clsnet.routing, "_jump_holds", counted_holds)
    monkeypatch.setattr(clsnet.routing, "_shifted", counted_shift)
    tl = schedule_multi(plans)
    assert built == Counter(id(p) for p in plans)
    # rejected delays were examined, each shifting the same holds
    assert len(shifted) > len(plans) and max(tl.starts) > 0.0


def test_timeline_schedule_builds_one_slice_per_ramp_and_segment(
        monkeypatch):
    g, H = dll(6, 6)
    rng = np.random.default_rng(16)
    dimers = g.dimers()
    plans = [plan_route(g, H, *(dimers[k] for k in
                                rng.choice(len(dimers), 2, replace=False)),
                        dt=float(rng.choice([1.0, 2.0])))
             for _ in range(50)]
    tl = schedule_multi(plans)
    ramps, _, bounds = _oracle_timeline(tl)
    pairs = sum(r[0] < b2 and b < r[1]
                for b, b2 in zip(bounds, bounds[1:]) for r in ramps)
    calls, ramp_slice = [], clsnet.routing._ramp_slice

    def counted(*args):
        calls.append(args)
        return ramp_slice(*args)

    monkeypatch.setattr(clsnet.routing, "_ramp_slice", counted)
    timeline_schedule(g, H, tl)
    # every entry of a ramp shares its slice: one per (ramp, segment),
    # not one per entry
    assert 0 < len(calls) <= pairs


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
