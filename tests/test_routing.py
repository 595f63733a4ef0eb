"""Routing: star extraction, ramps, planning, scheduling, simulation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

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
    assert (up.t_start, up.t_end) == (0.0, 0.7)


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
    traj = run_schedule(ProtocolSchedule(H, (Segment(0.0, dt, Hr),)),
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


def test_route_fidelities_never_exceed_one():
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
    # every jump's ramps start and end exactly on its busy interval
    segments = [it for it in s.items if isinstance(it, Segment)]
    by_start = {seg.t_start: seg for seg in segments}
    by_end = {seg.t_end: seg for seg in segments}
    for plan, row in zip(tl.routes, tl.busy):
        for j, (c, t0, t1) in zip(plan.jumps, row):
            assert c == j.star.center
            for e in j.star.boundary_entries:
                assert by_start[t0].H.overrides[e].start == H.base[e]
                assert by_end[t1].H.overrides[e].end == H.base[e]


@pytest.mark.parametrize("variant", TRANSFER_VARIANTS)
def test_jump_flips_are_the_star_protocol_flips(variant):
    # each jump runs the isolated star's protocol: star site k is the
    # jump's sites[k], time 0 the end of its down-ramp, T the start of
    # its up-ramp
    g, H = dll(3, 3)
    plan = plan_route(g, H, (16, 17), (26, 27), variant=variant)
    assert len(plan.jumps) == 2
    s = timeline_schedule(g, H, schedule_multi([plan]))
    emitted = [f for f in s.items if not isinstance(f, Segment)]
    expected, t0 = set(), 0.0
    for j in plan.jumps:
        t1 = t0 + j.duration
        window = {0.0: t0 + j.dt, j.params.T: t1 - j.dt}
        sites = j.star.sites
        for f in build_schedule(variant, j.params).items:
            if isinstance(f, PhaseFlip):
                expected.add(PhaseFlip(window[f.time], sites[f.site]))
            elif isinstance(f, HoppingFlip):
                i, k = f.entry
                expected.add(HoppingFlip(window[f.time], (sites[i], sites[k])))
        t0 = t1
    assert len(emitted) == len(expected)
    assert set(emitted) == expected


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
    assert s.t_final == pytest.approx(plan.duration)


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


def test_simulate_route_runs_one_pass_per_timeline(monkeypatch):
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
