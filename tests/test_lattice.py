import numpy as np
import pytest

from clsnet.lattice import (
    CrabTransferPulse,
    CreationSevenPulse,
    CreationStarPulse,
    LinearRamp,
    Pulse,
    SEVEN_EDGES,
    STAR_EDGES,
    TimedHamiltonian,
    TimeMirrored,
    build_dll,
    build_seven,
    build_star,
    evaluate_grid,
    static_matrix,
)

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


def _snapshot(H, t):
    """Dense snapshot of H at one time: ``evaluate_grid`` at [t]."""
    return evaluate_grid(H, [t])[0]


class TestBuildStar:
    def test_uniform_quarter(self):
        H = build_star([0.25] * 4, [0.5] * 5)
        expect = np.array([
            [0.5, 0.0, 0.25, 0.0, 0.0],
            [0.0, 0.5, 0.25, 0.0, 0.0],
            [0.25, 0.25, 0.5, 0.25, 0.25],
            [0.0, 0.0, 0.25, 0.5, 0.0],
            [0.0, 0.0, 0.25, 0.0, 0.5],
        ])
        np.testing.assert_array_equal(H.base, expect)

    def test_all_zero(self):
        H = build_star([0, 0, 0, 0], 0.0)
        np.testing.assert_array_equal(H.base, np.zeros((5, 5)))

    def test_distinct_couplings_placement(self):
        H = build_star([1, 2, 3, 4], 0.0)
        for val, (i, j) in zip([1, 2, 3, 4], STAR_EDGES):
            assert H.base[i, j] == val
            assert H.base[j, i] == val
        off = H.base - np.diag(np.diag(H.base))
        assert np.count_nonzero(off) == 8

    def test_scalar_potential_broadcast(self):
        H = build_star([1, 1, 1, 1], 0.5)
        np.testing.assert_array_equal(np.diag(H.base), [0.5] * 5)


class TestBuildSeven:
    def test_sqrt3_inner(self):
        H = build_seven([1, 1, S3, S3, 1, 1], 0.0)
        expect = np.zeros((7, 7))
        for val, (i, j) in zip([1, 1, S3, S3, 1, 1], SEVEN_EDGES):
            expect[i, j] = expect[j, i] = val
        np.testing.assert_array_equal(H.base, expect)
        # dimer sites touch only their connector
        assert np.count_nonzero(H.base[0]) == 1
        assert np.count_nonzero(H.base[6]) == 1

    def test_diagonal_only(self):
        H = build_seven([0] * 6, [1, 2, 3, 4, 5, 6, 7])
        np.testing.assert_array_equal(H.base, np.diag([1, 2, 3, 4, 5, 6, 7]))

    def test_ramp_override_is_isolated(self):
        H = build_seven([1, 1, 0, 0, 1, 1], 0.0)
        H = TimedHamiltonian(H.base, {(2, 3): LinearRamp(0.0, 1.0, 2 * np.pi)})
        snap = _snapshot(H, np.pi)
        assert snap[2, 3] == pytest.approx(0.5)
        assert snap[3, 2] == pytest.approx(0.5)
        # every other entry still static (base has 0 at the overridden slot)
        snap[2, 3] = snap[3, 2] = 0.0
        np.testing.assert_array_equal(snap, H.base)


class TestBuildDll:
    def test_single_cell_is_star(self):
        graph, H = build_dll(1, 1, 0.25, 0.5)
        assert graph.n_sites == 5
        star = build_star([0.25] * 4, 0.5)
        # cell order (hub, dimer, dimer) vs star order (dimer, hub, dimer)
        perm = np.array([2, 0, 1, 3, 4])
        P = np.zeros((5, 5))
        P[perm, np.arange(5)] = 1.0
        np.testing.assert_array_equal(P @ H.base @ P.T, star.base)

    def test_two_by_two_counts(self):
        graph, H = build_dll(2, 2, 1.0, 0.0)
        assert graph.n_sites == 20
        assert len(graph.dimers()) == 8
        assert len(graph.hubs()) == 4
        # dimer sites never couple to each other
        dimer_sites = [s for d in graph.dimers() for s in d]
        for a in dimer_sites:
            for b in dimer_sites:
                assert H.base[a, b] == 0.0

    def test_three_by_three_two_site_eigenvectors(self):
        # oracle: each dimer's antisymmetric combination must be an exact
        # eigenvector, because both dimer sites couple identically outward
        graph, H = build_dll(3, 3, 1.0, 0.0)
        count = 0
        for i, j in graph.dimers():
            vec = np.zeros(graph.n_sites)
            vec[i], vec[j] = 1 / S2, -1 / S2
            hv = H.base @ vec
            energy = vec @ hv
            if np.linalg.norm(hv - energy * vec) <= 1e-12:
                count += 1
        assert len(graph.dimers()) == 18
        assert count >= 18

    def test_boundary_dimers_dangle(self):
        graph, H = build_dll(2, 1, 1.0, 0.0)
        # right-boundary horizontal dimer of cell (1,0) keeps one hub;
        # interior dimer of cell (0,0) bridges two hubs
        hub0, hub1 = 0, 5
        assert np.count_nonzero(H.base[6]) == 1   # cell-1 h-dimer upper
        assert H.base[1, hub0] == 1.0 and H.base[1, hub1] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_dll(0, 1, 1.0, 0.0)


class TestPulses:
    def test_ramp_exact_endpoints(self):
        p = LinearRamp(0.3, 0.0, 0.7)
        assert p.value(0.0) == 0.3
        assert p.value(0.7) == 0.0
        assert p.value(5.0) == 0.0
        assert p.value(0.35) == pytest.approx(0.15)

    def test_ramp_midpoint_is_mean(self):
        p = LinearRamp(0.1, 0.9, 2.0)
        assert p.value(1.0) == pytest.approx(0.5)

    def test_ramp_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            LinearRamp(1.0, 0.0, 0.0)

    def test_crab_star_floor_at_ends(self):
        p = CrabTransferPulse(0.25, 0.5850, 2.9997, 1.4452, env_div=2.0)
        assert p.value(0.0) == pytest.approx(0.25, abs=1e-15)
        assert p.value(2 * np.pi) == pytest.approx(0.25, abs=1e-12)

    def test_crab_star_never_below_floor(self):
        p = CrabTransferPulse(0.25, 2.4015, 0.5954, 1.3069, env_div=2.0)
        t = np.linspace(0.0, 2 * np.pi, 10_000)
        assert np.all(p.value(t) >= 0.25 - 1e-15)

    def test_crab_seven_envelope_period(self):
        p = CrabTransferPulse(1 / (4 * S2), 4.1435, 2.2124, 1.9171, env_div=4.0)
        t = np.linspace(0.0, 4 * np.pi, 10_000)
        assert np.all(p.value(t) >= 1 / (4 * S2) - 1e-15)
        assert p.value(4 * np.pi) == pytest.approx(1 / (4 * S2), abs=1e-12)

    def test_creation_star_vanishes_at_horizon(self):
        p = CreationStarPulse(0.8292, 1.5246, 1.7638, 1.9434,
                              amplitude=3 * S2, horizon=np.pi)
        assert p.value(np.pi) == 0.0
        assert p.value(0.0) == pytest.approx(3 * S2)

    def test_creation_seven_can_go_negative(self):
        p = CreationSevenPulse(1 / (4 * S2), 6.9763, 2.1072, 1.7465)
        t = np.linspace(0.0, 2 * np.pi, 4001)
        assert p.value(t).min() < 0.0

    def test_time_mirrored(self):
        ramp = LinearRamp(1.0, 0.0, 2.0)
        rev = TimeMirrored(ramp, 2.0)
        assert rev.value(0.0) == 0.0
        assert rev.value(2.0) == 1.0
        assert rev.value(0.5) == pytest.approx(ramp.value(1.5))


# a pulse is attached by the TimedHamiltonian constructor
class TestAttachEvaluate:
    def test_attach_constant(self):
        H = build_star([0.25] * 4, 0.5)
        H2 = TimedHamiltonian(H.base, {(0, 2): LinearRamp(0.25, 0.25, 1.0)})
        for t in (0.0, 1.0, 100.0):
            assert _snapshot(H2, t)[0, 2] == 0.25

    def test_attach_crab_floor_at_zero(self):
        H = build_star([0.25] * 4, 0.5)
        H2 = TimedHamiltonian(H.base, {
            (0, 2): CrabTransferPulse(0.25, 0.5850, 2.9997, 1.4452)})
        assert _snapshot(H2, 0.0)[0, 2] == pytest.approx(0.25, abs=1e-15)

    def test_attach_ramp_endpoint(self):
        H = build_star([0.25] * 4, 0.5)
        H2 = TimedHamiltonian(H.base, {(1, 2): LinearRamp(0.25, 0.0, 0.37)})
        assert _snapshot(H2, 0.37)[1, 2] == 0.0
        assert _snapshot(H2, 0.37)[2, 1] == 0.0

    def test_attach_leaves_original(self):
        H = build_star([0.25] * 4, 0.5)
        H2 = TimedHamiltonian(H.base, {(0, 2): LinearRamp(9.0, 9.0, 1.0)})
        assert not H.overrides
        assert _snapshot(H, 3.0)[0, 2] == 0.25
        assert H2.base is not H.base and not H2.base.flags.writeable

    def test_attach_out_of_bounds(self):
        H = build_star([0.25] * 4, 0.5)
        with pytest.raises(IndexError):
            TimedHamiltonian(H.base, {(0, 5): LinearRamp(1.0, 1.0, 1.0)})

    def test_entry_normalized_to_mirror(self):
        H = build_star([0.25] * 4, 0.5)
        H2 = TimedHamiltonian(H.base, {(2, 0): LinearRamp(0.9, 0.9, 1.0)})
        assert list(H2.overrides) == [(0, 2)]
        snap = _snapshot(H2, 0.0)
        assert snap[0, 2] == 0.9 and snap[2, 0] == 0.9

    def test_static_snapshot_is_base(self):
        H = build_seven([1, 1, S3, S3, 1, 1], 0.0)
        np.testing.assert_array_equal(_snapshot(H, 123.4), H.base)

    def test_diagonal_override(self):
        H = build_star([0.25] * 4, 0.5)
        H2 = TimedHamiltonian(H.base, {(2, 2): LinearRamp(0.5, 1.5, 1.0)})
        assert _snapshot(H2, 0.5)[2, 2] == pytest.approx(1.0)

    def test_grid_matches_pointwise(self):
        H = build_star([0.25] * 4, 0.5)
        H = TimedHamiltonian(H.base, {
            (0, 2): CrabTransferPulse(0.25, 0.5850, 2.9997, 1.4452),
            (2, 3): LinearRamp(0.25, 0.0, 4.0)})
        times = np.linspace(0.0, 2 * np.pi, 33)
        grid = evaluate_grid(H, times)
        for k, t in enumerate(times):
            np.testing.assert_allclose(grid[k], _snapshot(H, t), atol=0, rtol=0)


# one instance of each pulse class, and a mirrored wrapper
PULSES = {
    "linear-ramp": LinearRamp(0.25, 0.0, 4.0),
    "crab-transfer": CrabTransferPulse(0.25, 0.5850, 2.9997, 1.4452),
    "creation-star": CreationStarPulse(0.8292, 1.5246, 1.7638, 1.9434,
                                       3 * S2, np.pi),
    "creation-seven": CreationSevenPulse(1 / (4 * S2), 6.9763, 2.1072, 1.7465),
    "mirrored": TimeMirrored(CreationStarPulse(0.8292, 1.5246, 1.7638, 1.9434,
                                               3 * S2, np.pi), np.pi),
}


class TestScalarPath:
    @pytest.mark.parametrize("name", sorted(PULSES))
    def test_scalar_matches_array_bit_for_bit(self, name):
        pulse = PULSES[name]
        # out-of-range times and the ends of every profile included
        times = np.concatenate([
            np.random.default_rng(11).uniform(-1.0, 8.0, 300),
            [0.0, 1.0, 2.5, 4.0, np.pi, 2 * np.pi]])
        vals = pulse.value(times)
        assert vals.shape == times.shape and vals.dtype == np.float64
        for t, v in zip(times, vals):
            for scalar in (float(t), np.float64(t)):
                got = pulse.value(scalar)
                assert type(got) is float
                assert got == v, (t, got, v)

    @pytest.mark.parametrize("name", sorted(PULSES))
    def test_array_keeps_shape(self, name):
        pulse = PULSES[name]
        times = np.linspace(-0.5, 5.0, 24)
        grid = pulse.value(times.reshape(4, 6))
        assert grid.shape == (4, 6)
        np.testing.assert_array_equal(grid.ravel(), pulse.value(times))
        assert pulse.value(times[:1]).shape == (1,)

    @pytest.mark.parametrize("name", sorted(PULSES))
    def test_scalar_conversion_lives_in_pulse(self, name):
        assert type(PULSES[name]).value is Pulse.value


class TestInvariants:
    def test_symmetric_at_random_times(self):
        rng = np.random.default_rng(7)
        H = build_star([0.25] * 4, 0.5)
        H = TimedHamiltonian(H.base, {
            (0, 2): CrabTransferPulse(0.25, 0.5850, 2.9997, 1.4452),
            (1, 2): CreationStarPulse(0.8292, 1.5246, 1.7638, 1.9434,
                                      3 * S2, np.pi),
            (2, 4): LinearRamp(0.25, 0.0, 1.0)})
        for t in rng.uniform(-1.0, 10.0, size=1000):
            snap = _snapshot(H, t)
            np.testing.assert_array_equal(snap, snap.T)
            assert snap.dtype == np.float64

    def test_base_symmetry_enforced(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            TimedHamiltonian(bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_entries_named(self, bad):
        # a symmetric inf and a NaN are refused for finiteness, not
        # accepted or misreported as asymmetry
        M = np.eye(3)
        M[0, 2] = M[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TimedHamiltonian(M)
        with pytest.raises(ValueError, match="finite"):
            static_matrix(M)

    def test_base_is_readonly(self):
        H = build_star([0.25] * 4, 0.5)
        with pytest.raises(ValueError):
            H.base[0, 0] = 99.0


class TestSiteGraph:
    def test_rejects_malformed(self):
        from clsnet.lattice import SiteGraph

        with pytest.raises(ValueError):
            SiteGraph(3, ((0, 0),), ("hub",) * 3)
        with pytest.raises(ValueError):
            SiteGraph(3, ((1, 0),), ("hub",) * 3)
        with pytest.raises(ValueError):
            SiteGraph(3, ((0, 1), (0, 1)), ("hub",) * 3)
