import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

import clsnet.evolve as ev
from clsnet import crab
from clsnet.evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    Segment,
    Trajectory,
    end_hamiltonian,
    evolve_static,
    evolve_timedep,
    evolve_timedep_fixed,
    fidelity,
    reverse_schedule,
    run_schedule,
)
from clsnet.lattice import (
    CrabTransferPulse,
    LinearRamp,
    TimedHamiltonian,
    TimeMirrored,
    build_dll,
    build_seven,
    build_star,
    evaluate_grid,
)
from clsnet.lattice import _block_plan, _fill_block
from clsnet.protocols import GenerationParams, build_schedule
from clsnet.routing import build_ramp, extract_star

S2 = np.sqrt(2.0)
I_STATE = np.array([1, -1, 0, 0, 0]) / S2
F_STATE = np.array([0, 0, 0, 1, -1]) / S2
L_STATE = np.array([1, 1, 0, 0, 0]) / S2
R_STATE = np.array([0, 0, 0, 1, 1]) / S2


def _snapshot(H, t):
    """Dense snapshot of H at one time: ``evaluate_grid`` at [t]."""
    return evaluate_grid(H, [t])[0]

# transfer pulse parameters reproducing the reference star protocol
STAR_PULSES = {
    (0, 2): (0.5850, 2.9997, 1.4452),
    (1, 2): (2.4015, 0.5954, 1.3069),
    (2, 3): (2.5033, 0.4555, 1.1680),
    (2, 4): (0.2199, 2.8103, 1.3510),
}


def star_quarter():
    return build_star([0.25] * 4, 0.5)


def crab_star_hamiltonian():
    return TimedHamiltonian(star_quarter().base, {
        entry: CrabTransferPulse(0.25, x, xp, om, env_div=2.0)
        for entry, (x, xp, om) in STAR_PULSES.items()})


class TestEvolveStatic:
    def test_antisymmetric_dimer_state_is_stored(self):
        H = star_quarter()
        for t in (0.3, 2.0, 17.5):
            psi = evolve_static(H, I_STATE, t)
            assert fidelity(psi, I_STATE) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_state_crosses_in_2pi(self):
        psi = evolve_static(star_quarter(), L_STATE, 2 * np.pi)
        assert fidelity(psi, R_STATE) == pytest.approx(1.0, abs=1e-12)

    def test_against_expm_oracle(self):
        H = star_quarter()
        psi = evolve_static(H, L_STATE, np.pi)
        oracle = scipy.linalg.expm(-1j * np.pi * np.asarray(H.base)) @ L_STATE
        np.testing.assert_allclose(psi, oracle, atol=1e-12)

    def test_stored_state_phase_is_potential_integral(self):
        # under the uniform star the antisymmetric dimer state picks up
        # exactly exp(-i*v*t), amplitude for amplitude
        t, v = 1.7, 0.5
        psi = evolve_static(star_quarter(), I_STATE, t)
        np.testing.assert_allclose(psi, np.exp(-1j * v * t) * I_STATE, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(8, 8))
        H = H + H.T
        psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi0 /= np.linalg.norm(psi0)
        psi = evolve_static(H, psi0, 5.3)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_eigenvector_storage_random_hermitian(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n))
            if trial % 2:
                A = A + 1j * rng.normal(size=(n, n))
            H = A + A.conj().T
            _, V = np.linalg.eigh(H)
            k = int(rng.integers(n))
            psi = evolve_static(H, V[:, k], 1.37)
            assert fidelity(psi, V[:, k]) >= 1 - 1e-12

    def test_rejects_non_hermitian(self):
        M = np.zeros((3, 3))
        M[0, 1] = 1.0
        with pytest.raises(ValueError):
            evolve_static(M, np.array([1.0, 0, 0]), 1.0)

    def test_rejects_pulsed_hamiltonian(self):
        H = TimedHamiltonian(star_quarter().base,
                             {(0, 2): LinearRamp(0.25, 0.25, 1.0)})
        with pytest.raises(ValueError):
            evolve_static(H, I_STATE, 1.0)


class TestEvolveTimedep:
    def test_constant_pulses_reduce_to_static(self):
        H = star_quarter()
        Hp = TimedHamiltonian(H.base, {(0, 2): LinearRamp(0.25, 0.25, 1.0),
                                       (2, 3): LinearRamp(0.25, 0.25, 1.0)})
        psi_t = evolve_timedep(Hp, L_STATE, 0.0, 2 * np.pi, tol=1e-12)
        psi_s = scipy.linalg.expm(-2j * np.pi * H.base) @ L_STATE
        assert np.linalg.norm(psi_t - psi_s) < 1e-10

    def test_reference_transfer_pulses_reach_target(self):
        H = crab_star_hamiltonian()
        psi = evolve_timedep(H, I_STATE, 0.0, 2 * np.pi, tol=1e-11)
        assert 1.0 - fidelity(psi, F_STATE) < 1e-4

    def test_self_convergence_ladder(self):
        H = crab_star_hamiltonian()
        span = 2 * np.pi
        ref = evolve_timedep_fixed(H, I_STATE, 0.0, span, 65536)
        devs = []
        tol = 1e-7
        for _ in range(5):
            psi = evolve_timedep(H, I_STATE, 0.0, span, tol)
            dev = np.linalg.norm(psi - ref)
            assert dev <= tol * span
            devs.append(dev)
            tol /= 2
        for a, b in zip(devs, devs[1:]):
            assert b <= 0.62 * a + 1e-13

    def test_norm_drift_bounded(self):
        H = crab_star_hamiltonian()
        psi = evolve_timedep(H, I_STATE, 0.0, 2 * np.pi, tol=1e-10)
        assert abs(np.linalg.norm(psi) - 1.0) <= 10 * 1e-10

    def test_long_segment(self):
        def ramp(T):
            return TimedHamiltonian(star_quarter().base,
                                    {(0, 2): LinearRamp(0.25, 0.75, T)})

        # a budget tol*T of 1 accepts any convergence pair: refused
        # before integrating
        with pytest.raises(RuntimeError, match="error budget"):
            evolve_timedep(ramp(1e11), L_STATE, 0.0, 1e11, tol=1e-11)
        # at T = 1e3 the budget still bounds the error
        H = ramp(1e3)
        ev._PLANS.clear()
        psi = evolve_timedep(H, L_STATE, 0.0, 1e3, tol=1e-11)
        # the ladder ran past one chunk, yet evolve keeps only the last
        # few plans, each holding at most one chunk of nodes and
        # otherwise arrays of the state's size
        plans = list(ev._PLANS.values())
        assert len(plans) == ev._PLANS_KEPT and plans[-1].n > ev._CHUNK
        for plan in plans:
            assert plan.first.size == 2 * min(plan.n, ev._CHUNK)
            assert all(a.size <= H.n_sites ** 2 for a in vars(plan).values()
                       if isinstance(a, np.ndarray) and a is not plan.first)
        ref = evolve_timedep_fixed(H, L_STATE, 0.0, 1e3, 1 << 17)
        assert np.linalg.norm(psi - ref) <= 5e-11

    def test_plans_are_kept_by_value_first_in_first_out(self, monkeypatch):
        # an equal H built anew finds its plan, and a fifth key evicts
        # the oldest of the four kept
        built, init = [], ev._CF4Plan.__init__

        def counted(plan, H, *args):
            built.append(args[-1])
            init(plan, H, *args)

        monkeypatch.setattr(ev._CF4Plan, "__init__", counted)
        ev._PLANS.clear()
        for n in (8, 16, 32, 64, 128, 16, 8):
            evolve_timedep_fixed(crab_star_hamiltonian(), I_STATE, 0.0, 1.0, n)
        assert built == [8, 16, 32, 64, 128, 8]
        assert [key[-1] for key in ev._PLANS] == [32, 64, 128, 8]

    @pytest.mark.parametrize("n_chunks, first", [(1, 8), (32, 32), (64, None)])
    def test_failed_first_pair_sizes_nothing(self, monkeypatch, n_chunks,
                                             first):
        # test_long_segment's ramp fails the first pair; after it the
        # ladder runs, bit for bit, the pairs of one started at 64 steps
        H = TimedHamiltonian(star_quarter().base,
                             {(0, 2): LinearRamp(0.25, 0.75, 1e3)})
        steps = []
        cf4 = ev._cf4_run

        def counted(H, psi0, t0, t1, n_steps, record_every=None):
            steps.append(n_steps)
            return cf4(H, psi0, t0, t1, n_steps, record_every)

        monkeypatch.setattr(ev, "_cf4_run", counted)
        psi, samples = ev._propagate(H, L_STATE, 0.0, 1e3, 1e-11, n_chunks)
        ladder = steps[:]
        steps.clear()
        monkeypatch.setattr(ev, "_FIRST_STEPS", ev._CAL_STEPS)
        ref, ref_samples = ev._propagate(H, L_STATE, 0.0, 1e3, 1e-11,
                                         n_chunks)
        assert ladder == ([first, 2 * first] if first else []) + steps
        assert steps[:2] == [64, 128] and len(steps) > 2
        np.testing.assert_array_equal(psi, ref)
        np.testing.assert_array_equal(samples, ref_samples)

    def test_tol_range_enforced(self):
        H = crab_star_hamiltonian()
        with pytest.raises(ValueError):
            evolve_timedep(H, I_STATE, 0.0, 1.0, tol=1e-5)
        with pytest.raises(ValueError):
            evolve_timedep(H, I_STATE, 0.0, 1.0, tol=1e-15)

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            evolve_timedep(crab_star_hamiltonian(), I_STATE, 1.0, 1.0, tol=1e-10)

    @pytest.mark.parametrize("bad", [-4, 0, 2.5, 4.0, True, False,
                                     np.True_, "8", None])
    def test_fixed_step_count_checked(self, bad):
        # -4 used to return psi0, 0 to divide by zero, 2.5 to run 2
        # steps and True to run 1
        with pytest.raises(ValueError, match="n_steps"):
            evolve_timedep_fixed(crab_star_hamiltonian(), I_STATE, 0.0, 1.0,
                                 bad)

    @pytest.mark.parametrize("count", [1, 7, np.int64(7)])
    def test_fixed_step_count_accepted(self, count):
        H = crab_star_hamiltonian()
        np.testing.assert_array_equal(
            evolve_timedep_fixed(H, I_STATE, 0.0, 1.0, count),
            ev._cf4_run(H, I_STATE, 0.0, 1.0, int(count))[0])

    def test_step_ceiling_reported(self, monkeypatch):
        monkeypatch.setattr(ev, "_N_MAX", 4096)
        H = crab_star_hamiltonian()
        with pytest.raises(RuntimeError, match="underflow"):
            evolve_timedep(H, I_STATE, 0.0, 2 * np.pi, tol=1e-14)

    def test_vanishing_step_reported(self):
        # span of 4 at t=1e16 leaves h/2 below the local time resolution
        H = crab_star_hamiltonian()
        with pytest.raises(RuntimeError, match="underflow"):
            evolve_timedep(H, I_STATE, 1e16, 1e16 + 4.0, tol=1e-8)


class TestFidelity:
    def test_identical(self):
        assert fidelity(I_STATE, I_STATE) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert fidelity(I_STATE, F_STATE) == 0.0

    def test_global_phase_invariance(self):
        for theta in (0.1, 1.0, np.pi, 5.0):
            assert fidelity(L_STATE, np.exp(1j * theta) * L_STATE) == \
                pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.ones(3) / np.sqrt(3), np.ones(4) / 2)

    def test_round_off_above_one_clamped(self):
        psi = np.array([1.0 + 1e-15, 0.0])
        assert fidelity(psi, np.array([1.0, 0.0])) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_overlap_refused(self, bad):
        with pytest.raises(FloatingPointError, match="non-finite"):
            fidelity(np.array([bad, 0.0]), np.array([1.0, 0.0]))


def phase_flip_schedule(T=2 * np.pi):
    return ProtocolSchedule(
        star_quarter(),
        (PhaseFlip(1), Segment(T), PhaseFlip(4)),
        initial_state=I_STATE,
        target_state=F_STATE,
    )


def hopping_flip_schedule(T=2 * np.pi):
    return ProtocolSchedule(
        star_quarter(),
        (HoppingFlip((0, 2)), HoppingFlip((2, 3)),
         Segment(T),
         HoppingFlip((0, 2)), HoppingFlip((2, 3))),
        initial_state=I_STATE,
        target_state=F_STATE,
    )


class TestRunSchedule:
    def test_phase_flip_transfer(self):
        traj = run_schedule(phase_flip_schedule(), I_STATE)
        assert fidelity(traj.final_state, F_STATE) >= 1 - 1e-10
        assert traj.norm_drift <= 1e-10

    def test_empty_schedule(self):
        s = ProtocolSchedule(star_quarter(), ())
        traj = run_schedule(s, I_STATE)
        np.testing.assert_array_equal(traj.final_state, I_STATE.astype(complex))

    def test_hopping_flip_transfer(self):
        traj = run_schedule(hopping_flip_schedule(), I_STATE)
        assert fidelity(traj.final_state, F_STATE) >= 1 - 1e-10

    def test_flip_variants_agree_sitewise(self):
        # the two protocols are related by conjugation with
        # diag(1,-1,-1,1,-1): equal magnitudes, flipped signs on 1,2,4
        tp = run_schedule(phase_flip_schedule(), I_STATE, samples_per_segment=129)
        th = run_schedule(hopping_flip_schedule(), I_STATE, samples_per_segment=129)
        np.testing.assert_array_equal(tp.times, th.times)
        assert np.max(np.abs(np.abs(tp.states) - np.abs(th.states))) <= 1e-10
        signs = np.array([1, -1, -1, 1, -1])
        interior = slice(1, -1)
        np.testing.assert_allclose(th.states[interior], tp.states[interior] * signs,
                                   atol=1e-10)

    def test_trajectory_times_strictly_increasing(self):
        traj = run_schedule(phase_flip_schedule(), I_STATE, samples_per_segment=65)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2 * np.pi)

    def test_samples_merge_only_at_equal_times(self):
        # 0.1 * 3 / 3 != 0.1: the last sample still sits on the clock, and
        # the flip's sample replaces it; a 1e-13 segment keeps its samples
        s = ProtocolSchedule(star_quarter(),
                             (Segment(0.1), PhaseFlip(1), Segment(1e-13)))
        traj = run_schedule(s, I_STATE, samples_per_segment=4)
        assert traj.times.size == 7
        assert traj.times[3] == 0.1 and traj.times[-1] == 0.1 + 1e-13
        flipped = PhaseFlip(1).apply(evolve_static(star_quarter(), I_STATE,
                                                   0.1))
        np.testing.assert_allclose(traj.states[3], flipped, atol=1e-15)

    def test_events_recorded(self):
        traj = run_schedule(hopping_flip_schedule(), I_STATE)
        kinds = [kind for _, kind, _ in traj.events]
        assert kinds.count("hopping-flip") == 4
        assert kinds.count("segment") == 1

    def test_pulsed_segment_matches_direct_evolution(self):
        H = crab_star_hamiltonian()
        s = ProtocolSchedule(star_quarter(), (Segment(2 * np.pi, H),))
        traj = run_schedule(s, I_STATE, tol=1e-11)
        direct = evolve_timedep(H, I_STATE, 0.0, 2 * np.pi, tol=1e-11)
        assert np.linalg.norm(traj.final_state - direct) < 1e-9

    def test_symmetric_driving_protects_antisymmetric_state(self):
        # equal pulses on both input-dimer couplings keep the stored
        # state decoupled no matter how wild the drive; the couplings
        # annihilate it, so every step leaves it alone to round-off
        drive = CrabTransferPulse(0.25, 2.3, -1.7, 2.9)
        H = TimedHamiltonian(star_quarter().base, {(0, 2): drive, (1, 2): drive})
        s = ProtocolSchedule(star_quarter(), (Segment(2 * np.pi, H),))
        traj = run_schedule(s, I_STATE, samples_per_segment=65, tol=1e-11)
        amp = traj.states @ I_STATE
        leak = np.linalg.norm(traj.states - amp[:, None] * I_STATE, axis=1)
        assert np.max(leak) <= 1e-14
        assert np.max(np.abs(np.abs(amp) - 1.0)) <= 1e-14

    def test_time_reversal_roundtrip(self):
        s = ProtocolSchedule(
            star_quarter(),
            (PhaseFlip(1), Segment(2 * np.pi, crab_star_hamiltonian())),
        )
        fwd = run_schedule(s, I_STATE, tol=1e-11)
        rev = reverse_schedule(s)
        back = run_schedule(rev, np.conj(fwd.final_state), tol=1e-11)
        psi0_again = np.conj(back.final_state)
        assert fidelity(psi0_again, I_STATE) >= 1 - 1e-8

    def test_state_block_matches_separate_runs(self):
        tol = 1e-11
        H = crab_star_hamiltonian()
        s = ProtocolSchedule(star_quarter(),
                             (PhaseFlip(1), Segment(2 * np.pi, H)))
        block = run_schedule(s, np.column_stack([I_STATE, L_STATE]), tol=tol)
        assert block.states.shape[1:] == (5, 2)
        for k, psi in enumerate((I_STATE, L_STATE)):
            single = run_schedule(s, psi, tol=tol)
            np.testing.assert_array_equal(block.times, single.times)
            dev = np.linalg.norm(block.states[:, :, k] - single.states, axis=1)
            assert np.max(dev) <= tol * s.duration

    def test_ramp_segment_step_overhead(self, monkeypatch):
        # the integrator computes at most 3 steps per recorded step: the
        # coarse run of the accepted pair plus its recorded finer run
        steps = {"computed": 0, "recorded": 0}
        cf4 = ev._cf4_run

        def counted(H, psi0, t0, t1, n_steps, record_every=None):
            steps["computed"] += n_steps
            if record_every:
                steps["recorded"] += n_steps
            return cf4(H, psi0, t0, t1, n_steps, record_every)

        monkeypatch.setattr(ev, "_cf4_run", counted)
        g, H = build_dll(3, 3, 0.25, 0.5)
        star = extract_star(g, H, 20)
        seg = build_ramp(H, star.boundary_entries, "down", 1.0)
        psi = np.zeros(g.n_sites)
        psi[star.dimer_in[0]] = 1.0
        run_schedule(ProtocolSchedule(H, (seg,)), psi, tol=1e-11)
        assert steps["recorded"] > 0
        assert steps["computed"] <= 3 * steps["recorded"]

    def test_state_dimension_checked(self):
        with pytest.raises(ValueError):
            run_schedule(phase_flip_schedule(), np.ones(3) / np.sqrt(3))

    @staticmethod
    def _static_and_pulsed():
        pulsed = ProtocolSchedule(star_quarter(),
                                  (Segment(1.0, crab_star_hamiltonian()),))
        return phase_flip_schedule(), pulsed

    @pytest.mark.parametrize("bad", [True, 2.5, 3.0])
    def test_sample_count_checked(self, bad):
        # 2.5 used to sample a static segment at 2T/3 and T, and 2.5 or
        # 3.0 ended a pulsed one in a TypeError from range
        for s in self._static_and_pulsed():
            with pytest.raises(ValueError, match="^samples_per_segment must "
                               "be an integer >= 2"):
                run_schedule(s, I_STATE, samples_per_segment=bad)

    def test_numpy_sample_count_accepted(self):
        for s in self._static_and_pulsed():
            traj = run_schedule(s, I_STATE, samples_per_segment=np.int64(3))
            plain = run_schedule(s, I_STATE, samples_per_segment=3)
            np.testing.assert_array_equal(traj.times, plain.times)
            np.testing.assert_array_equal(traj.states, plain.states)


class TestScheduleValidation:
    def test_conflicting_same_site_flips(self):
        with pytest.raises(ValueError, match="conflicting"):
            ProtocolSchedule(star_quarter(), (PhaseFlip(1), PhaseFlip(1)))

    def test_conflicting_same_entry_flips(self):
        with pytest.raises(ValueError, match="conflicting"):
            ProtocolSchedule(star_quarter(),
                             (HoppingFlip((0, 2)), HoppingFlip((2, 0))))

    def test_distinct_targets_same_time_allowed(self):
        ProtocolSchedule(star_quarter(), (PhaseFlip(1), PhaseFlip(4)))

    def test_same_flip_apart_by_a_segment_allowed(self):
        # a conflict is two flips of one kind on one site or entry
        # between the same two segments; a segment separates them, and
        # flips of different kinds never conflict
        for flips in ((PhaseFlip(1), PhaseFlip(1)),
                      (HoppingFlip((0, 2)), HoppingFlip((2, 0)))):
            s = ProtocolSchedule(star_quarter(),
                                 (flips[0], Segment(1.0), flips[1]))
            assert s.duration == 1.0
        ProtocolSchedule(star_quarter(), (PhaseFlip(2), HoppingFlip((0, 2))))

    def test_duration_sums_segments(self):
        s = ProtocolSchedule(star_quarter(), ())
        assert s.duration == 0.0 and type(s.duration) is float
        s = ProtocolSchedule(star_quarter(),
                             (PhaseFlip(1), Segment(0.5), Segment(2.0),
                              PhaseFlip(4)))
        assert s.duration == 2.5

    def test_diagonal_hopping_flip_rejected(self):
        with pytest.raises(ValueError):
            HoppingFlip((2, 2))

    def test_zero_length_segment_rejected(self):
        for duration in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                Segment(duration)

    # flip targets and segment sizes are checked when the schedule is
    # built, so end_hamiltonian and reverse_schedule never see them
    def test_hopping_flip_outside_base_rejected(self):
        with pytest.raises(IndexError):
            ProtocolSchedule(star_quarter(), (HoppingFlip((-1, 2)),
                                              Segment(1.0)))

    def test_phase_flip_outside_base_rejected(self):
        with pytest.raises(IndexError):
            ProtocolSchedule(star_quarter(), (Segment(1.0),
                                              PhaseFlip(7)))

    def test_segment_of_other_size_rejected(self):
        root3 = np.sqrt(3.0)
        H7 = build_seven([1, 1, root3, root3, 1, 1], 0.0)
        with pytest.raises(ValueError, match="7 sites"):
            ProtocolSchedule(star_quarter(), (Segment(1.0, H7),))

    def test_pulsed_base_rejected(self):
        H = TimedHamiltonian(star_quarter().base,
                             {(0, 2): LinearRamp(0.25, 0.25, 1.0)})
        with pytest.raises(ValueError):
            ProtocolSchedule(H, ())


class TestEndHamiltonian:
    def test_flip_pairs_cancel(self):
        s = hopping_flip_schedule()
        np.testing.assert_array_equal(end_hamiltonian(s), s.base.base)

    def test_open_flip_stays(self):
        s = ProtocolSchedule(star_quarter(),
                             (HoppingFlip((0, 2)), Segment(1.0)))
        M = end_hamiltonian(s)
        assert M[0, 2] == -0.25
        assert M[2, 0] == -0.25

    def test_segment_end_snapshot_becomes_working(self):
        H = TimedHamiltonian(star_quarter().base,
                             {(0, 2): LinearRamp(0.25, 0.9, 1.0)})
        s = ProtocolSchedule(star_quarter(), (Segment(1.0, H),))
        assert end_hamiltonian(s)[0, 2] == pytest.approx(0.9)


def _walk_schedules():
    """A hopping-flip transfer, piecewise-transfer (a static-H segment)
    and a pulsed ramp between flips and plain segments."""
    ramp = TimedHamiltonian(star_quarter().base,
                            {(0, 2): LinearRamp(0.25, 0.9, 1.0)})
    ramped = ProtocolSchedule(star_quarter(), (
        HoppingFlip((2, 3)), Segment(0.4), Segment(1.0, ramp),
        PhaseFlip(1), HoppingFlip((2, 4)), Segment(0.3), Segment(0.7)))
    piecewise = build_schedule("piecewise-transfer",
                               GenerationParams(2, 0, 1, 3 * S2 / 4))
    return {"hopping": hopping_flip_schedule(), "piecewise": piecewise,
            "ramped": ramped}


class TestWalk:
    @pytest.mark.parametrize("name", ["hopping", "piecewise", "ramped"])
    def test_walk_threads_the_matrix_in_force(self, name):
        s = _walk_schedules()[name]
        # each matrix is copied the moment it is yielded
        steps = [(t, item, M, np.array(M)) for t, item, M in s.walk()]
        assert [item for _, item, _, _ in steps] == list(s.items)
        clock, prev = 0.0, s.base.base
        for t, item, M, snap in steps:
            assert t == clock
            if isinstance(item, HoppingFlip):
                expected = np.array(prev)
                item.negate(expected)
                np.testing.assert_array_equal(snap, expected)
            elif isinstance(item, Segment) and item.H is not None:
                np.testing.assert_array_equal(
                    snap, _snapshot(item.H, item.duration))
                if item.H.static:
                    np.testing.assert_array_equal(snap, item.H.base)
            else:
                np.testing.assert_array_equal(snap, prev)
            if isinstance(item, Segment):
                clock += item.duration
            prev = snap
        assert clock == s.duration
        np.testing.assert_array_equal(prev, end_hamiltonian(s))
        # walking on never changes a matrix already yielded
        for _, _, M, snap in steps:
            np.testing.assert_array_equal(M, snap)


class TestTrajectoryType:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3), dtype=complex), ())

    def test_final_state_property(self):
        tr = Trajectory(np.array([0.0, 1.0]),
                        np.array([[1, 0], [0, 1]], dtype=complex), ())
        np.testing.assert_array_equal(tr.final_state, [0, 1])


# ------------------------------------------------- sublattice exponential

def _framed_exponentials(C, h, v):
    """exp(-i h G) of G = (v/2) I + [[0, C], [C^T, 0]] from the kernel,
    taken out of its real frame F = diag(1_A, -i 1_B)."""
    p, q = C.shape[1:]
    F = np.concatenate([np.ones(p), np.full(q, -1j)])
    R = ev._sublattice_exponentials(C, h)
    return np.exp(-0.5j * h * v) * R * F.conj()[:, None] * F[None, :]


def _expm_reference(C, h, v):
    k, p, q = C.shape
    out = []
    for c in C:
        G = 0.5 * v * np.eye(p + q)
        G[:p, p:] = c
        G[p:, :p] = c.T
        out.append(scipy.linalg.expm(-1j * h * G))
    return np.array(out)


def _coupling_stack(rng, k, mask):
    """k random coupling blocks of either sign on the nonzero pattern."""
    return rng.uniform(-1.5, 1.5, size=(k,) + mask.shape) * mask


def _dll_mask(cells):
    _, H = build_dll(cells, cells, 1.0, 0.5)
    order, p, _ = ev._sublattices(H)
    return H.base[np.ix_(order[:p], order[p:])]


SEVEN_MASK = np.array([[1, 1, 1, 0, 0],      # connector 2 -> 0, 1, hub 3
                       [0, 0, 1, 1, 1]])     # connector 4 -> hub 3, 5, 6


def _assert_matches_expm(C, h, v):
    E = _framed_exponentials(C, h, v)
    assert np.max(np.abs(E - _expm_reference(C, h, v))) <= 1e-13
    eye = np.eye(E.shape[1])
    assert np.abs(E @ E.conj().swapaxes(1, 2) - eye).max() <= 1e-13


class TestSublatticeExponential:
    @pytest.mark.parametrize("mask", [
        np.ones((1, 4)),                                 # star, p = 1
        SEVEN_MASK,                                      # seven-site, p = 2
        _dll_mask(2),                                    # 2x2 DLL, p = 4
        _dll_mask(3),                                    # 3x3 DLL, p = 9
        _dll_mask(4),                                    # 4x4 DLL, p = 16
        np.array([[0, 0, 0, 0], [1, 1, 0, 1]]),          # zero row: s = 0
        np.array([[1, 1, 0, 0, 0], [1, 0, 1, 0, 0]]),    # isolated B site
        np.array([[1, 1, 0, 0], [0, 0, 1, 1]]),          # two components
    ], ids=["star", "seven", "dll2", "dll3", "dll4", "zero-row", "isolated",
            "components"])
    def test_matches_expm(self, mask):
        rng = np.random.default_rng(7)
        C = _coupling_stack(rng, 24, np.asarray(mask, float))
        if C.shape[1] > 2:
            # at h = 3, ||X||_inf > 8 for X = h^2 C C^T: the angles
            # sqrt X reach well past pi/2
            X = 9.0 * (C @ C.swapaxes(1, 2))
            assert np.abs(X).sum(axis=2).max() > 8.0
        for h in (1e-3, 0.05, 0.7, 3.0):
            _assert_matches_expm(C, h, 0.5)

    @pytest.mark.parametrize("edge", ["zero", "zero-row", "tiny", "isolated"])
    def test_general_path_edges(self, edge):
        # p > 2 takes the Gram eigenpairs from eigh: zero, repeated and
        # tiny eigenvalues still give cos, sinc and (cos - 1)/X to round-off
        C = _coupling_stack(np.random.default_rng(11), 6, _dll_mask(3))
        if edge == "zero":
            C[:] = 0.0
        elif edge == "zero-row":
            C[:, 4] = 0.0
        elif edge == "tiny":
            # s^2 near 1e-18 in a stack whose other members are of order 1
            C[::2] *= 1e-9 / np.abs(C[::2]).max()
        else:
            C[:, :, 7] = 0.0                          # B site 7 decoupled
        for h in (1e-3, 0.05, 0.7, 3.0):
            _assert_matches_expm(C, h, 0.5)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_general_path_refuses_non_finite(self, bad):
        C = _coupling_stack(np.random.default_rng(11), 6, _dll_mask(3))
        C[2, 4, 1] = bad
        # inf * 0 in the Gram product warns before the kernel refuses
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite couplings"):
            ev._sublattice_exponentials(C, 0.1)

    def test_tiny_singular_values(self):
        # s^2 near round-off: the entire functions of s^2 stay accurate
        C = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0]],
                      [[1e-9, 0.0, 0.0], [0.0, 2e-9, 0.0]]])
        E = _framed_exponentials(C, 0.3, -1.0)
        assert np.max(np.abs(E - _expm_reference(C, 0.3, -1.0))) <= 1e-13

    @pytest.mark.parametrize("C", [
        [[0.3, 0.4, 0.0], [0.4, -0.3, 0.0]],      # a = d, b = 0: degenerate
        [[0.1, 0.2, 0.0], [1.0, 0.5, 0.7]],       # a < d
        [[1.0, 0.5, 0.0], [-0.7, 0.2, 0.3]],      # b < 0
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],       # all-zero C
        [[1e-9, 0.0, 0.0, 0.0]],                  # p = 1, s^2 = 1e-18
        [[6e-10, 8e-10, 0.0, 0.0]],               # p = 1, s^2 = 1e-18
    ], ids=["degenerate", "a<d", "b<0", "zero", "tiny-p1", "tiny-p1-mixed"])
    def test_closed_form_edges(self, C, monkeypatch):
        # p <= 2 solves the Gram eigenproblem in closed form, never by eigh
        def refuse(M):
            raise AssertionError("eigh called for p <= 2")

        C = np.array([C] * 3) * np.array([1.0, -2.0, 0.5])[:, None, None]
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "eigh", refuse)
            for h in (1e-3, 0.05, 0.7):
                _assert_matches_expm(C, h, 0.5)

    def test_split_sizes(self):
        for problem, p in ((crab.star_creation(), 1), (crab.star_transfer(), 1),
                           (crab.seven_transfer(), 2),
                           # hub 3 starts decoupled: per-component classes
                           # give p = 2 where one global colouring gives 3;
                           # its objective runs the hub part alone, p = 1
                           (crab.seven_creation(), 2)):
            H = crab.assemble_hamiltonian(
                problem, crab.REFERENCE_PARAMS[problem.kind])
            assert ev._sublattices(H)[1] == p
        _, H = build_dll(3, 3, 0.25, 0.5)
        order, p, _ = ev._sublattices(H)
        assert p == 9 and sorted(order[:p]) == list(range(0, 45, 5))

    @pytest.mark.parametrize("case", ["pulsed-diagonal", "non-uniform-diagonal",
                                      "odd-cycle"])
    def test_non_chiral_refused(self, case):
        if case == "pulsed-diagonal":
            H = TimedHamiltonian(star_quarter().base,
                                 {(0, 2): LinearRamp(0.25, 0.25, 1.0),
                                  (2, 2): LinearRamp(0.5, 0.5, 1.0)})
            reason = r"diagonal entry \(2, 2\)"
        elif case == "non-uniform-diagonal":
            H = TimedHamiltonian(
                build_star([0.25] * 4, [0.5, 0.5, 0.4, 0.5, 0.5]).base,
                {(0, 2): LinearRamp(0.25, 1.0, 1.0)})
            reason = "on-site potential is not uniform"
        else:
            M = np.array(star_quarter().base)
            M[0, 1] = M[1, 0] = 0.25                  # triangle 0-1-2
            H = TimedHamiltonian(M, {(0, 2): LinearRamp(0.25, 1.0, 1.0)})
            reason = "odd cycle"
        with pytest.raises(ValueError, match=reason):
            evolve_timedep_fixed(H, L_STATE, 0.0, 1.0, 32)
        s = ProtocolSchedule(TimedHamiltonian(H.base), (Segment(1.0, H),))
        with pytest.raises(ValueError, match=reason):
            run_schedule(s, L_STATE)

    def test_run_matches_expm_loop(self):
        # the kernel's run of a 2x2 DLL ramp against a plain CF4 loop:
        # per step, expm of the two weighted averages of the snapshots
        # at the Gauss-Legendre nodes; samples and the final block agree
        g, H = build_dll(2, 2, 0.25, 0.5)
        star = extract_star(g, H, 5)
        seg = build_ramp(H, star.boundary_entries, "down", 1.0)
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=(g.n_sites, 2)) + 1j * rng.normal(size=(g.n_sites, 2))
        psi0 /= np.linalg.norm(psi0, axis=0)
        fast, fast_samples = ev._cf4_run(seg.H, psi0, 0.0, 1.0, 96, 32)
        c1, c2 = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
        x1, x2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
        h = 1.0 / 96
        psi, samples = psi0, []
        for step in range(96):
            A1 = _snapshot(seg.H, step * h + c1 * h)
            A2 = _snapshot(seg.H, step * h + c2 * h)
            psi = scipy.linalg.expm(-1j * h * (x2 * A1 + x1 * A2)) @ psi
            psi = scipy.linalg.expm(-1j * h * (x1 * A1 + x2 * A2)) @ psi
            if (step + 1) % 32 == 0:
                samples.append(psi)
        assert np.max(np.abs(fast - psi)) <= 1e-13
        assert np.max(np.abs(np.asarray(fast_samples)
                             - np.asarray(samples))) <= 1e-13


def _dll_ramp_segment():
    # the middle star of the 3x3 DLL from dimer (8, 9) to dimer (21, 22):
    # its boundary has hub-first entries such as (5, 8) and dimer-first
    # ones such as (16, 20)
    g, H = build_dll(3, 3, 0.25, 0.5)
    star = extract_star(g, H, 20, dimer_in=(8, 9), dimer_out=(21, 22))
    return build_ramp(H, star.boundary_entries, "down", 1.0)


def _coupling_block_cases():
    cases = [crab.assemble_hamiltonian(problem,
                                       crab.REFERENCE_PARAMS[problem.kind])
             for problem in (crab.star_creation(), crab.seven_creation(),
                             crab.seven_transfer())]
    return cases + [_dll_ramp_segment().H]


class TestCouplingBlock:
    @pytest.mark.parametrize("H", _coupling_block_cases(),
                             ids=["star-creation", "seven-creation",
                                  "seven-transfer", "dll-ramp"])
    def test_block_equals_gathered_snapshots(self, H):
        order, p, _ = ev._sublattices(H)
        a, b = order[:p], order[p:]
        times = np.linspace(-0.1, 2 * np.pi + 0.1, 77)
        block = _fill_block(H, times, *_block_plan(H, a, b))
        assert block.flags.c_contiguous
        assert block.shape == (times.size, p, H.n_sites - p)
        np.testing.assert_array_equal(
            block, evaluate_grid(H, times)[:, a[:, None], b])
        # and against snapshots written entry by entry from scalar
        # pulse values, which share no code with the sampler
        for k in (0, 30, 76):
            snap = np.array(H.base)
            for (i, j), pulse in H.overrides.items():
                snap[i, j] = snap[j, i] = pulse.value(times[k])
            np.testing.assert_allclose(block[k], snap[np.ix_(a, b)],
                                       rtol=0, atol=1e-15)

    def test_dll_ramp_drives_both_orientations(self):
        H = _dll_ramp_segment().H
        order, p, _ = ev._sublattices(H)
        in_a = {i in set(order[:p].tolist()) for i, _ in H.overrides}
        assert in_a == {True, False}

    def test_split_path_forms_no_snapshots(self, monkeypatch):
        def refuse(H, times):
            raise AssertionError("n x n snapshots sampled")

        H = _dll_ramp_segment().H
        psi0 = np.zeros(H.n_sites)
        psi0[[1, 2]] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        free = ev._cf4_run(H, psi0, 0.0, 1.0, 128)[0]
        monkeypatch.setattr(ev, "evaluate_grid", refuse)
        np.testing.assert_array_equal(ev._cf4_run(H, psi0, 0.0, 1.0, 128)[0],
                                      free)


class TestNoFullExponential:
    def _spy(self, monkeypatch):
        shapes, eigh = [], np.linalg.eigh

        def spy(M):
            shapes.append(np.shape(M))
            return eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return shapes

    def test_dll_ramp_calls_gram_eigh_only(self, monkeypatch):
        # p = 9: one eigh per kernel call, on the (k, 9, 9) Gram stack,
        # never on a 45 x 45 matrix
        seg = _dll_ramp_segment()
        s = ProtocolSchedule(TimedHamiltonian(seg.H.base), (seg,))
        psi0 = np.zeros(seg.H.n_sites)
        psi0[[8, 9]] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        kernel, calls = ev._sublattice_exponentials, []

        def counted(C, h):
            calls.append(len(C))
            return kernel(C, h)

        monkeypatch.setattr(ev, "_sublattice_exponentials", counted)
        shapes = self._spy(monkeypatch)
        traj = run_schedule(s, psi0)
        assert calls and shapes == [(k, 9, 9) for k in calls]
        assert fidelity(traj.final_state, psi0) >= 1.0 - 1e-12

    @pytest.mark.parametrize("problem", [crab.star_creation,
                                         crab.seven_creation])
    def test_crab_objective_calls_no_eigh(self, problem, monkeypatch):
        prob = problem()
        shapes = self._spy(monkeypatch)
        crab.infidelity_objective(prob, crab.REFERENCE_PARAMS[prob.kind])
        assert shapes == []


# --------------------------------------------- occupied components only

_V = 0.5


def _block_diagonal_case(rng):
    """Random pulsed chiral H over components of A x B sizes (1, 3),
    (2, 3) and (3, 4) plus two isolated sites, their sites shuffled over
    the 15 indices: (H, the components' sorted sites, their duration)."""
    sizes = ((1, 3), (2, 3), (3, 4), (0, 1), (0, 1))
    perm = rng.permutation(sum(p + q for p, q in sizes))
    base, overrides, parts, start = _V * np.eye(perm.size), {}, [], 0
    T = 1.5
    for p, q in sizes:
        sites = perm[start:start + p + q]
        start += p + q
        parts.append(np.sort(sites))
        for i in sites[:p]:
            for j in sites[p:]:
                entry = (min(i, j), max(i, j))
                base[entry] = base[entry[::-1]] = rng.uniform(-1.5, 1.5)
                if rng.random() < 0.5:
                    ends = rng.uniform(-1.5, 1.5, 2)
                    overrides[entry] = LinearRamp(*ends, T)
    return TimedHamiltonian(base, overrides), parts, T


def _component(H, sites):
    """The component on ``sites`` of H as a Hamiltonian of its own."""
    at = {int(s): k for k, s in enumerate(sites)}
    return TimedHamiltonian(H.base[np.ix_(sites, sites)], {
        (at[i], at[j]): pulse for (i, j), pulse in H.overrides.items()
        if i in at})


def _component_run(H, sites, psi0, T, n_steps, record_every=None):
    """Oracle: the component on ``sites`` propagated on its own."""
    sub = _component(H, sites)
    if sub.static:              # an isolated site: a phase only
        steps = np.arange(record_every or n_steps, n_steps + 1,
                          record_every or n_steps)
        phases = np.exp(-1j * _V * T * steps / n_steps)
        return psi0[sites] * phases[-1], [psi0[sites] * f for f in phases]
    return ev._cf4_run(sub, psi0[sites], 0.0, T, n_steps, record_every)


def _random_state(rng, n, k=None):
    shape = (n,) if k is None else (n, k)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestOccupiedComponents:
    @pytest.mark.parametrize("occupied", [
        (0,), (1, 3), (2,), (3,), (0, 1, 2, 3, 4)],
        ids=["p=1", "p=2+isolated", "p=3", "isolated", "all"])
    def test_matches_per_component_oracle(self, occupied):
        # each occupied component evolves as if alone; every other row,
        # and each sample's, is exactly 0
        rng = np.random.default_rng(sum(occupied) + 17)
        H, parts, T = _block_diagonal_case(rng)
        _, p, labels = ev._sublattices(H)
        assert p == 1 + 2 + 3 and labels.max() == len(parts) - 1
        full = _random_state(rng, H.n_sites)
        psi0 = np.zeros(H.n_sites, complex)
        for c in occupied:
            psi0[parts[c]] = full[parts[c]]
        final, samples = ev._cf4_run(H, psi0, 0.0, T, 64, 16)
        assert len(samples) == 4
        for c, sites in enumerate(parts):
            if c not in occupied:
                assert (final[sites] == 0.0).all()
                assert all((s[sites] == 0.0).all() for s in samples)
                continue
            ref, ref_samples = _component_run(H, sites, psi0, T, 64, 16)
            np.testing.assert_allclose(final[sites], ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(np.asarray(samples)[:, sites],
                                       ref_samples, rtol=0, atol=1e-13)

    def test_block_columns_in_different_components(self):
        # column 0 lives on the p = 1 part, column 1 on the p = 3 part and
        # an isolated site, column 2 is zero: the (2, 3) part stays 0
        rng = np.random.default_rng(5)
        H, parts, T = _block_diagonal_case(rng)
        psi0 = np.zeros((H.n_sites, 3), complex)
        psi0[parts[0], 0] = _random_state(rng, parts[0].size)
        psi0[parts[2], 1] = _random_state(rng, parts[2].size)
        psi0[parts[4], 1] = 0.6 - 0.8j
        final = evolve_timedep_fixed(H, psi0, 0.0, T, 64)
        assert (final[parts[1]] == 0.0).all() and (final[:, 2] == 0.0).all()
        for col in (0, 1):
            for sites in parts:
                ref, _ = _component_run(H, sites, psi0[:, col], T, 64)
                np.testing.assert_allclose(final[sites, col], ref,
                                           rtol=0, atol=1e-13)

    def test_zero_state_and_isolated_sites_build_no_exponential(
            self, monkeypatch):
        def refuse(C, h):
            raise AssertionError("exponentials built")

        H, parts, T = _block_diagonal_case(np.random.default_rng(2))
        monkeypatch.setattr(ev, "_sublattice_exponentials", refuse)
        zero = np.zeros((H.n_sites, 2))
        final, samples = ev._cf4_run(H, zero, 0.0, T, 32, 8)
        assert final.shape == zero.shape and (final == 0.0).all()
        assert len(samples) == 4 and (np.asarray(samples) == 0.0).all()
        psi0 = np.zeros(H.n_sites, complex)
        psi0[parts[3]], psi0[parts[4]] = 0.6, 0.8j
        final = evolve_timedep_fixed(H, psi0, 0.0, T, 32)
        np.testing.assert_allclose(final, psi0 * np.exp(-1j * _V * T),
                                   rtol=0, atol=1e-15)
        assert (final[psi0 == 0] == 0.0).all()

    def test_schedule_runs_occupied_components(self):
        # run_schedule's convergence pair and samples take the same path
        rng = np.random.default_rng(9)
        H, parts, T = _block_diagonal_case(rng)
        psi0 = np.zeros(H.n_sites, complex)
        psi0[parts[1]] = _random_state(rng, parts[1].size)
        psi0 /= np.linalg.norm(psi0)
        traj = run_schedule(ProtocolSchedule(TimedHamiltonian(H.base),
                                             (Segment(T, H),)), psi0)
        sites = parts[1]
        alone = _component(H, sites)
        ref = run_schedule(ProtocolSchedule(TimedHamiltonian(alone.base),
                                            (Segment(T, alone),)),
                           psi0[sites])
        rest = np.setdiff1d(np.arange(H.n_sites), sites)
        assert (traj.states[:, rest] == 0.0).all()
        np.testing.assert_allclose(traj.states[:, sites], ref.states,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("problem, shape", [
        (crab.seven_creation, (1, 3)), (crab.star_creation, (1, 2))])
    def test_creation_objectives_run_the_hub_component(self, problem, shape,
                                                       monkeypatch):
        # seven-creation's undriven (3, 4) coupling and star-creation's
        # zero outer couplings split the units; the hub's part runs alone
        kernel, shapes = ev._sublattice_exponentials, []

        def spy(C, h):
            shapes.append(C.shape)
            return kernel(C, h)

        monkeypatch.setattr(ev, "_sublattice_exponentials", spy)
        prob = problem()
        crab.infidelity_objective(prob, crab.REFERENCE_PARAMS[prob.kind])
        assert shapes == [(2 * prob.n_steps,) + shape]


# ------------------------------------------ pulsed segment property tests

def _property_shape(name):
    if name == "star":
        return star_quarter()
    if name == "seven":
        return build_seven([0.25, 0.25, 0.5, 0.5, 0.25, 0.25], 0.5)
    return build_dll(2, 2, 0.25, 0.5)[1]


_KNOTS = 4


@st.composite
def _pulsed_segments(draw):
    """A random LinearRamp/TimeMirrored segment on a star, seven-site or
    2x2 DLL base; sometimes with a driven diagonal, which is refused."""
    H = _property_shape(draw(st.sampled_from(("star", "seven", "dll2"))))
    T = draw(st.floats(0.5, 3.0))
    level = st.floats(-1.5, 1.5)
    edges = [tuple(e) for e in zip(*np.nonzero(np.triu(H.base, 1)))]
    driven = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3,
                           unique=True))
    if draw(st.booleans()):
        driven.append((0, 0))
    overrides = {}
    for entry in driven:
        if draw(st.booleans()):
            overrides[entry] = LinearRamp(draw(level), draw(level), T)
        else:
            # a horizon past T puts the inner ramp's end, a kink, at
            # t = c T / _KNOTS, a step boundary of runs with _KNOTS + 1
            # samples, where a kink costs no order
            c = draw(st.integers(1, _KNOTS - 1))
            overrides[entry] = TimeMirrored(
                LinearRamp(draw(level), draw(level), T), T * (1 + c / _KNOTS))
    psi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * H.n_sites,
                                 max_size=2 * H.n_sites)))
    psi = psi[:H.n_sites] + 1j * psi[H.n_sites:]
    psi[0] += 1.0
    return TimedHamiltonian(H.base, overrides), T, psi / np.linalg.norm(psi)


_MIRRORED = TimeMirrored(LinearRamp(0.25, 0.75, 5.0), 5.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_pulsed_segments())
# a mirrored pulse whose horizon is not the segment's duration
@example(case=(TimedHamiltonian(star_quarter().base,
                                {(0, 2): _MIRRORED, (1, 2): _MIRRORED}),
               3.0, np.array([0.6, 0.0, 0.0, 0.8j, 0.0])))
def test_pulsed_segment_properties(case):
    H, T, psi = case
    tol = 1e-10
    base = TimedHamiltonian(H.base)
    s = ProtocolSchedule(base, (Segment(T, H),))
    if (0, 0) in H.overrides:
        # a driven diagonal breaks the chiral split; the properties
        # below then run on the same draw without it
        with pytest.raises(ValueError, match="diagonal"):
            run_schedule(s, psi, samples_per_segment=_KNOTS + 1, tol=tol)
        H = TimedHamiltonian(H.base, {e: f for e, f in H.overrides.items()
                                      if e != (0, 0)})
        s = ProtocolSchedule(base, (Segment(T, H),))
    traj = run_schedule(s, psi, samples_per_segment=_KNOTS + 1, tol=tol)
    # unitarity
    assert traj.norm_drift <= 1e-10
    # linearity: a block runs its columns as separate runs would
    other = np.roll(psi, 1)
    block = run_schedule(s, np.column_stack([psi, other]),
                         samples_per_segment=_KNOTS + 1, tol=tol)
    alone = run_schedule(s, other, samples_per_segment=_KNOTS + 1, tol=tol)
    assert np.max(np.linalg.norm(block.states[:, :, 0] - traj.states,
                                 axis=1)) <= tol * T
    assert np.max(np.linalg.norm(block.states[:, :, 1] - alone.states,
                                 axis=1)) <= tol * T
    # time reversal on the conjugated final state returns the start
    back = run_schedule(reverse_schedule(s), np.conj(traj.final_state),
                        samples_per_segment=_KNOTS + 1, tol=tol)
    assert np.linalg.norm(np.conj(back.final_state) - psi) <= 2 * tol * T
    # an independent integrator at tighter tolerance, run knot to knot so
    # that it never steps across the kink of a mirrored ramp
    ref = psi
    for k in range(_KNOTS):
        ref = solve_ivp(lambda t, y: -1j * (_snapshot(H, t) @ y),
                        (T * k / _KNOTS, T * (k + 1) / _KNOTS), ref,
                        method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
    direct = evolve_timedep(H, psi, 0.0, T, tol)
    assert np.linalg.norm(direct - ref) <= tol * T
