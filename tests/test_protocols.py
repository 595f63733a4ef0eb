import numpy as np
import pytest
from numpy.testing import assert_allclose

from clsnet.evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    end_hamiltonian,
    evolve_static,
    fidelity,
    run_schedule,
)
from clsnet.lattice import build_star, evaluate_grid
from clsnet.protocols import (
    TRANSFER_VARIANTS,
    GenerationParams,
    SevenTransferParams,
    StarTransferParams,
    build_schedule,
    cls_state,
    transfer_member_for,
)

ROOT2 = np.sqrt(2.0)


# ---------------------------------------------------------------- params


def test_transfer_params_reference_point():
    p = StarTransferParams(1, 0, 0.25)
    assert_allclose(p.v, 0.5, atol=1e-15)
    assert_allclose(p.T, 2 * np.pi, rtol=1e-15)


def test_transfer_params_negative_potential_member():
    p = StarTransferParams(0, 0, 0.25)
    assert_allclose(p.v, -0.5, atol=1e-15)
    assert_allclose(p.T, 2 * np.pi, rtol=1e-15)


def test_transfer_params_slow_member():
    p = StarTransferParams(2, 1, 0.25)
    assert_allclose(p.v, 1.0 / 6.0, rtol=1e-15)
    assert_allclose(p.T, 6 * np.pi, rtol=1e-15)


def test_transfer_params_rejects_negative_duration():
    with pytest.raises(ValueError):
        StarTransferParams(1, -1, 0.25)


def test_transfer_params_rejects_non_integer_index():
    with pytest.raises(ValueError, match="k1 must be an integer"):
        StarTransferParams(0.5, 0, 0.25)


def test_transfer_params_reject_zero_coupling():
    with pytest.raises(ValueError, match="nonzero coupling"):
        StarTransferParams(1, 0, 0.0)
    with pytest.raises(ValueError, match="nonzero coupling"):
        SevenTransferParams(0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        StarTransferParams(0, 0, 1e-310)  # T overflows
    with pytest.raises(ValueError, match="finite"):
        SevenTransferParams(0, 1e-310)  # T overflows, with no warning


def test_transfer_params_refuse_indices_that_break_the_phases():
    # v*T grows with k2; from about k2 = 6e5 its rounding misses the
    # sector phases by more than 1e-9 for some indices
    StarTransferParams(0, 669789, 0.25)
    for k2 in (669790, 10**12):
        with pytest.raises(ValueError, match=f"k2={k2} too large"):
            StarTransferParams(0, k2, 0.25)
    with pytest.raises(ValueError, match="k1p=1000000000, k2p=3 too large"):
        GenerationParams(1, 10**9, 3, 1.0)


def test_generation_params_reference_point():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    assert_allclose(p.v, 0.5, rtol=1e-15)
    assert_allclose(p.T, np.pi, rtol=1e-15)


def test_generation_params_branch_one():
    p = GenerationParams(1, 1, 0, 1.0)
    assert_allclose(p.v, 3 * ROOT2, rtol=1e-15)
    assert_allclose(p.T, 3 * np.pi / (2 * p.v), rtol=1e-15)


def test_generation_params_scale_with_coupling():
    a = GenerationParams(1, 1, 0, 1.0)
    b = GenerationParams(1, 1, 0, 2.0)
    assert_allclose(b.v, 2 * a.v, rtol=1e-15)
    assert_allclose(b.T, a.T / 2, rtol=1e-15)


def test_generation_params_rejects_zero_coupling():
    with pytest.raises(ValueError):
        GenerationParams(2, 0, 1, 0.0)


def test_generation_params_rejects_unknown_branch():
    with pytest.raises(ValueError, match="branch must be 1 or 2"):
        GenerationParams(3, 0, 1, 1.0)


def test_members_refuse_non_integer_indices_and_negative_durations():
    with pytest.raises(ValueError, match="k must be an integer"):
        SevenTransferParams(0.5, 1.0)
    with pytest.raises(ValueError, match="k2p must be an integer"):
        GenerationParams(1, 1, 0.5, 1.0)
    with pytest.raises(ValueError, match="positive and finite, got -"):
        SevenTransferParams(-1, 1.0)
    with pytest.raises(ValueError, match="positive, got -"):
        GenerationParams(1, 1, -1, 1.0)
    # True == 1, and int() of inf or NaN raises an error of its own
    for k1 in (True, np.inf, np.nan):
        with pytest.raises(ValueError, match="k1 must be an integer"):
            StarTransferParams(k1, 0, 0.25)
    with pytest.raises(ValueError, match="k must be an integer"):
        SevenTransferParams(np.nan, 1.0)
    with pytest.raises(ValueError, match="branch must be an integer"):
        GenerationParams(True, 0, 1, 1.0)


@pytest.mark.parametrize("member, args, label", [
    (StarTransferParams, (10**330, 0, 0.25), "k1"),
    (StarTransferParams, (0, 10**330, 0.25), "k2"),
    (SevenTransferParams, (10**330, 1.0), "k"),
    (GenerationParams, (1, 10**330, 0, 1.0), "k1p"),
    (GenerationParams, (1, 1, 10**330, 1.0), "k2p"),
], ids=["star-k1", "star-k2", "seven-k", "generation-k1p", "generation-k2p"])
def test_members_refuse_indices_past_the_float_range(member, args, label):
    # a family term such as 1 + 2*k2 has no float: a ValueError naming
    # the index, not an OverflowError
    with pytest.raises(ValueError, match=f"^{label} must be an integer"):
        member(*args)


def test_members_derive_v_and_t_from_their_indices():
    # v and T are no inputs, so no member carries an off-family pair
    with pytest.raises(TypeError):
        StarTransferParams(1, 0, 0.25, v=0.3)
    with pytest.raises(TypeError):
        GenerationParams(2, 0, 1, 1.0, T=np.pi)
    p = StarTransferParams(1, 0, 0.25)
    assert p == StarTransferParams(1, 0, 0.25) and len({p, p}) == 1
    assert (p.graph, SevenTransferParams(0, 1.0).graph) == ("star", "seven")
    assert GenerationParams(2, 0, 1, 1.0).graph == "star"


def test_transfer_member_lookup():
    p = transfer_member_for(0.25, 0.5)
    assert (p.k1, p.k2) == (1, 0) and p.T == pytest.approx(2 * np.pi)
    p = transfer_member_for(0.25, -0.5)
    assert (p.k1, p.k2) == (0, 0)
    # detuned lattice: admissible only at a higher winding pair
    p = transfer_member_for(0.25, 0.5 / 3)
    assert p.T > 2 * np.pi
    with pytest.raises(ValueError, match="no flip-transfer"):
        transfer_member_for(0.25, 0.0)  # parity obstruction at v = 0
    with pytest.raises(ValueError, match="no flip-transfer"):
        transfer_member_for(0.3, 0.3)
    with pytest.raises(ValueError, match="nonzero coupling"):
        transfer_member_for(0.0, 0.5)


# ----------------------------------------------------------------- flips


def test_phase_flip_converts_antisymmetric_to_symmetric():
    psi = PhaseFlip(1).apply(cls_state("star", "I"))
    assert_allclose(psi, cls_state("star", "L"), atol=1e-15)


def test_phase_flip_is_involution():
    rng = np.random.default_rng(7)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    flip = PhaseFlip(3)
    assert_allclose(flip.apply(flip.apply(psi)), psi, atol=0)


def test_phase_flip_leaves_other_amplitudes():
    psi = PhaseFlip(4).apply(cls_state("star", "I"))
    assert_allclose(psi, cls_state("star", "I"), atol=1e-15)


def test_phase_flip_rejects_bad_site():
    with pytest.raises(IndexError):
        PhaseFlip(5).apply(cls_state("star", "I"))


def _flipped(M, *entries):
    M = np.array(M)
    for e in entries:
        HoppingFlip(e).negate(M)
    return M


def test_hopping_flip_negates_one_coupling():
    H = build_star(0.25, 0.5)
    M = _flipped(H.base, (0, 2))
    assert M[0, 2] == -0.25
    assert M[2, 0] == -0.25
    assert H.base[0, 2] == 0.25


def test_hopping_flip_is_involution():
    H = build_star(0.25, 0.5)
    assert_allclose(_flipped(H.base, (2, 3), (3, 2)), H.base, atol=0)


def test_hopping_flip_pair_preserves_star_spectrum():
    # negating J1 and J3 relabels eigenvectors but not energies
    H = build_star(0.25, 0.5)
    M = _flipped(H.base, (0, 2), (2, 3))
    assert_allclose(np.linalg.eigvalsh(M), np.linalg.eigvalsh(H.base),
                    atol=1e-14)
    assert_allclose(sorted(np.linalg.eigvalsh(H.base)),
                    [0.0, 0.5, 0.5, 0.5, 1.0], atol=1e-14)


def test_single_hopping_flip_swaps_dimer_eigenstate():
    # with only J2 negated the symmetric combination decouples instead
    M = _flipped(build_star(0.25, 0.5).base, (1, 2))
    sym = cls_state("star", "L")
    anti = cls_state("star", "I")
    assert np.linalg.norm(M @ sym - 0.5 * sym) < 1e-14
    assert np.linalg.norm(M @ anti - 0.5 * anti) > 0.3


def test_hopping_flip_rejects_out_of_range():
    with pytest.raises(IndexError):
        _flipped(build_star(0.25, 0.5).base, (0, 7))


# ------------------------------------------------------------- schedules


def _run_fidelity(s, tol=1e-11):
    traj = run_schedule(s, s.initial_state, tol=tol)
    return fidelity(traj.final_state, s.target_state), traj


def test_star_phase_flip_transfer_reaches_unit_fidelity():
    s = build_schedule("phase-flip-transfer",
                       StarTransferParams(1, 0, 0.25))
    fid, traj = _run_fidelity(s)
    assert fid >= 1 - 1e-12
    assert abs(traj.norm_drift) <= 1e-12


def test_star_transfer_family_grid():
    # every valid index pair in a small grid transfers exactly
    for k1 in range(-2, 4):
        for k2 in range(0, 3):
            s = build_schedule("phase-flip-transfer",
                               StarTransferParams(k1, k2, 0.25))
            fid, _ = _run_fidelity(s)
            assert fid >= 1 - 1e-12, (k1, k2, fid)


def test_star_hopping_flip_transfer_reaches_unit_fidelity():
    s = build_schedule("hopping-flip-transfer",
                       StarTransferParams(1, 0, 0.25))
    fid, traj = _run_fidelity(s)
    assert fid >= 1 - 1e-12
    kinds = [ev[1] for ev in traj.events]
    assert kinds.count("hopping-flip") == 4


def test_star_hopping_alternate_pair_option():
    s = build_schedule("hopping-flip-transfer",
                       StarTransferParams(1, 0, 0.25), pair="J2J4")
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12


def test_star_phase_flip_alternate_sites():
    s = build_schedule("phase-flip-transfer",
                       StarTransferParams(1, 0, 0.25),
                       in_site=0, out_site=3)
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12


def test_seven_phase_flip_transfer():
    # the member names its network: a seven-site base, no graph argument
    s = build_schedule("phase-flip-transfer",
                       SevenTransferParams(0, 1.0))
    assert s.base.n_sites == 7
    assert_allclose(s.duration, np.pi / ROOT2, rtol=1e-15)
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12


def test_seven_hopping_flip_transfer():
    s = build_schedule("hopping-flip-transfer",
                       SevenTransferParams(0, 1.0))
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12


def test_seven_transfer_with_potential_offset():
    # the seven-site timing works for any uniform potential
    s = build_schedule("phase-flip-transfer",
                       SevenTransferParams(0, 1.0, v=0.7))
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12


def test_generation_reaches_symmetric_state_before_flip():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    s = build_schedule("generation", p, final_flip=False)
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12
    assert_allclose(s.target_state, cls_state("star", "L"), atol=1e-15)


def test_generation_ends_in_stored_state():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    s = build_schedule("generation", p)
    fid, traj = _run_fidelity(s)
    assert fid >= 1 - 1e-12
    # stored state must be an eigenvector of the final Hamiltonian
    M = end_hamiltonian(s)
    res = M @ traj.final_state - p.v * traj.final_state
    assert np.linalg.norm(res) < 1e-10


def test_reverse_generation_recovers_hub_state():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    s = build_schedule("reverse-generation", p)
    fid, _ = _run_fidelity(s)
    assert fid >= 1 - 1e-12


def test_generation_roundtrip_is_identity():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    rev = build_schedule("reverse-generation", p)
    gen = build_schedule("generation", p)
    mid = run_schedule(rev, cls_state("star", "I"), tol=1e-11).final_state
    out = run_schedule(gen, mid, tol=1e-11).final_state
    assert fidelity(out, cls_state("star", "I")) >= 1 - 1e-12


def test_piecewise_transfer_through_hub():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    s = build_schedule("piecewise-transfer", p)
    assert_allclose(s.duration, 2 * np.pi, rtol=1e-15)
    fid, traj = _run_fidelity(s)
    assert fid >= 1 - 1e-12
    # the state really passes through the hub at the midpoint
    mid = np.argmin(np.abs(traj.times - np.pi))
    assert abs(traj.states[mid][2]) > 1 - 1e-6


@pytest.mark.parametrize("options", [{"in_site": 2}, {"out_site": 1},
                                     {"in_site": 3, "out_site": 4}])
def test_piecewise_transfer_flips_one_site_of_each_dimer(options):
    # as in a phase-flip transfer: a flip on the hub or on the wrong
    # dimer leaves the state orthogonal to its target
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    with pytest.raises(ValueError,
                       match="star flips must hit one site of each dimer"):
        build_schedule("piecewise-transfer", p, **options)
    s = build_schedule("piecewise-transfer", p, in_site=0, out_site=3)
    assert _run_fidelity(s)[0] >= 1 - 1e-12


@pytest.mark.parametrize("variant, params", [
    ("phase-flip-transfer", StarTransferParams(1, 0, 0.25)),
    ("piecewise-transfer", GenerationParams(2, 0, 1, 3 * ROOT2 / 4))])
@pytest.mark.parametrize("options", [{"in_site": True}, {"in_site": False},
                                     {"in_site": 1.0}, {"out_site": 4.0},
                                     {"in_site": np.bool_(True)}])
def test_flip_sites_are_integers(variant, params, options):
    # True equals 1 and 1.0 is in (0, 1), but a bool site would flip the
    # state as a mask and a float site cannot index it
    with pytest.raises(ValueError,
                       match="star flips must hit one site of each dimer"):
        build_schedule(variant, params, **options)
    s = build_schedule(variant, params, in_site=np.int64(0), out_site=3)
    assert _run_fidelity(s)[0] >= 1 - 1e-12


@pytest.mark.parametrize("flag", ["no", None, 1, 0.0])
def test_generation_final_flip_is_true_or_false(flag):
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    with pytest.raises(ValueError, match="final_flip must be True or False"):
        build_schedule("generation", p, final_flip=flag)


def test_piecewise_halves_match_direct_transfer_time():
    p = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    t = StarTransferParams(1, 0, 0.25)
    assert_allclose(2 * p.T, t.T, rtol=1e-15)


def _ends_symmetric_on_target(s):
    # the end Hamiltonian treats the two target-dimer sites alike:
    # equal potentials, equal couplings to every other site
    support = np.flatnonzero(np.abs(s.target_state) > 1e-12)
    if support.size != 2:
        return True
    a, b = (int(x) for x in support)
    M = end_hamiltonian(s)
    rest = [k for k in range(M.shape[0]) if k not in (a, b)]
    return bool(abs(M[a, a] - M[b, b]) <= 1e-12
                and np.all(np.abs(M[rest, a] - M[rest, b]) <= 1e-12))


def test_schedules_end_with_symmetric_target_dimer():
    p = StarTransferParams(1, 0, 0.25)
    g = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    for s in (
        build_schedule("phase-flip-transfer", p),
        build_schedule("hopping-flip-transfer", p),
        build_schedule("generation", g),
        build_schedule("reverse-generation", g),
        build_schedule("piecewise-transfer", g),
        build_schedule("phase-flip-transfer",
                       SevenTransferParams(0, 1.0)),
        build_schedule("hopping-flip-transfer",
                       SevenTransferParams(0, 1.0)),
    ):
        assert _ends_symmetric_on_target(s)


def test_target_symmetry_helper_flags_broken_end():
    p = StarTransferParams(1, 0, 0.25)
    base = build_star((0.25, 0.25, 0.25, 0.3), p.v)
    from clsnet.evolve import PhaseFlip, Segment

    s = ProtocolSchedule(
        base,
        (PhaseFlip(1), Segment(p.T), PhaseFlip(4)),
        initial_state=cls_state("star", "I"),
        target_state=cls_state("star", "F"),
    )
    assert not _ends_symmetric_on_target(s)


def test_build_schedule_rejects_unsupported_combinations():
    g = GenerationParams(2, 0, 1, 3 * ROOT2 / 4)
    for member in (StarTransferParams(1, 0, 0.25), SevenTransferParams(0, 1.0)):
        with pytest.raises(ValueError, match="generation needs GenerationParams"):
            build_schedule("generation", member)
    with pytest.raises(ValueError, match="unknown variant"):
        build_schedule("warp", StarTransferParams(1, 0, 0.25))
    with pytest.raises(ValueError, match="one site of each dimer"):
        build_schedule("phase-flip-transfer", SevenTransferParams(0, 1.0),
                       out_site=4)
    with pytest.raises(ValueError, match="unknown hopping pair"):
        build_schedule("hopping-flip-transfer", SevenTransferParams(0, 1.0),
                       pair="J1J3")


def test_build_schedule_rejects_unknown_option():
    with pytest.raises(TypeError):
        build_schedule("phase-flip-transfer",
                       StarTransferParams(1, 0, 0.25), speed="fast")


_GENERATION_VARIANTS = ("generation", "reverse-generation",
                        "piecewise-transfer")


@pytest.mark.parametrize("variant", TRANSFER_VARIANTS + _GENERATION_VARIANTS)
def test_build_schedule_refuses_the_other_family(variant):
    transfer = variant in TRANSFER_VARIANTS
    member = GenerationParams(2, 0, 1, 3 * ROOT2 / 4) if transfer \
        else StarTransferParams(1, 0, 0.25)
    with pytest.raises(ValueError, match=f"{variant} needs"):
        build_schedule(variant, member)


# the options each variant takes; every other name is refused
_OPTION_TABLE = {
    "phase-flip-transfer": {"in_site": 0, "out_site": 3},
    "hopping-flip-transfer": {"pair": "J2J4"},
    "generation": {"final_flip": False},
    "reverse-generation": {},
    "piecewise-transfer": {"in_site": 0, "out_site": 3},
}
_ANY_OPTION = {"in_site": 0, "out_site": 3, "pair": "J2J4",
               "final_flip": False, "speed": "fast"}


def _member_for(variant):
    if variant in TRANSFER_VARIANTS:
        return StarTransferParams(1, 0, 0.25)
    return GenerationParams(2, 0, 1, 3 * ROOT2 / 4)


@pytest.mark.parametrize("variant,option", [
    (variant, option) for variant, table in _OPTION_TABLE.items()
    for option in _ANY_OPTION if option not in table])
def test_build_schedule_refuses_options_outside_the_variant_table(variant,
                                                                   option):
    with pytest.raises(TypeError, match=option):
        build_schedule(variant, _member_for(variant),
                       **{option: _ANY_OPTION[option]})


@pytest.mark.parametrize("variant", _OPTION_TABLE)
def test_build_schedule_takes_the_options_in_its_table(variant):
    s = build_schedule(variant, _member_for(variant), **_OPTION_TABLE[variant])
    assert _run_fidelity(s)[0] >= 1 - 1e-12


def test_stored_state_is_stationary_between_flips():
    # before the first flip the antisymmetric state only gains phase
    p = StarTransferParams(1, 0, 0.25)
    H = build_star(p.J, p.v)
    psi = evolve_static(H, cls_state("star", "I"), 1.3)
    expected = np.exp(-1j * p.v * 1.3) * cls_state("star", "I")
    assert_allclose(psi, expected, atol=1e-13)


def test_cls_state_validation():
    with pytest.raises(ValueError):
        cls_state("star", "Q")
    with pytest.raises(ValueError):
        cls_state("chain", "I")
    assert_allclose(np.linalg.norm(cls_state("seven", "F")), 1.0, rtol=1e-15)
    assert cls_state("seven", "c")[3] == 1.0


def test_evaluate_at_star_base_matches_params():
    p = StarTransferParams(1, 0, 0.25)
    s = build_schedule("phase-flip-transfer", p)
    M = evaluate_grid(s.base, [0.0])[0]
    assert_allclose(np.diag(M), p.v, atol=1e-15)
    assert M[0, 2] == p.J
