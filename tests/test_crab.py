import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clsnet import crab, evolve
from clsnet.crab import (
    OMEGA_RANGE,
    REFERENCE_PARAMS,
    CrabParams,
    OptResult,
    assemble_hamiltonian,
    eval_pulse,
    infidelity_objective,
    nelder_mead,
    optimize_crab,
    pulse_table,
    refine,
    seven_creation,
    seven_transfer,
    star_creation,
    star_transfer,
    verify_infidelity,
)
from clsnet.evolve import evolve_static, evolve_timedep_fixed, fidelity
from clsnet.lattice import TimedHamiltonian, build_seven, build_star, \
    evaluate_at

ROOT2 = np.sqrt(2.0)


# ------------------------------------------------------------ simplex


def test_nelder_mead_quadratic():
    xb, fb, _ = nelder_mead(lambda x: (x[0] - 2.0) ** 2, np.zeros(1))
    assert abs(xb[0] - 2.0) < 1e-6
    assert fb < 1e-12


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    xb, fb, _ = nelder_mead(rosen, np.array([-1.2, 1.0]))
    assert_allclose(xb, [1.0, 1.0], atol=1e-4)
    assert fb < 1e-8


def test_nelder_mead_never_worse_than_start():
    def f(x):
        return np.sum(np.cos(x) + 0.1 * x**2)

    x0 = np.array([0.3, -1.0, 2.2])
    _, fb, _ = nelder_mead(f, x0, max_evals=50)
    assert fb <= f(x0)


def test_nelder_mead_deterministic():
    def f(x):
        return float(np.sum((x - 0.7) ** 4) + np.sum(x**2))

    a = nelder_mead(f, np.array([1.0, -1.0]))
    b = nelder_mead(f, np.array([1.0, -1.0]))
    assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]


def test_nelder_mead_reports_non_finite_point():
    def f(x):
        return np.nan if x[0] > 0.02 else x[0] ** 2

    with pytest.raises(FloatingPointError, match=r"\["):
        nelder_mead(f, np.array([0.0, 0.0]))


def test_nelder_mead_budget_covers_simplex():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: x[0] ** 2, np.zeros(3), max_evals=2)


def test_nelder_mead_respects_eval_budget():
    count = [0]

    def f(x):
        count[0] += 1
        return float(np.sum(x**2))

    _, _, evaluations = nelder_mead(f, np.ones(4), max_evals=40)
    assert evaluations == count[0] <= 40


# ------------------------------------------------------------- params


def test_params_reject_arity_mismatch():
    prob = star_transfer()
    with pytest.raises(ValueError):
        prob.make_params([1.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        star_creation().make_params([1.0], [1.0], [1.0])


def test_params_reject_negative_horizon_and_nan():
    with pytest.raises(ValueError):
        CrabParams((1.0,), (1.0,), (1.0,), 0.25, -1.0)
    with pytest.raises(ValueError):
        CrabParams((np.nan,), (1.0,), (1.0,), 0.25, 1.0)


def test_optresult_requires_unit_interval_infidelity():
    p = REFERENCE_PARAMS["star-transfer"]
    with pytest.raises(ValueError):
        OptResult(p, 1.5, 1)


# -------------------------------------------------------------- pulses


def test_transfer_pulse_boundary_values():
    p = REFERENCE_PARAMS["star-transfer"]
    assert_allclose(eval_pulse("star-transfer", 1, 0.0, p), 0.25, rtol=1e-15)
    assert_allclose(eval_pulse("star-transfer", 3, 2 * np.pi, p), 0.25,
                    atol=1e-12)


def test_creation_pulse_vanishes_at_horizon():
    p = REFERENCE_PARAMS["star-creation"]
    assert abs(eval_pulse("star-creation", 1, np.pi, p)) < 1e-12
    assert abs(eval_pulse("star-creation", 2, np.pi, p)) < 1e-12


def test_creation_pulse_starts_at_full_scale():
    p = REFERENCE_PARAMS["star-creation"]
    assert_allclose(eval_pulse("star-creation", 1, 0.0, p), 3 * ROOT2,
                    rtol=1e-15)
    assert_allclose(eval_pulse("star-creation", 2, 0.0, p), 3 * ROOT2,
                    rtol=1e-15)


def test_eval_pulse_rejects_unknown_kind_and_channel():
    p = REFERENCE_PARAMS["star-transfer"]
    with pytest.raises(KeyError):
        eval_pulse("ring-transfer", 1, 0.0, p)
    with pytest.raises(ValueError):
        eval_pulse("star-transfer", 5, 0.0, p)
    with pytest.raises(ValueError):
        eval_pulse("seven-transfer", 3, 0.0, REFERENCE_PARAMS["seven-transfer"])


def test_eval_pulse_rejects_time_outside_horizon():
    p = REFERENCE_PARAMS["star-transfer"]
    with pytest.raises(ValueError):
        eval_pulse("star-transfer", 1, -0.5, p)
    with pytest.raises(ValueError):
        eval_pulse("star-transfer", 1, 7.0, p)


@pytest.mark.parametrize("t", [np.nan, [0.0, np.nan, 1.0]])
def test_eval_pulse_rejects_nan_time(t):
    # NaN fails both bounds' comparisons, so it used to pass as inside
    with pytest.raises(ValueError, match=r"t outside \[0, horizon\]"):
        eval_pulse("star-transfer", 1, t, REFERENCE_PARAMS["star-transfer"])


@pytest.mark.parametrize("channel", [True, False, np.True_, 1.0])
def test_eval_pulse_rejects_non_integer_channel(channel):
    # True == 1 and hashes as 1, so it used to return channel 1's value
    with pytest.raises(ValueError, match="channel"):
        eval_pulse("star-creation", channel, 0.5,
                   REFERENCE_PARAMS["star-creation"])


def test_transfer_pulses_never_dip_below_floor():
    # squared bracket and nonnegative envelope keep J_n >= J
    rng = np.random.default_rng(42)
    prob = star_transfer()
    ts = np.linspace(0.0, prob.horizon, 10000)
    for _ in range(50):
        p = prob.make_params(rng.normal(scale=3, size=4),
                             rng.normal(scale=3, size=4),
                             rng.uniform(0.1, 4.0, size=4))
        for n in (1, 2, 3, 4):
            assert eval_pulse("star-transfer", n, ts, p).min() >= p.floor - 1e-12


def test_seven_transfer_floor_on_reference():
    p = REFERENCE_PARAMS["seven-transfer"]
    ts = np.linspace(0.0, 4 * np.pi, 10000)
    for n in (1, 2, 5, 6):
        assert eval_pulse("seven-transfer", n, ts, p).min() >= p.floor - 1e-12


def test_creation_pulse_goes_negative_on_reference():
    p = REFERENCE_PARAMS["star-creation"]
    ts = np.linspace(0.0, np.pi, 20000)
    vals = eval_pulse("star-creation", 1, ts, p)
    assert_allclose(vals.min(), -1.29572, atol=1e-4)


def test_seven_creation_bracket_is_linear_not_squared():
    p = REFERENCE_PARAMS["seven-creation"]
    ts = np.linspace(0.0, 2 * np.pi, 5000)
    assert eval_pulse("seven-creation", 1, ts, p).min() < 0.0


def test_pulse_table_covers_all_channels():
    prob = seven_creation()
    p = REFERENCE_PARAMS["seven-creation"]
    times, table = pulse_table(prob, p)
    assert times.shape == (201,)
    assert set(table) == {1, 2, 3}
    assert_allclose(table[3][-1], 1.0, rtol=1e-12)
    tr_times, tr_table = pulse_table(star_transfer(),
                                     REFERENCE_PARAMS["star-transfer"])
    assert set(tr_table) == {1, 2, 3, 4}


PROBLEMS = {"star-transfer": star_transfer, "star-creation": star_creation,
            "seven-transfer": seven_transfer, "seven-creation": seven_creation}


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_channel_table_lists_every_driven_entry(kind):
    # the assembled Hamiltonian drives exactly the channel entries, and
    # the pulse table has one column per channel
    problem, p = PROBLEMS[kind](), REFERENCE_PARAMS[kind]
    channels = crab._CHANNELS[kind]
    H = assemble_hamiltonian(problem, p)
    assert set(H.overrides) == {entry for _, entry in channels}
    _, table = pulse_table(problem, p)
    assert sorted(table) == sorted(n for n, _ in channels)


# ----------------------------------------------------------- objective


def test_reference_parameters_reproduce_deep_minima():
    # the reference set carries four decimals, so only the 1e-4 scale is guaranteed;
    # the actual reproduction lands far below it
    cases = [
        ("star-transfer", star_transfer(), 1e-4),
        ("star-creation", star_creation(), 1e-4),
        ("seven-transfer", seven_transfer(), 1e-4),
        ("seven-creation", seven_creation(), 1e-4),
    ]
    for kind, prob, bound in cases:
        obj = infidelity_objective(prob, REFERENCE_PARAMS[kind])
        ver = verify_infidelity(prob, REFERENCE_PARAMS[kind])
        assert obj < bound, (kind, obj)
        assert ver < bound, (kind, ver)
        assert abs(obj - ver) < 1e-8, (kind, obj, ver)


def test_reference_star_transfer_value_frozen():
    obj = infidelity_objective(star_transfer(), REFERENCE_PARAMS["star-transfer"])
    assert_allclose(obj, 1.4909e-08, rtol=5e-3)


def test_zero_amplitudes_match_free_evolution():
    prob = star_transfer()
    p = prob.make_params(np.zeros(4), np.zeros(4), np.ones(4))
    H = build_star(prob.floor, prob.v)
    psi = evolve_static(H, prob.initial_state, prob.horizon)
    free = 1.0 - fidelity(psi, prob.target_state)
    assert_allclose(infidelity_objective(prob, p), free, atol=1e-10)
    # the stored state cannot leave its dimer without driving
    assert free > 0.999


def test_zero_horizon_identity_objective():
    prob = star_transfer()
    prob = dataclasses.replace(prob, target_state=prob.initial_state)
    p = CrabParams((0.0,) * 4, (0.0,) * 4, (1.0,) * 4, 0.25, 0.0)
    assert infidelity_objective(prob, p) < 1e-15


def test_creation_assembly_boundary_hamiltonians():
    prob = star_creation()
    H = assemble_hamiltonian(prob, REFERENCE_PARAMS["star-creation"])
    M0 = evaluate_at(H, 0.0)
    MT = evaluate_at(H, np.pi)
    assert abs(M0[0, 2]) < 1e-12 and abs(M0[1, 2]) < 1e-12
    assert_allclose(MT[0, 2], 3 * ROOT2, rtol=1e-12)
    assert_allclose(MT[1, 2], 3 * ROOT2, rtol=1e-12)


def test_seven_creation_assembly_ramp():
    prob = seven_creation()
    H = assemble_hamiltonian(prob, REFERENCE_PARAMS["seven-creation"])
    M0 = evaluate_at(H, 0.0)
    MT = evaluate_at(H, 2 * np.pi)
    assert abs(M0[2, 3]) < 1e-12
    assert_allclose(MT[2, 3], 1.0, rtol=1e-12)
    assert abs(M0[3, 4]) < 1e-12 and abs(MT[3, 4]) < 1e-12


# ---------------------------------------------------- problem skeleton


def _fresh_infidelity(problem, p, n_steps):
    """The objective with H assembled from scratch: an independently
    built base, the assembled pulses, validation and colouring anew."""
    J, v = p.floor, problem.v
    Ji = dict(problem.extra).get("J_inner", 0.0)
    base = {"star-transfer": lambda: build_star([J] * 4, v),
            "star-creation": lambda: build_star([0.0] * 4, v),
            "seven-transfer": lambda: build_seven([J, J, Ji, Ji, J, J], v),
            "seven-creation": lambda: build_seven([J, J, 0, 0, J, J], v),
            }[problem.kind]().base
    H = TimedHamiltonian(base, assemble_hamiltonian(problem, p).overrides)
    psi = evolve_timedep_fixed(H, problem.initial_state, 0.0, p.horizon,
                               n_steps)
    return 1.0 - fidelity(psi, problem.target_state)


@pytest.mark.parametrize("make", [star_transfer, star_creation,
                                  seven_transfer, seven_creation])
def test_objective_matches_fresh_assembly(make):
    prob = make()
    ref = REFERENCE_PARAMS[prob.kind]
    assert abs(infidelity_objective(prob, ref)
               - _fresh_infidelity(prob, ref, prob.n_steps)) <= 1e-14


# float.hex of infidelity_objective at each kind's reference point, then
# at 8 points drawn as below; taken before the pulsed kernel ran only the
# components the state occupies, so they show that every search still
# sees the same objective, bit for bit
OBJECTIVE_HEX = {
    "star-transfer": (
        "0x1.002297e000000p-26",
        "0x1.bc6983ea0d16cp-1",
        "0x1.cc781087e2686p-1",
        "0x1.ffff4f0a839d9p-1",
        "0x1.f93d49cdab7e2p-1",
        "0x1.d7b3673e7e7a8p-1",
        "0x1.ffc22fd063ff3p-1",
        "0x1.fddb200cfe6b7p-1",
        "0x1.edc215ea3508bp-1",
    ),
    "star-creation": (
        "0x1.27d9e20000000p-27",
        "0x1.676d9953905a8p-4",
        "0x1.27aa8847987f0p-3",
        "0x1.4e1774129c36ep-1",
        "0x1.ff61e7e36c67ep-1",
        "0x1.e6f10af5bed80p-3",
        "0x1.d26e1989b13d1p-1",
        "0x1.133aabad6553cp-1",
        "0x1.f936237e4fee2p-1",
    ),
    "seven-transfer": (
        "0x1.83b5030c00000p-21",
        "0x1.fd19e6c4d1ee6p-1",
        "0x1.e05f5f8ed318cp-1",
        "0x1.fee98224a1726p-1",
        "0x1.ff758f153c10ap-1",
        "0x1.e9aec66acbfcap-1",
        "0x1.fa1a481b7ac9bp-1",
        "0x1.f298053812887p-1",
        "0x1.ffa68ef761386p-1",
    ),
    "seven-creation": (
        "0x1.0510f2e000000p-25",
        "0x1.e9fc7faa31484p-1",
        "0x1.fffd5b23c9e10p-1",
        "0x1.f208cf861ad73p-1",
        "0x1.ffcd794120321p-1",
        "0x1.ff92cb61548c2p-1",
        "0x1.b0af557eb1fcfp-1",
        "0x1.c1aca78940e00p-1",
        "0x1.febddb445f9d7p-1",
    ),
}


def _objective_points(problem):
    yield REFERENCE_PARAMS[problem.kind]
    nx, nxp, nw = problem.arity
    for i in range(8):
        rng = np.random.default_rng([2011, i])
        yield problem.make_params(rng.uniform(0.0, 3.0, nx),
                                  rng.uniform(0.0, 3.0, nxp),
                                  rng.uniform(*OMEGA_RANGE, nw))


@pytest.mark.parametrize("make", [star_transfer, star_creation,
                                  seven_transfer, seven_creation])
def test_objective_bits_pinned(make):
    prob = make()
    got = tuple(float.hex(infidelity_objective(prob, p))
                for p in _objective_points(prob))
    assert got == OBJECTIVE_HEX[prob.kind]


def test_floor_mismatch_gets_its_own_skeleton():
    # the problem's floor (0.25) differs from the reference floor 1/(4 sqrt2)
    prob = seven_creation(J=0.25)
    ref = REFERENCE_PARAMS["seven-creation"]
    own = prob.make_params(ref.x, ref.xp, ref.omega)
    infidelity_objective(prob, own)                 # caches the 0.25 skeleton
    got = verify_infidelity(prob, ref)
    assert abs(got - _fresh_infidelity(prob, ref, 2 * prob.n_steps)) <= 1e-14
    H = assemble_hamiltonian(prob, ref)
    assert H.base[0, 2] == ref.floor != assemble_hamiltonian(prob, own).base[0, 2]


def test_search_colours_one_skeleton(monkeypatch):
    colouring = TimedHamiltonian.__dict__["_sublattices"]
    original, calls = colouring.func, []

    def counted(H):
        calls.append(H)
        return original(H)

    monkeypatch.setattr(colouring, "func", counted)
    crab._skeleton.cache_clear()
    res = optimize_crab(star_creation(n_steps=64), n_restarts=2, max_evals=200)
    assert res.evaluations > 200 and len(calls) == 1


def _count_plans(monkeypatch):
    """The argument tuples of every integrator plan built from now on."""
    built, init = [], evolve._CF4Plan.__init__

    def counted(plan, H, *args):
        built.append(args)
        init(plan, H, *args)

    monkeypatch.setattr(evolve._CF4Plan, "__init__", counted)
    return built


def test_search_builds_one_plan(monkeypatch):
    built = _count_plans(monkeypatch)
    crab._skeleton.cache_clear()
    res = optimize_crab(star_creation(n_steps=64), n_restarts=2, max_evals=200)
    assert res.evaluations > 200 and len(built) == 1


@pytest.mark.parametrize("change", [{"floor": 0.3}, {"horizon": 2.5}])
def test_mismatched_params_get_their_own_plan(monkeypatch, change):
    prob = seven_creation(J=0.25, n_steps=64)
    ref = REFERENCE_PARAMS["seven-creation"]
    own = prob.make_params(ref.x, ref.xp, ref.omega)
    other = dataclasses.replace(own, **change)
    crab._skeleton.cache_clear()
    built = _count_plans(monkeypatch)
    first = infidelity_objective(prob, own)
    got = infidelity_objective(prob, other)
    assert len(built) == 2 and built[1][2] == other.horizon
    assert got == _fresh_infidelity(prob, other, prob.n_steps)
    assert infidelity_objective(prob, own) == first


def test_refinement_recovers_deep_minimum():
    # rounded print -> 1e-8 scale; local refinement goes much deeper
    prob = star_creation()
    q, fb = refine(prob, REFERENCE_PARAMS["star-creation"])
    assert fb < 1e-10
    assert verify_infidelity(prob, q) < 1e-10


# ----------------------------------------------------------- multistart


def _tiny_problem():
    return star_transfer(n_steps=64)


def test_optimize_crab_deterministic():
    prob = _tiny_problem()
    a = optimize_crab(prob, n_restarts=2, seed=5, max_evals=200)
    b = optimize_crab(prob, n_restarts=2, seed=5, max_evals=200)
    assert a.best_params == b.best_params
    assert a.infidelity == b.infidelity
    assert a.log == b.log
    c = optimize_crab(prob, n_restarts=2, seed=6, max_evals=200)
    assert c.log[0]["omega"] != a.log[0]["omega"]


def test_optimize_crab_monotone_in_restarts():
    prob = _tiny_problem()
    vals = [optimize_crab(prob, n_restarts=n, seed=9, max_evals=200).infidelity
            for n in (1, 2, 4)]
    assert vals[1] <= vals[0] and vals[2] <= vals[1]


def test_optimize_crab_merge_rule_and_log():
    prob = _tiny_problem()
    res = optimize_crab(prob, n_restarts=3, seed=9, max_evals=200)
    assert len(res.log) == 3
    assert res.infidelity == min(r["infidelity"] for r in res.log)
    assert res.evaluations == sum(r["evaluations"] for r in res.log)
    assert all(OMEGA_RANGE[0] <= w <= OMEGA_RANGE[1]
               for r in res.log for w in r["omega"])


def test_restart_stop_reason(monkeypatch):
    # a quadratic bowl in place of the objective: the simplex converges
    # well inside a large budget and spends a small one entirely
    def bowl(problem, p):
        d = float(np.sum((np.array(p.x + p.xp) - 1.0) ** 2))
        return d / (1.0 + d)

    monkeypatch.setattr(crab, "infidelity_objective", bowl)
    prob = _tiny_problem()
    free = optimize_crab(prob, n_restarts=2, seed=4, max_evals=20000)
    assert [r["stopped"] for r in free.log] == ["converged"] * 2
    assert all(r["evaluations"] < 20000 for r in free.log)
    capped = optimize_crab(prob, n_restarts=2, seed=4, max_evals=50)
    assert [(r["stopped"], r["evaluations"]) for r in capped.log] \
        == [("budget", 50)] * 2
    assert capped.log == optimize_crab(prob, n_restarts=2, seed=4,
                                       max_evals=50).log


def test_optimize_crab_rejects_zero_restarts():
    with pytest.raises(ValueError):
        optimize_crab(_tiny_problem(), n_restarts=0, seed=1)


@pytest.mark.parametrize("key, bad", [
    ("max_evals", np.nan), ("max_evals", np.inf), ("max_evals", 50.5),
    ("max_evals", 50.0), ("max_evals", True), ("n_restarts", True),
    ("n_restarts", 2.0), ("n_restarts", np.nan), ("n_restarts", np.inf)])
def test_search_sizes_checked(key, bad):
    # max_evals=nan used to stop each restart after its initial simplex
    # and log "converged", 50.5 to run 51 evaluations, n_restarts=True
    # to run one restart and 2.0 to raise TypeError
    sizes = {"n_restarts": 1, "max_evals": 50, key: bad}
    with pytest.raises(ValueError, match=key):
        optimize_crab(_tiny_problem(), seed=1, **sizes)
    if key == "max_evals":
        with pytest.raises(ValueError, match=key):
            nelder_mead(lambda x: float(x @ x), np.ones(2), max_evals=bad)


def test_star_creation_optimizes_frequencies_jointly():
    # its 4-parameter space includes the two frequencies by default
    prob = star_creation(n_steps=64)
    res = optimize_crab(prob, n_restarts=1, seed=3, max_evals=400)
    assert res.best_params.omega != res.log[0]["omega"]


def test_multistart_reaches_deep_minimum():
    # search at reduced integrator resolution, winner re-verified at
    # the default resolution; 7 of these 8 restarts end below 1e-6
    prob = star_transfer(n_steps=256)
    res = optimize_crab(prob, n_restarts=8, seed=2024, max_evals=4000)
    assert res.infidelity < 1e-12
    assert verify_infidelity(star_transfer(), res.best_params) < 1e-6
