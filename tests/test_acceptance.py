"""Release gate: one test per acceptance criterion, run in order.

Each test executes its criterion through :mod:`clsnet.acceptance`,
prints the one-line verdict (visible with ``pytest -s`` or on
failure), and asserts the whole criterion passed.  Every criterion
checks its own norm drift and runtime through ``run_criterion``, as
``clsnet verify`` does; C13 checks fixed-seed determinism alone.  The
harness tests at the end drive ``run_criterion`` with fake criteria.
Each criterion's report, without its timings, is pinned in golden.py.
"""

import json
from dataclasses import asdict

from clsnet import acceptance
from golden import assert_pinned

_reports = {}


def _run(cid):
    if cid not in _reports:
        _reports[cid] = acceptance.run_criterion(cid)
    report = _reports[cid]
    print()
    print(report.line())
    for c in report.checks:
        mark = "ok  " if c.ok else "FAIL"
        print(f"  {mark} {c.name}: {c.value!r} (want {c.bound})")
    return report


def _assert_passed(report):
    failed = [c for c in report.checks if not c.ok]
    assert report.passed, (
        f"{report.cid} failed: "
        + "; ".join(f"{c.name}={c.value!r}, want {c.bound}" for c in failed))
    untimed = dict(asdict(report), elapsed=None, checks=[
        asdict(c) for c in report.checks if c.name != "runtime"])
    assert_pinned(f"verify/{report.cid}",
                  json.dumps(untimed, sort_keys=True).encode())


def test_c1_flagship_star_transfer():
    _assert_passed(_run("C1"))


def test_c2_hopping_flip_variant_matches():
    _assert_passed(_run("C2"))


def test_c3_transfer_family_grid():
    _assert_passed(_run("C3"))


def test_c4_generation_and_scale_erratum():
    _assert_passed(_run("C4"))


def test_c5_piecewise_transfer():
    _assert_passed(_run("C5"))


def test_c6_optimized_star_transfer():
    _assert_passed(_run("C6"))


def test_c7_optimized_star_creation():
    _assert_passed(_run("C7"))


def test_c8_seven_site_spectrum_and_transfer():
    _assert_passed(_run("C8"))


def test_c9_optimized_seven_site_pulses():
    _assert_passed(_run("C9"))


def test_c10_partition_spectra_random_trials():
    _assert_passed(_run("C10"))


def test_c11_storage_robustness():
    _assert_passed(_run("C11"))


def test_c12_lattice_routing():
    _assert_passed(_run("C12"))


def test_c12_fidelities_never_exceed_one():
    fids = [c.value for c in _run("C12").checks if "fidelity" in c.name]
    assert len(fids) == 4
    assert all(f <= 1.0 for f in fids)


def test_c13_fixed_seed_determinism():
    _assert_passed(_run("C13"))


# ------------------------------------------------------------- harness


def test_norm_drift_is_checked_where_a_drift_is_reported():
    carrying = {cid for cid in acceptance.CRITERION_IDS
                if any(c.name == "norm drift" for c in _run(cid).checks)}
    assert carrying == {"C1", "C2", "C3", "C4", "C5", "C8", "C11", "C12"}


def _fake(monkeypatch, drift, runtime=None):
    monkeypatch.setitem(acceptance._REGISTRY, "CX",
                        ("fake", lambda: ([], drift)))
    monkeypatch.setitem(acceptance._RUNTIME_LIMIT, "CX", runtime)
    return acceptance.run_criterion("CX")


def test_drift_above_the_bound_fails_its_criterion(monkeypatch):
    assert _fake(monkeypatch, 1e-10).passed
    report = _fake(monkeypatch, 1e-9)
    assert not report.passed
    assert [(c.name, c.value) for c in report.checks if not c.ok] == \
        [("norm drift", 1e-9)]
    assert report.norm_drift == 1e-9


def test_runtime_is_checked_on_the_harness_clock(monkeypatch):
    monkeypatch.setattr(acceptance, "perf_counter", iter([0.0, 2.0]).__next__)
    report = _fake(monkeypatch, None, runtime=1.0)
    assert not report.passed
    assert [(c.name, c.value, c.bound) for c in report.checks] == \
        [("runtime", 2.0, "< 1 s")]
    assert report.elapsed == 2.0


def test_c13_runs_no_other_criterion(monkeypatch):
    called = []
    for cid in acceptance.CRITERION_IDS:
        if cid == "C13":
            continue
        title, fn = acceptance._REGISTRY[cid]

        def spy(cid=cid):
            called.append(cid)
            return [], None
        monkeypatch.setitem(acceptance._REGISTRY, cid, (title, spy))
        monkeypatch.setattr(acceptance, fn.__name__, spy)
    report = acceptance.run_criterion("C13")
    assert called == []
    assert report.passed and report.norm_drift is None
