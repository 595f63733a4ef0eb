"""Release gate: one test per acceptance criterion, run in order.

Each test executes its criterion through :mod:`clsnet.acceptance`,
prints the one-line verdict (visible with ``pytest -s`` or on
failure), and asserts the whole criterion passed.  C13 consumes the
norm drifts collected from the evolution-heavy criteria that ran
before it, matching what ``clsnet verify`` does.
"""

from clsnet import acceptance

_reports = {}


def _run(cid, **kw):
    if cid not in _reports:
        _reports[cid] = acceptance.run_criterion(cid, **kw)
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


def test_c13_norm_and_determinism():
    drifts = [r.norm_drift for cid, r in _reports.items()
              if cid != "C13" and r.norm_drift is not None]
    _assert_passed(_run("C13", drifts=drifts or None))
