"""clsnet benchmark: three seeded workloads, timed end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload crab-search --seed 1 --seconds 25 --trace 0

Workloads: crab-search, dll-routing, lattice-survey (see workloads.py
for what one op is and why each workload exists).  With ``--trace 0``
the run reports end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of tracing.py and its own overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

A run does a fixed amount of work, set by the seed and ``--seconds``
alone: as many passes as take about ``--seconds`` at the workload's
nominal pass time (workloads.py), so the attempted and failed counts
of a seed repeat exactly.  The times in the final line are corrected
for the speed of a shared host (see ``host_reference``).

Every op is checked.  An op that misses its workload's bound, or that
the program refuses (a nonzero exit or an exception), counts in
``failed``.  ``correct`` is false only when an output contradicts an
independent check: a re-evaluated pulse infidelity, the requests a
route report answers, the compact-state count of a lattice, or the
scheduler's own no-overlap rule.

The package is imported from ``src/`` beside this directory; without
it the run stops with exit code 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# BLAS/OpenMP threads, pinned before numpy is first imported.  One thread
# is at most the core count of any machine, and the matrices here (5 to
# 180 sites) are too small to gain from more.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("crab-search", "dll-routing", "lattice-survey")
# set-ups measured per run: this process plus fresh child processes
SETUP_SAMPLES = 3
# End-to-end metrics in the final line, the same names on every workload.
# work_per_s stands for the whole run; pass_s and the per-kind times are
# medians of a handful of ops, and on a shared two-core machine they
# spread wider between runs than the largest bound, so they are printed
# but not in the final line.
END_TO_END = ("setup_s", "work_per_s")


def import_package():
    """Import clsnet from ``src/`` and the benchmark modules."""
    if not (SRC / "clsnet" / "cli.py").is_file():
        print(f"bench: no clsnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import clsnet
    if Path(clsnet.__file__).resolve().parent != SRC / "clsnet":
        print(f"bench: clsnet imported from {clsnet.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def machine_record():
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": THREADS,
    }


def set_up(wl, name, seed, scratch):
    """Input generation and one warm-up op; returns (workload, inputs)."""
    workload = wl.WORKLOADS[name]()
    inputs = workload.inputs(seed)
    workload.warm_up(wl.Context(scratch), inputs)
    return workload, inputs


def child_setup_seconds(name, seed):
    """(set-up time, host reference time) measured in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["host_s"]


# Host speed.  Other tenants of a shared host change its speed by up to
# half, back and forth within seconds and for tens of seconds at a time,
# longer than a run, and every time a run takes shifts with it.  So an
# untraced run times a fixed reference computation that uses no clsnet
# code: small batched eigh and einsum (as in the crab objective), a
# 90-site eigh (as in find_cls) and a pure-Python loop (as in the
# planner and the search).  It runs between ops, and every
# SAMPLE_INTERVAL_S while an op runs, from a timer signal; op times
# leave out the time spent in it.  The reference took REFERENCE_QUIET_S
# on a quiet two-vCPU KVM guest.  An op's host-corrected time is its
# time times REFERENCE_QUIET_S over the mean reference time from just
# before the op to just after it; a set-up's is corrected by the
# reference time right after it.  The end-to-end times and rates are
# host-corrected; their uncorrected values are printed beside them.
# The per-layer times of a traced run are wall times.
REFERENCE_QUIET_S = 0.0125
SAMPLE_INTERVAL_S = 0.5


@functools.cache
def _reference_inputs():
    """Symmetric matrices: a batch of 32 of size 7, and one of size 90."""
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.standard_normal((32, 7, 7))
    large = rng.standard_normal((90, 90))
    return small + small.transpose(0, 2, 1), large + large.T


def host_reference():
    """Wall seconds of the fixed reference computation."""
    import numpy as np
    small, large = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(24):
        w, V = np.linalg.eigh(small)
        np.einsum("bij,bj,bkj->bik", V, np.exp(-1j * w), V)
    for _ in range(3):
        np.linalg.eigh(large)
    total = 0
    for i in range(60000):
        total += i * i
    return time.perf_counter() - t0


class HostSampler:
    """Reference times taken between and during ops, and a clock that
    leaves out the time spent taking them."""

    def __init__(self):
        self.refs = []
        self.spent = 0.0

    def sample(self, *signal_args):
        """Time the reference once; also the timer signal's handler."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            self.refs.append(host_reference())
            self.spent += time.perf_counter() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def clock(self):
        """perf_counter less the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def on_quiet_host(seconds, host_s):
    """Wall ``seconds`` taken while the reference took ``host_s``,
    corrected to the quiet host."""
    return seconds * REFERENCE_QUIET_S / host_s


def corrected(op):
    """``op`` with its wall time corrected for the host's speed."""
    return dataclasses.replace(op, seconds=on_quiet_host(op.seconds,
                                                         op.host_s))


def run_passes(workload, ctx, inputs, seconds, tracer=None, sampler=None):
    """Run the passes of one run; returns their ops as [pass][op].

    The passes are the first ``seconds / pass_seconds`` of ``inputs``
    (at least one), extended until the workload has a sample of every
    metric.  Op outcomes are fixed by their inputs, so the count of
    passes is too.  With a ``sampler``, each op gets the mean reference
    time from the sample before it to the one after it.
    """
    n = max(1, round(seconds / workload.pass_seconds))
    passes = []
    if sampler is not None:
        sampler.sample()
    for i, pass_input in enumerate(inputs):
        if i >= n and workload.enough(passes):
            break
        ops = []
        for j, op_input in enumerate(pass_input):
            if tracer is not None:
                tracer.op = f"p{i}.{j}"
            first = len(sampler.refs) - 1 if sampler is not None else None
            op = workload.run_op(ctx, op_input)
            if sampler is not None:
                sampler.sample()
                op.host_s = statistics.mean(sampler.refs[first:])
            ops.append(op)
        passes.append(ops)
    return passes


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_ops(passes):
    ops = [op for p in passes for op in p]
    failed = sum(not op.ok for op in ops)
    print(f"ops: attempted {len(ops)}, failed {failed}, "
          f"fail_share {failed / len(ops):.4g}")
    # failures grouped by their message, numbers left out
    notes = {}
    for op in ops:
        if not op.ok:
            key = re.sub(r"\d[\d.e+-]*", "#", op.note)
            notes.setdefault(key, []).append(op.kind)
    for note, kinds in notes.items():
        print(f"  failed x{len(kinds)} ({', '.join(sorted(set(kinds)))}): "
              f"{note}")
    return ops, failed


def untraced(workload, ctx, inputs, seconds, setup_s):
    with HostSampler() as sampler:
        ctx.clock = sampler.clock
        passes = run_passes(workload, ctx, inputs, seconds, sampler=sampler)
    ops, failed = report_ops(passes)
    raw = workload.metrics(passes)
    metrics = workload.metrics([[corrected(op) for op in p]
                                for p in passes])
    refs = sampler.refs
    print(f"host reference {min(refs):.4g} to {max(refs):.4g} s, median "
          f"{statistics.median(refs):.4g} s, n={len(refs)}, "
          f"quiet {REFERENCE_QUIET_S} s")
    for name, (unit, value, n) in raw.items():
        print(f"  uncorrected {name:14s} {_fmt(value):>12s} {unit:6s} n={n}")
    metrics["setup_s"] = ("s", setup_s, SETUP_SAMPLES)
    metrics["fail_share"] = ("share", failed / len(ops), len(ops))
    for name, (unit, value, n) in metrics.items():
        print(f"  {name:26s} {_fmt(value):>12s} {unit:6s} n={n}")
    print(f"  work_per_s is {workload.work_metric}")
    metrics["work_per_s"] = metrics[workload.work_metric]
    return ops, failed, {k: metrics[k] for k in END_TO_END}


def traced(workload, ctx, inputs, seconds, name):
    import tracing
    passes, metrics, tracer = tracing.traced_run(workload, ctx, inputs,
                                                 seconds, run_passes)
    ops, failed = report_ops(passes)
    spans_path = OUT / f"spans-{name}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    for key, (unit, value) in metrics.items():
        note = "  (computed)" if key.startswith("evolve.exp_per_s") else ""
        print(f"  {key:34s} {_fmt(value):>12s} {unit}{note}")
    return ops, failed, {k: (u, v, None) for k, (u, v) in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true",
                   help="set up once, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must lie in (0, 60]")

    wl = import_package()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workload, inputs = set_up(wl, args.workload, args.seed, scratch)
        first_setup = time.perf_counter() - _T0
        host_reference()    # the first call pays numpy's lazy set-up
        first_setup = (first_setup, host_reference())
        if args.setup_sample:
            print(json.dumps(dict(zip(("setup_s", "host_s"),
                                      first_setup))))
            return 0
        print(f"workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        print("machine " + json.dumps(machine_record()))
        ctx = wl.Context(scratch)
        if args.trace:
            ops, failed, metrics = traced(workload, ctx, inputs,
                                          args.seconds, args.workload)
        else:
            samples = [first_setup] + [
                child_setup_seconds(args.workload, args.seed)
                for _ in range(SETUP_SAMPLES - 1)]
            print("setup_s wall samples "
                  + " ".join(f"{t:.4f}" for t, _ in samples))
            setup_s = statistics.median(on_quiet_host(t, h)
                                        for t, h in samples)
            ops, failed, metrics = untraced(workload, ctx, inputs,
                                            args.seconds, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bad = [k for k, (_, v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"bench: no measurement for {bad}", file=sys.stderr)
        return 3
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (u, v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
