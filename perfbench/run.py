"""heptapile benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload single_source_m12 --seed 1 --seconds 30 --trace 0

Workloads: single_source_m12, verify_battery, archive_render (see README.md
beside this file).  The package is imported from the checkout's ``src/``.

One run is one process and one thread, a closed loop: each task starts when
the previous one has returned and been checked.  It sets up the workload in
its own process, draws its inputs from ``--seed``, repeats the set-up a few
times in fresh interpreters, then repeats the task for the rest of
``--seconds``.

Each set-up and each untraced task is timed by ``speed.Sampler``, which
samples the machine's speed with a short reference loop inside the region
and scales the region's time to a nominal speed (see ``speed.py``).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``,
the median scaled set-up, and ``run_s``, the median scaled task time, and
``peak_rss_mib`` of this process.  Wall times are printed and recorded
beside them.  ``--trace 1`` alternates traced and untraced tasks and reports
the per-layer metrics of BENCHMARK.json, medians over the traced tasks, plus
``trace.overhead_ratio``, the median traced task over the median untraced
task, in wall time (the first traced task, which also warms the process up,
left out).

Failed checks are counted in ``failed`` (``checks_failed``) out of
``attempted`` checks.  A run with a failed check prints ``correct: false``
and exits with 1: its timings are not valid.  The last line of standard
output is the JSON result; the line before it, starting ``record``, holds
the raw samples, the seed and the versions.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread per run.  Left alone, numpy's BLAS starts a thread per CPU when
# numpy is imported, and that start-up costs 0.1-0.2 s or half as much,
# depending on the host's state rather than on heptapile.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one set-up in a fresh interpreter: import the package, then build the balls
_SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import speed
with speed.Sampler() as timer:
    import heptapile.cli
    sizes = [heptapile.build_ball(int(m)).n for m in sys.argv[3:]]
print(timer.wall, timer.scaled, timer.reference_s, *sizes)
"""


def _probe_setup(radii) -> tuple:
    """Returns (wall seconds, scaled seconds, reference seconds), ball sizes."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), *map(str, radii)],
        capture_output=True, text=True, timeout=120, check=True)
    wall, scaled, reference, *sizes = proc.stdout.split()
    return (float(wall), float(scaled), float(reference)), [int(n) for n in sizes]


def _setup_here(radii, tracer):
    """The same set-up in this process; returns (sample, package, balls).

    A traced set-up is not sampled, so the sampler's loops stay out of the
    spans; its sample is None.
    """
    timer = None if tracer else speed.Sampler()
    with timer or contextlib.nullcontext():
        sys.path.insert(0, str(SRC))
        import heptapile.cli
        with tracer or contextlib.nullcontext():
            balls = {m: heptapile.build_ball(m) for m in radii}
    sample = (timer.wall, timer.scaled, timer.reference_s) if timer else None
    return sample, heptapile, balls


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _measure(wl, hp, inputs, seconds, trace, checks, probes):
    """Set up ``probes`` more times in fresh interpreters, then run the task.

    Returns the set-up probes, the untraced task samples (wall, scaled and
    reference seconds), the traced task times and the spans of each traced
    task.  The probes count toward ``seconds``.  A task starts only if one
    more, as long as the median round so far, still ends within ``seconds``;
    so a run lasts about ``seconds`` plus its own in-process set-up.
    """
    plain, traced, recorded, rounds = [], [], [], []
    t_start = time.perf_counter()
    setups = [_probe_setup(wl.radii) for _ in range(probes)]
    for i in itertools.count():
        elapsed = time.perf_counter() - t_start
        # a traced run needs a second traced task: the first one also warms up
        if plain and len(traced) >= 2 * trace and (
                elapsed + statistics.median(rounds) > seconds):
            break
        t_round = time.perf_counter()
        tracer = spans.Tracer() if trace and i % 2 == 0 else None
        timer = tracer or speed.Sampler()
        try:
            t0 = time.perf_counter()
            with timer:
                out = wl.task(hp, inputs)
            dt = time.perf_counter() - t0
        except Exception:  # the program failed: report it as a failed check
            traceback.print_exc()
            checks.expect(False, "task raised")
            break
        if tracer is None:
            plain.append((timer.wall, timer.scaled, timer.reference_s))
        else:
            traced.append(dt)
        wl.check(hp, inputs, out, checks)
        if tracer is not None:
            recorded.append(tracer.take())
        del out
        rounds.append(time.perf_counter() - t_round)
    return setups, plain, traced, recorded


def _layer_metrics(hp, wl, inputs, setup_trace, recorded, checks) -> tuple:
    """Median per-layer metrics over the traced tasks, with their count checks."""
    setup_spans, setup_counts = setup_trace
    want = wl.counts(hp, inputs)
    samples = []
    for task_spans, task_counts in recorded:
        all_spans = setup_spans + task_spans
        counts = collections.Counter(setup_counts) + collections.Counter(task_counts)
        metrics = spans.layer_metrics(all_spans, counts)
        for name, value in want.items():
            checks.expect(metrics[name] == value,
                          f"traced {name} {metrics[name]} != closed form {value}")
        radii = [s.meta["m"] for s in all_spans if s.name == "ball.build_ball"]
        built = sum(hp.ball_size(m) for m in radii)
        checks.expect(metrics["ball.vertices_built"] == built,
                      f"traced ball.vertices_built {metrics['ball.vertices_built']} "
                      f"!= sum of ball_size {built}")
        samples.append(metrics)
    combined = {}
    for name in samples[0]:
        values = [m[name] for m in samples]
        combined[name] = max(values) if name in spans.MAX_METRICS \
            else statistics.median(values)
    return combined, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "heptapile" / "__init__.py").is_file():
        print(f"error: no heptapile package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}

    wl = WORKLOADS[args.workload]
    checks = Checks()
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # the probes inherit it
    setup_tracer = spans.Tracer() if args.trace else None
    here, hp, balls = _setup_here(wl.radii, setup_tracer)
    if not Path(hp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: heptapile imported from {hp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        inputs = wl.prepare(hp, balls, args.seed, Path(tmp))
        # a traced run reports no setup_s, so it sets up once
        probes, plain, traced, recorded = _measure(
            wl, hp, inputs, args.seconds, args.trace, checks,
            0 if args.trace else wl.setup_repeats - 1)
    want_sizes = [hp.ball_size(m) for m in wl.radii]
    for _, sizes in probes:
        checks.expect(sizes == want_sizes, f"set-up built {sizes}, want {want_sizes}")
    checks.expect([b.n for b in balls.values()] == want_sizes, "set-up ball sizes")
    setups = ([here] if here else []) + [sample for sample, _ in probes]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not plain or len(traced) < 2 * args.trace:
        print("error: the task failed before the run had its samples", file=sys.stderr)
        return 1

    if args.trace:
        metrics, layer_samples = _layer_metrics(
            hp, wl, inputs, setup_tracer.take(), recorded, checks)
        metrics["trace.overhead_ratio"] = (statistics.median(traced[1:])
                                           / statistics.median(w for w, _, _ in plain))
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        metrics = {"setup_s": statistics.median(s for _, s, _ in setups),
                   "run_s": statistics.median(s for _, s, _ in plain),
                   "peak_rss_mib": peak_rss_mib}
        layer_samples = []
        wanted = [m["name"] for m in declared["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                           f"disagree with BENCHMARK.json")

    valid = checks.failed == 0
    numpy = sys.modules["numpy"]
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  python={platform.python_version()}  "
          f"numpy={numpy.__version__}  nproc={len(os.sched_getaffinity(0))}")
    counts = {"setup_s": len(setups), "run_s": len(plain)}
    for name in wanted:
        print(f"{name:<26} {metrics[name]:>16.6f} {units[name]}"
              + (f"  (median of {counts[name]}; scaled)" if name in counts else ""))
    for name, samples in (("setup", setups), ("run", plain)):
        if samples:
            print(f"{name + '_wall_s':<26} {statistics.median(w for w, _, _ in samples):>16.6f}"
                  f" s  (median of {len(samples)}; wall time, not gated)")
    print(f"{'reference_s':<26} {statistics.median(r for _, _, r in plain):>16.6f} s  "
          f"(median over the tasks; nominal {speed.REF_NOMINAL_S} s)")
    print(f"{'checks_failed':<26} {checks.failed:>16d} count  "
          f"(of {checks.total} checks{'' if valid else '; timings INVALID'})")
    for msg in checks.messages[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "valid": valid,
        "checks": checks.total, "checks_failed": checks.failed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
        "sample_counts": counts, "ref_nominal_s": speed.REF_NOMINAL_S,
        "setup_samples": setups, "run_samples": plain,
        "traced_wall_samples": traced,
        "layer_samples": layer_samples, "peak_rss_mib": peak_rss_mib,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": valid, "attempted": checks.total, "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0 if valid else 1


if __name__ == "__main__":
    sys.exit(main())
