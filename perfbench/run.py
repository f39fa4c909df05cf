"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload amp_fleet --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is
imported from ``src/``.  Each repeat builds a fresh fleet (timed as
set-up) and runs the workload on it (timed as the run), until
``--seconds`` of repeats have passed.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced repeats, checks
that they agree bit for bit, and holds the per-layer metrics instead.

Set-up, run and traced times are host time.  ``nmse``,
``energy_nj_per_mvm`` and the ``serving.sim_latency_*`` metrics are
modelled or simulated and repeat exactly for a seed.  Each run also
stores its stamped record in ``.perfbench/results.db`` (list the runs
with ``PYTHONPATH=src python -m repro.results --db .perfbench/results.db
runs``), and a traced run writes its spans beside
it as ``[id, parent, layer, name, thread, start, end, ref]`` rows, one
list per traced repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# BLAS runs one thread per caller: amp_fleet's two shard threads then
# use the two cores, and host times do not depend on how many threads
# OpenBLAS guesses this machine has.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3
WORKLOAD_NAMES = ("amp_fleet", "serve_stream", "fleet_lifetime")
END_TO_END = (
    ("setup_s", "s"),
    ("mvms_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("nmse", "ratio"),
    ("energy_nj_per_mvm", "nJ"),
)


def git_sha() -> str | None:
    if os.environ.get("REPRO_GIT_SHA"):
        return os.environ["REPRO_GIT_SHA"]
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_stamp(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(workload, inputs, tracer=None):
    """One fresh fleet: returns ``(setup_s, run_s, outcome)``.

    With a tracer, the set-up and the run each sit under a root span so
    that the per-layer spans of a repeat hang off one tree.  The previous
    repeat's fleet is collected first (a fleet and its maintenance policy
    refer to each other), so peak memory is one repeat's, whatever the
    collector's timing.
    """
    gc.collect()
    t0 = time.perf_counter()
    root = tracer.open("perfbench", "setup") if tracer else None
    state = workload.setup(inputs)
    if tracer:
        tracer.close(root)
    t1 = time.perf_counter()
    root = tracer.open("perfbench", "run") if tracer else None
    outcome = workload.run(inputs, state)
    if tracer:
        tracer.close(root)
    return t1 - t0, time.perf_counter() - t1, outcome


def untraced(workload, inputs, seconds):
    """Repeat until ``seconds`` have passed, and at least ``MIN_REPEATS`` times."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_REPEATS or time.perf_counter() < deadline:
        samples.append(repeat(workload, inputs))
    return samples


def traced(workload, inputs, seconds):
    """Alternate untraced and traced repeats after one warm-up repeat.

    Returns ``(warm-up, untraced, traced, spans of each traced repeat)``;
    the warm-up absorbs first-call costs so that neither side of a pair
    pays them.
    """
    import layers
    import spans

    warm = repeat(workload, inputs)
    plain, marked, recorded = [], [], []
    deadline = time.perf_counter() + seconds
    while not marked or time.perf_counter() < deadline:
        plain.append(repeat(workload, inputs))
        tracer = spans.Tracer()
        saved = layers.install(tracer)
        try:
            marked.append(repeat(workload, inputs, tracer))
        finally:
            layers.remove(saved)
        recorded.append(tracer.spans)
    return warm, plain, marked, recorded


def end_to_end(samples) -> dict[str, float]:
    """Host times as medians over the repeats; the modelled figures
    repeat exactly, so the first repeat's stand for all."""
    first = samples[0][2]
    return {
        "setup_s": statistics.median(s for s, _, _ in samples),
        "mvms_per_s": statistics.median(o.mvms / r for _, r, o in samples),
        "ops_per_s": statistics.median(o.ops / r for _, r, o in samples),
        "peak_rss_mb": peak_rss_mb(),
        "nmse": first.nmse,
        "energy_nj_per_mvm": first.energy_nj_per_mvm,
    }


def verdict(samples, identity_check):
    """``(correct, attempted, failed, failed checks)`` over all repeats.

    Every repeat starts from the same inputs on a fresh fleet, so its
    fingerprint must equal the first repeat's bit for bit; a mismatch
    fails the check named ``identity_check``.  A run whose checks fail
    counts every operation it attempted as failed.
    """
    reference = samples[0][2].fingerprint
    failing = sorted(
        {name for _, _, o in samples for name, ok in o.checks.items() if not ok}
    )
    if any(o.fingerprint != reference for _, _, o in samples):
        failing.append(identity_check)
    attempted = sum(o.attempted for _, _, o in samples)
    failed = sum(o.failed for _, _, o in samples)
    correct = not failing
    return correct, attempted, failed if correct else attempted, failing


def record(stamp, report, rows) -> None:
    """Store the run in ``.perfbench/results.db``; traced spans go beside it."""
    from repro.results import ResultsStore

    OUT_DIR.mkdir(exist_ok=True)
    if rows is not None:
        stem = f"{stamp['workload']}-seed{stamp['seed']}"
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(rows) + "\n")
    with ResultsStore(OUT_DIR / "results.db") as store:
        store.record_run(
            f"perfbench_{stamp['workload']}",
            "perfbench",
            config=stamp,
            metrics={k: v for k, v in report["metrics"].items() if math.isfinite(v)},
            artifacts={"report": report},
            git_sha=stamp["git_sha"] or "unknown",
        )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import layers
    import scenarios
    from spans import as_rows

    stamp = environment_stamp(args)
    workload = scenarios.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    rows = None
    if args.trace == 0:
        samples = untraced(workload, inputs, args.seconds)
        correct, attempted, failed, failing = verdict(samples, "repeats_identical")
        metrics = end_to_end(samples)
        units = dict(END_TO_END)
        first = samples[0][2]
        report_extra = {
            workload.ops_name: metrics["ops_per_s"],
            "failed_share": failed / attempted,
            "repeats": len(samples),
            **first.layer_counts,
        }
    else:
        warm, plain, marked, recorded = traced(workload, inputs, args.seconds)
        correct, attempted, failed, failing = verdict(
            [warm, *plain, *marked], "traced_identical_to_untraced"
        )
        by_layer = layers.layer_metrics(
            recorded, marked[0][2].layer_counts, layers.dense_floor_s(recorded[-1])
        )
        base = statistics.median(s + r for s, r, _ in plain)
        by_layer["trace.overhead_share"] = (
            statistics.median(s + r for s, r, _ in marked) - base
        ) / base
        metrics = {name: by_layer[name] for name, _ in layers.PER_LAYER}
        units = dict(layers.PER_LAYER)
        rows = [as_rows(run) for run in recorded]
        report_extra = {"repeats": len(marked)}
    report = {
        "stamp": stamp,
        "correct": correct,
        "failed_checks": failing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": report_extra,
    }
    record(stamp, report, rows)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
