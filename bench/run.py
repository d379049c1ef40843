"""Seeded benchmark of spherekit's training and evaluation paths.

Run from the repository root:

    python3 bench/run.py --workload category-xbm --seed 1 --seconds 32 --trace 0

Workloads: ``category-xbm``, ``particular-mine`` and ``eval-retrieval`` (see
``workloads.py`` and ``README.md`` here). Each run builds its inputs from
``--seed``, runs one closed-loop caller in this process for about
``--seconds`` (at least three calls), checks every output and prints its
metrics by name with their units. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced calls, so it also
reports the tracing overhead. ``--smoke`` runs tiny inputs, for tests.

End-to-end timings are host-normalized: each is scaled by a fixed reference
loop timed beside it (``workloads.reference_seconds``), so the drift of a
shared host's core speed cancels. The text lines above the JSON also give
them as measured.

The program is imported from ``src/`` beside this directory, never from an
installed copy; without it the benchmark exits with status 2. BLAS runs on
one thread, pinned before numpy loads, so timings do not depend on the core
count and results do not depend on the thread count.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from statistics import fmean, median  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("category-xbm", "particular-mine", "eval-retrieval")
SETUP_REPEATS = 5
MIN_CALLS = 3

# Layers whose self time is reported, per optimizer step on the training
# workloads and per CLI command on eval-retrieval.
SELF_TIMED = [
    "trainer.train_run",
    "trainer.sample_category_batch",
    "trainer.mine_hard_negatives",
    "trainer.TupleSample",
    "trainer.forward",
    "trainer.EncoderHead.apply",
    "trainer.EncoderHead.backward",
    "trainer.adamw_step",
    "trainer.step",
    "objective.contrastive_loss",
    "objective.koleo_loss",
    "objective.backprop_through_normalization_rows",
    "memory.MemoryBank.view",
    "memory.MemoryBank.enqueue",
    "memory.MomentumTrack.update",
    "diagnostics.step_gradient_dispersion",
    "diagnostics.similarity_histograms",
    "diagnostics.pca_energy_report",
    "geometry.normalize_rows",
    "geometry.pca_fit",
    "geometry.pca_transform_rows",
    "evaluation.retrieve",
    "evaluation.recall_at_k",
    "evaluation.mean_average_precision",
    "io.read_features",
    "io.read_ground_truth",
    "io.write_json_atomic",
    "io.write_csv_atomic",
]
# Self time per invocation of the command itself.
CLI_COMMANDS = ["cli.eval", "cli.diagnose"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_model": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer, workload, plain, traced):
    selfs = tracer.self_times()
    steps = selfs.get("trainer.step", (0.0, 0))[1]
    commands = sum(selfs.get(name, (0.0, 0))[1] for name in CLI_COMMANDS)
    per = steps or commands
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_ms"] = (1000 * selfs.get(name, (0.0, 0))[0] / per, "ms")
    for name in CLI_COMMANDS:
        total, calls = selfs.get(name, (0.0, 0))
        out[f"{name}.self_ms"] = (1000 * total / calls if calls else 0.0, "ms")
    step_ms = [1000 * d for d in tracer.durations("trainer.step")]
    out["trainer.step.ms_p50"] = (median(step_ms) if step_ms else 0.0, "ms")
    out["trainer.step.ms_p95"] = (percentile(step_ms, 0.95), "ms")
    out["trainer.steps"] = (steps / len(traced), "count")

    epochs = workload.epochs_per_call * len(traced)
    mined = workload.rows_mined_per_epoch()
    counts = tracer.counts
    mining_calls = selfs.get("trainer.mine_hard_negatives", (0.0, 0))[1]
    out["trainer.mine_hard_negatives.calls"] = (mining_calls / epochs if epochs else 0.0, "count")
    out["trainer.particular_rows_mined"] = (mined, "count")
    out["trainer.particular_rows_kept_frac"] = (
        counts["step_rows"] / (epochs * mined) if epochs and mined else 0.0, "ratio")
    out["objective.batch_pairs_per_step"] = (counts["batch_pairs"] / steps if steps else 0.0,
                                             "count")
    out["objective.memory_pairs_per_step"] = (counts["memory_pairs"] / steps if steps else 0.0,
                                              "count")
    out["memory.view_bytes_per_step"] = (counts["view_bytes"] / steps if steps else 0.0, "bytes")
    out["diagnostics.gamma_measured_frac"] = (
        counts["gamma_measured"] / steps if steps else 0.0, "ratio")
    out["evaluation.score_matrix_bytes"] = (counts["score_matrix_bytes_max"], "bytes")

    plain_s = median([c.seconds for c in plain])
    traced_s = median([c.seconds for c in traced])
    out["tracing.untraced_call_s"] = (plain_s, "s")
    out["tracing.overhead_s"] = (traced_s - plain_s, "s")
    out["tracing.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    out["tracing.spans_per_call"] = (len(tracer.spans) / len(traced), "count")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spherekit" / "__init__.py").is_file():
        print(f"error: no spherekit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spherekit

    if Path(spherekit.__file__).resolve().parent != (SRC / "spherekit").resolve():
        print(f"error: spherekit imported from {spherekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    workroot = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wall_start = time.perf_counter()
    tracer = tracing.Tracer()
    try:
        setup_s, setup_host_s = [], []
        workloads.reference_seconds()  # the first pass touches its buffers
        before = workloads.reference_seconds()
        for i in range(SETUP_REPEATS if args.trace == 0 else 1):
            if i:
                shutil.rmtree(workroot / f"setup-{i - 1}", ignore_errors=True)
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workroot / f"setup-{i}")
            setup_s.append(time.perf_counter() - start)
            after = workloads.reference_seconds()
            setup_host_s.append((before + after) / 2)
            before = after
        warmup = [workloads.run_call(workload, inputs) for _ in range(workload.warmup_calls)]
        if args.trace == 0:
            plain, traced = workloads.closed_loop(workload, inputs, args.seconds, MIN_CALLS), []
        else:
            plain, traced = workloads.traced_loop(workload, inputs, args.seconds, tracer)
        calls = warmup + plain + traced
        # A call that raised has no timing; one with wrong outputs still has.
        timed_plain = [c for c in plain if math.isfinite(c.seconds)]
        timed_traced = [c for c in traced if math.isfinite(c.seconds)]
        if not timed_plain or (args.trace and not timed_traced):
            problems = [f for c in calls for f in c.failures]
            print("error: every call raised:\n" + "\n".join(problems), file=sys.stderr)
            return 1
        finish_attempted, finish_failures, quality = workload.finish(
            inputs, timed_plain + timed_traced)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    wall_s = time.perf_counter() - wall_start

    attempted = sum(c.attempted for c in calls) + finish_attempted
    failed = sum(min(len(c.failures), c.attempted) for c in calls) + min(
        len(finish_failures), finish_attempted)
    headline = workload.headline(timed_plain, quality)
    if args.trace == 0:
        # Timings are host-normalized (see workloads.reference_seconds); the
        # headline lines give them as measured. Calls are averaged: with only
        # three to fifteen per run the mean is steadier than the median.
        norm = workloads.host_normalized
        metrics = {
            "setup_s": (median([norm(t, h) for t, h in zip(setup_s, setup_host_s)]), "s"),
            "throughput_per_s": (fmean([
                workload.throughput(c) * c.host_s / workloads.REFERENCE_NOMINAL_S
                for c in timed_plain]), "1/s"),
            "call_s": (fmean([norm(c.seconds, c.host_s) for c in timed_plain]), "s"),
            "recall_at_1": (quality, "ratio"),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        headline.update(
            throughput_per_s_measured=(fmean([workload.throughput(c) for c in timed_plain]),
                                       "1/s"),
            call_s_measured=(fmean([c.seconds for c in timed_plain]), "s"),
            setup_s_measured=(median(setup_s), "s"),
            reference_s=(median([c.host_s for c in timed_plain]), "s"),
            peak_rss_mb=metrics["peak_rss_mb"],
        )
    else:
        metrics = layer_metrics(tracer, workload, timed_plain, timed_traced)
    headline["error_rate"] = (failed / attempted, "ratio")
    env = environment()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(warmup)} warm-up, {len(plain)} untraced"
          f" and {len(traced)} traced"
          f" calls, {wall_s:.1f} s wall")
    for problem in [f for c in calls for f in c.failures] + finish_failures:
        print(f"FAILED: {problem}")
    print(f"error_rate {failed}/{attempted} operations failed or wrong")
    if args.trace == 0:
        print("headline (tracing off):")
        for name, (value, unit) in headline.items():
            print(f"  {name:<32} {value:.6g} {unit}")
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "headline": {k: {"value": v, "unit": u} for k, (v, u) in headline.items()},
              "env": env,
              "calls": [{"seconds": c.seconds, "host_s": c.host_s, "units": c.units,
                         "parts": c.parts,
                         "traced": i >= len(plain), "failures": c.failures}
                        for i, c in enumerate(plain + traced)],
              "spans": tracer.dump()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / f"{name}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
