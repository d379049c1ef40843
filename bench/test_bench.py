"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".bench_work"


def run_bench(workload, trace, seed=3, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs_and_outputs():
    first = result_of(run_bench("eval-retrieval", 0, seed=5))
    again = result_of(run_bench("eval-retrieval", 0, seed=5))
    other = result_of(run_bench("eval-retrieval", 0, seed=6))
    assert first["metrics"]["recall_at_1"] == again["metrics"]["recall_at_1"]
    assert first["metrics"]["recall_at_1"] != other["metrics"]["recall_at_1"]


def test_fails_without_the_program_source():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        completed = run_bench("category-xbm", 0, cwd=bare, script=bare / "bench" / "run.py")
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


@pytest.fixture
def bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        del sys.path[:2]


def test_eval_checks_catch_a_wrong_metric(bench_modules):
    _, workloads = bench_modules
    workload = workloads.SMOKE["eval-retrieval"]
    workdir = WORK / "wrong-metric"
    try:
        inputs = workload.setup(1, workdir)
        assert workload.call(inputs).failures == []
        for label, _, out_dir in inputs.commands[:2]:
            path = out_dir / "metrics.json"
            metrics = json.loads(path.read_text(encoding="utf-8"))
            key = "recall" if label == "eval_category" else "map"
            first = sorted(metrics[key])[0]
            metrics[key][first] = metrics[key][first] * (1 - 1e-12)
            path.write_text(json.dumps(metrics), encoding="utf-8")
            call = workloads.Call(seconds=0.0, units=0)
            assert workload._verify(label, out_dir, inputs, call) is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_tracer_restores_every_patched_name(bench_modules):
    tracing, _ = bench_modules
    import spherekit.cli
    import spherekit.memory
    import spherekit.trainer

    before = (spherekit.trainer.contrastive_loss, spherekit.cli.retrieve,
              spherekit.memory.MemoryBank.__dict__["view"])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert spherekit.trainer.contrastive_loss is not before[0]
        assert spherekit.cli.retrieve is not before[1]
    after = (spherekit.trainer.contrastive_loss, spherekit.cli.retrieve,
             spherekit.memory.MemoryBank.__dict__["view"])
    assert after == before
