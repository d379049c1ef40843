"""The benchmark's three workloads, each a closed loop of public calls.

A workload builds its inputs from the seed in :meth:`setup` (the program sees
only those inputs), performs one closed-loop call in :meth:`call`, timing only
the program's own work and checking its outputs outside the timed region,
and runs the checks that need several calls in :meth:`finish`.

* ``category-xbm``: category training against a memory the size of the
  dataset, with momentum and gamma measured every step. The sampler, the
  memory view and the memory term of the loss dominate; mining, the CLI and
  io are bypassed.
* ``particular-mine``: particular-mode training without memory or momentum.
  Hard-negative mining and tuple construction dominate; the sampler, the
  memory and the memory term are bypassed.
* ``eval-retrieval``: ``spherekit eval`` (category, then particular) and
  ``spherekit diagnose`` on files written in set-up. Ranking, metrics,
  diagnostics, geometry and io run; no trainer code does.
"""

from __future__ import annotations

import csv
import ctypes
import gc
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import oracle

import spherekit
from spherekit import cli, io as sk_io
from spherekit.config import HeadSpec, RunConfig
from spherekit.trainer import EncoderHead, LabeledFeatureDataset

RECALL_KS = (1, 2, 4, 8)
# The paper's per-epoch pair budget at particular_scale=1; each pair becomes
# a tuple of anchor, positive and five mined negatives.
PAIRS_PER_EPOCH_FULL = 2000
ROWS_PER_TUPLE = 7


@dataclass
class Call:
    """One closed-loop call: timed seconds, work done and checks."""

    seconds: float
    units: int
    parts: dict[str, float] = field(default_factory=dict)
    attempted: int = 1
    failures: list[str] = field(default_factory=list)
    quality: float | None = None
    output: object = None
    host_s: float = math.nan  # reference_seconds() around this call


def make_blobs(rng, num_classes, per_class, dim, sigma):
    """Class means uniform on the unit sphere plus isotropic Gaussian noise."""
    means = rng.standard_normal((num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    features = means[labels] + sigma * rng.standard_normal((labels.size, dim))
    return means, features, labels


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def release_free_memory():
    """Collect garbage and hand free heap pages back to the system.

    Every call (and every CLI command) then starts from the same resident
    set, so peak RSS measures what the call itself holds, not what earlier
    calls left in the heap.
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


# What one reference_seconds() pass takes on a quiet core of the 2-vCPU
# Intel Xeon VM the bounds were set on. Timings are reported in seconds of a
# host running at that speed.
REFERENCE_NOMINAL_S = 0.2
_REF_RNG = np.random.default_rng(20240611)
_REF_A = _REF_RNG.standard_normal((64, 384))
_REF_B = _REF_RNG.standard_normal((384, 128))
_REF_SMALL = _REF_RNG.standard_normal((2048, 128))  # 2 MB, stays in cache
_REF_LARGE = _REF_RNG.standard_normal((16384, 128))  # 16 MB, like a full memory bank
# Output buffers of the large passes, allocated once so that no pass pays
# for page faults and the heap the workloads leave behind does not matter.
_REF_SCORES = np.empty((64, 16384))
_REF_COPY = np.empty((8192, 128))


def reference_seconds():
    """Time one pass of a fixed loop that uses no spherekit code.

    The loop mixes what the workloads spend their time on: small matrix
    products, elementwise math, stable argsorts, fancy indexing and Python
    iteration on cache-sized arrays, and products, elementwise passes and
    copies over arrays the size of a memory bank, which also feel memory
    bandwidth taken by other tenants. A shared host's core speed drifts by
    20-40% over minutes, and the reference slows with it, so a timing scaled
    by ``REFERENCE_NOMINAL_S / reference_seconds()`` measured beside it keeps
    the program's own speed and loses most of the host's drift. The first
    pass in a process also touches the buffers; time from the second on.
    """
    start = time.perf_counter()
    for _ in range(15):
        S = np.tanh(_REF_A @ _REF_B) @ _REF_SMALL.T
        order = np.argsort(-S, axis=1, kind="stable")
        float(S[np.arange(S.shape[0]), order[:, 0]].sum())
        sum(float(row[:8].sum()) for row in order[::8])
    for _ in range(4):
        np.matmul(np.tanh(_REF_A @ _REF_B), _REF_LARGE.T, out=_REF_SCORES)
        np.subtract(_REF_SCORES, 0.5, out=_REF_SCORES)
        np.maximum(_REF_SCORES, 0.0, out=_REF_SCORES)
        float(np.square(_REF_SCORES, out=_REF_SCORES).sum())
        np.copyto(_REF_COPY, _REF_LARGE[::2])
        float(_REF_COPY.sum())
    return time.perf_counter() - start


def host_normalized(seconds, host_s):
    """``seconds`` measured while the reference took ``host_s``, in seconds
    of a host on which it takes ``REFERENCE_NOMINAL_S``."""
    return seconds * REFERENCE_NOMINAL_S / host_s


def run_call(workload, inputs, tracer=None):
    """One call; an exception counts as failed operations, not a crashed run."""
    release_free_memory()
    try:
        return workload.call(inputs, tracer)
    except Exception:  # the loop must keep running to report the failure
        traceback.print_exc()
        return Call(seconds=math.nan, units=0, attempted=workload.ops_per_call,
                    failures=[traceback.format_exc(limit=3)])


def _keep_going(start, rounds, seconds):
    """True while one more round is expected to end less than half a round
    after ``seconds``, so a run lasts about ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + median(rounds) / 2 < seconds


def closed_loop(workload, inputs, seconds, min_calls):
    """Call for about ``seconds``, at least ``min_calls`` times.

    The reference loop runs before the first call and after every call; each
    call's ``host_s`` is the mean of the two passes around it.
    """
    calls, rounds = [], []
    before = reference_seconds()
    start = time.perf_counter()
    while len(calls) < min_calls or _keep_going(start, rounds, seconds):
        begin = time.perf_counter()
        call = run_call(workload, inputs)
        rounds.append(time.perf_counter() - begin)
        after = reference_seconds()
        call.host_s = (before + after) / 2
        calls.append(call)
        before = after
    return calls


def traced_loop(workload, inputs, seconds, tracer):
    """Alternate untraced and traced calls for about ``seconds``; returns both lists."""
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while not traced or _keep_going(start, rounds, seconds):
        begin = time.perf_counter()
        plain.append(run_call(workload, inputs))
        tracer.new_run()
        with tracer.installed():
            traced.append(run_call(workload, inputs, tracer))
        rounds.append(time.perf_counter() - begin)
    return plain, traced


@dataclass(frozen=True)
class TrainingScale:
    num_classes: int
    per_class: int
    feature_dim: int
    out_dim: int
    holdout_classes: int
    noise_sigma: float
    iterations: int


@dataclass
class TrainingInputs:
    config: RunConfig
    train: LabeledFeatureDataset
    heldout: LabeledFeatureDataset


class TrainingWorkload:
    """Repeated ``train_run`` calls on one seeded dataset."""

    ops_per_call = 1
    warmup_calls = 0

    def __init__(self, name, scale: TrainingScale, **run_options):
        self.name = name
        self.scale = scale
        self.run_options = run_options

    def setup(self, seed, workdir):
        s = self.scale
        rng = np.random.default_rng([seed, 0])
        _, features, labels = make_blobs(
            rng, s.num_classes, s.per_class, s.feature_dim, s.noise_sigma
        )
        train = labels < s.num_classes - s.holdout_classes
        config = RunConfig(
            iterations=s.iterations,
            seed=seed,
            head=HeadSpec(out_dim=s.out_dim),
            **self.run_options,
        )
        return TrainingInputs(
            config=config,
            train=LabeledFeatureDataset(features[train], labels[train]),
            heldout=LabeledFeatureDataset(features[~train], labels[~train]),
        )

    @property
    def epochs_per_call(self):
        return self.scale.iterations if self.run_options["mode"] == "particular" else 0

    def rows_mined_per_epoch(self):
        if not self.epochs_per_call:
            return 0
        pairs = max(1, round(PAIRS_PER_EPOCH_FULL * self.run_options["particular_scale"]))
        return pairs * ROWS_PER_TUPLE

    def call(self, inputs, tracer=None):
        start = time.perf_counter()
        if tracer is None:
            model, trace = spherekit.train_run(inputs.config, inputs.train)
        else:
            model, trace = tracer.call(
                "trainer.train_run", spherekit.train_run, inputs.config, inputs.train
            )
        seconds = time.perf_counter() - start
        call = Call(seconds=seconds, units=len(trace.rows), output=(model, trace))
        if not trace.rows or not np.all(np.isfinite(trace.losses)):
            call.failures.append("loss trace is empty or not finite")
        return call

    def finish(self, inputs, calls):
        """Check reruns and held-out recall: (attempted, failures, recall@1).

        A call whose head or loss trace differs from the first call's (same
        config, same seed) is marked failed.
        """
        model, trace = calls[0].output
        for i, other in enumerate(calls[1:], start=1):
            other_model, other_trace = other.output
            same_head = all(
                np.array_equal(p, other_model.head.params()[k])
                for k, p in model.head.params().items()
            )
            if not same_head or not np.array_equal(trace.losses, other_trace.losses):
                other.failures.append(f"call {i} differs from call 0 with the same seed")
        failures = []
        Z = model.embed(inputs.heldout.features)
        labels = inputs.heldout.labels
        rankings = spherekit.retrieve(spherekit.RetrievalIndex(Z), Z, exclude_self=True)
        recall = spherekit.recall_at_k(rankings, labels, RECALL_KS)
        expected = oracle.leave_one_out_recall(Z, labels, RECALL_KS)
        if recall != expected:
            failures.append(f"held-out recall {recall} != oracle {expected}")
        return 1, failures, recall[1]

    def throughput(self, call):
        """Optimizer steps per second of ``train_run``."""
        return call.units / call.seconds

    def headline(self, calls, quality):
        steps_per_s = [c.units / c.seconds for c in calls]
        out = {"train_steps_per_s": (median(steps_per_s), "1/s")}
        if self.epochs_per_call:
            epoch_s = [c.seconds / self.epochs_per_call for c in calls]
            out["epoch_s"] = (median(epoch_s), "s")
        out["heldout_recall_at_1"] = (quality, "ratio")
        return out


@dataclass(frozen=True)
class EvalScale:
    num_classes: int
    per_class: int
    feature_dim: int
    out_dim: int
    num_queries: int
    pca_out_dim: int
    noise_sigma: float


@dataclass
class EvalInputs:
    commands: list[tuple[str, list[str], Path]]
    gallery: np.ndarray
    labels: np.ndarray
    queries: np.ndarray
    ground_truth: dict[int, dict[str, list[int]]]
    W: np.ndarray
    b: np.ndarray
    expected: dict | None = None


class EvalWorkload:
    """``spherekit eval`` twice and ``spherekit diagnose`` once per call."""

    name = "eval-retrieval"
    epochs_per_call = 0
    ops_per_call = 3
    # The first round runs about 8% slower than the rest (first use of the
    # CLI path); it is checked but not timed.
    warmup_calls = 1

    def __init__(self, scale: EvalScale):
        self.scale = scale

    def rows_mined_per_epoch(self):
        return 0

    def setup(self, seed, workdir):
        s = self.scale
        rng = np.random.default_rng([seed, 1])
        means, gallery, labels = make_blobs(
            rng, s.num_classes, s.per_class, s.feature_dim, s.noise_sigma
        )
        query_labels = np.arange(s.num_queries, dtype=np.int64) % s.num_classes
        queries = means[query_labels] + s.noise_sigma * rng.standard_normal(
            (s.num_queries, s.feature_dim)
        )
        # Files hold float32; the oracle works from the same rounded values.
        gallery = gallery.astype(np.float32).astype(np.float64)
        queries = queries.astype(np.float32).astype(np.float64)
        ground_truth = {}
        for q, c in enumerate(query_labels):
            rows = rng.permutation(np.flatnonzero(labels == c)).tolist()
            # Every tenth query has no hard positive, so the hard protocol
            # skips it and the skipped list is checked too.
            n_hard = 0 if q % 10 == 0 else 2
            ground_truth[q] = {
                "easy": sorted(rows[: 6 - n_hard]),
                "hard": sorted(rows[6 - n_hard : 6]),
                "junk": sorted(rows[6:]),
            }
        W = rng.standard_normal((s.out_dim, s.feature_dim)) / math.sqrt(s.feature_dim)
        b = np.zeros(s.out_dim)

        workdir.mkdir(parents=True, exist_ok=True)
        path = {name: str(workdir / name) for name in (
            "gallery.desc", "gallery.labels", "queries.desc", "queries.labels",
            "gt.json", "head.json", "category.json", "particular.json",
        )}
        sk_io.write_features(path["gallery.desc"], gallery)
        sk_io.write_labels(path["gallery.labels"], labels)
        sk_io.write_features(path["queries.desc"], queries)
        sk_io.write_labels(path["queries.labels"], query_labels)
        sk_io.write_ground_truth(
            path["gt.json"],
            {q: spherekit.QueryGroundTruth(**sets) for q, sets in ground_truth.items()},
        )
        sk_io.write_json_atomic(path["head.json"], {"head": EncoderHead([(W, b)]).to_dict()})
        data = {
            "train_features": path["gallery.desc"],
            "train_labels": path["gallery.labels"],
            "eval_features": path["gallery.desc"],
            "eval_labels": path["gallery.labels"],
        }
        base = {"iterations": 0, "seed": seed, "head": {"out_dim": s.out_dim}}
        category = {**base, "mode": "category", "eval_ks": list(RECALL_KS), "data": data}
        particular = {
            **base,
            "mode": "particular",
            "pca_out_dim": s.pca_out_dim,
            "data": {
                **data,
                "query_features": path["queries.desc"],
                "query_labels": path["queries.labels"],
                "ground_truth": path["gt.json"],
            },
        }
        for name, config in (("category.json", category), ("particular.json", particular)):
            Path(path[name]).write_text(json.dumps(config), encoding="utf-8")
        out = {name: workdir / f"out-{name}" for name in ("category", "particular", "diagnose")}
        model = ["--model", path["head.json"]]
        commands = [
            ("eval_category", ["eval", "--config", path["category.json"], *model,
                               "--out-dir", str(out["category"])], out["category"]),
            ("eval_particular", ["eval", "--config", path["particular.json"], *model,
                                 "--out-dir", str(out["particular"])], out["particular"]),
            ("diagnose", ["diagnose", *model, "--features", path["gallery.desc"],
                          "--labels", path["gallery.labels"],
                          "--out-dir", str(out["diagnose"])], out["diagnose"]),
        ]
        return EvalInputs(commands, gallery, labels, queries, ground_truth, W, b)

    def _expected(self, inputs):
        """Oracle values, computed once per set of inputs."""
        if inputs.expected is None:
            s = self.scale
            E_g = inputs.gallery @ inputs.W.T + inputs.b
            E_q = inputs.queries @ inputs.W.T + inputs.b
            Z = E_g / np.linalg.norm(E_g, axis=1, keepdims=True)
            G = oracle.pca_project(E_g, E_g, s.pca_out_dim)
            Q = oracle.pca_project(E_g, E_q, s.pca_out_dim)
            maps, skipped = {}, {}
            for split in ("medium", "hard"):
                maps[split], skipped[split] = oracle.mean_average_precision(
                    Q, G, inputs.ground_truth, split
                )
            sizes = np.bincount(inputs.labels)
            positive_pairs = int(np.sum(sizes * (sizes - 1) // 2))
            n = inputs.labels.size
            inputs.expected = {
                "recall": {
                    str(k): v
                    for k, v in oracle.leave_one_out_recall(Z, inputs.labels, RECALL_KS).items()
                },
                "map": maps,
                "skipped_queries": skipped,
                "pair_counts": (positive_pairs, n * (n - 1) // 2 - positive_pairs),
            }
        return inputs.expected

    def _verify(self, label, out_dir, inputs, call):
        expected = self._expected(inputs)
        if label == "eval_category":
            metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
            call.quality = metrics["recall"]["1"]
            if metrics["recall"] != expected["recall"]:
                return f"recall {metrics['recall']} != oracle {expected['recall']}"
        elif label == "eval_particular":
            metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
            got = (metrics["map"], metrics["skipped_queries"])
            if got != (expected["map"], expected["skipped_queries"]):
                return f"mAP {got} != oracle {(expected['map'], expected['skipped_queries'])}"
        else:
            with open(out_dir / "hist.csv", newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            counts = (
                sum(int(r["positive_count"]) for r in rows),
                sum(int(r["negative_count"]) for r in rows),
            )
            if counts != expected["pair_counts"]:
                return f"histogram pair counts {counts} != {expected['pair_counts']}"
        return None

    def call(self, inputs, tracer=None):
        call = Call(seconds=0.0, units=0, attempted=len(inputs.commands))
        for label, argv, out_dir in inputs.commands:
            shutil.rmtree(out_dir, ignore_errors=True)
            release_free_memory()
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"bench.{label}", cli.main, argv)
            seconds = time.perf_counter() - start
            call.parts[label] = seconds
            if code != 0:
                call.failures.append(f"{label} exited with {code}")
                continue
            problem = self._verify(label, out_dir, inputs, call)
            if problem is not None:
                call.failures.append(f"{label}: {problem}")
        call.units = self.scale.num_classes * self.scale.per_class + self.scale.num_queries
        call.seconds = sum(call.parts.values())
        return call

    def throughput(self, call):
        """Queries answered per second of the two eval commands."""
        return call.units / (call.parts["eval_category"] + call.parts["eval_particular"])

    def finish(self, inputs, calls):
        """Nothing beyond the per-command checks; quality from the first call."""
        qualities = [c.quality for c in calls if c.quality is not None]
        return 0, [], qualities[0] if qualities else 0.0

    def headline(self, calls, quality):
        gallery = self.scale.num_classes * self.scale.per_class
        return {
            "eval_recall_queries_per_s": (
                median([gallery / c.parts["eval_category"] for c in calls]), "1/s"),
            "eval_map_queries_per_s": (
                median([self.scale.num_queries / c.parts["eval_particular"] for c in calls]),
                "1/s"),
            "diagnose_s": (median([c.parts["diagnose"] for c in calls]), "s"),
        }


FULL = {
    "category-xbm": TrainingWorkload(
        "category-xbm",
        TrainingScale(num_classes=2000, per_class=8, feature_dim=384, out_dim=128,
                      holdout_classes=100, noise_sigma=0.08, iterations=256),
        mode="category", beta=0.5, lam=0.7, lr=0.01, batch_size=64,
        instances_per_class=4, memory_capacity_ratio=1.0, momentum_m=0.999,
        gamma_every=1,
    ),
    "particular-mine": TrainingWorkload(
        "particular-mine",
        TrainingScale(num_classes=1000, per_class=8, feature_dim=384, out_dim=128,
                      holdout_classes=100, noise_sigma=0.08, iterations=2),
        mode="particular", beta=0.85, lam=0.7, lr=0.01, particular_scale=0.25,
        memory_capacity_ratio=0.0, momentum_m=None, gamma_every=1,
    ),
    "eval-retrieval": EvalWorkload(
        EvalScale(num_classes=500, per_class=8, feature_dim=384, out_dim=128,
                  num_queries=500, pca_out_dim=64, noise_sigma=0.08),
    ),
}

# Tiny versions of every workload, for the benchmark's own tests.
SMOKE = {
    "category-xbm": TrainingWorkload(
        "category-xbm",
        TrainingScale(num_classes=40, per_class=8, feature_dim=32, out_dim=16,
                      holdout_classes=8, noise_sigma=0.2, iterations=12),
        **FULL["category-xbm"].run_options,
    ),
    "particular-mine": TrainingWorkload(
        "particular-mine",
        TrainingScale(num_classes=40, per_class=8, feature_dim=32, out_dim=16,
                      holdout_classes=8, noise_sigma=0.2, iterations=1),
        **{**FULL["particular-mine"].run_options, "particular_scale": 0.01},
    ),
    "eval-retrieval": EvalWorkload(
        EvalScale(num_classes=30, per_class=8, feature_dim=32, out_dim=16,
                  num_queries=40, pca_out_dim=8, noise_sigma=0.2),
    ),
}
