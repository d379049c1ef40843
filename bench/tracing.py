"""In-memory spans around spherekit's layer boundaries, installed from outside.

A :class:`Tracer` replaces each traced function in every ``spherekit``
module namespace that holds it (the place its callers look it up), and each
traced method on its class. A replacement records one span per call: name,
start, end, parent span and run id. Nothing under ``src/`` changes; the
originals come back when :meth:`Tracer.installed` exits.

Self time of a span is its duration minus the durations of its direct
children, so every millisecond of a traced call lands in exactly one layer.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import asdict, dataclass

# (span name, defining module, attribute). Functions are replaced wherever a
# spherekit module holds the same object; methods are replaced on the class.
FUNCTIONS = [
    ("trainer.sample_category_batch", "spherekit.trainer", "sample_category_batch"),
    ("trainer.mine_hard_negatives", "spherekit.trainer", "mine_hard_negatives"),
    ("trainer.forward", "spherekit.trainer", "forward"),
    ("trainer.adamw_step", "spherekit.trainer", "adamw_step"),
    ("objective.contrastive_loss", "spherekit.objective", "contrastive_loss"),
    ("objective.koleo_loss", "spherekit.objective", "koleo_loss"),
    (
        "objective.backprop_through_normalization_rows",
        "spherekit.objective",
        "backprop_through_normalization_rows",
    ),
    ("diagnostics.step_gradient_dispersion", "spherekit.diagnostics", "step_gradient_dispersion"),
    ("diagnostics.similarity_histograms", "spherekit.diagnostics", "similarity_histograms"),
    ("diagnostics.pca_energy_report", "spherekit.diagnostics", "pca_energy_report"),
    ("geometry.normalize_rows", "spherekit.geometry", "normalize_rows"),
    ("geometry.pca_fit", "spherekit.geometry", "pca_fit"),
    ("geometry.pca_transform_rows", "spherekit.geometry", "pca_transform_rows"),
    ("evaluation.retrieve", "spherekit.evaluation", "retrieve"),
    ("evaluation.recall_at_k", "spherekit.evaluation", "recall_at_k"),
    ("evaluation.mean_average_precision", "spherekit.evaluation", "mean_average_precision"),
    ("io.read_features", "spherekit.io", "read_features"),
    ("io.read_ground_truth", "spherekit.io", "read_ground_truth"),
    ("io.write_json_atomic", "spherekit.io", "write_json_atomic"),
    ("io.write_csv_atomic", "spherekit.io", "write_csv_atomic"),
    ("cli.eval", "spherekit.cli", "cmd_eval"),
    ("cli.diagnose", "spherekit.cli", "cmd_diagnose"),
]

METHODS = [
    ("trainer.TupleSample", "spherekit.trainer", "TupleSample", "__init__"),
    ("trainer.EncoderHead.apply", "spherekit.trainer", "EncoderHead", "apply"),
    ("trainer.EncoderHead.backward", "spherekit.trainer", "EncoderHead", "backward"),
    # The only per-step boundary: one optimizer step, private but stable.
    ("trainer.step", "spherekit.trainer", "_RunState", "optimize_batch"),
    ("memory.MemoryBank.view", "spherekit.memory", "MemoryBank", "view"),
    ("memory.MemoryBank.enqueue", "spherekit.memory", "MemoryBank", "enqueue"),
    ("memory.MomentumTrack.update", "spherekit.memory", "MomentumTrack", "update"),
]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_pairs(counts, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "batch"))
    memory = _arg(args, kwargs, 1, "memory")
    counts["batch_pairs"] += n * (n - 1)
    counts["memory_pairs"] += n * (len(memory) if memory is not None else 0)


def _count_view_bytes(counts, args, kwargs, result):
    counts["view_bytes"] += result.descriptors.nbytes + result.labels.nbytes


def _count_score_bytes(counts, args, kwargs, result):
    index = _arg(args, kwargs, 0, "index")
    queries = _arg(args, kwargs, 1, "queries")
    # One float64 score per (query, gallery item) pair.
    nbytes = len(queries) * len(index) * 8
    counts["score_matrix_bytes_max"] = max(counts["score_matrix_bytes_max"], nbytes)


def _count_gamma(counts, args, kwargs, result):
    counts["gamma_measured"] += result is not None


def _count_step_rows(counts, args, kwargs, result):
    counts["step_rows"] += len(_arg(args, kwargs, 1, "features"))


COUNTERS = {
    "objective.contrastive_loss": _count_pairs,
    "memory.MemoryBank.view": _count_view_bytes,
    "evaluation.retrieve": _count_score_bytes,
    "diagnostics.step_gradient_dispersion": _count_gamma,
    "trainer.step": _count_step_rows,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int


class Tracer:
    """Span store plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {
            "batch_pairs": 0,
            "memory_pairs": 0,
            "view_bytes": 0,
            "score_matrix_bytes_max": 0,
            "gamma_measured": 0,
            "step_rows": 0,
        }
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run one public call from benchmark code inside a root span."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function and method for the duration."""
        saved = []
        try:
            for name, module_name, attr in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                traced = self.wrap(name, original)
                for module in _spherekit_modules():
                    if module.__dict__.get(attr) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, traced)
            for name, module_name, cls_name, attr in METHODS:
                cls = getattr(sys.modules[module_name], cls_name)
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def new_run(self):
        self.run += 1

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, tuple[float, int]] = {}
        for span, covered in zip(self.spans, child):
            total, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (total + (span.end - span.start) - covered, calls + 1)
        return out

    def durations(self, name) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _spherekit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "spherekit" or name.startswith("spherekit."))
    ]
