"""Cross-batch memory and the slow-moving encoder shadow.

The memory bank is a fixed-capacity FIFO ring over past descriptors. Entries
are stored exactly as enqueued (already unit-normalized) and are never
recomputed when the encoder moves on; staleness is bounded by capacity. A
view is a read-only window onto the ring, valid until the next enqueue: while
the stored rows are contiguous it shares the ring's memory, and only once the
ring has wrapped does it copy (one concatenation into oldest-first order).
Loss code may compare anchors against it, but no gradient ever flows into
stored rows.

The momentum track keeps an exponentially averaged copy of the encoder
parameters, updated as ``shadow = m * shadow + (1 - m) * online`` after every
optimizer step. Filling the memory from the shadow encoder keeps stored
descriptors consistent with each other even while the online encoder jumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ShapeError
from .geometry import UNIT_ATOL
from .objective import LabeledEmbeddingBatch

__all__ = ["MemoryView", "MemoryBank", "MomentumTrack"]


@dataclass(frozen=True)
class MemoryView:
    """Read-only window onto bank contents, oldest entry first.

    Both arrays are non-writeable and valid until the bank's next
    ``enqueue``, which may overwrite the rows they show; copy them to keep
    them longer.
    """

    descriptors: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.descriptors.shape[0]


class MemoryBank:
    """FIFO ring buffer of unit descriptors with their labels.

    ``capacity == 0`` is legal and yields a bank that stays empty; training
    against it is exactly memoryless training.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise ShapeError(f"capacity must be >= 0, got {capacity}")
        if dim < 2:
            raise ShapeError(f"descriptor dim must be >= 2, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._descriptors = np.zeros((self.capacity, self.dim), dtype=np.float64)
        self._labels = np.zeros(self.capacity, dtype=np.int64)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def enqueue(self, batch: LabeledEmbeddingBatch) -> None:
        """Insert batch rows in order, overwriting the oldest entries when full."""
        if batch.dim != self.dim:
            raise ShapeError(f"batch dim {batch.dim} != bank dim {self.dim}")
        norms = np.linalg.norm(batch.embeddings, axis=1)
        off = np.abs(norms - 1.0)
        if float(off.max()) > UNIT_ATOL:
            i = int(np.argmax(off))
            raise NormalizationError(
                f"batch row {i} has norm {norms[i]!r}; memory stores unit descriptors"
            )
        if self.capacity == 0:
            return
        rows = batch.embeddings
        labels = batch.labels
        n = rows.shape[0]
        if n >= self.capacity:
            # Only the last `capacity` rows survive; lay them out so the
            # cursor ends where the next write would go.
            tail = rows[n - self.capacity :]
            tail_labels = labels[n - self.capacity :]
            k = self.capacity - self._cursor
            self._descriptors[self._cursor :] = tail[:k]
            self._labels[self._cursor :] = tail_labels[:k]
            self._descriptors[: self._cursor] = tail[k:]
            self._labels[: self._cursor] = tail_labels[k:]
            self._size = self.capacity
            return
        first = min(n, self.capacity - self._cursor)
        self._descriptors[self._cursor : self._cursor + first] = rows[:first]
        self._labels[self._cursor : self._cursor + first] = labels[:first]
        rest = n - first
        if rest:
            self._descriptors[:rest] = rows[first:]
            self._labels[:rest] = labels[first:]
        self._cursor = (self._cursor + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def view(self) -> MemoryView:
        """Current contents, oldest to newest, as read-only arrays.

        Slices of the ring while its live rows are contiguous (not yet full,
        or the cursor back at row 0); one concatenated copy after a wrap.
        """
        if self._size < self.capacity or self._cursor == 0:
            descriptors = self._descriptors[: self._size]
            labels = self._labels[: self._size]
        else:
            c = self._cursor
            descriptors = np.concatenate([self._descriptors[c:], self._descriptors[:c]])
            labels = np.concatenate([self._labels[c:], self._labels[:c]])
        descriptors.flags.writeable = False
        labels.flags.writeable = False
        return MemoryView(descriptors=descriptors, labels=labels)


class MomentumTrack:
    """Exponential moving average over a dict of parameter arrays."""

    def __init__(self, params: dict[str, np.ndarray], m: float):
        if not 0.0 <= m < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {m!r}")
        self.m = float(m)
        self.shadow = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}

    def update(self, online: dict[str, np.ndarray]) -> None:
        """shadow <- m * shadow + (1 - m) * online, elementwise.

        With m == 0 the shadow equals the online parameters bitwise after
        every update.
        """
        if set(online) != set(self.shadow):
            raise ShapeError(
                f"parameter keys changed: {sorted(self.shadow)} vs {sorted(online)}"
            )
        for key, value in online.items():
            ref = self.shadow[key]
            if ref.shape != value.shape:
                raise ShapeError(
                    f"parameter {key!r} changed shape {ref.shape} -> {value.shape}"
                )
            if self.m == 0.0:
                np.copyto(ref, value)  # bitwise, not just numerically, equal
            else:
                ref *= self.m
                ref += (1.0 - self.m) * value
