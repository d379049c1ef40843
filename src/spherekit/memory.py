"""Cross-batch memory and the slow-moving encoder shadow.

The memory bank is a fixed-capacity FIFO ring over past descriptors. Entries
are stored exactly as enqueued (already unit-normalized) and are never
recomputed when the encoder moves on; staleness is bounded by capacity. Each
row is stored twice, at slot ``i`` and ``i + capacity`` of a mirrored ring,
once in float64 and once rounded to float32 for the loss's screening product
(``2 * capacity * dim * (8 + 4)`` bytes of descriptors), so the live rows are
always one contiguous run, oldest first. A view is a read-only slice of that
run at every fill level, never a copy, and is valid until the next enqueue.
Loss code may compare anchors against it, but no gradient ever flows into
stored rows.

The momentum track keeps an exponentially averaged copy of the encoder
parameters, updated as ``shadow = m * shadow + (1 - m) * online`` after every
optimizer step. Filling the memory from the shadow encoder keeps stored
descriptors consistent with each other even while the online encoder jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NormalizationError, ShapeError
from .geometry import UNIT_ATOL, _check_unit_norms
from .objective import LabeledEmbeddingBatch

__all__ = ["MemoryView", "MemoryBank", "MomentumTrack"]


@dataclass(frozen=True)
class MemoryView:
    """Read-only window onto bank contents, oldest entry first.

    Every array is a non-writeable slice of the bank's ring, at every fill
    level, and valid until the bank's next ``enqueue``, which may overwrite
    the rows they show; copy them to keep them longer. ``descriptors32`` is
    the float32 rounding of ``descriptors`` and ``norm_bound`` an upper bound
    on their row norms. Only the bank sets them; on a view built by hand they
    are None, and the loss computes them from ``descriptors``.
    """

    descriptors: np.ndarray
    labels: np.ndarray
    descriptors32: Optional[np.ndarray] = field(default=None, init=False)
    norm_bound: Optional[float] = field(default=None, init=False)

    def __len__(self) -> int:
        return self.descriptors.shape[0]


class MemoryBank:
    """FIFO ring buffer of unit descriptors with their labels.

    Every row is written at slot ``i`` and at its mirror ``i + capacity``, in
    float64 and in float32, so storage is ``2 * capacity`` rows of each.
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
        self._descriptors = np.zeros((2 * self.capacity, self.dim), dtype=np.float64)
        self._descriptors32 = np.zeros((2 * self.capacity, self.dim), dtype=np.float32)
        self._labels = np.zeros(2 * self.capacity, dtype=np.int64)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def enqueue(self, batch: LabeledEmbeddingBatch) -> None:
        """Insert batch rows in order, overwriting the oldest entries when full."""
        if batch.dim != self.dim:
            raise ShapeError(f"batch dim {batch.dim} != bank dim {self.dim}")
        _check_unit_norms(np.linalg.norm(batch.embeddings, axis=1), NormalizationError,
                          "batch row {} has norm {!r}; memory stores unit descriptors")
        if self.capacity == 0:
            return
        # Only the last `capacity` rows of a batch survive.
        rows = batch.embeddings[-self.capacity :]
        n = rows.shape[0]
        slots = (self._cursor + np.arange(n)) % self.capacity
        # One write fills both halves: axis 0 of the reshaped ring is the mirror.
        self._descriptors.reshape(2, self.capacity, self.dim)[:, slots] = rows
        self._descriptors32.reshape(2, self.capacity, self.dim)[:, slots] = rows
        self._labels.reshape(2, self.capacity)[:, slots] = batch.labels[-self.capacity :]
        self._cursor = (self._cursor + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def view(self) -> MemoryView:
        """Current contents, oldest to newest, as read-only slices of the ring.

        The live rows end just before the cursor's mirror slot, so they are
        the ``size`` rows before ``cursor + capacity``: the mirror half while
        the ring fills, and ``[cursor, cursor + capacity)`` once it is full.
        """
        live = slice(self._cursor + self.capacity - self._size, self._cursor + self.capacity)
        arrays = (self._descriptors[live], self._labels[live], self._descriptors32[live])
        for array in arrays:
            array.flags.writeable = False
        view = MemoryView(*arrays[:2])
        object.__setattr__(view, "descriptors32", arrays[2])
        # Stored rows passed the UNIT_ATOL norm check in enqueue.
        object.__setattr__(view, "norm_bound", 1.0 + UNIT_ATOL)
        return view


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
