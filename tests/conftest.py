"""Shared helpers for the test suite.

Gradient tests use central finite differences with a fixed step. Batches fed
to those tests are rejection-sampled so that no cross-label similarity sits
near the hinge threshold and no row has an ambiguous or tiny nearest
neighbor; both would make the objective non-differentiable at the test point.
"""

import collections
import contextlib
from unittest import mock

import numpy as np

from spherekit import _screen, diagnostics, evaluation, trainer

FD_STEP = 1e-6
FD_RTOL = 1e-4
# Keep test points at least this far from hinge kinks and neighbor ties.
SAFE_GAP = 1e-3
# Nearest-neighbor distances below this make log-distance curvature too
# large for a 1e-6 finite-difference step.
MIN_NN_DIST = 5e-2


def unit_rows(rng, n, d):
    """n random rows on the unit sphere in d dimensions."""
    X = rng.standard_normal((n, d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    while np.any(norms < 1e-6):  # essentially never; keeps the math exact
        X = rng.standard_normal((n, d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / norms


def quantized_unit_rows(rng, n, d, pool_size):
    """n unit rows drawn from a pool of ``pool_size`` quantized directions.

    Each direction has 1, 4 or 16 nonzero entries of +/-1, +/-1/2 or +/-1/4,
    so every dot product is a multiple of 1/16 and exact in any summation
    order; repeated directions and the coarse grid give many exact ties.
    """
    pool = np.zeros((pool_size, d))
    for row in pool:
        k = int(rng.choice([c for c in (1, 4, 16) if c <= d]))
        cols = rng.choice(d, size=k, replace=False)
        row[cols] = rng.choice([-1.0, 1.0], size=k) / np.sqrt(k)
    return pool[rng.integers(0, pool_size, size=n)]


def rows_at_similarity(rng, anchors, targets):
    """One row per anchor whose dot product with it is ``targets`` (up to rounding)."""
    norms = np.linalg.norm(anchors, axis=1)
    direction = anchors / norms[:, None]
    other = rng.standard_normal(anchors.shape)
    other -= np.sum(other * direction, axis=1, keepdims=True) * direction
    other /= np.linalg.norm(other, axis=1, keepdims=True)
    along = targets / norms
    return along[:, None] * direction + np.sqrt(1.0 - along**2)[:, None] * other


def relabelled(rng, dense, kind):
    """Labels equal exactly where the ``dense`` labels (0, 1, ...) are, of
    one ``kind``: negative, near 2**62, uint64 from 2**60 (float64 would
    merge them), or sparse over about 2**50."""
    m = int(dense.max()) + 1
    values = {"negative": -1 - 3 * np.arange(m),
              "2**62": 2**62 - np.arange(m),
              "uint64": np.uint64(2**60) + np.arange(m, dtype=np.uint64),
              "sparse": rng.choice(2**40, size=m, replace=False) * 997 - 2**50}[kind]
    return values[dense]


class Routes(dict):
    """Route counts per row span, comparing equal to a plain dict of them;
    ``tiles`` counts the tiles the spans computed (``count_tiles``)."""

    def __init__(self, routes, tiles):
        super().__init__(routes)
        self.tiles = tiles


def count_tiles(monkeypatch):
    """Count the tiles ``_screen._span_tiles`` computes, per dtype and row span,
    by kind: ``{"float32": {(start, stop): {"strip": tiles, "rows": tiles}},
    "float64": {...}}``. A ``"strip"`` tile is one of an upper span's
    diagonal strips, a ``"rows"`` tile one over all the span's rows (every
    tile of a span that is not upper). A span that falls back is scored in
    float64 tiles of one span of its rows."""
    counts = {"float32": collections.defaultdict(collections.Counter),
              "float64": collections.defaultdict(collections.Counter)}
    spans = _screen._span_tiles

    def counted_tiles(per_dtype, start, stop, upper, tiles):
        for tile in tiles:
            per_dtype[start, stop]["strip" if upper and tile[1] < stop else "rows"] += 1
            yield tile

    def counted(queries, gallery, rows, values, upper=False, within=None):
        for start, stop, tiles in spans(queries, gallery, rows, values, upper, within):
            yield start, stop, counted_tiles(counts[queries.dtype.name], start, stop, upper, tiles)
    monkeypatch.setattr(_screen, "_span_tiles", counted)
    return counts


def screen_routes(monkeypatch):
    """Count the row spans the float32 screen counted (recall's
    ``_screened_ahead`` or mAP's ``_ranked_ahead``); ``tiles`` counts each
    span's tiles (``count_tiles``)."""
    routes = Routes({"screened": 0}, count_tiles(monkeypatch))

    def counted(screen):
        def screened(*args):
            routes["screened"] += 1
            return screen(*args)
        return screened
    for name in ("_screened_ahead", "_ranked_ahead"):
        monkeypatch.setattr(evaluation, name, counted(getattr(evaluation, name)))
    return routes


def histogram_routes(monkeypatch):
    """Count the row spans of ``similarity_histograms`` the float32 edge
    screen binned, those it handed back to the float64 screen, the spans the
    float64 screen binned (a fallback's included), from the precision of the
    screen's bounds, and the pairs scored in float64 row dots (each undecided
    pair of a span once: a span that row-dots a pair twice fails the test);
    ``dotted`` lists each span's row-dotted pairs as ``(rows, cols)`` and
    ``tiles`` counts each span's tiles (``count_tiles``)."""
    routes = Routes({"screened": 0, "fallback": 0, "float64": 0, "rescored": 0},
                    count_tiles(monkeypatch))
    routes.dotted, inside = [], []
    span, row_dots = diagnostics._PairBins.span, _screen._row_dots

    def counted_span(bins, *args):
        routes.dotted.append([])
        inside.append(True)
        counts = span(bins, *args)
        inside.clear()
        route = ("float64" if bins.screen.above.dtype == np.float64
                 else "fallback" if counts is None else "screened")
        routes[route] += 1
        keys = np.concatenate([np.zeros(0, dtype=np.intp)] + [
            rows * len(bins.Z) + cols for rows, cols in routes.dotted[-1]])
        assert np.unique(keys).size == keys.size, "a pair was row-dotted twice in one span"
        return counts

    def counted_dots(A, rows, B, cols, *args):
        routes["rescored"] += rows.size
        if inside:
            routes.dotted[-1].append((rows, cols))
        return row_dots(A, rows, B, cols, *args)
    monkeypatch.setattr(diagnostics._PairBins, "span", counted_span)
    monkeypatch.setattr(_screen, "_row_dots", counted_dots)
    return routes


def mining_routes(monkeypatch):
    """Count the anchors ``mine_hard_negatives`` screened in float32 tiles
    and those it screened again in float64 tiles (a fallback), from the
    precision of the ``_SpanScreen`` whose ``top`` ran; ``tiles`` counts each
    anchor span's float32 tiles (``count_tiles``)."""
    routes = Routes({"screened": 0, "fallback": 0}, count_tiles(monkeypatch))
    top = trainer._SpanScreen.top

    def counted(screen, anchors, *args):
        routes["screened" if screen.dtype is np.float32 else "fallback"] += anchors.shape[0]
        return top(screen, anchors, *args)
    monkeypatch.setattr(trainer._SpanScreen, "top", counted)
    return routes


def mining_tiles(rows, columns):
    """Make mining's float32 tiles ``rows`` anchors by ``columns`` pool rows
    (fewer at the edges) for pools wider than ``columns``; its float64 tiles
    hold a span's rows and as many pool rows as fit ``rows * columns / 2``
    scores, the same bytes."""
    return mock.patch.multiple(trainer, _MINING_ROWS=rows, MINING_BLOCK_BYTES=4 * rows * columns)


@contextlib.contextmanager
def metric_tiles(rows, columns):
    """Make the metrics' float32 tiles ``rows`` rows by ``columns`` columns
    (fewer at the edges) against galleries of at least ``8 * columns`` rows;
    against narrower ones a span holds as many full rows as fit
    ``8 * rows * columns`` scores, and tiles as many columns as fit
    ``rows * columns`` scores with them. Unlike the metrics' own row floor,
    ``rows`` does not shrink for tiles less than twice as wide."""
    values = rows * columns

    def shape(gallery_rows, block_bytes):
        return max(rows, 8 * values // gallery_rows), values
    with mock.patch.object(_screen, "_metric_shape", shape), \
            mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", 64 * values):
        yield


@contextlib.contextmanager
def budget_for_rows(module, budget_name, rows, gallery_rows):
    """Set ``module.budget_name`` so that score blocks against a gallery of
    ``gallery_rows`` hold ``rows`` full rows each, ``rows * gallery_rows``
    scores of 8 bytes; None keeps the module's budget. The metrics' row spans
    then hold the same rows (``_screen._TILE_ROWS`` too), and their float32 tiles an
    eighth of the gallery's columns."""
    with contextlib.ExitStack() as stack:
        if rows is not None:
            stack.enter_context(mock.patch.object(module, budget_name, 8 * gallery_rows * rows))
            if module is evaluation:
                stack.enter_context(mock.patch.object(_screen, "_TILE_ROWS", rows))
        yield


def circle_ranking(perm):
    """Gallery rows and a single query that rank the gallery in ``perm`` order.

    The query is ``(1, 0)`` and gallery item ``perm[j]`` sits on the unit
    circle at angle ``(j + 1) * pi / (n + 2)``, so its score is exactly that
    angle's cosine and falls strictly with ``j``.
    """
    perm = np.asarray(perm, dtype=np.int64)
    angles = np.empty(perm.size)
    angles[perm] = np.arange(1, perm.size + 1) * np.pi / (perm.size + 2)
    assert np.all(np.diff(np.cos(angles[perm])) < 0)
    gallery = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return gallery, np.array([[1.0, 0.0]])


def half_labels(n):
    """Two balanced classes: first half 0, second half 1."""
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    return labels


def is_safe_embedding(Z, labels, beta, gap=SAFE_GAP, min_nn=MIN_NN_DIST):
    """True when Z is differentiable territory for hinge and entropy terms."""
    S = Z @ Z.T
    diff = labels[:, None] != labels[None, :]
    if np.any(np.abs(S[diff] - beta) <= gap):
        return False
    D2 = np.maximum(2.0 - 2.0 * S, 0.0)
    D = np.sqrt(D2)
    np.fill_diagonal(D, np.inf)
    Dsorted = np.sort(D, axis=1)
    if np.any(Dsorted[:, 0] <= min_nn):
        return False
    # unique nearest neighbor per row, with slack
    if np.any(Dsorted[:, 1] - Dsorted[:, 0] <= gap):
        return False
    return True


def safe_batch(rng, n, d, beta, max_tries=2000):
    """Unit-row batch with labels, safely away from kinks and ties."""
    labels = half_labels(n)
    for _ in range(max_tries):
        Z = unit_rows(rng, n, d)
        if is_safe_embedding(Z, labels, beta):
            return Z, labels
    raise AssertionError(f"no safe batch found for n={n} d={d} beta={beta}")


def central_diff(f, X, step=FD_STEP):
    """Central finite-difference gradient of scalar f at array X."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp = X.copy()
        Xp[idx] += step
        Xm = X.copy()
        Xm[idx] -= step
        grad[idx] = (f(Xp) - f(Xm)) / (2.0 * step)
    return grad


def rel_err(approx, exact):
    """Norm-relative error, guarded against a zero reference."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / denom
