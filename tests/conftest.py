"""Shared helpers for the test suite.

Gradient tests use central finite differences with a fixed step. Batches fed
to those tests are rejection-sampled so that no cross-label similarity sits
near the hinge threshold and no row has an ambiguous or tiny nearest
neighbor; both would make the objective non-differentiable at the test point.
"""

import contextlib
from unittest import mock

import numpy as np

from spherekit import diagnostics, evaluation, trainer

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


def screen_routes(monkeypatch):
    """Count the blocks the float32 screen counted (recall's
    ``_screened_ahead`` or mAP's ``_ranked_ahead``) and the blocks that fell
    back to their float64 product."""
    routes = {"screened": 0, "fallback": 0}

    def counted(screen):
        def screened(*args):
            counts = screen(*args)
            routes["screened"] += counts is not None
            return counts
        return screened
    fallback = evaluation._float64_block

    def fell_back(*args):
        routes["fallback"] += 1
        return fallback(*args)
    for name in ("_screened_ahead", "_ranked_ahead"):
        monkeypatch.setattr(evaluation, name, counted(getattr(evaluation, name)))
    monkeypatch.setattr(evaluation, "_float64_block", fell_back)
    return routes


def histogram_routes(monkeypatch):
    """Count the blocks of ``similarity_histograms`` the float32 edge screen
    binned, those it handed back to their float64 product, the float64
    blocks binned as they are (a fallback's included), and the pairs scored
    in float64 row dots."""
    routes = {"screened": 0, "fallback": 0, "float64": 0, "rescored": 0}
    block, row_dots = diagnostics._PairBins.block, evaluation._row_dots

    def counted_block(bins, *args):
        counts = block(bins, *args)
        route = "float64" if bins.screen is None else "fallback" if counts is None else "screened"
        routes[route] += 1
        return counts

    def counted_dots(A, rows, *args):
        routes["rescored"] += rows.size
        return row_dots(A, rows, *args)
    monkeypatch.setattr(diagnostics._PairBins, "block", counted_block)
    monkeypatch.setattr(evaluation, "_row_dots", counted_dots)
    return routes


def mining_routes(monkeypatch):
    """Count the anchors ``mine_hard_negatives`` took through the float32
    screen and those whose float64 products it scored (a fallback)."""
    routes = {"screened": 0, "fallback": 0}
    top, dense = trainer._SpanScreen.top, trainer._dense_negatives

    def screened(screen, anchors, *args):
        routes["screened"] += anchors.shape[0]
        return top(screen, anchors, *args)

    def fell_back(anchors, *args):
        routes["fallback"] += anchors.shape[0]
        return dense(anchors, *args)
    monkeypatch.setattr(trainer._SpanScreen, "top", screened)
    monkeypatch.setattr(trainer, "_dense_negatives", fell_back)
    return routes


def mining_tiles(rows, columns):
    """Make mining's float32 tiles ``rows`` anchors by ``columns`` pool rows
    (fewer at the edges) for pools wider than ``columns``; its float64
    fallback blocks hold as many full rows as fit the same budget."""
    return mock.patch.multiple(trainer, _TILE_ROWS=rows, MINING_BLOCK_BYTES=4 * rows * columns)


def budget_for_rows(module, budget_name, rows, gallery_rows):
    """Set ``module.budget_name`` so that score blocks against a gallery of
    ``gallery_rows`` hold ``rows`` rows each; None keeps the module's budget."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(module, budget_name, 8 * gallery_rows * rows)


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
