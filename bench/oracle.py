"""Reference retrieval metrics, written independently of spherekit.

Every ranking is a full stable sort by (-score, gallery index). Recall@K
counts queries with a same-label item in the top K. Average precision drops
junk from the ranking before ranks are assigned and averages k / rank_k over
the positives, summed with math.fsum, so the values are exact functions of
the ranks and can be compared with ``==``. Queries are scored in blocks to
keep the oracle's memory small beside the program's own peak.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_ROWS = 256


def pca_project(E_fit, E, out_dim):
    """Center, project onto the top ``out_dim`` covariance directions, renormalize."""
    mean = E_fit.mean(axis=0)
    centered = E_fit - mean
    cov = centered.T @ centered / (E_fit.shape[0] - 1)
    _, vectors = np.linalg.eigh(cov)
    top = vectors[:, ::-1][:, :out_dim]
    P = (E - mean) @ top
    return P / np.linalg.norm(P, axis=1, keepdims=True)


def _rankings(Q, G, exclude_self):
    """Yield (query index, full ranking) in query order."""
    for start in range(0, Q.shape[0], BLOCK_ROWS):
        scores = Q[start : start + BLOCK_ROWS] @ G.T
        order = np.argsort(-scores, axis=1, kind="stable")
        for row, ranking in enumerate(order):
            i = start + row
            yield i, (ranking[ranking != i] if exclude_self else ranking)


def leave_one_out_recall(Z, labels, ks):
    """Recall@K for every gallery row queried against the rest."""
    depth = max(ks)
    hits = {k: 0 for k in ks}
    for i, ranking in _rankings(Z, Z, exclude_self=True):
        matches = np.flatnonzero(labels[ranking[:depth]] == labels[i])
        if matches.size:
            for k in ks:
                hits[k] += int(matches[0] < k)
    return {k: hits[k] / Z.shape[0] for k in ks}


def mean_average_precision(Q, G, ground_truth, split):
    """(mAP, skipped query indices) under the medium or hard protocol.

    ``ground_truth`` maps query index -> dict of easy/hard/junk index lists.
    Medium counts easy and hard as positives; hard counts only hard ones and
    treats easy ones as junk.
    """
    values = []
    skipped = []
    for i, ranking in _rankings(Q, G, exclude_self=False):
        gt = ground_truth.get(i, {"easy": [], "hard": [], "junk": []})
        if split == "medium":
            positives, junk = gt["easy"] + gt["hard"], gt["junk"]
        else:
            positives, junk = gt["hard"], gt["junk"] + gt["easy"]
        if not positives:
            skipped.append(i)
            continue
        kept = ranking[~np.isin(ranking, junk)]
        ranks = np.flatnonzero(np.isin(kept, positives)) + 1
        terms = [(k + 1) / int(r) for k, r in enumerate(ranks)]
        values.append(math.fsum(terms) / len(positives))
    return math.fsum(values) / len(values), skipped
