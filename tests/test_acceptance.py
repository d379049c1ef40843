"""End-to-end acceptance checks, one test per advertised guarantee.

Fast checks verify analytic gradients against finite differences, entropy
closed forms against pencil-and-paper values, and retrieval metrics against
enumeration oracles. Trend checks train real (small, frozen-config) runs and
assert the behaviors the toolkit exists to produce: the entropy regularizer
raising embedding dimensionality and taming gradient-direction noise, margin
extremes degrading gradient quality, training improving held-out retrieval,
and similarity histograms separating. Determinism and memory-semantics checks
close the loop: same seed means same bytes, and memory changes what the loss
sees, never whose gradients are computed.

Trend configurations are frozen: every constant below was chosen once,
against the mechanism it probes, and the assertions use fixed seeds. Nothing
here is tuned at test time.
"""

import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spherekit import (
    ContrastiveConfig,
    EncoderHead,
    HeadSpec,
    LabeledEmbeddingBatch,
    MemoryBank,
    MemoryView,
    MomentumTrack,
    OptimizerState,
    QueryGroundTruth,
    RetrievalIndex,
    RunConfig,
    SyntheticSpec,
    TokenGrid,
    adamw_step,
    backprop_through_normalization_rows,
    build_synthetic_dataset,
    combined_loss,
    contrastive_loss,
    dump_run_config,
    forward,
    gem_pool_backward,
    histogram_overlap,
    koleo_loss,
    mean_average_precision,
    normalize_rows,
    parse_run_config,
    pca_energy_report,
    pool,
    recall_at_k,
    retrieve,
    sample_category_batch,
    similarity_histograms,
    split_holdout,
    train_run,
)
from spherekit.cli import main
from spherekit.io import (
    read_features,
    read_ground_truth,
    read_labels,
    write_features,
    write_ground_truth,
    write_labels,
)

from conftest import (
    FD_RTOL,
    FD_STEP,
    central_diff,
    circle_ranking,
    half_labels,
    is_safe_embedding,
    rel_err,
    safe_batch,
    unit_rows,
)

GRAD_CHECK_INSTANCES = 100


# ---------------------------------------------------------------------------
# gradient correctness: analytic vs central finite differences
# ---------------------------------------------------------------------------


def random_memory(rng, m, d, Z, beta, max_tries=500):
    """Memory view whose cross similarities stay clear of the hinge."""
    for _ in range(max_tries):
        M = unit_rows(rng, m, d)
        if np.all(np.abs(Z @ M.T - beta) > 1e-3):
            return MemoryView(descriptors=M, labels=rng.integers(0, 2, size=m))
    raise AssertionError("no hinge-safe memory found")


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(901)
    worst = 0.0
    for trial in range(GRAD_CHECK_INSTANCES):
        n = int(rng.integers(6, 13))
        d = int(rng.integers(4, 9))
        beta = float(rng.choice([0.3, 0.5, 0.7]))
        Z, labels = safe_batch(rng, n, d, beta)
        memory = None
        if trial % 2:
            memory = random_memory(rng, int(rng.integers(2, 7)), d, Z, beta)

        def value(Zx):
            batch = LabeledEmbeddingBatch(Zx, labels, validate=False)
            return contrastive_loss(batch, memory, beta).value

        batch = LabeledEmbeddingBatch(Z, labels, validate=False)
        analytic = contrastive_loss(batch, memory, beta).grad
        worst = max(worst, rel_err(analytic, central_diff(value, Z, FD_STEP)))
    assert worst <= FD_RTOL, f"worst relative error {worst:.3e}"


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(902)
    worst = 0.0
    for _ in range(GRAD_CHECK_INSTANCES):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(3, 8))
        Z, labels = safe_batch(rng, n, d, 0.5)

        def value(Zx):
            return koleo_loss(LabeledEmbeddingBatch(Zx, labels, validate=False)).value

        analytic = koleo_loss(LabeledEmbeddingBatch(Z, labels, validate=False)).grad
        worst = max(worst, rel_err(analytic, central_diff(value, Z, FD_STEP)))
    assert worst <= FD_RTOL, f"worst relative error {worst:.3e}"


def test_combined_gradient_matches_finite_differences():
    rng = np.random.default_rng(903)
    worst = 0.0
    for trial in range(GRAD_CHECK_INSTANCES):
        n = int(rng.integers(6, 12))
        d = int(rng.integers(4, 8))
        config = ContrastiveConfig(
            beta=float(rng.choice([0.4, 0.5, 0.6])),
            lam=float(rng.choice([0.3, 0.7, 1.2])),
        )
        Z, labels = safe_batch(rng, n, d, config.beta)
        memory = None
        if trial % 3 == 0:
            memory = random_memory(rng, int(rng.integers(2, 6)), d, Z, config.beta)

        def value(Zx):
            batch = LabeledEmbeddingBatch(Zx, labels, validate=False)
            return combined_loss(batch, memory, config).value

        batch = LabeledEmbeddingBatch(Z, labels, validate=False)
        analytic = combined_loss(batch, memory, config).grad
        worst = max(worst, rel_err(analytic, central_diff(value, Z, FD_STEP)))
    assert worst <= FD_RTOL, f"worst relative error {worst:.3e}"


def test_generalized_mean_pooling_gradient_matches_finite_differences():
    rng = np.random.default_rng(904)
    worst = 0.0
    for _ in range(GRAD_CHECK_INSTANCES):
        m = int(rng.integers(3, 7))
        d = int(rng.integers(3, 6))
        p = float(rng.choice([1.5, 3.0, 4.5]))
        # Tokens stay far above the clamp floor, so the pooling is smooth.
        tokens = rng.uniform(0.05, 2.0, size=(m, d))
        w = rng.standard_normal(d)

        def value(T):
            return float(w @ pool(TokenGrid(np.zeros(d), T), "gem", p))

        analytic = gem_pool_backward(tokens, p, w)
        worst = max(worst, rel_err(analytic, central_diff(value, tokens, FD_STEP)))
    assert worst <= FD_RTOL, f"worst relative error {worst:.3e}"


def safe_chain_instance(rng, n, in_dim, out_dim, hidden, config, max_tries=500):
    """Head and raw features whose normalized output avoids kinks and ties."""
    labels = half_labels(n)
    for _ in range(max_tries):
        head = EncoderHead.initialize(rng, in_dim, out_dim, hidden)
        X = rng.standard_normal((n, in_dim))
        Z = normalize_rows(head.apply(X)[0])
        if is_safe_embedding(Z, labels, config.beta):
            return head, X, labels
    raise AssertionError("no safe head/feature instance found")


def test_head_chain_gradient_matches_finite_differences():
    """Parameter gradients through head, normalization, and combined loss."""
    rng = np.random.default_rng(905)
    worst = 0.0
    for trial in range(GRAD_CHECK_INSTANCES):
        hidden = 5 if trial % 2 else None
        config = ContrastiveConfig(beta=0.5, lam=0.7)
        head, X, labels = safe_chain_instance(rng, 6, 4, 3, hidden, config)

        E, cache = head.apply(X)
        Z = normalize_rows(E)
        out = combined_loss(LabeledEmbeddingBatch(Z, labels, validate=False), None, config)
        grad_E = backprop_through_normalization_rows(E, out.grad)
        analytic = head.backward(cache, grad_E)

        params = head.params()
        for key in params:
            def value(P, key=key):
                probe = {k: (P if k == key else v) for k, v in params.items()}
                E2, _ = EncoderHead.from_params(probe).apply(X)
                Z2 = normalize_rows(E2)
                batch = LabeledEmbeddingBatch(Z2, labels, validate=False)
                return combined_loss(batch, None, config).value

            fd = central_diff(value, params[key], FD_STEP)
            worst = max(worst, rel_err(analytic[key], fd))
    assert worst <= FD_RTOL, f"worst relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# entropy term: closed forms and brute force
# ---------------------------------------------------------------------------


def brute_force_entropy(Z):
    """Literal nearest-neighbor log-distance mean, pure Python."""
    n = Z.shape[0]
    total = 0.0
    for i in range(n):
        dists = [
            math.dist(Z[i], Z[j]) for j in range(n) if j != i
        ]
        total += math.log(min(dists))
    return -total / n


def test_entropy_closed_forms_and_brute_force():
    rng = np.random.default_rng(906)
    # Antipodal pair: both nearest-neighbor distances are 2.
    for _ in range(25):
        d = int(rng.integers(2, 9))
        v = unit_rows(rng, 1, d)[0]
        batch = LabeledEmbeddingBatch(np.stack([v, -v]), np.array([0, 1]))
        assert abs(koleo_loss(batch).value - (-math.log(2.0))) <= 1e-12
    # Orthogonal pair: both distances are sqrt(2).
    for _ in range(25):
        d = int(rng.integers(2, 9))
        Q, _ = np.linalg.qr(rng.standard_normal((d, 2)))
        batch = LabeledEmbeddingBatch(Q.T.copy(), np.array([0, 1]))
        assert abs(koleo_loss(batch).value - (-0.5 * math.log(2.0))) <= 1e-12
    # Small batches against the pure-Python evaluation.
    for _ in range(150):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        Z = unit_rows(rng, n, d)
        while np.min(np.linalg.norm(Z[:, None] - Z[None, :], axis=2)
                     + np.eye(n) * 10.0) < 5e-2:
            Z = unit_rows(rng, n, d)
        batch = LabeledEmbeddingBatch(Z, np.zeros(n, dtype=np.int64))
        assert abs(koleo_loss(batch).value - brute_force_entropy(Z)) <= 1e-12


# ---------------------------------------------------------------------------
# retrieval metrics vs enumeration oracles
# ---------------------------------------------------------------------------


def oracle_ap(indices, positives, junk):
    """Precision-at-hit walk over one ranking with junk entries skipped."""
    pos = set(int(i) for i in positives)
    jnk = set(int(i) for i in junk)
    hits = 0
    rank = 0
    terms = []
    for idx in indices:
        if int(idx) in jnk:
            continue
        rank += 1
        if int(idx) in pos:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / len(pos)


def oracle_recall(indices, gallery_labels, query_label, k):
    top = [int(i) for i in indices[:k]]
    return 1.0 if any(int(gallery_labels[i]) == query_label for i in top) else 0.0


def ranked(perm):
    """Retrieval whose one query ranks the gallery in ``perm`` order."""
    gallery, query = circle_ranking(perm)
    return retrieve(RetrievalIndex(gallery), query)


def test_metrics_match_oracles_on_every_small_ranking():
    """Exhaustive: every permutation of galleries up to size 8, exact equality."""
    for n in range(2, 9):
        easy, hard = np.array([0]), np.array([1])
        junk = np.array([2]) if n >= 3 else np.zeros(0, dtype=np.int64)
        gt = QueryGroundTruth(easy=easy, hard=hard, junk=junk)
        gallery_labels = np.arange(n, dtype=np.int64) % 2
        for perm in itertools.permutations(range(n)):
            retrieval = ranked(perm)
            maps = mean_average_precision(retrieval, [gt], ("medium", "hard"))
            assert maps["medium"] == (oracle_ap(perm, [0, 1], junk), [])
            assert maps["hard"] == (oracle_ap(perm, [1], np.concatenate([junk, easy])), [])
            rep = recall_at_k(
                retrieval, np.array([0]), ks=range(1, n + 1),
                gallery_labels=gallery_labels,
            )
            for k in range(1, n + 1):
                assert rep[k] == oracle_recall(perm, gallery_labels, 0, k)


def test_metrics_match_oracles_on_random_rankings():
    """1000 random galleries up to size 50, exact equality."""
    rng = np.random.default_rng(907)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        roles = rng.choice(4, size=n, p=[0.25, 0.25, 0.2, 0.3])
        while not (np.any(roles == 0) and np.any(roles == 1)):
            roles = rng.choice(4, size=n, p=[0.25, 0.25, 0.2, 0.3])
        easy = np.flatnonzero(roles == 0)
        hard = np.flatnonzero(roles == 1)
        junk = np.flatnonzero(roles == 2)
        gt = QueryGroundTruth(easy=easy, hard=hard, junk=junk)
        perm = rng.permutation(n)
        retrieval = ranked(perm)
        maps = mean_average_precision(retrieval, [gt], ("medium", "hard"))
        assert maps["medium"] == (
            oracle_ap(perm, np.concatenate([easy, hard]), junk), []
        )
        assert maps["hard"] == (oracle_ap(perm, hard, np.concatenate([junk, easy])), [])

        gallery_labels = rng.integers(0, 4, size=n)
        query_label = int(gallery_labels[rng.integers(0, n)])
        ks = sorted({1, int(rng.integers(1, n + 1)), n})
        rep = recall_at_k(
            retrieval, np.array([query_label]), ks=ks, gallery_labels=gallery_labels
        )
        for k in ks:
            assert rep[k] == oracle_recall(perm, gallery_labels, query_label, k)


# ---------------------------------------------------------------------------
# trend checks on frozen training configurations
# ---------------------------------------------------------------------------


def category_config(seed, lam, iterations, sigma, per_class,
                    instances_per_class=4, holdout_classes=0):
    return RunConfig(
        mode="category",
        iterations=iterations,
        seed=seed,
        head=HeadSpec(out_dim=64, hidden=None),
        beta=0.5,
        lam=lam,
        lr=0.01,
        weight_decay=5e-4,
        batch_size=64,
        instances_per_class=instances_per_class,
        memory_capacity_ratio=1.0,
        momentum_m=None,
        synthetic=SyntheticSpec(
            num_classes=64,
            per_class=per_class,
            feature_dim=64,
            noise_sigma=sigma,
            seed=100 + seed,
            holdout_classes=holdout_classes,
        ),
    )


TREND_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def collapse_runs():
    """Trained models and traces at the dimensional-collapse cell."""
    runs = {}
    for seed in TREND_SEEDS:
        for lam in (0.0, 0.7):
            config = category_config(seed, lam, iterations=300, sigma=0.35, per_class=8)
            model, trace = train_run(config)
            dataset = build_synthetic_dataset(config.synthetic, config.pooling)
            runs[seed, lam] = (model.embed(dataset.features), trace)
    return runs


def test_regularizer_raises_embedding_dimensionality(collapse_runs):
    """Components needed for 90% energy grow when the entropy term is on."""
    for seed in TREND_SEEDS:
        plain = pca_energy_report(collapse_runs[seed, 0.0][0]).components_for[90]
        reg = pca_energy_report(collapse_runs[seed, 0.7][0]).components_for[90]
        assert reg > plain, f"seed {seed}: {reg} vs {plain} components"


def test_margin_extremes_degrade_gradient_direction_quality():
    """Mean gradient-direction noise at margins 0.1 and 0.9 beats 0.5.

    Pair-mining runs on a crowded low-dimensional task: a tight margin keeps
    near-duplicate negatives active forever, a loose one admits noisy easy
    pairs, and the middle setting trains calmly.
    """
    gammas = {beta: [] for beta in (0.1, 0.5, 0.9)}
    for seed in TREND_SEEDS:
        for beta in gammas:
            config = RunConfig(
                mode="particular",
                iterations=10,
                seed=seed,
                head=HeadSpec(out_dim=4, hidden=None),
                beta=beta,
                lam=0.0,
                lr=0.03,
                weight_decay=5e-4,
                batch_size=8,
                instances_per_class=2,
                memory_capacity_ratio=1.0,
                momentum_m=None,
                particular_scale=0.02,
                synthetic=SyntheticSpec(
                    num_classes=32,
                    per_class=32,
                    feature_dim=3,
                    noise_sigma=0.05,
                    seed=100 + seed,
                    holdout_classes=0,
                ),
            )
            _, trace = train_run(config)
            assert trace.mean_gamma is not None
            gammas[beta].append(trace.mean_gamma)
    extremes = np.mean(gammas[0.1] + gammas[0.9])
    middle = np.mean(gammas[0.5])
    assert extremes > middle, f"extremes {extremes:.4f} vs middle {middle:.4f}"


def test_regularizer_reduces_gradient_direction_noise(collapse_runs):
    """Adding the entropy term never raises mean gradient noise, per seed."""
    deltas = []
    for seed in TREND_SEEDS:
        plain = collapse_runs[seed, 0.0][1].mean_gamma
        reg = collapse_runs[seed, 0.7][1].mean_gamma
        assert reg <= plain, f"seed {seed}: {reg:.5f} vs {plain:.5f}"
        deltas.append(reg - plain)
    assert np.mean(deltas) < 0.0


TRANSFER_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def transfer_runs():
    """Held-out-class retrieval at the class-disjoint transfer cell.

    ``"raw"`` is the normalized input features with no head, a measurement
    reported alongside the trained and untrained heads.
    """

    def leave_one_out_recall_at_1(Z, labels):
        rankings = retrieve(RetrievalIndex(Z), Z, exclude_self=True)
        return recall_at_k(rankings, labels, ks=(1,), gallery_labels=labels)[1]

    recalls = {}
    for seed in TRANSFER_SEEDS:
        for label, lam, iterations in (
            ("untrained", 0.0, 0),
            ("plain", 0.0, 800),
            ("regularized", 0.7, 800),
        ):
            config = category_config(
                seed, lam, iterations=iterations, sigma=0.30, per_class=32,
                instances_per_class=8, holdout_classes=16,
            )
            model, _ = train_run(config)
            full = build_synthetic_dataset(config.synthetic, config.pooling)
            _, holdout = split_holdout(full, config.synthetic.holdout_classes)
            recalls[seed, label] = leave_one_out_recall_at_1(
                model.embed(holdout.features), holdout.labels
            )
        # Every config of a seed shares its synthetic data and held-out split.
        recalls[seed, "raw"] = leave_one_out_recall_at_1(
            normalize_rows(holdout.features), holdout.labels
        )
    return recalls


def test_training_beats_untrained_head_by_ten_points(transfer_runs):
    """Mean held-out recall@1 gain of the trained head over random init."""
    gains = [
        transfer_runs[seed, "plain"] - transfer_runs[seed, "untrained"]
        for seed in TRANSFER_SEEDS
    ]
    mean_gain = float(np.mean(gains))

    def mean_recall(label):
        return float(np.mean([transfer_runs[seed, label] for seed in TRANSFER_SEEDS]))

    assert mean_gain >= 0.10, (
        f"mean gain {mean_gain:+.4f} (per seed: "
        + ", ".join(f"{g:+.4f}" for g in gains)
        + "); measured mean held-out recall@1: raw features "
        + f"{mean_recall('raw'):.4f}, untrained head {mean_recall('untrained'):.4f}, "
        + f"trained head {mean_recall('plain'):.4f}"
    )


def test_regularizer_preserves_holdout_recall(transfer_runs):
    """Entropy term costs at most one recall point per seed and helps on mean."""
    deltas = [
        transfer_runs[seed, "regularized"] - transfer_runs[seed, "plain"]
        for seed in TRANSFER_SEEDS
    ]
    for seed, delta in zip(TRANSFER_SEEDS, deltas):
        assert delta >= -0.01, f"seed {seed}: recall drops {delta:+.4f}"
    assert float(np.mean(deltas)) > 0.0, f"mean delta {np.mean(deltas):+.4f}"


def test_training_separates_similarity_histograms():
    """Positive/negative overlap after training is under half its start value."""
    for seed in TREND_SEEDS:
        overlaps = {}
        for iterations in (0, 300):
            config = category_config(
                seed, 0.0, iterations=iterations, sigma=0.20, per_class=8
            )
            model, _ = train_run(config)
            dataset = build_synthetic_dataset(config.synthetic, config.pooling)
            hist = similarity_histograms(model.embed(dataset.features), dataset.labels)
            overlaps[iterations] = histogram_overlap(hist)
        assert overlaps[300] < 0.5 * overlaps[0], (
            f"seed {seed}: overlap {overlaps[0]:.4f} -> {overlaps[300]:.4f}"
        )


# ---------------------------------------------------------------------------
# determinism and format round trips
# ---------------------------------------------------------------------------


def test_identical_runs_produce_identical_bytes(tmp_path, monkeypatch):
    config = {
        "mode": "category",
        "iterations": 5,
        "seed": 11,
        "beta": 0.5,
        "lambda": 0.7,
        "lr": 0.01,
        "weight_decay": 1e-4,
        "batch_size": 6,
        "instances_per_class": 2,
        "memory_capacity_ratio": 1.0,
        "eval_ks": [1, 2],
        "head": {"out_dim": 4},
        "synthetic": {
            "num_classes": 4,
            "per_class": 5,
            "feature_dim": 5,
            "noise_sigma": 0.2,
            "seed": 1,
            "holdout_classes": 1,
        },
    }
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))

    # Identical argv both times, so even the recorded command lines match.
    for tag in ("a", "b"):
        assert main(["train", "--config", "config.json", "--out-dir", "run"]) == 0
        (tmp_path / "run").rename(tmp_path / f"run_{tag}")
        assert main(["eval", "--config", "config.json",
                     "--model", "run_a/head.json", "--out-dir", "ev"]) == 0
        (tmp_path / "ev").rename(tmp_path / f"ev_{tag}")

    for name in ("trace.csv", "head.json", "run.json"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    a = (tmp_path / "ev_a" / "metrics.json").read_bytes()
    b = (tmp_path / "ev_b" / "metrics.json").read_bytes()
    assert a == b, "metrics.json differs between identical evaluations"


def test_formats_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(908)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(2, 20))
        scale = float(10.0 ** rng.integers(-6, 7))
        # The on-disk payload is float32; float32-representable values round
        # trip through the widened float64 view without losing a bit.
        X = (rng.standard_normal((n, d)) * scale).astype(np.float32).astype(np.float64)
        path = tmp_path / f"x{trial}.desc"
        write_features(path, X)
        back = read_features(path)
        assert back.dtype == np.float64 and back.shape == X.shape
        assert back.tobytes() == X.tobytes()

        labels = rng.integers(0, 2**40, size=n)
        lpath = tmp_path / f"l{trial}.labels"
        write_labels(lpath, labels)
        lback = read_labels(lpath)
        assert lback.dtype == np.int64
        assert lback.tobytes() == labels.astype(np.int64).tobytes()

        g = int(rng.integers(4, 30))
        records = {}
        for q in range(int(rng.integers(1, 4))):
            perm = rng.permutation(g)
            cuts = np.sort(rng.integers(0, g + 1, size=2))
            records[q] = QueryGroundTruth(
                easy=perm[: cuts[0]], hard=perm[cuts[0] : cuts[1]],
                junk=perm[cuts[1] :],
            )
        gpath = tmp_path / f"g{trial}.json"
        write_ground_truth(gpath, records)
        gback = read_ground_truth(gpath, gallery_size=g)
        assert set(gback) == set(records)
        for q, rec in records.items():
            for field in ("easy", "hard", "junk"):
                assert_array_equal(getattr(gback[q], field), getattr(rec, field))

        head = EncoderHead.initialize(
            rng, d, int(rng.integers(2, 8)),
            int(rng.integers(2, 8)) if trial % 2 else None,
        )
        hback = EncoderHead.from_dict(json.loads(json.dumps(head.to_dict())))
        for key, value in head.params().items():
            assert hback.params()[key].tobytes() == value.tobytes()

    config = category_config(3, 0.7, iterations=7, sigma=0.25, per_class=4)
    dumped = dump_run_config(config)
    assert dump_run_config(parse_run_config(json.loads(json.dumps(dumped)))) == dumped


# ---------------------------------------------------------------------------
# memory semantics
# ---------------------------------------------------------------------------


def test_zero_capacity_matches_memoryless_loop_bitwise():
    """Training with an empty memory equals a from-scratch loop with none."""
    config = RunConfig(
        mode="category",
        iterations=40,
        seed=17,
        head=HeadSpec(out_dim=4, hidden=None),
        beta=0.5,
        lam=0.7,
        lr=0.02,
        weight_decay=1e-3,
        batch_size=8,
        instances_per_class=2,
        memory_capacity_ratio=0.0,
        momentum_m=None,
        synthetic=SyntheticSpec(
            num_classes=5, per_class=6, feature_dim=5, noise_sigma=0.3, seed=100,
            holdout_classes=0,
        ),
    )
    dataset = build_synthetic_dataset(config.synthetic, config.pooling)

    # Reference loop: same operation order, no memory object anywhere.
    rng = np.random.default_rng(config.seed)
    head = EncoderHead.initialize(
        rng, dataset.dim, config.head.out_dim, config.head.hidden
    )
    opt = OptimizerState.initialize(
        head.params(), lr=config.lr, weight_decay=config.weight_decay
    )
    expected = []
    for _ in range(config.iterations):
        batch = sample_category_batch(
            dataset, config.batch_size, config.instances_per_class, rng
        )
        E, cache = head.apply(batch.features)
        Z = normalize_rows(E)
        emb = LabeledEmbeddingBatch(Z, batch.labels, validate=False)
        out = combined_loss(emb, None, ContrastiveConfig(config.beta, config.lam))
        expected.append(out.value)
        grad_E = backprop_through_normalization_rows(E, out.grad)
        adamw_step(head.params(), head.backward(cache, grad_E), opt)

    _, trace = train_run(config, dataset)
    actual = [row.loss for row in trace.rows]
    assert actual == expected, "loss traces differ despite zero-capacity memory"


def test_memory_and_momentum_run_matches_reference_loop_bitwise():
    """A run whose memory wraps, filled by a momentum encoder, equals a hand loop."""
    config = RunConfig(
        mode="category",
        iterations=30,
        seed=23,
        head=HeadSpec(out_dim=4, hidden=3),
        beta=0.5,
        lam=0.7,
        lr=0.02,
        weight_decay=1e-3,
        batch_size=8,
        instances_per_class=2,
        memory_capacity_ratio=0.5,
        momentum_m=0.9,
        synthetic=SyntheticSpec(
            num_classes=5, per_class=6, feature_dim=5, noise_sigma=0.3, seed=100,
            holdout_classes=0,
        ),
    )
    dataset = build_synthetic_dataset(config.synthetic, config.pooling)
    loss_config = ContrastiveConfig(config.beta, config.lam)

    # Reference loop: sample, loss against the memory as it stood, update,
    # then enqueue the batch re-embedded by the momentum shadow.
    rng = np.random.default_rng(config.seed)
    head = EncoderHead.initialize(
        rng, dataset.dim, config.head.out_dim, config.head.hidden
    )
    opt = OptimizerState.initialize(
        head.params(), lr=config.lr, weight_decay=config.weight_decay
    )
    bank = MemoryBank(15, config.head.out_dim)  # floor(0.5 * 30 rows)
    track = MomentumTrack(head.params(), config.momentum_m)
    expected = []
    for step in range(config.iterations):
        batch = sample_category_batch(
            dataset, config.batch_size, config.instances_per_class, rng
        )
        E, cache = head.apply(batch.features)
        emb = LabeledEmbeddingBatch(normalize_rows(E), batch.labels, validate=False)
        out = combined_loss(emb, bank.view(), loss_config)
        terms = out.term_breakdown
        expected.append(
            (step, out.value, terms.positive, terms.negative, terms.regularizer)
        )
        grad_E = backprop_through_normalization_rows(E, out.grad)
        adamw_step(head.params(), head.backward(cache, grad_E), opt)
        track.update(head.params())
        E_mem, _ = EncoderHead.from_params(track.shadow).apply(batch.features)
        bank.enqueue(
            LabeledEmbeddingBatch(normalize_rows(E_mem), batch.labels, validate=False)
        )
    # 240 rows went through a 15-row ring, so it filled and wrapped many times.
    assert len(bank) == bank.capacity

    model, trace = train_run(config, dataset)
    actual = [(r.step, r.loss, r.positive, r.negative, r.regularizer) for r in trace.rows]
    assert actual == expected, "trace rows differ from the reference memory loop"
    for key, value in head.params().items():
        assert model.head.params()[key].tobytes() == value.tobytes()
        assert model.momentum.shadow[key].tobytes() == track.shadow[key].tobytes()


def test_particular_run_matches_reference_loop_bitwise():
    """A particular run equals a hand loop that mines one anchor at a time."""
    config = RunConfig(
        mode="particular",
        iterations=3,
        seed=29,
        head=HeadSpec(out_dim=6, hidden=None),
        beta=0.85,
        lam=0.7,
        lr=0.02,
        weight_decay=1e-3,
        memory_capacity_ratio=0.0,
        momentum_m=None,
        particular_scale=0.004,  # 8 pairs and an 88-row candidate pool per epoch
        synthetic=SyntheticSpec(
            num_classes=12, per_class=8, feature_dim=8, noise_sigma=0.3, seed=101,
            holdout_classes=0,
        ),
    )
    dataset = build_synthetic_dataset(config.synthetic, config.pooling)
    features, labels = dataset.features, dataset.labels
    pair_classes = np.unique(labels)  # every class has 8 rows
    loss_config = ContrastiveConfig(config.beta, config.lam)

    # Reference loop: per epoch, embed everything and draw the candidate pool;
    # per pair, draw a class and two of its rows, then sort the pool entries
    # of other labels by (-similarity, pool position) and keep five. Tuples
    # go five to a batch, repeated rows keeping their first occurrence.
    rng = np.random.default_rng(config.seed)
    head = EncoderHead.initialize(rng, dataset.dim, config.head.out_dim, None)
    opt = OptimizerState.initialize(
        head.params(), lr=config.lr, weight_decay=config.weight_decay
    )
    expected = []
    dropped = 0
    for _ in range(config.iterations):
        Z_all = forward(head, features)[1]
        candidates = rng.choice(len(dataset), size=88, replace=False)
        tuples = []
        for _ in range(8):
            c = int(rng.choice(pair_classes))
            a, p = rng.choice(np.flatnonzero(labels == c), size=2, replace=False)
            valid = np.flatnonzero(labels[candidates] != c)
            sims = Z_all[candidates[valid]] @ Z_all[a]
            negatives = candidates[valid[np.argsort(-sims, kind="stable")[:5]]]
            tuples.append([a, p, *negatives])
        for start in (0, 5):
            idx = []
            for i in np.concatenate(tuples[start : start + 5]):
                if i not in idx:
                    idx.append(i)
            dropped += 7 * len(tuples[start : start + 5]) - len(idx)
            E, cache = head.apply(features[idx])
            emb = LabeledEmbeddingBatch(normalize_rows(E), labels[idx], validate=False)
            out = combined_loss(emb, None, loss_config)
            terms = out.term_breakdown
            expected.append(
                (len(expected), out.value, terms.positive, terms.negative, terms.regularizer)
            )
            grad_E = backprop_through_normalization_rows(E, out.grad)
            adamw_step(head.params(), head.backward(cache, grad_E), opt)
    assert dropped > 0, "no batch repeated a row; the first-occurrence rule went untested"

    model, trace = train_run(config, dataset)
    actual = [(r.step, r.loss, r.positive, r.negative, r.regularizer) for r in trace.rows]
    assert actual == expected, "trace rows differ from the per-anchor mining loop"
    for key, value in head.params().items():
        assert model.head.params()[key].tobytes() == value.tobytes()


def test_memory_widens_loss_but_never_gradient_rows():
    rng = np.random.default_rng(909)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(3, 7))
        m = int(rng.integers(1, 31))
        Z = unit_rows(rng, n, d)
        labels = rng.integers(0, 3, size=n)
        batch = LabeledEmbeddingBatch(Z, labels, validate=False)
        memory = MemoryView(
            descriptors=unit_rows(rng, m, d), labels=rng.integers(0, 3, size=m)
        )
        out = contrastive_loss(batch, memory, 0.5)
        assert out.grad.shape == (n, d)
        both = combined_loss(batch, memory, ContrastiveConfig(0.5, 0.7))
        assert both.grad.shape == (n, d)
