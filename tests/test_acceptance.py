"""Acceptance gate: one test per release criterion, each with a wall-clock budget.

Run with -s to see one summary line per criterion. Every test re-derives its
expectations from independent oracles or frozen constants; none of them
consults the implementation for the answer.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from acrocode import coding_eval, train
from acrocode.align import extract_pairs, substitute_back
from acrocode.corpus import ScoreMatrix
from acrocode.expansion_eval import similarity

from synthgen import augmented_pairs, expand_with_mock, generate, identity_pairs
from test_aligner import _random_rewrite_case
from test_cli import _run_pipeline
from test_coding_eval import _matrix, _perm_case, auc_pair_oracle, f1_oracle, p_at_k_oracle
from test_expansion_eval import REFERENCE_SIMILARITIES


@contextmanager
def criterion(number: int, budget_seconds: float, detail: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS: {detail} ({elapsed:.2f}s < {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def test_criterion_1_reference_similarity_table():
    with criterion(1, 1.0, "12 reference similarity scores within 0.01"):
        for predicted, reference, expected in REFERENCE_SIMILARITIES:
            got = similarity(predicted, reference)
            assert got == pytest.approx(expected, abs=0.01), (predicted, reference)


def test_criterion_2_loss_identities():
    with criterion(2, 1.0, "loss reduces to CE at weight 0; hand value matches"):
        rng = np.random.default_rng(2)
        params = train.ModelParams(
            weights=rng.normal(scale=0.4, size=(4, 32)),
            biases=rng.normal(scale=0.1, size=4),
        )
        fa = train.featurize("alpha bravo charlie delta echo", 32)
        fb = train.featurize("alpha bravo charlie delta echo foxtrot golf", 32)
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        config = train.TrainConfig(consistency_weight=0.0, feature_dim=32)
        p = train.forward(params, fa, train.PROB_CLAMP)
        q = train.forward(params, fb, train.PROB_CLAMP)
        plain_ce = 0.5 * (train.cross_entropy(p, labels) + train.cross_entropy(q, labels))
        assert train.total_loss(params, fa, fb, labels, config) == plain_ce
        assert train.consistency_loss(p, p) == 0.0
        assert train.consistency_loss(np.array([0.8]), np.array([0.5])) == pytest.approx(
            0.2079, abs=1e-3
        )


def test_criterion_3_gradient_matches_finite_differences():
    with criterion(3, 30.0, "every gradient coordinate on 20 random models"):
        pool = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "hotel"]
        h = 1e-5
        for model_index in range(20):
            rng = np.random.default_rng(300 + model_index)
            n_codes = int(rng.integers(1, 9))
            dim = int(rng.integers(8, 65))
            params = train.ModelParams(
                weights=rng.normal(scale=0.6, size=(n_codes, dim)),
                biases=rng.normal(scale=0.2, size=n_codes),
            )
            config = train.TrainConfig(
                consistency_weight=float(rng.choice([0.0, 0.05, 0.3])), feature_dim=dim
            )
            batch = []
            for _ in range(int(rng.integers(1, 4))):
                text_a = " ".join(rng.choice(pool, size=rng.integers(2, 7)))
                text_b = " ".join(rng.choice(pool, size=rng.integers(2, 7)))
                labels = rng.integers(0, 2, size=n_codes).astype(np.float64)
                batch.append(
                    (train.featurize(text_a, dim), train.featurize(text_b, dim), labels)
                )
            _, columns, grad_w, grad_b = train.gradient(params, batch, config)
            dense = np.zeros_like(params.weights)
            dense[:, columns] = grad_w

            def loss_at(p):
                return sum(
                    train.total_loss(p, fa, fb, y, config) for fa, fb, y in batch
                ) / len(batch)

            def check(analytic, bump):
                plus = params.copy()
                bump(plus, +h)
                minus = params.copy()
                bump(minus, -h)
                fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
                denom = max(abs(analytic), abs(fd), 1e-8)
                assert abs(analytic - fd) / denom <= 1e-4

            for c in range(n_codes):
                for j in range(dim):
                    check(dense[c, j], lambda p, d, c=c, j=j: p.weights.__setitem__((c, j), p.weights[c, j] + d))
                check(grad_b[c], lambda p, d, c=c: p.biases.__setitem__(c, p.biases[c] + d))


def test_criterion_4_metrics_match_oracles():
    with criterion(4, 60.0, "F1/P@k exact and AUC to 1e-12 on 1000 instances"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n_docs = int(rng.integers(2, 21))
            n_codes = int(rng.integers(1, 11))
            scores = rng.random((n_docs, n_codes))
            if rng.random() < 0.5:
                scores = np.round(scores * 4) / 4  # force plenty of ties
            gold = (rng.random((n_docs, n_codes)) < 0.4).astype(np.int8)
            gold[0, :] = 1
            gold[1, :] = 0

            pred = coding_eval.binarize(scores, 0.5)
            assert coding_eval.f1_scores(pred, gold) == f1_oracle(pred, gold)

            got_macro, got_micro = coding_eval.auc_scores(scores, gold)
            want_macro = float(
                np.mean([auc_pair_oracle(scores[:, j], gold[:, j]) for j in range(n_codes)])
            )
            want_micro = auc_pair_oracle(scores.ravel(), gold.ravel())
            assert got_macro == pytest.approx(want_macro, abs=1e-12)
            assert got_micro == pytest.approx(want_micro, abs=1e-12)

            k = int(rng.integers(1, n_codes + 1))
            assert coding_eval.precision_at_k(scores, gold, k) == p_at_k_oracle(
                scores, gold, k
            )


def test_criterion_5_threshold_tuning_is_optimal():
    with criterion(5, 60.0, "tuned thresholds beat a 99-point grid on every instance"):
        grid = np.linspace(0.01, 0.99, 99)
        rng = np.random.default_rng(5)
        for _ in range(150):
            n_docs = int(rng.integers(4, 21))
            n_codes = int(rng.integers(2, 9))
            scores = rng.random((n_docs, n_codes))
            if rng.random() < 0.5:
                scores = np.round(scores * 3) / 3
            gold = (rng.random((n_docs, n_codes)) < 0.4).astype(np.int8)

            tuned = coding_eval.tune_threshold(_matrix(scores), gold, "global")
            _, tuned_micro = coding_eval.f1_scores(
                coding_eval.binarize(scores, tuned.global_value), gold
            )
            for t in grid:
                _, grid_micro = coding_eval.f1_scores(
                    coding_eval.binarize(scores, float(t)), gold
                )
                assert tuned_micro >= grid_micro

            per_code = coding_eval.tune_threshold(_matrix(scores), gold, "per-code")
            code_ids = [f"c{j}" for j in range(n_codes)]
            per_code_macro, _ = coding_eval.f1_scores(
                coding_eval.binarize(scores, per_code.vector(code_ids)), gold
            )
            global_macro, _ = coding_eval.f1_scores(
                coding_eval.binarize(scores, tuned.global_value), gold
            )
            assert per_code_macro >= global_macro


def test_criterion_6_permutation_test_behavior():
    with criterion(6, 10.0, "p=1.0 for identical systems, p<=0.05 under dominance"):
        matrix_a, matrix_b, gold = _perm_case(n_docs=20, n_codes=2)
        _, metric = coding_eval.make_metric(
            "micro-f1",
            policy=coding_eval.ThresholdPolicy(kind="global"),
            k=None,
            code_ids=matrix_a.code_ids,
        )
        same = coding_eval.permutation_test(
            matrix_a, matrix_a, gold, metric, rounds=1000, seed=6
        )
        assert same.p_value == 1.0
        dominant = coding_eval.permutation_test(
            matrix_a, matrix_b, gold, metric, rounds=1000, seed=6
        )
        assert dominant.observed_diff == 1.0
        assert dominant.p_value <= 0.05


def _micro_f1_on_texts(params, texts, gold):
    pred = coding_eval.binarize(train.score_texts(params, texts), 0.5)
    _, micro = coding_eval.f1_scores(pred, gold)
    return micro


def test_criterion_7_consistency_training_benchmark():
    with criterion(7, 300.0, "augmented+consistency beats baseline by 2 F1 points"):
        feature_dim, gaps, baseline_full_scores = 8192, [], []
        for seed in range(5):
            corpus = generate(seed)
            common = dict(
                feature_dim=feature_dim, learning_rate=8.0, epochs=40, batch_size=16,
                seed=seed,
            )
            baseline = train.train(
                identity_pairs(corpus.train),
                corpus.code_set,
                train.TrainConfig(consistency_weight=0.0, **common),
            )
            treated = train.train(
                augmented_pairs(corpus.train, corpus.dictionary),
                corpus.code_set,
                train.TrainConfig(consistency_weight=0.05, **common),
            )

            def gold_of(notes):
                g = np.zeros((len(notes), len(corpus.code_set)), dtype=np.int8)
                for i, note in enumerate(notes):
                    for code in note.labels:
                        g[i, corpus.code_set.index_of(code)] = 1
                return g

            slice_gold = gold_of(corpus.test_acronym)
            # the baseline system scores notes as written; the treated system
            # runs its expansion step first, exactly as in training
            raw = [n.text for n in corpus.test_acronym]
            expanded = [
                e.expanded_text
                for e in expand_with_mock(corpus.test_acronym, corpus.dictionary)
            ]
            base_f1 = _micro_f1_on_texts(baseline.params, raw, slice_gold)
            treated_f1 = _micro_f1_on_texts(treated.params, expanded, slice_gold)
            gaps.append(100.0 * (treated_f1 - base_f1))
            baseline_full_scores.append(
                _micro_f1_on_texts(
                    baseline.params,
                    [n.text for n in corpus.test_full],
                    gold_of(corpus.test_full),
                )
            )
        # the baseline must be a competent model on spelled-out notes,
        # otherwise the comparison would be vacuous
        assert min(baseline_full_scores) >= 0.8
        assert float(np.mean(gaps)) >= 2.0


def test_criterion_8_substitution_roundtrip():
    with criterion(8, 30.0, "1000 randomized substitution roundtrips are exact"):
        rng = random.Random(8)
        for _ in range(1000):
            original, expanded, _, _ = _random_rewrite_case(rng)
            pairs = extract_pairs(original, expanded)
            assert substitute_back(expanded, pairs) == original


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, 120.0, "two fixed-seed pipeline runs are byte-identical"):
        first = tmp_path / "first"
        second = tmp_path / "second"
        _run_pipeline(first)
        _run_pipeline(second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert "model.bin" in names and "metrics.json" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
