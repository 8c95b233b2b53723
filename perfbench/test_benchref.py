"""The benchmark's reference computations agree with brute force on small cases."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import benchref

ROOT = Path(__file__).resolve().parent.parent


def test_fnv1a_matches_published_vectors():
    assert benchref.fnv1a_32(b"") == 0x811C9DC5
    assert benchref.fnv1a_32(b"a") == 0xE40C292C
    assert benchref.fnv1a_32(b"foobar") == 0xBF9CF968


def test_tokenize_keeps_lowercased_alphanumeric_runs():
    assert benchref.tokenize("HTN, s/p CABG-2x; 42") == ["htn", "s", "p", "cabg", "2x", "42"]


def test_featurizer_counts_buckets():
    text = "Alpha beta alpha GAMMA beta alpha"
    idx, values = benchref.Featurizer(7)(text)
    expected: dict[int, int] = {}
    for token in ("alpha", "beta", "alpha", "gamma", "beta", "alpha"):
        bucket = benchref.fnv1a_32(token.encode()) % 7
        expected[bucket] = expected.get(bucket, 0) + 1
    assert dict(zip(idx.tolist(), values.tolist())) == expected
    assert list(idx) == sorted(idx)


def _write_checkpoint(path, weights, biases):
    header = {"code_ids": [f"c{i}" for i in range(len(biases))], "feature_dim": weights.shape[1],
              "n_codes": len(biases)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(weights.astype("<f8").tobytes())
        fh.write(biases.astype("<f8").tobytes())


def test_forward_reads_checkpoint_and_matches_explicit_sum(tmp_path):
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(3, 5))
    weights[2] = 40.0  # drives code 2 onto the upper clamp
    biases = rng.normal(size=3)
    path = tmp_path / "model.bin"
    _write_checkpoint(path, weights, biases)
    ckpt = benchref.read_checkpoint(path)
    assert path.stat().st_size == ckpt.expected_size
    featurizer = benchref.Featurizer(5)
    text = "one two two three"
    probs = benchref.forward(ckpt, featurizer, text, 1e-7)
    for c in range(3):
        z = biases[c] + sum(
            weights[c, benchref.fnv1a_32(t.encode()) % 5] for t in text.split()
        )
        expected = min(max(1.0 / (1.0 + math.exp(-z)), 1e-7), 1.0 - 1e-7)
        assert probs[c] == pytest.approx(expected, abs=1e-15)
    assert probs[2] == 1.0 - 1e-7


def test_read_checkpoint_rejects_a_short_body(tmp_path):
    path = tmp_path / "model.bin"
    _write_checkpoint(path, np.zeros((2, 3)), np.zeros(2))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        benchref.read_checkpoint(path)


def _random_case(rng, n=9, c=6):
    scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0], size=(n, c))
    gold = rng.random((n, c)) < 0.35
    return scores, gold


def test_f1_matches_cell_by_cell_counting():
    rng = np.random.default_rng(1)
    for _ in range(30):
        scores, gold = _random_case(rng)
        pred = scores >= 0.5
        per_code = []
        tp_all = pred_all = pos_all = 0
        for c in range(gold.shape[1]):
            tp = sum(1 for i in range(gold.shape[0]) if pred[i, c] and gold[i, c])
            p = sum(1 for i in range(gold.shape[0]) if pred[i, c])
            g = sum(1 for i in range(gold.shape[0]) if gold[i, c])
            per_code.append(2.0 * tp / (p + g) if p + g else 0.0)
            tp_all, pred_all, pos_all = tp_all + tp, pred_all + p, pos_all + g
        macro, micro = benchref.f1(pred, gold)
        assert macro == pytest.approx(sum(per_code) / len(per_code), abs=1e-15)
        assert micro == (2.0 * tp_all / (pred_all + pos_all) if pred_all + pos_all else 0.0)


def test_precision_at_k_matches_rank_counting():
    rng = np.random.default_rng(2)
    for _ in range(30):
        scores, gold = _random_case(rng)
        for k in (1, 3, 6):
            rows = []
            for i in range(scores.shape[0]):
                hits = 0
                for c in range(scores.shape[1]):
                    ahead = sum(
                        1 for d in range(scores.shape[1])
                        if scores[i, d] > scores[i, c] or (scores[i, d] == scores[i, c] and d < c)
                    )
                    hits += ahead < k and gold[i, c]
                rows.append(hits / k)
            assert benchref.precision_at_k(scores, gold, k) == pytest.approx(
                sum(rows) / len(rows), abs=1e-15
            )


def test_auc_matches_pair_counting_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores, gold = _random_case(rng)
        flat_s, flat_g = scores.ravel(), gold.ravel()
        if flat_g.all() or not flat_g.any():
            continue
        pos = [s for s, g in zip(flat_s, flat_g) if g]
        neg = [s for s, g in zip(flat_s, flat_g) if not g]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert benchref.auc(flat_s, flat_g) == pytest.approx(wins / (len(pos) * len(neg)),
                                                             abs=1e-15)


def test_macro_auc_skips_single_class_codes():
    scores = np.array([[0.9, 0.2], [0.1, 0.3], [0.5, 0.4]])
    gold = np.array([[1, 0], [0, 0], [1, 0]], dtype=bool)
    macro, micro = benchref.macro_micro_auc(scores, gold)
    assert macro == 1.0
    assert micro == benchref.auc(scores, gold)


def test_threshold_sweep_matches_trying_every_candidate():
    rng = np.random.default_rng(4)
    for _ in range(60):
        scores, gold = _random_case(rng)
        if not gold.any():
            continue
        candidates = sorted(set(scores.ravel().tolist()) | {0.0, 1.0}, reverse=True)
        best_f1, best_t = -1.0, None
        for t in candidates:
            value = benchref.f1_at(scores, gold, t)
            if value > best_f1:
                best_f1, best_t = value, t
        assert benchref.best_threshold_f1(scores, gold) == (best_f1, best_t)


def test_permutation_hits_recovers_every_integer_and_rejects_others():
    rounds = 37
    for h in range(rounds + 1):
        assert benchref.permutation_hits((1 + h) / (rounds + 1), rounds) == h
    assert benchref.permutation_hits(0.3, rounds) is None
    assert benchref.permutation_hits(1.0 / (rounds + 1) / 2, rounds) is None


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    import benchpipe
    import benchtrace
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == benchtrace.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(benchpipe.WORKLOADS)
