"""Metric tests against brute-force reference implementations.

The oracles below recompute every metric from first principles: AUC as an
explicit positive/negative pair count, F1 from confusion counts, and
precision@k from a full per-document sort. The library must agree exactly
(AUC to 1e-12 with the float pair count and bitwise with the integer one,
the rest bitwise).
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acrocode import coding_eval
from acrocode.corpus import ScoreMatrix


def auc_pair_oracle(scores: np.ndarray, gold: np.ndarray) -> float:
    pos = scores[gold == 1]
    neg = scores[gold == 0]
    assert len(pos) and len(neg)
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def f1_oracle(pred: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    per_code = []
    tp_all = pred_all = pos_all = 0
    for j in range(gold.shape[1]):
        tp = int(np.sum((pred[:, j] == 1) & (gold[:, j] == 1)))
        n_pred = int(np.sum(pred[:, j] == 1))
        n_pos = int(np.sum(gold[:, j] == 1))
        per_code.append(2 * tp / (n_pred + n_pos) if n_pred + n_pos else 0.0)
        tp_all += tp
        pred_all += n_pred
        pos_all += n_pos
    micro = 2 * tp_all / (pred_all + pos_all) if pred_all + pos_all else 0.0
    return float(np.mean(per_code)), micro


def p_at_k_oracle(scores: np.ndarray, gold: np.ndarray, k: int) -> float:
    fractions = []
    for i in range(scores.shape[0]):
        order = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        top = order[:k]
        fractions.append(sum(gold[i, j] for j in top) / k)
    return float(np.mean(fractions))


def _random_case(seed, n_docs=12, n_codes=6, quantize=None):
    rng = np.random.default_rng(seed)
    scores = rng.random((n_docs, n_codes))
    if quantize:
        scores = np.round(scores * quantize) / quantize
    gold = (rng.random((n_docs, n_codes)) < 0.4).astype(np.int8)
    # force every code to have both classes so AUC is defined
    gold[0, :] = 1
    gold[1, :] = 0
    return scores, gold


# --- F1 ---


def test_f1_matches_oracle():
    for seed in range(30):
        scores, gold = _random_case(seed, quantize=4 if seed % 3 == 0 else None)
        pred = coding_eval.binarize(scores, 0.5)
        macro, micro = coding_eval.f1_scores(pred, gold)
        exp_macro, exp_micro = f1_oracle(pred, gold)
        assert macro == exp_macro
        assert micro == exp_micro


def test_f1_zero_denominator_code_scores_zero():
    pred = np.array([[0, 1], [0, 1]])
    gold = np.array([[0, 1], [0, 1]])
    macro, micro = coding_eval.f1_scores(pred, gold)
    # first code never predicted and never true: 0 by convention, averaged in
    assert macro == 0.5
    assert micro == 1.0


def test_binarize_is_inclusive_at_threshold():
    scores = np.array([[0.5, 0.49999]])
    assert coding_eval.binarize(scores, 0.5).tolist() == [[1, 0]]


def test_binarize_accepts_per_code_thresholds():
    scores = np.array([[0.4, 0.4]])
    assert coding_eval.binarize(scores, np.array([0.3, 0.5])).tolist() == [[1, 0]]


# --- AUC ---


def test_auc_matches_pair_oracle():
    for seed in range(30):
        scores, gold = _random_case(seed, quantize=8 if seed % 2 else None)
        macro, micro = coding_eval.auc_scores(scores, gold)
        exp_macro = float(
            np.mean([auc_pair_oracle(scores[:, j], gold[:, j]) for j in range(6)])
        )
        exp_micro = auc_pair_oracle(scores.ravel(), gold.ravel())
        assert macro == pytest.approx(exp_macro, abs=1e-12)
        assert micro == pytest.approx(exp_micro, abs=1e-12)


def test_auc_all_ties_is_half():
    scores = np.full((4, 1), 0.3)
    gold = np.array([[1], [0], [1], [0]])
    macro, micro = coding_eval.auc_scores(scores, gold)
    assert macro == 0.5
    assert micro == 0.5


def test_macro_auc_skips_single_class_codes():
    scores = np.array([[0.9, 0.4], [0.1, 0.6]])
    gold = np.array([[1, 1], [0, 1]])  # second code has no negatives
    macro, _ = coding_eval.auc_scores(scores, gold)
    assert macro == 1.0


def test_auc_errors_when_undefined():
    scores = np.array([[0.9], [0.1]])
    with pytest.raises(ValueError):
        coding_eval.auc_scores(scores, np.array([[1], [1]]))


def exact_auc(scores: np.ndarray, gold: np.ndarray) -> float:
    """``2U / 2.0 / (P·N)``, with twice the Mann-Whitney U counted in integers over all pairs."""
    pos, neg = scores[gold == 1][:, np.newaxis], scores[gold == 0]
    two_u = int(np.sum(2 * (pos > neg) + (pos == neg)))
    return two_u / 2.0 / (pos.size * neg.size)


@st.composite
def auc_cases(draw):
    """1-30 notes; zero cells, cells at 1.0, all-tied columns and single-class columns."""
    n_notes = draw(st.integers(1, 30))
    n_codes = draw(st.integers(1, 5))
    cell = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    scores, gold = np.empty((n_notes, n_codes)), np.empty((n_notes, n_codes), dtype=np.int8)
    for j in range(n_codes):
        if draw(st.booleans()):
            scores[:, j] = draw(cell)
        else:
            scores[:, j] = draw(st.lists(cell, min_size=n_notes, max_size=n_notes))
        one_class = draw(st.sampled_from([None, 0, 1]))
        labels = st.lists(st.integers(0, 1), min_size=n_notes, max_size=n_notes)
        gold[:, j] = draw(labels) if one_class is None else one_class
    return scores, gold


def no_swap_value(metric, scores, gold):
    """A ``make_metric`` metric of one score array: its value in the round that swaps nothing."""
    scores, gold = coding_eval._check_scores(scores, gold)
    _, values = metric(gold, scores, scores)
    return float(values(np.zeros((1, len(scores)), dtype=bool))[0][0])


@settings(max_examples=300)
@given(auc_cases())
@example((np.array([[0.0, 1.0], [0.0, 1.0], [0.5, 1.0]]), np.array([[1, 0], [0, 1], [1, 1]])))
def test_auc_equals_the_exact_pair_count(case):
    scores, gold = case
    if gold.min() < gold.max():
        _, micro = coding_eval.make_metric("micro-auc")
        assert no_swap_value(micro, scores, gold) == exact_auc(scores.ravel(), gold.ravel())
    both = np.flatnonzero(gold.any(axis=0) & ~gold.all(axis=0))
    if both.size:
        _, macro = coding_eval.make_metric("macro-auc")
        macro_value = no_swap_value(macro, scores, gold)
        assert macro_value == np.mean([exact_auc(scores[:, j], gold[:, j]) for j in both])
        assert coding_eval.auc_scores(scores, gold) == (
            macro_value, no_swap_value(micro, scores, gold)
        )


# --- precision@k ---


def test_precision_at_k_matches_oracle():
    for seed in range(30):
        scores, gold = _random_case(seed, quantize=5 if seed % 2 else None)
        for k in (1, 3, 6):
            got = coding_eval.precision_at_k(scores, gold, k)
            assert got == p_at_k_oracle(scores, gold, k)


def test_precision_at_k_breaks_ties_by_code_index():
    scores = np.array([[0.5, 0.5, 0.2]])
    gold = np.array([[0, 1, 0]])
    # tie between code 0 and code 1: code 0 ranks first and is irrelevant
    assert coding_eval.precision_at_k(scores, gold, 1) == 0.0
    gold2 = np.array([[1, 0, 0]])
    assert coding_eval.precision_at_k(scores, gold2, 1) == 1.0


def test_auc_of_a_matrix_without_notes_is_a_named_error():
    with pytest.raises(ValueError, match="score matrix is empty: 0 notes x 3 codes"):
        coding_eval.auc_scores(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int8))


def test_precision_at_k_of_a_matrix_without_notes_is_a_named_error():
    with pytest.raises(ValueError, match="score matrix is empty: 0 notes x 3 codes"):
        coding_eval.precision_at_k(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int8), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_name_the_first_score_that_is_not_finite(bad):
    scores = np.array([[0.9, 0.2, 0.4], [0.4, 0.7, bad], [bad, 0.3, 0.5]])
    gold = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 1]])
    for call in (
        lambda: coding_eval.auc_scores(scores, gold),
        lambda: coding_eval.precision_at_k(scores, gold, 1),
    ):
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == f"score at row 1, column 2 is not finite: {bad}"


def test_precision_at_k_validates_k():
    scores, gold = _random_case(0)
    with pytest.raises(ValueError):
        coding_eval.precision_at_k(scores, gold, 0)
    with pytest.raises(ValueError):
        coding_eval.precision_at_k(scores, gold, 7)


# --- threshold tuning ---


def _matrix(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return ScoreMatrix(
        note_ids=[f"n{i}" for i in range(scores.shape[0])],
        code_ids=[f"c{j}" for j in range(scores.shape[1])],
        scores=scores,
    )


def test_tuned_global_threshold_beats_any_grid_value():
    for seed in range(20):
        scores, gold = _random_case(seed, quantize=6 if seed % 2 else None)
        policy = coding_eval.tune_threshold(_matrix(scores), gold, "global")
        _, best = coding_eval.f1_scores(
            coding_eval.binarize(scores, policy.global_value), gold
        )
        for t in np.linspace(0.01, 0.99, 99):
            _, grid = coding_eval.f1_scores(coding_eval.binarize(scores, t), gold)
            assert best >= grid


def test_tuned_global_threshold_prefers_largest_on_ties():
    scores = np.array([[0.3], [0.7]])
    gold = np.array([[1], [1]])
    policy = coding_eval.tune_threshold(_matrix(scores), gold, "global")
    # every threshold up to 0.3 gives a perfect F1; the largest one wins
    assert policy.global_value == 0.3


def test_tuned_global_threshold_exact_plateau_edge():
    scores = np.array([[0.2], [0.8]])
    gold = np.array([[0], [1]])
    policy = coding_eval.tune_threshold(_matrix(scores), gold, "global")
    assert policy.global_value == 0.8


def test_per_code_thresholds_never_worse_than_global_macro():
    for seed in range(20):
        scores, gold = _random_case(seed, quantize=4 if seed % 2 else None)
        matrix = _matrix(scores)
        global_policy = coding_eval.tune_threshold(matrix, gold, "global")
        per_code = coding_eval.tune_threshold(matrix, gold, "per-code")
        macro_g, _ = coding_eval.f1_scores(
            coding_eval.binarize(scores, global_policy.global_value), gold
        )
        thresholds = per_code.vector(matrix.code_ids)
        macro_p, _ = coding_eval.f1_scores(
            coding_eval.binarize(scores, thresholds), gold
        )
        assert macro_p >= macro_g


def test_per_code_fallback_for_codes_without_positives():
    scores = np.array([[0.9, 0.3], [0.2, 0.6]])
    gold = np.array([[1, 0], [0, 0]])
    policy = coding_eval.tune_threshold(_matrix(scores), gold, "per-code")
    assert "c1" not in policy.per_code_values
    global_policy = coding_eval.tune_threshold(_matrix(scores), gold, "global")
    assert policy.fallback == global_policy.global_value
    assert policy.vector(["c0", "c1"]).tolist() == [
        policy.per_code_values["c0"],
        policy.fallback,
    ]


def test_tuning_never_picks_zero_when_positives_sit_in_zero_cells():
    # A 0 is a cell that scoring left out (the model never gives 0). A
    # threshold of 0 would predict every such cell, so it is no candidate.
    scores = np.array([[0.0, 0.9], [0.0, 0.2], [0.4, 0.0]])
    gold = np.array([[1, 1], [1, 0], [0, 1]])
    per_code = coding_eval.tune_threshold(_matrix(scores), gold, "per-code")
    # c0's positives all score 0, so nothing above 0 beats predicting nothing
    assert per_code.per_code_values == {"c0": 1.0, "c1": 0.9}
    assert per_code.fallback == 0.9
    assert coding_eval.tune_threshold(_matrix(scores), gold, "global").global_value == 0.9


def tuning_oracle(scores: np.ndarray, gold: np.ndarray) -> float:
    """Best F1 over the distinct scores above 0 plus 1.0, the largest on ties."""
    best_t, best_f1 = 1.0, -1.0
    for t in sorted(set(scores[scores > 0].tolist()) | {1.0}, reverse=True):
        predicted = scores >= t
        denom = int(predicted.sum()) + int(gold.sum())
        f1 = 2 * int(gold[predicted].sum()) / denom if denom else 0.0
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t


@st.composite
def dev_cases(draw):
    """Score and gold matrices with empty shapes, zero cells, cells at 1.0 and ties."""
    n_notes = draw(st.integers(0, 8))
    n_codes = draw(st.integers(1, 5))
    cell = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    scores = draw(st.lists(cell, min_size=n_notes * n_codes, max_size=n_notes * n_codes))
    gold = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return (
        np.array(scores, dtype=np.float64).reshape(n_notes, n_codes),
        np.array(gold, dtype=np.int8).reshape(n_notes, n_codes),
    )


@settings(max_examples=300)
@given(dev_cases())
def test_global_tuning_matches_the_oracle(case):
    scores, gold = case
    policy = coding_eval.tune_threshold(_matrix(scores), gold, "global")
    assert policy.global_value == tuning_oracle(scores.ravel(), gold.ravel())


@settings(max_examples=300)
@given(dev_cases())
def test_per_code_tuning_matches_the_oracle(case):
    scores, gold = case
    policy = coding_eval.tune_threshold(_matrix(scores), gold, "per-code")
    expected = {
        f"c{j}": tuning_oracle(scores[:, j], gold[:, j])
        for j in range(gold.shape[1])
        if gold[:, j].any()
    }
    assert policy.per_code_values == expected
    assert list(policy.per_code_values) == list(expected)
    assert policy.fallback == tuning_oracle(scores.ravel(), gold.ravel())


def test_threshold_policy_validation():
    with pytest.raises(ValueError):
        coding_eval.ThresholdPolicy(kind="bogus")
    with pytest.raises(ValueError):
        coding_eval.ThresholdPolicy(kind="global", global_value=1.5)


# --- end-to-end report ---


def test_evaluate_coding_hand_case():
    scores = np.array([[0.9, 0.2], [0.4, 0.7], [0.6, 0.1]])
    gold = np.array([[1, 0], [0, 1], [1, 0]])
    report = coding_eval.evaluate_coding(
        _matrix(scores),
        gold,
        coding_eval.ThresholdPolicy(kind="global", global_value=0.5),
        ks=(1, 2),
    )
    assert report.macro_auc == 1.0
    assert report.micro_auc == 1.0
    assert report.macro_f1 == 1.0
    assert report.micro_f1 == 1.0
    assert report.precision_at == {1: 1.0, 2: 0.5}
    assert report.threshold_used.global_value == 0.5


def test_mean_reports():
    policy = coding_eval.ThresholdPolicy(kind="global", global_value=0.5)
    a = coding_eval.MetricsReport(
        macro_auc=0.8, micro_auc=0.9, macro_f1=0.5, micro_f1=0.6,
        precision_at={1: 1.0}, threshold_used=policy,
    )
    b = coding_eval.MetricsReport(
        macro_auc=0.6, micro_auc=0.7, macro_f1=0.3, micro_f1=0.4,
        precision_at={1: 0.0}, threshold_used=policy,
    )
    mean = coding_eval.mean_reports([a, b])
    assert mean.macro_auc == pytest.approx(0.7)
    assert mean.micro_f1 == pytest.approx(0.5)
    assert mean.precision_at == {1: 0.5}
    assert mean.threshold_used is None


def test_mean_reports_rejects_mismatched_ks():
    policy = coding_eval.ThresholdPolicy(kind="global")
    a = coding_eval.MetricsReport(
        macro_auc=0.8, micro_auc=0.9, macro_f1=0.5, micro_f1=0.6,
        precision_at={1: 1.0}, threshold_used=policy,
    )
    b = coding_eval.MetricsReport(
        macro_auc=0.6, micro_auc=0.7, macro_f1=0.3, micro_f1=0.4,
        precision_at={2: 0.0}, threshold_used=policy,
    )
    with pytest.raises(ValueError):
        coding_eval.mean_reports([a, b])


# --- permutation test ---


def _perm_case(n_docs=20, n_codes=2):
    gold = np.zeros((n_docs, n_codes), dtype=np.int8)
    gold[::2, 0] = 1
    gold[1::2, 1] = 1
    a = gold.astype(np.float64)
    b = 1.0 - a
    return _matrix(a), _matrix(b), gold


def test_permutation_identical_models_p_is_one():
    matrix_a, _, gold = _perm_case()
    _, metric = coding_eval.make_metric(
        "micro-f1", policy=coding_eval.ThresholdPolicy(kind="global"), k=None,
        code_ids=matrix_a.code_ids,
    )
    result = coding_eval.permutation_test(
        matrix_a, matrix_a, gold, metric, rounds=100, seed=3
    )
    assert result.p_value == 1.0
    assert result.observed_diff == 0.0


def test_permutation_dominant_model_small_p():
    matrix_a, matrix_b, gold = _perm_case()
    _, metric = coding_eval.make_metric(
        "micro-f1", policy=coding_eval.ThresholdPolicy(kind="global"), k=None,
        code_ids=matrix_a.code_ids,
    )
    result = coding_eval.permutation_test(
        matrix_a, matrix_b, gold, metric, rounds=200, seed=5
    )
    assert result.observed_diff == 1.0
    # only an all-swap or no-swap round reaches the observed gap; neither
    # occurred in 200 draws, leaving the minimum attainable p
    assert result.p_value == pytest.approx(1 / 201)


def test_permutation_deterministic_in_seed():
    matrix_a, matrix_b, gold = _perm_case()
    _, metric = coding_eval.make_metric(
        "macro-f1", policy=coding_eval.ThresholdPolicy(kind="global"), k=None,
        code_ids=matrix_a.code_ids,
    )
    r1 = coding_eval.permutation_test(matrix_a, matrix_b, gold, metric, rounds=50, seed=9)
    r2 = coding_eval.permutation_test(matrix_a, matrix_b, gold, metric, rounds=50, seed=9)
    assert r1 == r2
    assert r1.seed == 9


def test_permutation_rejects_mismatched_ids():
    matrix_a, matrix_b, gold = _perm_case()
    shuffled = ScoreMatrix(
        note_ids=list(reversed(matrix_b.note_ids)),
        code_ids=matrix_b.code_ids,
        scores=matrix_b.scores,
    )
    _, metric = coding_eval.make_metric(
        "micro-f1", policy=coding_eval.ThresholdPolicy(kind="global"), k=None,
        code_ids=matrix_a.code_ids,
    )
    with pytest.raises(ValueError):
        coding_eval.permutation_test(matrix_a, shuffled, gold, metric, rounds=10, seed=0)


def _recording(metric, blocks):
    """``metric``, appending each block of swap masks its rounds are given to ``blocks``."""

    def recording(gold, a, b):
        width, values = metric(gold, a, b)

        def recorded(swap):
            blocks.append(swap)
            return values(swap)

        return width, recorded

    return recording


def test_the_first_swap_masks_at_seed_0_are_fixed():
    # literal masks: a change of numpy's PCG64 stream, or a switch to a draw
    # that buffers bits, such as integers(0, 2, dtype=bool), fails here
    matrix_a, matrix_b, gold = _perm_case(n_docs=8)
    _, metric = coding_eval.make_metric("micro-auc")
    blocks = []
    coding_eval.permutation_test(
        matrix_a, matrix_b, gold, _recording(metric, blocks), rounds=3, seed=0
    )
    assert np.vstack(blocks).astype(int).tolist() == [
        [0, 0, 0, 0, 0, 0, 0, 0],  # the observed, no-swap round
        [0, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, 1, 1, 0, 0],
    ]


def test_make_metric_labels_and_k():
    policy = coding_eval.ThresholdPolicy(kind="global")
    name, _ = coding_eval.make_metric("precision-at-k", policy=policy, k=3, code_ids=["c"])
    assert name == "precision-at-3"
    with pytest.raises(ValueError):
        coding_eval.make_metric("precision-at-k", policy=policy, k=None, code_ids=["c"])
    with pytest.raises(ValueError):
        coding_eval.make_metric("unheard-of", policy=policy, k=None, code_ids=["c"])


def test_make_metric_per_code_policy_requires_code_ids():
    policy = coding_eval.ThresholdPolicy(
        kind="per-code", per_code_values={"c0": 0.4}, fallback=0.5
    )
    with pytest.raises(ValueError):
        coding_eval.make_metric("micro-f1", policy=policy, k=None, code_ids=None)
    name, metric = coding_eval.make_metric(
        "micro-f1", policy=policy, k=None, code_ids=["c0", "c1"]
    )
    scores = np.array([[0.45, 0.45]])
    gold = np.array([[1, 1]])
    # c0 thresholded at 0.4, c1 at the 0.5 fallback: one tp, one fn
    assert no_swap_value(metric, scores, gold) == pytest.approx(2 / 3)


def test_micro_auc_metric_needs_no_code_with_both_classes():
    # every code holds one class, so macro AUC is undefined; micro is not
    scores = np.array([[0.9, 0.2], [0.4, 0.7]])
    gold = np.array([[1, 0], [1, 0]])
    _, metric = coding_eval.make_metric("micro-auc")
    assert no_swap_value(metric, scores, gold) == auc_pair_oracle(scores.ravel(), gold.ravel())


def test_macro_auc_metric_names_its_own_error():
    _, metric = coding_eval.make_metric("macro-auc")
    with pytest.raises(ValueError, match="macro AUC needs a code with both classes"):
        no_swap_value(metric, np.array([[0.9], [0.1]]), np.array([[0], [0]]))


def test_auc_scores_names_the_micro_error_first():
    with pytest.raises(ValueError, match="micro AUC needs at least one positive"):
        coding_eval.auc_scores(np.array([[0.9], [0.1]]), np.array([[0], [0]]))


# --- permutation test against the whole-matrix loop ---


def whole_matrix_metric(name, policy, k, code_ids):
    """The metric as one call on a whole score matrix.

    F1 and precision@k come from the brute-force oracles above, AUC from
    ``auc_scores``, which ``test_auc_equals_the_exact_pair_count`` checks
    against an integer pair count with ``==``.
    """
    if name.endswith("-f1"):
        thresholds = policy.vector(code_ids)
        index = 1 if name == "micro-f1" else 0
        return lambda s, g: f1_oracle((s >= thresholds).astype(np.int8), g)[index]
    if name == "micro-auc":
        # one column of all cells: its macro AUC is defined exactly when micro is
        return lambda s, g: coding_eval.auc_scores(s.reshape(-1, 1), g.reshape(-1, 1))[1]
    if name == "macro-auc":
        return lambda s, g: coding_eval.auc_scores(s, g)[0]
    return lambda s, g: p_at_k_oracle(s, g, k)


def permutation_oracle(scores_a, scores_b, gold, metric, statistic_name, rounds, seed):
    """Each round swaps document rows and re-scores both whole matrices."""
    a, b = scores_a.scores, scores_b.scores
    observed = metric(a, gold) - metric(b, gold)
    hits = 0
    for swap in np.random.default_rng(seed).random((rounds, a.shape[0])) < 0.5:
        perm_a = np.where(swap[:, np.newaxis], b, a)
        perm_b = np.where(swap[:, np.newaxis], a, b)
        if abs(metric(perm_a, gold) - metric(perm_b, gold)) >= abs(observed):
            hits += 1
    return coding_eval.PermTestResult(
        statistic_name=statistic_name,
        observed_diff=float(observed),
        p_value=(1 + hits) / (rounds + 1),
        rounds=rounds,
        seed=seed,
    )


_CELL = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def perm_cases(draw):
    """Two systems' scores, gold, a threshold policy, k, rounds and a seed."""
    n_notes = draw(st.integers(1, 6))
    n_codes = draw(st.integers(1, 4))
    cells = st.lists(_CELL, min_size=n_notes * n_codes, max_size=n_notes * n_codes)
    a = np.array(draw(cells), dtype=np.float64).reshape(n_notes, n_codes)
    b = np.array(draw(cells), dtype=np.float64).reshape(n_notes, n_codes)
    labels = st.lists(st.integers(0, 1), min_size=a.size, max_size=a.size)
    gold = np.array(draw(labels), dtype=np.int8).reshape(n_notes, n_codes)
    code_ids = [f"c{j}" for j in range(n_codes)]
    if draw(st.booleans()):
        policy = coding_eval.ThresholdPolicy(kind="global", global_value=draw(_CELL))
    else:
        tuned = draw(st.lists(st.sampled_from(code_ids), unique=True))
        policy = coding_eval.ThresholdPolicy(
            kind="per-code",
            per_code_values={c: draw(_CELL) for c in tuned},
            fallback=draw(_CELL),
        )
    return {
        "a": a, "b": b, "gold": gold, "policy": policy, "code_ids": code_ids,
        "k": draw(st.integers(1, n_codes)),
        "rounds": draw(st.integers(1, 30)),
        "seed": draw(st.integers(0, 2**32)),
    }


# one document, tied cells at 1.0 and a cell at the threshold
_ONE_NOTE = {
    "a": np.array([[1.0, 1.0]]), "b": np.array([[0.25, 0.5]]),
    "gold": np.array([[1, 0]], dtype=np.int8),
    "policy": coding_eval.ThresholdPolicy(kind="global", global_value=0.5),
    "code_ids": ["c0", "c1"], "k": 1, "rounds": 30, "seed": 0,
}


@pytest.mark.parametrize(
    "name", ["micro-f1", "macro-f1", "micro-auc", "macro-auc", "precision-at-k"]
)
@settings(max_examples=100)
@given(perm_cases())
@example(_ONE_NOTE)
def test_permutation_test_matches_the_whole_matrix_loop(name, case):
    code_ids = case["code_ids"]
    note_ids = [f"n{i}" for i in range(case["gold"].shape[0])]
    matrix_a = ScoreMatrix(note_ids=note_ids, code_ids=code_ids, scores=case["a"])
    matrix_b = ScoreMatrix(note_ids=note_ids, code_ids=code_ids, scores=case["b"])
    label, metric = coding_eval.make_metric(
        name, policy=case["policy"], k=case["k"], code_ids=code_ids
    )
    oracle = whole_matrix_metric(name, case["policy"], case["k"], code_ids)
    args = (matrix_a, matrix_b, case["gold"])
    kwargs = {"statistic_name": label, "rounds": case["rounds"], "seed": case["seed"]}
    try:
        expected = permutation_oracle(*args, oracle, **kwargs)
    except ValueError:
        # an AUC that gold leaves undefined; which of the two errors is named may differ
        with pytest.raises(ValueError, match="AUC needs"):
            coding_eval.permutation_test(*args, metric, **kwargs)
        return
    assert coding_eval.permutation_test(*args, metric, **kwargs) == expected


@pytest.mark.parametrize(
    "name", ["micro-f1", "macro-f1", "micro-auc", "macro-auc", "precision-at-k"]
)
@settings(max_examples=60)
@given(perm_cases(), st.integers(1, 5), st.integers(0, 4), st.integers(0, 4))
@example(_ONE_NOTE, 1, 4, 0)  # blocks of one round
@example(_ONE_NOTE, 3, 2, 1)  # full blocks, then a partial one
@example(_ONE_NOTE, 5, 1, 0)  # every round in one full block
@example(_ONE_NOTE, 5, 0, 3)  # every round in one partial block
def test_rounds_spanning_several_blocks_match_the_whole_matrix_loop(name, case, block, full,
                                                                    extra):
    """The block cap is patched so that a block holds ``block`` rounds: ``full`` full blocks,
    then a partial one of ``extra % block`` rounds."""
    partial = extra % block
    rounds = block * full + partial
    assume(rounds >= 1)
    code_ids = case["code_ids"]
    note_ids = [f"n{i}" for i in range(case["gold"].shape[0])]
    matrix_a = ScoreMatrix(note_ids=note_ids, code_ids=code_ids, scores=case["a"])
    matrix_b = ScoreMatrix(note_ids=note_ids, code_ids=code_ids, scores=case["b"])
    label, metric = coding_eval.make_metric(
        name, policy=case["policy"], k=case["k"], code_ids=code_ids
    )
    oracle = whole_matrix_metric(name, case["policy"], case["k"], code_ids)
    args = (matrix_a, matrix_b, case["gold"])
    kwargs = {"statistic_name": label, "rounds": rounds, "seed": case["seed"]}
    try:
        expected = permutation_oracle(*args, oracle, **kwargs)
    except ValueError:
        return  # an AUC that gold leaves undefined, checked by the test above
    blocks = []
    # the cap that makes a block hold exactly ``block`` rounds
    gold = case["gold"]
    width, _ = metric(gold, case["a"], case["b"])
    with mock.patch.object(coding_eval, "_PERM_BLOCK_ELEMENTS", block * (width + len(gold))):
        got = coding_eval.permutation_test(*args, _recording(metric, blocks), **kwargs)
    assert got == expected
    # the no-swap round, then full blocks and the partial block, if any
    assert [len(b) for b in blocks] == [1] + [block] * full + [partial] * (partial > 0)


@pytest.mark.parametrize(
    "name", ["micro-f1", "macro-f1", "micro-auc", "macro-auc", "precision-at-k"]
)
def test_permutation_test_takes_a_metric_wrapped_as_the_benchmark_tracer_wraps_it(name):
    # perfbench/benchtrace.py counts metric calls through a functools.wraps
    # wrapper; the test calls the metric once, whatever the number of rounds
    matrix_a, matrix_b, gold = _perm_case()
    _, metric = coding_eval.make_metric(
        name, policy=coding_eval.ThresholdPolicy(kind="global"), k=1,
        code_ids=matrix_a.code_ids,
    )
    calls = []

    @functools.wraps(metric)
    def traced(*args, **kwargs):
        calls.append(args)
        return metric(*args, **kwargs)

    expected = coding_eval.permutation_test(matrix_a, matrix_b, gold, metric, rounds=40, seed=1)
    assert coding_eval.permutation_test(
        matrix_a, matrix_b, gold, traced, rounds=40, seed=1
    ) == expected
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name", ["micro-f1", "macro-f1", "micro-auc", "macro-auc", "precision-at-k"]
)
def test_a_larger_case_matches_the_whole_matrix_loop(name):
    # more than eight documents and codes, so that a mean taken in another
    # order than numpy's pairwise sum would show in the last bits
    rng = np.random.default_rng(7)
    a = np.round(rng.random((41, 23)) * 8) / 8
    b = np.where(rng.random(a.shape) < 0.3, np.round(rng.random(a.shape) * 8) / 8, a)
    gold = (rng.random(a.shape) < 0.3).astype(np.int8)
    code_ids = [f"c{j}" for j in range(a.shape[1])]
    note_ids = [f"n{i}" for i in range(a.shape[0])]
    policy = coding_eval.ThresholdPolicy(kind="global", global_value=0.5)
    label, metric = coding_eval.make_metric(name, policy=policy, k=7, code_ids=code_ids)
    args = (ScoreMatrix(note_ids, code_ids, a), ScoreMatrix(note_ids, code_ids, b), gold)
    kwargs = {"statistic_name": label, "rounds": 60, "seed": 12}
    oracle = whole_matrix_metric(name, policy, 7, code_ids)
    expected = permutation_oracle(*args, oracle, **kwargs)
    assert 0.0 < expected.p_value < 1.0
    assert coding_eval.permutation_test(*args, metric, **kwargs) == expected
