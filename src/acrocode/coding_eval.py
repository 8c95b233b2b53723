"""Multi-label coding metrics: AUC, F1, precision@k, threshold tuning, permutation tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

from .corpus import ScoreMatrix
from .seeding import derive_seed

THRESHOLD_GLOBAL = "global"
THRESHOLD_PER_CODE = "per-code"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Decision thresholds applied with a >= comparison.

    ``global`` uses one value everywhere; ``per-code`` looks codes up in
    ``per_code_values`` and falls back to ``fallback`` for absent codes.
    """

    kind: str
    global_value: float = 0.5
    per_code_values: Mapping[str, float] = field(default_factory=dict)
    fallback: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in (THRESHOLD_GLOBAL, THRESHOLD_PER_CODE):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        values = [self.global_value, self.fallback, *self.per_code_values.values()]
        for v in values:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"threshold {v!r} outside [0, 1]")

    def vector(self, code_ids: Sequence[str]) -> np.ndarray:
        if self.kind == THRESHOLD_GLOBAL:
            return np.full(len(code_ids), self.global_value, dtype=np.float64)
        return np.array(
            [self.per_code_values.get(c, self.fallback) for c in code_ids],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class MetricsReport:
    macro_auc: float
    micro_auc: float
    macro_f1: float
    micro_f1: float
    precision_at: Mapping[int, float]
    threshold_used: ThresholdPolicy | None = None


@dataclass(frozen=True)
class PermTestResult:
    statistic_name: str
    observed_diff: float
    p_value: float
    rounds: int
    seed: int

    def __post_init__(self) -> None:
        if not (0.0 < self.p_value <= 1.0):
            raise ValueError("p-value must lie in (0, 1]")


def binarize(scores: np.ndarray, thresholds: float | np.ndarray) -> np.ndarray:
    """Threshold scores into {0, 1}; a score equal to its threshold is positive.

    ``thresholds`` is a scalar applied everywhere or one value per column.
    """
    arr = np.asarray(scores, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    if t.ndim == 0:
        return (arr >= t).astype(np.int8)
    if t.shape != (arr.shape[1],):
        raise ValueError("need exactly one threshold per code")
    return (arr >= t[np.newaxis, :]).astype(np.int8)


def _f1_from_counts(tp: float, pred: float, pos: float) -> float:
    denom = pred + pos
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def f1_scores(predictions: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Macro and micro F1 over binary prediction and gold matrices.

    Macro averages per-code F1 over every code in the matrix; a code whose
    precision and recall are both undefined contributes 0. Micro pools the
    confusion counts over all cells.
    """
    predictions, gold = _check_binary_pair(predictions, gold)
    tp = np.logical_and(predictions == 1, gold == 1).sum(axis=0).astype(np.float64)
    pred = (predictions == 1).sum(axis=0).astype(np.float64)
    pos = (gold == 1).sum(axis=0).astype(np.float64)
    per_code = np.array(
        [_f1_from_counts(tp[c], pred[c], pos[c]) for c in range(gold.shape[1])]
    )
    macro = float(per_code.mean()) if per_code.size else 0.0
    micro = _f1_from_counts(float(tp.sum()), float(pred.sum()), float(pos.sum()))
    return macro, micro


def _auc_from_ranks(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = int(labels.sum())
    neg = labels.size - pos
    ranks = rankdata(scores, method="average")
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def auc_scores(scores: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Macro and micro area under the ROC curve.

    Computed as the rank statistic: the probability that a random positive
    outscores a random negative, with ties worth one half. Macro averages
    per-code AUC over codes that have both a positive and a negative; codes
    with one class are skipped. Micro flattens all cells into one ranking.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gold_arr = _check_binary(gold)
    if scores.shape != gold_arr.shape:
        raise ValueError("score and gold shapes differ")
    flat_labels = gold_arr.ravel()
    if flat_labels.min() == flat_labels.max():
        raise ValueError("micro AUC needs at least one positive and one negative")
    micro = _auc_from_ranks(scores.ravel(), flat_labels)
    per_code: list[float] = []
    for c in range(gold_arr.shape[1]):
        col = gold_arr[:, c]
        if col.min() == col.max():
            continue
        per_code.append(_auc_from_ranks(scores[:, c], col))
    if not per_code:
        raise ValueError("macro AUC needs a code with both classes present")
    return float(np.mean(per_code)), float(micro)


def precision_at_k(scores: np.ndarray, gold: np.ndarray, k: int) -> float:
    """Mean fraction of gold-positive codes among each note's top-k scores.

    Score ties are broken toward the lower code index so the ranking is
    deterministic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gold_arr = _check_binary(gold)
    if scores.shape != gold_arr.shape:
        raise ValueError("score and gold shapes differ")
    n_codes = scores.shape[1]
    if not (1 <= k <= n_codes):
        raise ValueError(f"k must lie in [1, {n_codes}]")
    col_index = np.arange(n_codes)
    fractions = np.empty(scores.shape[0], dtype=np.float64)
    for i in range(scores.shape[0]):
        order = np.lexsort((col_index, -scores[i]))
        fractions[i] = gold_arr[i, order[:k]].mean()
    return float(fractions.mean())


def tune_threshold(
    dev_scores: ScoreMatrix, dev_gold: np.ndarray, mode: str = THRESHOLD_GLOBAL
) -> ThresholdPolicy:
    """Pick decision thresholds that maximize F1 on development data.

    Global mode maximizes micro F1 over every distinct dev score plus 0 and
    1. Per-code mode maximizes each code's own F1 over that code's distinct
    scores; a code with no dev positives falls back to the global optimum.
    Ties always resolve toward the larger threshold.
    """
    gold_arr = _check_binary(dev_gold)
    if dev_scores.scores.shape != gold_arr.shape:
        raise ValueError("score and gold shapes differ")
    flat_scores = dev_scores.scores.ravel()
    best_value = _best_threshold(
        flat_scores, gold_arr.ravel(), np.concatenate([flat_scores, [0.0, 1.0]])
    )
    if mode == THRESHOLD_GLOBAL:
        return ThresholdPolicy(kind=THRESHOLD_GLOBAL, global_value=best_value)
    if mode != THRESHOLD_PER_CODE:
        raise ValueError(f"unknown threshold mode {mode!r}")
    per_code: dict[str, float] = {}
    for c, code in enumerate(dev_scores.code_ids):
        col_gold = gold_arr[:, c]
        if col_gold.sum() == 0:
            continue
        col_scores = dev_scores.scores[:, c]
        per_code[code] = _best_threshold(col_scores, col_gold, col_scores)
    return ThresholdPolicy(
        kind=THRESHOLD_PER_CODE, per_code_values=per_code, fallback=best_value
    )


def _best_threshold(scores: np.ndarray, gold: np.ndarray, candidates: np.ndarray) -> float:
    """The candidate whose ``scores >= t`` predictions give the highest F1.

    Candidates are tried from the largest down and only a strictly better F1
    replaces the best so far, so ties resolve toward the larger threshold.
    """
    total_pos = float(gold.sum())
    best_value = 1.0
    best_f1 = -1.0
    for t in np.unique(candidates)[::-1]:
        mask = scores >= t
        f1 = _f1_from_counts(float(gold[mask].sum()), float(mask.sum()), total_pos)
        if f1 > best_f1:
            best_f1 = f1
            best_value = float(t)
    return best_value


def evaluate_coding(
    scores: ScoreMatrix,
    gold: np.ndarray,
    policy: ThresholdPolicy,
    ks: Sequence[int] = (5, 8),
) -> MetricsReport:
    """Full metric sweep of one score matrix against gold labels."""
    gold_arr = _check_binary(gold)
    predictions = binarize(scores.scores, policy.vector(scores.code_ids))
    macro_f1, micro_f1 = f1_scores(predictions, gold_arr)
    macro_auc, micro_auc = auc_scores(scores.scores, gold_arr)
    precision = {int(k): precision_at_k(scores.scores, gold_arr, int(k)) for k in ks}
    return MetricsReport(
        macro_auc=macro_auc,
        micro_auc=micro_auc,
        macro_f1=macro_f1,
        micro_f1=micro_f1,
        precision_at=precision,
        threshold_used=policy,
    )


def mean_reports(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Arithmetic mean of per-seed metric reports, field by field."""
    if not reports:
        raise ValueError("no reports to aggregate")
    ks = sorted(reports[0].precision_at)
    for r in reports:
        if sorted(r.precision_at) != ks:
            raise ValueError("reports disagree on precision@k cutoffs")
    n = len(reports)
    return MetricsReport(
        macro_auc=sum(r.macro_auc for r in reports) / n,
        micro_auc=sum(r.micro_auc for r in reports) / n,
        macro_f1=sum(r.macro_f1 for r in reports) / n,
        micro_f1=sum(r.micro_f1 for r in reports) / n,
        precision_at={k: sum(r.precision_at[k] for r in reports) / n for k in ks},
        threshold_used=None,
    )


MetricFn = Callable[[np.ndarray, np.ndarray], float]


def make_metric(
    name: str,
    policy: ThresholdPolicy | None = None,
    k: int | None = None,
    code_ids: Sequence[str] | None = None,
) -> tuple[str, MetricFn]:
    """Resolve a metric name into a (label, callable) pair for permutation tests.

    The callable takes raw score and binary gold arrays. F1 metrics need a
    threshold ``policy`` (plus ``code_ids`` for per-code policies) and
    precision-at-k needs ``k``.
    """
    if name in ("micro-f1", "macro-f1"):
        if policy is None:
            raise ValueError(f"metric {name!r} needs a threshold policy")
        if policy.kind == THRESHOLD_PER_CODE:
            if code_ids is None:
                raise ValueError("a per-code policy needs code_ids to build thresholds")
            thresholds: np.ndarray | float = policy.vector(list(code_ids))
        else:
            thresholds = policy.global_value
        index = 1 if name == "micro-f1" else 0

        def metric(scores: np.ndarray, gold: np.ndarray) -> float:
            return f1_scores(binarize(scores, thresholds), gold)[index]

        return name, metric
    if name == "micro-auc":
        return "micro-auc", lambda s, g: auc_scores(s, g)[1]
    if name == "macro-auc":
        return "macro-auc", lambda s, g: auc_scores(s, g)[0]
    if name == "precision-at-k":
        if k is None:
            raise ValueError("precision-at-k needs k")
        return f"precision-at-{k}", lambda s, g: precision_at_k(s, g, k)
    raise ValueError(f"unknown metric {name!r}")


def permutation_test(
    scores_a: ScoreMatrix,
    scores_b: ScoreMatrix,
    gold: np.ndarray,
    metric: MetricFn,
    statistic_name: str = "metric",
    rounds: int = 1000,
    seed: int = 0,
) -> PermTestResult:
    """Paired permutation test of metric(A) - metric(B) over shared documents.

    Each round independently swaps each document's rows between the two
    systems with probability one half and recomputes the difference; the
    p-value is (1 + hits) / (rounds + 1) where hits counts permuted absolute
    differences at least as large as the observed one. Round randomness is
    derived from (seed, round index), so results do not depend on execution
    order.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if scores_a.note_ids != scores_b.note_ids:
        raise ValueError("score matrices disagree on note ids")
    if scores_a.code_ids != scores_b.code_ids:
        raise ValueError("score matrices disagree on code ids")
    gold_arr = _check_binary(gold)
    if gold_arr.shape != scores_a.scores.shape:
        raise ValueError("gold shape does not match score matrices")
    a = scores_a.scores
    b = scores_b.scores
    observed = metric(a, gold_arr) - metric(b, gold_arr)
    hits = 0
    n_docs = a.shape[0]
    for r in range(rounds):
        rng = np.random.default_rng(derive_seed(seed, "perm-round", r))
        swap = rng.random(n_docs) < 0.5
        perm_a = np.where(swap[:, np.newaxis], b, a)
        perm_b = np.where(swap[:, np.newaxis], a, b)
        diff = metric(perm_a, gold_arr) - metric(perm_b, gold_arr)
        if abs(diff) >= abs(observed):
            hits += 1
    return PermTestResult(
        statistic_name=statistic_name,
        observed_diff=float(observed),
        p_value=(1 + hits) / (rounds + 1),
        rounds=rounds,
        seed=seed,
    )


def _check_binary(gold: np.ndarray) -> np.ndarray:
    arr = np.asarray(gold)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D label matrix")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("label matrix must be binary")
    return arr.astype(np.int8)


def _check_binary_pair(pred: np.ndarray, gold: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred_arr = _check_binary(pred)
    gold_arr = _check_binary(gold)
    if pred_arr.shape != gold_arr.shape:
        raise ValueError("prediction and gold shapes differ")
    return pred_arr, gold_arr
