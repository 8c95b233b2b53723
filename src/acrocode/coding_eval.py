"""Multi-label coding metrics: AUC, F1, precision@k, threshold tuning, permutation tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Mapping, Sequence

import numpy as np

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
    if t.ndim and t.shape != (arr.shape[1],):
        raise ValueError("need exactly one threshold per code")
    return (arr >= t).astype(np.int8)


def _f1(tp: np.ndarray, predicted: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Elementwise 2·tp / (predicted + positive), and 0 where both counts are 0."""
    denom = np.asarray(predicted + positive, dtype=np.float64)
    return np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1.0), 0.0)


def f1_scores(predictions: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Macro and micro F1 over binary prediction and gold matrices.

    Macro averages per-code F1 over every code in the matrix; a code whose
    precision and recall are both undefined contributes 0. Micro pools the
    confusion counts over all cells.
    """
    predictions, gold = _check_binary(predictions), _check_binary(gold)
    if predictions.shape != gold.shape:
        raise ValueError("prediction and gold shapes differ")
    counts = _f1_rows(predictions, gold)
    return _f1_value(gold, macro=True)(counts), _f1_value(gold, macro=False)(counts.sum(axis=2))


def _f1_rows(predictions: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Per document and code, the true-positive and predicted counts: ``docs x 2 x codes``."""
    return np.stack([predictions & gold, predictions], axis=1)


def _f1_value(gold: np.ndarray, macro: bool) -> Callable[[np.ndarray], float]:
    """F1 of a stack of ``_f1_rows``, per code for macro or summed over codes for micro.

    Swapping documents between systems leaves the gold positives alone, so
    they are counted here once.
    """
    positive = gold.sum(axis=0) if macro else gold.sum()

    def value(rows: np.ndarray) -> float:
        tp, predicted = rows.sum(axis=0, dtype=np.int64)
        per_code = _f1(tp, predicted, positive)
        return float(per_code.mean()) if per_code.size else 0.0

    return value


def _sweep(scores: np.ndarray, gold: np.ndarray) -> tuple[np.ndarray, ...]:
    """One stable descending sort per column: the sorted scores, cumulative true
    and false positives, and where each run of equal scores ends."""
    order = np.argsort(-scores, axis=0, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=0)
    tp = np.cumsum(np.take_along_axis(gold, order, axis=0), axis=0, dtype=np.int64)
    fp = np.arange(1, len(scores) + 1)[:, np.newaxis] - tp
    run_end = np.ones_like(ranked, dtype=bool)
    run_end[:-1] = ranked[:-1] != ranked[1:]
    return ranked, tp, fp, run_end


def _sweep_auc(scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Per column, the chance that a random positive outscores a random negative.

    With ``tp, fp`` the counts at a run end and ``tp', fp'`` at the previous
    one (0 before the first; counts never fall, so a running maximum carries
    them), the run's negatives lose to ``tp'`` positives and tie ``tp - tp'``:
    twice the Mann-Whitney U is the exact integer ``sum((fp - fp') * (tp + tp'))``.
    """
    _, tp, fp, run_end = _sweep(scores, gold)
    prev_tp, prev_fp = np.zeros_like(tp), np.zeros_like(fp)
    np.maximum.accumulate((tp * run_end)[:-1], axis=0, out=prev_tp[1:])
    np.maximum.accumulate((fp * run_end)[:-1], axis=0, out=prev_fp[1:])
    two_u = np.where(run_end, (fp - prev_fp) * (tp + prev_tp), 0).sum(axis=0)
    return two_u / 2.0 / (tp[-1] * fp[-1])


def auc_scores(scores: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Macro and micro area under the ROC curve.

    Computed as the rank statistic: the probability that a random positive
    outscores a random negative, with ties worth one half. Macro averages
    per-code AUC over codes that have both a positive and a negative; codes
    with one class are skipped. Micro flattens all cells into one ranking.
    """
    scores, gold_arr = _check_scores(scores, gold)
    micro = _micro_auc(gold_arr)(scores)
    return _macro_auc(gold_arr)(scores), micro


def _micro_auc(gold: np.ndarray) -> Callable[[np.ndarray], float]:
    """Micro AUC of a score matrix against ``gold``: all cells in one ranking."""
    labels = gold.reshape(-1, 1)
    if labels.min() == labels.max():
        raise ValueError("micro AUC needs at least one positive and one negative")
    return lambda scores: float(_sweep_auc(scores.reshape(-1, 1), labels)[0])


def _macro_auc(gold: np.ndarray) -> Callable[[np.ndarray], float]:
    """Macro AUC of a score matrix against ``gold``, over codes with both classes."""
    both = gold.any(axis=0) & ~gold.all(axis=0)
    if not both.any():
        raise ValueError("macro AUC needs a code with both classes present")
    labels = gold[:, both]
    return lambda scores: float(np.mean(_sweep_auc(scores[:, both], labels)))


def precision_at_k(scores: np.ndarray, gold: np.ndarray, k: int) -> float:
    """Mean fraction of gold-positive codes among each note's top-k scores.

    Score ties are broken toward the lower code index so the ranking is
    deterministic.
    """
    scores, gold_arr = _check_scores(scores, gold)
    return _mean(_precision_rows(scores, gold_arr, k))


def _precision_rows(scores: np.ndarray, gold: np.ndarray, k: int) -> np.ndarray:
    """Per document, the fraction of gold positives among its top-k codes."""
    n_codes = scores.shape[1]
    if not (1 <= k <= n_codes):
        raise ValueError(f"k must lie in [1, {n_codes}]")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(gold, top, axis=1).mean(axis=1)


def _mean(rows: np.ndarray) -> float:
    return float(rows.mean())


def tune_threshold(
    dev_scores: ScoreMatrix, dev_gold: np.ndarray, mode: str = THRESHOLD_GLOBAL
) -> ThresholdPolicy:
    """Pick decision thresholds that maximize F1 on development data.

    The candidates are the distinct dev scores above 0 plus 1.0. A score of
    0 marks a cell left out of scoring, since the model never gives 0, so a
    threshold of 0 is never chosen. Global mode maximizes micro F1 over all
    cells. Per-code mode maximizes each code's own F1 over that code's
    scores; a code with no dev positives falls back to the global optimum.
    Ties always resolve toward the larger threshold.
    """
    gold_arr = _check_binary(dev_gold)
    scores = dev_scores.scores
    if scores.shape != gold_arr.shape:
        raise ValueError("score and gold shapes differ")
    if mode not in (THRESHOLD_GLOBAL, THRESHOLD_PER_CODE):
        raise ValueError(f"unknown threshold mode {mode!r}")
    best_value = float(_best_thresholds(scores.reshape(-1, 1), gold_arr.reshape(-1, 1))[0])
    if mode == THRESHOLD_GLOBAL:
        return ThresholdPolicy(kind=THRESHOLD_GLOBAL, global_value=best_value)
    has_pos = gold_arr.any(axis=0)
    values = _best_thresholds(scores[:, has_pos], gold_arr[:, has_pos])
    per_code = dict(zip(compress(dev_scores.code_ids, has_pos), values.tolist()))
    return ThresholdPolicy(
        kind=THRESHOLD_PER_CODE, per_code_values=per_code, fallback=best_value
    )


def _best_thresholds(scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Per column, the candidate t whose ``scores >= t`` predictions give the best F1.

    The run ends of ``_sweep`` with a score above 0 are candidates. Threshold
    1.0 leads with F1 0, which is what predicting nothing gives. Where cells
    score 1.0 it predicts them instead, but no F1 is below 0, so 1.0 still
    wins exactly when no candidate beats 0. ``argmax`` takes the first
    maximum, so ties go to the larger threshold.
    """
    n_cols = scores.shape[1]
    ranked, tp, fp, run_end = _sweep(scores, gold)
    f1 = np.where(run_end & (ranked > 0.0), _f1(tp, tp + fp, gold.sum(axis=0)), 0.0)
    best = np.argmax(np.vstack([np.zeros(n_cols), f1]), axis=0)
    return np.vstack([np.ones(n_cols), ranked])[best, np.arange(n_cols)]


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


@dataclass(frozen=True)
class Metric:
    """A metric as one row per document plus the value of a stack of rows.

    ``rows(scores, gold)`` gives each document's row from its scores and gold
    labels alone. ``value(gold)`` does the work that depends on gold only and
    returns the function from a stack of rows, one per document of ``gold``,
    to the metric. A paired permutation swaps whole documents between two
    systems, so it swaps their rows and never recomputes them. Calling a
    metric on a score matrix gives ``value(gold)(rows(scores, gold))``.
    """

    rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    value: Callable[[np.ndarray], Callable[[np.ndarray], float]]

    def __call__(self, scores: np.ndarray, gold: np.ndarray) -> float:
        scores, gold = _check_scores(scores, gold)
        return self.value(gold)(self.rows(scores, gold))


def make_metric(
    name: str,
    policy: ThresholdPolicy | None = None,
    k: int | None = None,
    code_ids: Sequence[str] | None = None,
) -> tuple[str, Metric]:
    """Resolve a metric name into a (label, metric) pair for permutation tests.

    The metric is called with raw score and binary gold arrays. F1 metrics
    need a threshold ``policy`` and the ``code_ids`` of the score columns,
    and precision-at-k needs ``k``. Macro F1 rows hold each document's
    (tp, predicted) counts per code, micro F1 rows their totals over codes,
    precision-at-k rows each document's precision and AUC rows the scores.
    """
    if name in ("micro-f1", "macro-f1"):
        if policy is None:
            raise ValueError(f"metric {name!r} needs a threshold policy")
        if code_ids is None:
            raise ValueError(f"metric {name!r} needs code_ids to build thresholds")
        thresholds = policy.vector(code_ids)
        macro = name == "macro-f1"

        def rows(scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
            counts = _f1_rows(binarize(scores, thresholds), gold)
            return counts if macro else counts.sum(axis=2)

        return name, Metric(rows, lambda gold: _f1_value(gold, macro))
    if name in ("micro-auc", "macro-auc"):
        return name, Metric(lambda s, g: s, _micro_auc if name == "micro-auc" else _macro_auc)
    if name == "precision-at-k":
        if k is None:
            raise ValueError("precision-at-k needs k")
        return f"precision-at-{k}", Metric(
            lambda s, g: _precision_rows(s, g, k), lambda gold: _mean
        )
    raise ValueError(f"unknown metric {name!r}")


def permutation_test(
    scores_a: ScoreMatrix,
    scores_b: ScoreMatrix,
    gold: np.ndarray,
    metric: Metric,
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
    order. Each system's metric rows are computed once; a round swaps rows
    and takes the value of each stack.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if scores_a.note_ids != scores_b.note_ids:
        raise ValueError("score matrices disagree on note ids")
    if scores_a.code_ids != scores_b.code_ids:
        raise ValueError("score matrices disagree on code ids")
    a, gold_arr = _check_scores(scores_a.scores, gold)
    value = metric.value(gold_arr)
    rows_a = metric.rows(a, gold_arr)
    rows_b = metric.rows(scores_b.scores, gold_arr)
    observed = value(rows_a) - value(rows_b)
    hits = 0
    n_docs = a.shape[0]
    per_doc = (n_docs,) + (1,) * (rows_a.ndim - 1)
    for r in range(rounds):
        rng = np.random.default_rng(derive_seed(seed, "perm-round", r))
        swap = (rng.random(n_docs) < 0.5).reshape(per_doc)
        diff = value(np.where(swap, rows_b, rows_a)) - value(np.where(swap, rows_a, rows_b))
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


def _check_scores(scores: np.ndarray, gold: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and binary gold of the same shape, with at least one cell."""
    scores = np.asarray(scores, dtype=np.float64)
    gold_arr = _check_binary(gold)
    if scores.shape != gold_arr.shape:
        raise ValueError("score and gold shapes differ")
    if scores.size == 0:
        n_notes, n_codes = scores.shape
        raise ValueError(f"score matrix is empty: {n_notes} notes x {n_codes} codes")
    return scores, gold_arr
