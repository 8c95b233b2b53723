"""Multi-label coding metrics: AUC, F1, precision@k, threshold tuning, permutation tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import ScoreMatrix

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
    tp, predicted = _f1_rows(predictions, gold).sum(axis=0, dtype=np.int64)
    positive = gold.sum(axis=0)
    per_code = _f1(tp, predicted, positive)
    macro = float(per_code.mean()) if per_code.size else 0.0
    return macro, float(_f1(tp.sum(), predicted.sum(), positive.sum()))


def _f1_rows(predictions: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Per document and code, the true-positive and predicted counts: ``docs x 2 x codes``."""
    return np.stack([predictions & gold, predictions], axis=1)


def _f1_of_totals(gold: np.ndarray, macro: bool) -> Callable[[np.ndarray], np.ndarray]:
    """F1 per round from ``rounds x 2 x codes`` sums of ``_f1_rows`` over documents.

    For micro F1 the rows are already summed over codes, so their last axis
    has length 1 and holds the pooled counts. Swapping documents between
    systems leaves the gold positives alone, so they are counted here once.
    """
    positive = gold.sum(axis=0) if macro else gold.sum()
    return lambda totals: _f1(totals[:, 0], totals[:, 1], positive).mean(axis=1)


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
    _check_micro_auc(gold_arr)
    micro = float(_sweep_auc(scores.reshape(-1, 1), gold_arr.reshape(-1, 1))[0])
    both = _macro_auc_codes(gold_arr)
    return float(np.mean(_sweep_auc(scores[:, both], gold_arr[:, both]))), micro


def _check_micro_auc(gold: np.ndarray) -> None:
    if gold.min() == gold.max():
        raise ValueError("micro AUC needs at least one positive and one negative")


def _macro_auc_codes(gold: np.ndarray) -> np.ndarray:
    """The indices of the codes with both classes, over which macro AUC averages."""
    both = np.flatnonzero(gold.any(axis=0) & ~gold.all(axis=0))
    if not both.size:
        raise ValueError("macro AUC needs a code with both classes present")
    return both


def precision_at_k(scores: np.ndarray, gold: np.ndarray, k: int) -> float:
    """Mean fraction of gold-positive codes among each note's top-k scores.

    Score ties are broken toward the lower code index so the ranking is
    deterministic.
    """
    scores, gold_arr = _check_scores(scores, gold)
    return float(_precision_rows(scores, gold_arr, k).mean())


def _precision_rows(scores: np.ndarray, gold: np.ndarray, k: int) -> np.ndarray:
    """Per document, the fraction of gold positives among its top-k codes."""
    n_codes = scores.shape[1]
    if not (1 <= k <= n_codes):
        raise ValueError(f"k must lie in [1, {n_codes}]")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(gold, top, axis=1).mean(axis=1)


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


# A permutation test runs its rounds in blocks; each block's temporaries hold
# about this many elements, whatever the number of rounds.
_PERM_BLOCK_ELEMENTS = 1 << 18


def make_metric(
    name: str,
    policy: ThresholdPolicy | None = None,
    k: int | None = None,
    code_ids: Sequence[str] | None = None,
) -> tuple[str, Callable]:
    """Resolve a metric name into a (label, metric) pair for permutation tests.

    The metric is one function, ``metric(gold, a, b) -> (width, values)``, of
    binary gold and two systems' finite score arrays of gold's shape. It
    builds each system's rows, one per document, once: macro F1 rows hold
    each document's (tp, predicted) counts per code, micro F1 rows their
    totals over codes, precision-at-k rows each document's precision, and
    AUC rows are the scores. A paired permutation swaps whole documents
    between the systems, so it swaps their rows and never recomputes them.
    ``values(swap)`` takes a ``rounds x docs`` boolean block of swap masks
    and gives, per round, the metric of A with the swapped documents' rows
    taken from B and the metric of B with them taken from A; its temporaries
    hold about ``width`` elements per round. F1 metrics need a threshold
    ``policy`` and the ``code_ids`` of the score columns, and precision-at-k
    needs ``k``.
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
            return counts if macro else counts.sum(axis=2, keepdims=True)

        def f1_rounds(gold: np.ndarray, a: np.ndarray, b: np.ndarray):
            return _summed_rounds(_f1_of_totals(gold, macro), rows(a, gold), rows(b, gold))

        return name, f1_rounds
    if name == "micro-auc":
        return name, _micro_auc_rounds
    if name == "macro-auc":
        return name, _macro_auc_rounds
    if name == "precision-at-k":
        if k is None:
            raise ValueError("precision-at-k needs k")

        def precision_rounds(gold: np.ndarray, a: np.ndarray, b: np.ndarray):
            return _selected_rounds(_precision_rows(a, gold, k), _precision_rows(b, gold, k))

        return f"precision-at-{k}", precision_rounds
    raise ValueError(f"unknown metric {name!r}")


def _summed_rounds(
    value: Callable[[np.ndarray], np.ndarray], rows_a: np.ndarray, rows_b: np.ndarray
) -> tuple[int, Callable]:
    """Rounds of a metric of its integer rows' sum over documents.

    A swap round's sum is A's total plus, over the swapped documents, B's row
    minus A's: one matrix product per block. The sums are small integers, so
    float64 holds them exactly, in any order and with any BLAS thread count.
    """
    total_a = rows_a.sum(axis=0, dtype=np.float64)
    total_b = rows_b.sum(axis=0, dtype=np.float64)
    shift = (rows_b.astype(np.float64) - rows_a).reshape(len(rows_a), -1)

    def values(swap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        moved = (swap.astype(np.float64) @ shift).reshape(-1, *total_a.shape)
        return value(total_a + moved), value(total_b - moved)

    return 4 * shift.shape[1], values


def _selected_rounds(rows_a: np.ndarray, rows_b: np.ndarray) -> tuple[int, Callable]:
    """Rounds of the mean of per-document values, each round's rows taken by its mask.

    The values are fractions, not counts, so each round sums the very rows a
    whole-matrix mean would, in the same order.
    """

    def values(swap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (np.where(swap, rows_b, rows_a).mean(axis=1),
                np.where(swap, rows_a, rows_b).mean(axis=1))

    return 2 * len(rows_a), values


def _macro_auc_rounds(
    gold: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[int, Callable]:
    """Rounds of macro AUC: one unit per code with both classes.

    The slots are the positive cells, code by code. Each holds, per
    document, the sign of its score against that document's score in the
    same code where that cell is negative.
    """
    codes = _macro_auc_codes(gold)
    slot_code, slot_doc = np.nonzero(gold[:, codes].T)
    cells = codes[slot_code]
    negative = gold[:, cells] == 0
    signs = [
        [np.where(negative, np.sign(x[slot_doc, cells] - y[:, cells]), 0.0) for y in (a, b)]
        for x in (a, b)
    ]
    positives = gold[:, codes].sum(axis=0)
    return _pair_count_rounds(signs, slot_doc, slot_code, positives * (len(gold) - positives))


def _micro_auc_rounds(
    gold: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[int, Callable]:
    """Rounds of micro AUC: all cells in one unit.

    The slots are the documents with a positive cell. Each holds, per
    document, the signs of all of its positive cells' scores against all of
    that document's negative cells' scores, summed. The sums come from the
    cells' ranks among every score of both systems, with the negatives
    sorted by document and rank.
    """
    _check_micro_auc(gold)
    pos_doc, pos_code = np.nonzero(gold)
    ranks = np.unique(np.stack([a, b]), return_inverse=True)[1].reshape(2, *a.shape)
    step = int(ranks.max()) + 1
    doc = np.arange(len(gold))[:, np.newaxis]
    starts = np.flatnonzero(np.diff(pos_doc, prepend=-1))
    signs: list[list[np.ndarray]] = [[], []]
    for y in ranks:
        keys = np.sort((doc * step + y)[gold == 0])
        first, end = np.searchsorted(keys, doc * step), np.searchsorted(keys, (doc + 1) * step)
        for x, row in zip(ranks, signs):
            query = doc * step + x[pos_doc, pos_code]
            below = np.searchsorted(keys, query) - first
            above = end - np.searchsorted(keys, query, side="right")
            row.append(np.add.reduceat(below - above, starts, axis=1).astype(np.float64))
    n_pos = len(pos_doc)
    return _pair_count_rounds(
        signs, pos_doc[starts], np.zeros(len(starts), dtype=np.intp),
        np.array([n_pos * (gold.size - n_pos)]),
    )


def _pair_count_rounds(
    signs: Sequence[Sequence[np.ndarray]],
    slot_doc: np.ndarray,
    slot_unit: np.ndarray,
    pairs: np.ndarray,
) -> tuple[int, Callable]:
    """Rounds of the mean AUC over units from exact pairwise counts, with no sort per round.

    Per unit (a code, or all cells), twice the Mann-Whitney U of scores ``x``
    is the sum over (positive, negative) pairs of ``2·[x_p > x_n] + [x_p = x_n]``,
    that is ``pairs`` plus the sum of ``sign(x_p - x_n)``. In a round with
    mask ``m``, each document's scores come from B where ``m`` is set and
    from A elsewhere, so twice U is a quadratic form in ``m`` over the four
    comparison tables A/B against A/B:

        2U(A with B swapped in) = S_AA + m·linear_x + m_P' Q m_N
        2U(B with A swapped in) = S_BB + m·linear_y + m_P' Q m_N

    with the shared ``Q = T_AA - T_AB - T_BA + T_BB``. ``signs[x][y]``, with
    0 for A and 1 for B, is ``docs x slots``: for each slot (a positive side,
    in document ``slot_doc`` and unit ``slot_unit``, units in order) the sign
    sums of its ``x`` scores against each document's negative ``y`` scores in
    that unit. Every entry is a small integer, so float64 sums are exact in
    any order and with any BLAS thread count, and ``two_u / 2.0 / pairs``
    gives the same bits as a sort of the swapped scores.
    """
    (aa, ab), (ba, bb) = signs
    starts = np.flatnonzero(np.diff(slot_unit, prepend=-1))
    # Negative sides, per document and unit, then positive sides, per slot.
    linear_x = np.add.reduceat(ab - aa, starts, axis=1)
    linear_y = np.add.reduceat(ba - bb, starts, axis=1)
    linear_x[slot_doc, slot_unit] += (ba - aa).sum(axis=0)
    linear_y[slot_doc, slot_unit] += (ab - bb).sum(axis=0)
    tables = np.hstack([aa - ab - ba + bb, linear_x, linear_y])
    two_u_a = pairs + np.add.reduceat(aa.sum(axis=0), starts)
    two_u_b = pairs + np.add.reduceat(bb.sum(axis=0), starts)
    n_slots, n_units = len(slot_doc), len(pairs)

    def values(swap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = swap.astype(np.float64)
        z = m @ tables
        quadratic = np.add.reduceat(m[:, slot_doc] * z[:, :n_slots], starts, axis=1)
        x = (two_u_a + z[:, n_slots:n_slots + n_units] + quadratic) / 2.0 / pairs
        y = (two_u_b + z[:, n_slots + n_units:] + quadratic) / 2.0 / pairs
        return x.mean(axis=1), y.mean(axis=1)

    return 3 * n_slots + 6 * n_units, values


def permutation_test(
    scores_a: ScoreMatrix,
    scores_b: ScoreMatrix,
    gold: np.ndarray,
    metric: Callable,
    statistic_name: str = "metric",
    rounds: int = 1000,
    seed: int = 0,
) -> PermTestResult:
    """Paired permutation test of metric(A) - metric(B) over shared documents.

    Each round independently swaps each document's rows between the two
    systems with probability one half and recomputes the difference; the
    p-value is (1 + hits) / (rounds + 1) where hits counts permuted absolute
    differences at least as large as the observed one. One stream,
    ``PCG64(seed)``, is read in round order: round ``r`` swaps document ``d``
    when raw draw ``r * n_docs + d`` is below 2**63, the bit that
    ``default_rng(seed).random((rounds, n_docs)) < 0.5`` also gives. So the
    masks do not depend on the block size, and a longer test starts with the
    rounds of a shorter one. ``metric`` is a function from ``make_metric``,
    called once per test as ``metric(gold, a, b)`` on the checked arrays; the
    ``values`` it returns runs the rounds in blocks of masks, as array
    operations with a leading rounds axis, whose temporaries stay under
    ``_PERM_BLOCK_ELEMENTS`` whatever ``rounds`` is. The observed difference
    is the round that swaps nothing.
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
    b, _ = _check_scores(scores_b.scores, gold_arr)
    width, values = metric(gold_arr, a, b)
    n_docs = len(a)

    def differences(swap: np.ndarray) -> np.ndarray:
        x, y = values(swap)
        return x - y

    observed = differences(np.zeros((1, n_docs), dtype=bool))[0]
    block = max(1, _PERM_BLOCK_ELEMENTS // (width + n_docs))
    stream = np.random.PCG64(seed)
    hits = 0
    for start in range(0, rounds, block):
        swap = stream.random_raw((min(block, rounds - start), n_docs)) < 1 << 63
        hits += int(np.count_nonzero(np.abs(differences(swap)) >= abs(observed)))
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
    """Finite float64 scores and binary gold of the same shape, with at least one cell."""
    scores = np.asarray(scores, dtype=np.float64)
    gold_arr = _check_binary(gold)
    if scores.shape != gold_arr.shape:
        raise ValueError("score and gold shapes differ")
    if scores.size == 0:
        n_notes, n_codes = scores.shape
        raise ValueError(f"score matrix is empty: {n_notes} notes x {n_codes} codes")
    finite = np.isfinite(scores)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"score at row {row}, column {col} is not finite: {scores[row, col]}")
    return scores, gold_arr
