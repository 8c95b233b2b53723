"""Scoring of predicted acronym expansions against per-occurrence gold annotations."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .align import ExpansionPair, levenshtein
from .corpus import GoldExpansion

DEFAULT_LENIENT_THRESHOLD = 70.0

VERDICT_STRICT = "strict-correct"
VERDICT_LENIENT = "lenient-correct"
VERDICT_INCORRECT = "incorrect"
VERDICT_UNDETECTED = "undetected"


@dataclass(frozen=True)
class PairVerdict:
    """Per-gold-record outcome used for error inspection."""

    note_id: str
    abbreviation: str
    predicted_expansion: str
    gold_full_form: str
    similarity: float
    verdict: str


@dataclass(frozen=True)
class ExpansionReport:
    detection_precision: float
    detection_recall: float
    strict_accuracy: float
    lenient_accuracy: float
    per_pair: tuple[PairVerdict, ...]


def canonicalize(text: str) -> str:
    """Comparison form of an abbreviation or expansion.

    Lowercases and trims outer whitespace; inner punctuation is meaningful
    and is kept.
    """
    return text.strip().lower()


def similarity(expansion: str, reference: str) -> float:
    """Percent similarity of a predicted expansion to the reference form.

    100 minus the edit distance as a percentage of the reference length, so
    an exact match scores 100 and a prediction needing more edits than the
    reference has characters scores below 0.
    """
    expansion_c = canonicalize(expansion)
    reference_c = canonicalize(reference)
    if not reference_c:
        raise ValueError("reference must be non-empty")
    distance = levenshtein(expansion_c, reference_c)
    return (1.0 - distance / len(reference_c)) * 100.0


def evaluate(
    pairs_by_note: Mapping[str, Sequence[ExpansionPair]],
    gold: Sequence[GoldExpansion],
    threshold: float = DEFAULT_LENIENT_THRESHOLD,
) -> ExpansionReport:
    """Score predicted expansion pairs against gold annotations.

    Predictions and gold are keyed by (note id, canonicalized abbreviation,
    occurrence index). Detection precision is the fraction of predictions
    whose key exists in gold; detection recall is the fraction of gold keys
    predicted. Strict accuracy requires the canonicalized expansion to equal
    the gold full form exactly; lenient accuracy accepts similarity at or
    above ``threshold``. Both accuracies are over all gold records, so an
    undetected gold record counts against them.
    """
    if not math.isfinite(threshold):
        # Every comparison with NaN is false, and every similarity clears -inf.
        raise ValueError(f"threshold must be a finite number, got {threshold}")
    if threshold > 100.0:
        raise ValueError("threshold must be <= 100")
    if not gold:
        raise ValueError("gold expansion list is empty")

    gold_index: dict[tuple[str, str, int], GoldExpansion] = {}
    for record in gold:
        key = (record.note_id, canonicalize(record.abbreviation), record.occurrence_index)
        if key in gold_index:
            raise ValueError(
                f"duplicate gold record for note {record.note_id!r}, "
                f"abbreviation {record.abbreviation!r}, occurrence {record.occurrence_index}"
            )
        gold_index[key] = record

    first_prediction: dict[tuple[str, str, int], ExpansionPair] = {}
    total_predictions = 0
    matched_predictions = 0
    for note_id, pairs in pairs_by_note.items():
        for pair in pairs:
            total_predictions += 1
            key = (note_id, canonicalize(pair.abbreviation), pair.occurrence_index)
            if key in gold_index:
                matched_predictions += 1
                first_prediction.setdefault(key, pair)

    per_pair = tuple(
        _verdict(record, first_prediction.get(key), threshold) for key, record in gold_index.items()
    )
    counts = Counter(v.verdict for v in per_pair)
    n_gold = len(per_pair)
    return ExpansionReport(
        detection_precision=(matched_predictions / total_predictions) if total_predictions else 0.0,
        detection_recall=(n_gold - counts[VERDICT_UNDETECTED]) / n_gold,
        strict_accuracy=counts[VERDICT_STRICT] / n_gold,
        lenient_accuracy=(counts[VERDICT_STRICT] + counts[VERDICT_LENIENT]) / n_gold,
        per_pair=per_pair,
    )


def _verdict(record: GoldExpansion, pair: ExpansionPair | None, threshold: float) -> PairVerdict:
    """The outcome of one gold record, given its first matching prediction, if any."""
    if pair is None:
        expansion, sim, verdict = "", 0.0, VERDICT_UNDETECTED
    else:
        expansion = pair.expansion
        sim = similarity(expansion, record.full_form)
        if canonicalize(expansion) == canonicalize(record.full_form):
            verdict = VERDICT_STRICT
        elif sim >= threshold:
            verdict = VERDICT_LENIENT
        else:
            verdict = VERDICT_INCORRECT
    return PairVerdict(
        note_id=record.note_id,
        abbreviation=record.abbreviation,
        predicted_expansion=expansion,
        gold_full_form=record.full_form,
        similarity=sim,
        verdict=verdict,
    )
