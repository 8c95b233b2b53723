import math

import pytest

from acrocode import expansion_eval
from acrocode.align import ExpansionPair
from acrocode.corpus import GoldExpansion

# Reference pairs with hand-checked edit distances. Each similarity is
# (1 - distance / len(reference)) * 100 and is pinned to two decimals.
REFERENCE_SIMILARITIES = [
    ("heart rate", "heart rate", 100.0),
    ("type ii diabetes", "type 2 diabetes", 86.67),
    ("beta-blocker", "beta blockers", 84.61),
    ("right atrial dilatation", "left atrial dilatation", 81.82),
    ("low back ache", "low back pain", 69.23),
    ("diazepam", "lorazepam", 66.67),
    ("hip fracture", "fracture", 50.0),
    ("serum cholesterol", "cholesterol", 45.45),
    ("rapid atrial fibrillation", "atrial fibrillation", 68.42),
    ("a mitral insufficiency", "myocardial infarction", 28.57),
    ("zinc", "iron", 0.0),
    ("was unable to expand this term", "deep vein thrombosis", -25.0),
]


def test_similarity_reference_values():
    for predicted, reference, expected in REFERENCE_SIMILARITIES:
        got = expansion_eval.similarity(predicted, reference)
        assert got == pytest.approx(expected, abs=0.01), (predicted, reference)


def test_similarity_ignores_case_and_outer_space():
    assert expansion_eval.similarity(" Heart Rate ", "heart rate") == 100.0


def test_similarity_can_go_below_minus_100():
    # nothing clamps the score when the prediction is much longer
    value = expansion_eval.similarity("x" * 30, "ab")
    assert value == -1400.0


def test_similarity_rejects_empty_reference():
    with pytest.raises(ValueError):
        expansion_eval.similarity("anything", "   ")


def _pair(abbr, expansion, occurrence=0):
    return ExpansionPair(
        abbreviation=abbr,
        expansion=expansion,
        a_span=(0, len(abbr)),
        b_span=(0, len(expansion)),
        occurrence_index=occurrence,
    )


def _gold(note_id, abbr, full_form, occurrence=0):
    return GoldExpansion(
        note_id=note_id, abbreviation=abbr, full_form=full_form, occurrence_index=occurrence
    )


def test_evaluate_counts():
    pairs = {
        "n1": [_pair("hr", "heart rate"), _pair("xx", "spurious output")],
        "n2": [_pair("cp", "chest discomfort")],
    }
    gold = [
        _gold("n1", "hr", "heart rate"),
        _gold("n2", "cp", "chest pain"),
        _gold("n2", "sob", "shortness of breath"),
    ]
    report = expansion_eval.evaluate(pairs, gold)
    # 2 of 3 predictions match a gold key; 2 of 3 gold keys were predicted
    assert report.detection_precision == pytest.approx(2 / 3)
    assert report.detection_recall == pytest.approx(2 / 3)
    # strict: only hr. lenient threshold 70: "chest discomfort" vs
    # "chest pain" is 30.0, so it stays incorrect.
    assert report.strict_accuracy == pytest.approx(1 / 3)
    assert report.lenient_accuracy == pytest.approx(1 / 3)
    by_key = {(v.note_id, v.abbreviation): v for v in report.per_pair}
    assert by_key[("n2", "sob")].verdict == expansion_eval.VERDICT_UNDETECTED
    assert by_key[("n2", "sob")].predicted_expansion == ""
    assert by_key[("n2", "sob")].similarity == 0.0


def test_evaluate_matches_on_occurrence_index():
    pairs = {"n1": [_pair("pt", "physical therapy", occurrence=1)]}
    gold = [
        _gold("n1", "pt", "patient", occurrence=0),
        _gold("n1", "pt", "physical therapy", occurrence=1),
    ]
    report = expansion_eval.evaluate(pairs, gold)
    by_occ = {v.similarity for v in report.per_pair}
    assert report.detection_recall == pytest.approx(1 / 2)
    assert 100.0 in by_occ


def test_evaluate_abbreviation_match_is_case_insensitive():
    pairs = {"n1": [_pair("HR", "heart rate")]}
    report = expansion_eval.evaluate(pairs, [_gold("n1", "hr", "heart rate")])
    assert report.strict_accuracy == 1.0


def test_evaluate_first_prediction_wins():
    pairs = {"n1": [_pair("hr", "wrong thing"), _pair("hr", "heart rate")]}
    report = expansion_eval.evaluate(pairs, [_gold("n1", "hr", "heart rate")])
    assert report.strict_accuracy == 0.0


def test_evaluate_lenient_threshold_is_inclusive():
    # "beta-blocker" vs "beta blockers" sits at 84.6, above 70; exactly at
    # the threshold must also count
    pairs = {"n1": [_pair("bb", "beta-blocker")]}
    gold = [_gold("n1", "bb", "beta blockers")]
    at_threshold = expansion_eval.similarity("beta-blocker", "beta blockers")
    report = expansion_eval.evaluate(pairs, gold, threshold=at_threshold)
    assert report.lenient_accuracy == 1.0
    report = expansion_eval.evaluate(pairs, gold, threshold=at_threshold + 0.01)
    assert report.lenient_accuracy == 0.0


def test_evaluate_strict_counts_toward_lenient():
    pairs = {"n1": [_pair("hr", "heart rate")]}
    report = expansion_eval.evaluate(pairs, [_gold("n1", "hr", "heart rate")])
    assert report.lenient_accuracy == 1.0


def test_evaluate_no_predictions():
    report = expansion_eval.evaluate({}, [_gold("n1", "hr", "heart rate")])
    assert report.detection_precision == 0.0
    assert report.detection_recall == 0.0
    assert report.strict_accuracy == 0.0


def test_evaluate_rejects_empty_gold():
    with pytest.raises(ValueError):
        expansion_eval.evaluate({}, [])


def test_evaluate_rejects_duplicate_gold_keys():
    gold = [_gold("n1", "hr", "heart rate"), _gold("n1", "HR", "heart rhythm")]
    with pytest.raises(ValueError):
        expansion_eval.evaluate({}, gold)


def test_evaluate_rejects_threshold_above_100():
    with pytest.raises(ValueError):
        expansion_eval.evaluate({}, [_gold("n1", "hr", "heart rate")], threshold=101.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_evaluate_rejects_a_threshold_that_is_not_finite(threshold):
    # NaN would fail every lenient comparison, and -inf would pass every one.
    pairs = {"n1": [_pair("hr", "heart rate")]}
    with pytest.raises(ValueError, match=f"threshold must be a finite number, got {threshold}"):
        expansion_eval.evaluate(pairs, [_gold("n1", "hr", "heart rate")], threshold=threshold)
