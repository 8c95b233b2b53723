import pytest

from acrocode import prompts
from acrocode.corpus import CandidateList

DISPLAYS = {"c1": "first thing", "c2": "second thing", "c3": "third thing"}


def test_chunk_candidates():
    cands = CandidateList(note_id="n1", ranked_codes=("c3", "c1", "c2"))
    chunks = prompts.chunk_candidates(cands, DISPLAYS, chunk_size=2)
    assert [[code for code, _ in chunk] for chunk in chunks] == [["c3", "c1"], ["c2"]]
    assert chunks[0][0] == ("c3", "third thing")


def test_chunk_candidates_rejects_missing_display():
    cands = CandidateList(note_id="n1", ranked_codes=("c1",))
    with pytest.raises(ValueError):
        prompts.chunk_candidates(cands, {}, chunk_size=2)


def test_merge_chunk_scores():
    cands = CandidateList(note_id="n1", ranked_codes=("c3", "c1", "c2"))
    chunks = prompts.chunk_candidates(cands, DISPLAYS, chunk_size=2)
    merged = prompts.merge_chunk_scores(chunks, [[0.9, 0.2], [0.5]])
    assert merged == {"c3": 0.9, "c1": 0.2, "c2": 0.5}


def test_merge_chunk_scores_rejects_length_mismatch():
    cands = CandidateList(note_id="n1", ranked_codes=("c1",))
    chunks = prompts.chunk_candidates(cands, DISPLAYS, chunk_size=2)
    with pytest.raises(ValueError):
        prompts.merge_chunk_scores(chunks, [[0.9, 0.2]])
