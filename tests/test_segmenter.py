import re

from hypothesis import given, settings
from hypothesis import strategies as st

from acrocode import segment
from acrocode.expand import split_for_request

NOTE = (
    "preamble line without a marker\n"
    "chief complaint: chest pain.\n"
    "history of present illness: 71 yo male.\n"
    "more of the same section\n"
    "social history: lives alone.\n"
    "family history: father with cad.\n"
    "discharge instructions: follow up in one week.\n"
)


def test_segment_headers_and_offsets():
    sections = segment.segment(NOTE)
    assert [s.header for s in sections] == [
        "",
        "chief complaint",
        "history of present illness",
        "social history",
        "family history",
        "discharge instructions",
    ]
    for s in sections:
        assert NOTE[s.start : s.end] == s.body


def test_segment_is_lossless():
    for text in [NOTE, "", "no headers at all", "a: b", "x\n\n\ny:\n"]:
        assert "".join(s.body for s in segment.segment(text)) == text


def test_header_word_limit():
    # seven words before the colon is prose, not a header
    text = "one two three four five six seven: not a header\n"
    sections = segment.segment(text)
    assert [s.header for s in sections] == [""]
    assert segment.segment("one two three four five six: header\n")[0].header != ""


def test_header_rejects_digits_and_midline_colons():
    assert [s.header for s in segment.segment("lab results 2: value\n")] == [""]
    assert [s.header for s in segment.segment("time was 12:30 today\n")] == [""]


def test_header_normalization():
    sections = segment.segment("  Chief   Complaint: pain\n")
    assert sections[0].header == "chief complaint"


def test_token_count():
    assert segment.token_count("") == 0
    assert segment.token_count("a b  c\nd") == 4


def test_reduce_drops_in_priority_order():
    sections = segment.segment(NOTE)
    total = segment.token_count(NOTE)
    droppable = ["social history", "family history", "discharge instructions"]
    # budget forcing exactly one drop: removing social history is enough
    social = next(s for s in sections if s.header == "social history")
    budget = total - segment.token_count(social.body)
    reduced = segment.reduce_to_budget(sections, budget, droppable)
    assert "lives alone" not in reduced
    assert "father with cad" in reduced
    assert "follow up in one week" in reduced


def test_reduce_keeps_everything_under_budget():
    sections = segment.segment(NOTE)
    assert segment.reduce_to_budget(sections, 10_000, ["social history"]) == NOTE


def test_reduce_truncates_after_drops():
    sections = segment.segment(NOTE)
    reduced = segment.reduce_to_budget(
        sections, 5, ["social history", "family history", "discharge instructions"]
    )
    assert segment.token_count(reduced) == 5


def test_truncation_cuts_at_token_end():
    sections = segment.segment("alpha bravo charlie delta\n")
    assert segment.reduce_to_budget(sections, 2, []) == "alpha bravo"


def test_default_droppable_are_normalized_headers():
    for header in segment.DEFAULT_DROPPABLE:
        assert header == header.lower()
        assert not re.search(r"\s\s", header)


# --- lossless splitting, property tests ---

_WORD = st.text(alphabet="abcxyz", min_size=1, max_size=5)
_WORDS = st.lists(_WORD, min_size=1, max_size=30).map(" ".join)
_SENTENCE = st.builds(str.__add__, _WORDS, st.sampled_from(["", ".", "?", "!", ". ", "! "]))
# up to 8 words before the colon: headers, and prose past the 6-word limit
_HEADER = st.builds(
    lambda indent, words, rest: f"{indent}{' '.join(words)}:{rest}",
    st.sampled_from(["", " ", "\t"]),
    st.lists(_WORD, min_size=1, max_size=8),
    st.sampled_from(["", " ", " pt stable.", " bp ok. hr ok."]),
)
_LINE = st.one_of(
    _HEADER, st.lists(_SENTENCE, max_size=4).map("".join), st.sampled_from(["", " ", "\t  "])
)
_END = st.sampled_from(["\n", "\r\n", "  \n", " \t\n", ""])
NOTES = st.lists(st.tuples(_LINE, _END), max_size=10).map(
    lambda lines: "".join(line + end for line, end in lines)
)


@settings(max_examples=200)
@given(NOTES)
def test_segment_bodies_concatenate_to_the_note(text):
    sections = segment.segment(text)
    assert "".join(s.body for s in sections) == text
    assert [s.start for s in sections[1:]] == [s.end for s in sections[:-1]]
    assert all(text[s.start : s.end] == s.body for s in sections)


@settings(max_examples=200)
@given(NOTES, st.integers(1, 12))
def test_split_for_request_chunks_join_to_the_text(text, budget):
    chunks = split_for_request(text, budget)
    assert "".join(chunks) == text
    if segment.token_count(text) <= budget:
        assert chunks == [text]
    else:
        assert all(segment.token_count(chunk) for chunk in chunks)
