"""Alignment tests.

The reference implementations here are written independently of the library:
edit distance as a memoized recursion and token alignment as a quadratic
longest-common-subsequence table. Generated cases stick to the supported
rewrite shape (token substitutions with intact context) where the correct
answer is known exactly.
"""

import functools
import random
import re
import sys
from difflib import SequenceMatcher

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrocode import align
from acrocode.corpus import Note
from acrocode.expand import mock_expand
from acrocode.segment import segment
from synthgen import expand_with_mock, generate


def lcs_len(a: list, b: list) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def edit_distance_reference(a: str, b: str) -> int:
    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def standalone_count_reference(text: str, phrase: str) -> int:
    """Left-to-right, non-overlapping case-insensitive matches not inside a token.

    Case is compared by ``casefold``, which on the test alphabet equates the
    characters re.IGNORECASE does: it folds ``ſ`` to ``s`` and the Kelvin
    sign ``K`` to ``k``, where ``lower`` leaves ``ſ`` as it is. A token
    character is one whose ``isalnum()`` is true, ASCII or not.
    """
    def alnum(i: int) -> bool:
        return 0 <= i < len(text) and text[i].isalnum()

    count = start = 0
    while start + len(phrase) <= len(text):
        end = start + len(phrase)
        if (
            text[start:end].casefold() == phrase.casefold()
            and not alnum(start - 1)
            and not alnum(end)
        ):
            count += 1
            start = end
        else:
            start += 1
    return count


# --- match_blocks ---


def test_identical_texts_one_block():
    assert align.match_blocks("abc def", "abc def") == [
        align.AlignmentBlock(a_start=0, b_start=0, length=7)
    ]
    assert align.match_blocks("", "") == []


def test_block_slices_are_equal_and_ordered():
    rng = random.Random(11)
    vocab = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    for _ in range(200):
        a = " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
        b = " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
        prev_a = prev_b = -1
        for blk in align.match_blocks(a, b):
            assert blk.length > 0
            assert a[blk.a_start : blk.a_start + blk.length] == (
                b[blk.b_start : blk.b_start + blk.length]
            )
            assert blk.a_start > prev_a and blk.b_start > prev_b
            prev_a = blk.a_start + blk.length - 1
            prev_b = blk.b_start + blk.length - 1


def test_matched_tokens_never_exceed_lcs():
    rng = random.Random(12)
    vocab = ["aa", "bb", "cc", "dd"]
    for _ in range(300):
        ta = rng.choices(vocab, k=rng.randint(0, 10))
        tb = rng.choices(vocab, k=rng.randint(0, 10))
        a, b = " ".join(ta), " ".join(tb)
        matched = 0
        for blk in align.match_blocks(a, b):
            matched += len(a[blk.a_start : blk.a_start + blk.length].split())
        assert matched <= lcs_len(ta, tb) or a == b


def match_blocks_per_token(a: str, b: str) -> list[align.AlignmentBlock]:
    """``align.match_blocks`` as it was written first, kept as an oracle.

    difflib's blocks over ``\\S+`` tokens, merged one token at a time: a token
    joins the previous block when the text between them is equal on both
    sides; then identical flanking whitespace is absorbed.
    """
    if a == b:
        return [align.AlignmentBlock(a_start=0, b_start=0, length=len(a))] if a else []
    a_spans = [(m.start(), m.end(), m.group()) for m in re.finditer(r"\S+", a)]
    b_spans = [(m.start(), m.end(), m.group()) for m in re.finditer(r"\S+", b)]
    matcher = SequenceMatcher(
        None, [t for _, _, t in a_spans], [t for _, _, t in b_spans], autojunk=False
    )
    merged: list[list[int]] = []
    for i, j, n in matcher.get_matching_blocks():
        for k in range(n):
            sa, ea, _ = a_spans[i + k]
            sb, eb, _ = b_spans[j + k]
            if merged and a[merged[-1][1]:sa] == b[merged[-1][3]:sb]:
                merged[-1][1] = ea
                merged[-1][3] = eb
            else:
                merged.append([sa, ea, sb, eb])
    if merged:
        first = merged[0]
        while (
            first[0] > 0
            and first[2] > 0
            and a[first[0] - 1] == b[first[2] - 1]
            and a[first[0] - 1].isspace()
        ):
            first[0] -= 1
            first[2] -= 1
        last = merged[-1]
        while (
            last[1] < len(a)
            and last[3] < len(b)
            and a[last[1]] == b[last[3]]
            and a[last[1]].isspace()
        ):
            last[1] += 1
            last[3] += 1
    return [align.AlignmentBlock(sa, sb, ea - sa) for sa, ea, sb, eb in merged]


_WHITESPACE = ["", " ", "  ", "\t", "\r\n", "\n\n", "\x1c", "\x85", "\xa0", "\u3000", " \x85 "]


@st.composite
def _spaced_pairs(draw) -> tuple[str, str]:
    """Two texts of tokens from a small alphabet, joined by mixed Unicode whitespace.

    The second is the first with tokens substituted, inserted and deleted,
    and some of its whitespace changed, so blocks whose inner whitespace
    differs are common.
    """
    words = st.sampled_from(["a", "b", "c", "sob", "hr"])
    gaps = st.sampled_from(_WHITESPACE[1:])
    a_words = draw(st.lists(words, max_size=20))
    a_gaps = draw(st.lists(gaps, min_size=len(a_words) + 1, max_size=len(a_words) + 1))
    a_gaps[0] = draw(st.sampled_from(_WHITESPACE))
    a_gaps[-1] = draw(st.sampled_from(_WHITESPACE))
    b_words, b_gaps = list(a_words), list(a_gaps)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(b_words)))
        op = draw(st.sampled_from(["substitute", "insert", "delete", "respace"]))
        if op == "insert":
            b_words.insert(at, draw(words))
            b_gaps.insert(at + 1, draw(gaps))
        elif op == "respace":
            b_gaps[at] = draw(gaps if 0 < at < len(b_words) else st.sampled_from(_WHITESPACE))
        elif at < len(b_words):
            if op == "substitute":
                b_words[at] = draw(words)
            else:
                del b_words[at]
                del b_gaps[at + 1]

    def join(words, gaps):
        return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))

    return join(a_words, a_gaps), join(b_words, b_gaps)


@settings(max_examples=500)
@given(_spaced_pairs())
@example(("a b\x1cc\u3000d e", "a b c\u3000d e"))
@example(("\x85a b c d\r\n", "\x85a b\xa0c d\r\n"))
def test_match_blocks_equals_the_per_token_oracle(pair):
    a, b = pair
    assert align.match_blocks(a, b) == match_blocks_per_token(a, b)
    assert align.match_blocks(b, a) == match_blocks_per_token(b, a)


# --- occurrence counting ---


def test_count_occurrences_boundaries():
    assert align.count_occurrences("co course co-op respond", "co") == 2
    assert align.count_occurrences("HR hr (hr)", "hr") == 3
    assert align.count_occurrences("chr hrs", "hr") == 0
    assert align.count_occurrences("", "hr") == 0
    assert align.count_occurrences("Möhr hr", "hr") == 1  # ö is a letter too


def test_count_occurrences_rejects_empty_phrase():
    with pytest.raises(ValueError):
        align.count_occurrences("text", "")


# Letters in both cases, a digit, a space and punctuation: phrases can
# overlap their own matches, sit inside longer tokens, or end at a cut.
# Non-ASCII letters that re.IGNORECASE folds (ſ to s, the Kelvin sign to k,
# é and ö to no ASCII letter) send the index to its pattern scan; half the
# texts and phrases leave them out, so the substring scan of ASCII text runs
# too.
_OCCURRENCE_ALPHABET = "aAb .-1xsSkſKéö"
_ASCII_OCCURRENCE_ALPHABET = "".join(c for c in _OCCURRENCE_ALPHABET if c.isascii())


def _occurrence_text(**sizes):
    return st.one_of(
        st.text(_ASCII_OCCURRENCE_ALPHABET, **sizes), st.text(_OCCURRENCE_ALPHABET, **sizes)
    )


@settings(max_examples=400)
@given(_occurrence_text(max_size=40), _occurrence_text(min_size=1, max_size=4))
@example("aaaa a aa", "aa")  # overlapping matches: the scan takes them left to right
@example("a-a-a", "a-a")  # the match ending at the cut overlaps the previous one
@example("a-a-a.", "a-a")  # the second match overlaps the first, so the scan skips it
@example("ab abx", "ab")  # "ab" ends exactly at the cut after "abx"'s "ab"
@example("ab-Ab.1aB", "AB")  # case changes and punctuation between matches
@example("x a b a b", "a b")  # an inner space
@example("b1 B1b1 b1", "b1")  # a digit, and a match glued to the previous one
@example("ſ S-s", "s")  # ſ folds to s: the pattern scan counts three
@example("1ſ a1", "1")  # ſ is a token character for the guards
@example("k sk K", "\u212a")  # a Kelvin-sign phrase in ASCII text: the pattern scan
@example("é-É", "é")  # a non-ASCII letter with no ASCII fold
@example("Möhr hr", "hr")  # a non-ASCII letter is a token character for the guards
def test_occurrence_index_equals_counting_the_prefix(text, phrase):
    index = align._OccurrenceIndex(text)
    for end in range(len(text) + 1):
        expected = standalone_count_reference(text[:end], phrase)
        assert align.count_occurrences(text[:end], phrase) == expected
        assert index.count_before(phrase, end) == expected


def test_standalone_guard_is_isalnum_on_every_code_point():
    # Each code point c but x and X, written as "cxc": "x" is standalone
    # exactly where c is neither a letter nor a digit.
    chars = [
        chr(c) for c in range(sys.maxunicode + 1)
        if not 0xD800 <= c <= 0xDFFF and chr(c) not in "xX"
    ]
    text = "".join(c + "x" + c for c in chars)
    found = [m.start() // 3 for m in align.standalone_pattern(["x"]).finditer(text)]
    assert found == [i for i, c in enumerate(chars) if not c.isalnum()]


# --- extract_pairs on known rewrites ---


def test_single_substitution():
    pairs = align.extract_pairs("pt has sob today", "pt has shortness of breath today")
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.abbreviation, p.expansion, p.occurrence_index) == (
        "sob",
        "shortness of breath",
        0,
    )
    assert "pt has sob today"[p.a_span[0] : p.a_span[1]] == "sob"


def test_punctuation_is_shed_from_both_sides():
    pairs = align.extract_pairs("he denies cp.", "he denies chest pain.")
    assert [(p.abbreviation, p.expansion) for p in pairs] == [("cp", "chest pain")]
    pairs = align.extract_pairs("prior hx (chf) noted", "prior hx (heart failure) noted")
    assert [(p.abbreviation, p.expansion) for p in pairs] == [("chf", "heart failure")]


def test_adjacent_rewrites_merge():
    pairs = align.extract_pairs("pt c/o pain", "patient complains of pain")
    assert [(p.abbreviation, p.expansion) for p in pairs] == [
        ("pt c/o", "patient complains of")
    ]


def test_pure_insertion_and_deletion_skipped():
    assert align.extract_pairs("a b c", "a b c d") == []
    assert align.extract_pairs("a b c d", "a b c") == []


def test_identical_texts_no_pairs():
    assert align.extract_pairs("same text", "same text") == []


def test_occurrence_indexes_count_prior_standalone_uses():
    original = "pt stable. pt ambulating. PT discharged."
    expanded = "patient stable. patient ambulating. patient discharged."
    pairs = align.extract_pairs(original, expanded)
    assert [(p.abbreviation.lower(), p.occurrence_index) for p in pairs] == [
        ("pt", 0),
        ("pt", 1),
        ("pt", 2),
    ]


def _random_rewrite_case(rng: random.Random):
    fillers = ["alpha", "bravo", "charlie", "delta", "zulu", "kilo", "lima"]
    mapping = {
        "aa1": "golf hotel",
        "bb2": "india juliet victor",
        "cc3": "mike",
        "dd4": "november oscar",
    }
    tokens: list[str] = []
    expected: list[tuple[str, int]] = []
    counts = {abbr: 0 for abbr in mapping}
    last_was_abbr = False
    for _ in range(rng.randint(1, 25)):
        if not last_was_abbr and rng.random() < 0.35:
            abbr = rng.choice(sorted(mapping))
            expected.append((abbr, counts[abbr]))
            counts[abbr] += 1
            token = abbr
            last_was_abbr = True
        else:
            token = rng.choice(fillers)
            last_was_abbr = False
        if rng.random() < 0.2:
            token += rng.choice([".", ","])
        tokens.append(token)
    original = " ".join(tokens)
    return original, mock_expand(original, mapping), mapping, expected


def test_random_substitution_rewrites_recovered_exactly():
    rng = random.Random(99)
    for _ in range(300):
        original, expanded, mapping, expected = _random_rewrite_case(rng)
        pairs = align.extract_pairs(original, expanded)
        got = [(p.abbreviation, p.occurrence_index) for p in pairs]
        assert got == expected
        for p in pairs:
            assert p.expansion == mapping[p.abbreviation]
            assert original[p.a_span[0] : p.a_span[1]] == p.abbreviation
            assert expanded[p.b_span[0] : p.b_span[1]] == p.expansion


def test_substitute_back_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        original, expanded, _, _ = _random_rewrite_case(rng)
        pairs = align.extract_pairs(original, expanded)
        assert align.substitute_back(expanded, pairs) == original


# Abbreviations, expansions and filler words share no token, so the text
# outside the rewrites is what the two sides have in common.
_ROUNDTRIP_DICTIONARY = {
    "pt": "patient",
    "sob": "shortness of breath",
    "s/p": "status post",
    "c/o": "complains of",
    "hx": "history",
}
_ROUNDTRIP_WORDS = st.one_of(
    st.sampled_from(["stable", "denies", "pain", "ptx", "sobbing", "x3", "hx2", "day"]),
    st.sampled_from(sorted(_ROUNDTRIP_DICTIONARY)).flatmap(
        lambda abbr: st.sampled_from([abbr, abbr.upper(), abbr.capitalize()])
    ),
)
_ROUNDTRIP_NOTES = st.lists(
    st.tuples(
        st.sampled_from(["", "(", "-"]),
        _ROUNDTRIP_WORDS,
        st.sampled_from(["", ".", ",", ":", ")", ";"]),
        st.sampled_from([" ", "  ", "\n", "\t", " \n\n", ",", "/"]),
    ),
    max_size=20,
).map(lambda parts: "".join(p + w + s + sep for p, w, s, sep in parts))


@settings(max_examples=300)
@given(_ROUNDTRIP_NOTES)
def test_mock_expansion_aligns_and_substitutes_back_to_the_original(original):
    expanded = mock_expand(original, _ROUNDTRIP_DICTIONARY)
    pairs = align.extract_pairs(original, expanded)
    assert align.substitute_back(expanded, pairs) == original


def _sectioned(text: str, expand) -> list[tuple[str, str]]:
    return [(sec.body, expand(sec.body)) for sec in segment(text)]


@settings(max_examples=200)
@given(st.lists(_ROUNDTRIP_NOTES, min_size=1, max_size=4))
def test_sectioned_mock_expansion_substitutes_back_to_the_original(bodies):
    original = "".join(f"part {i}:\n{body}" for i, body in enumerate(bodies))
    sections = _sectioned(original, lambda body: mock_expand(body, _ROUNDTRIP_DICTIONARY))
    expanded = "".join(b for _, b in sections)
    pairs = align.extract_pairs(original, expanded, sections)
    assert align.substitute_back(expanded, pairs) == original
    for p in pairs:
        assert p.occurrence_index == align.count_occurrences(
            original[: p.a_span[0]], p.abbreviation
        )


def test_section_scoped_extraction_equals_whole_note_extraction():
    # Runs of one to six synthetic notes joined into one note of as many
    # sections; the acronym-only test notes give most of the pairs.
    corpus = generate(5, n_train=100, n_test=200)
    rng = random.Random(5)
    pending = corpus.train + corpus.test_acronym
    notes = []
    while pending:
        size = rng.randint(1, 6)
        text = "".join(n.text for n in pending[:size])
        notes.append(Note(id=f"joined{len(notes)}", text=text, labels=frozenset()))
        pending = pending[size:]
    checked = 0
    for note, entry in zip(notes, expand_with_mock(notes, corpus.dictionary)):
        sections = [(s.original, s.expanded) for s in entry.sections]
        assert len(sections) == note.text.count("presenting condition:")
        whole = align.extract_pairs(note.text, entry.expanded_text)
        assert align.extract_pairs(note.text, entry.expanded_text, sections) == whole
        assert align.substitute_back(entry.expanded_text, whole) == note.text
        checked += len(whole)
    assert checked > 150


def test_sections_that_do_not_join_back_are_refused():
    with pytest.raises(ValueError, match="do not join back"):
        align.extract_pairs("a: pt\n", "a: patient\n", [("a: pt", "a: patient\n")])


def test_substitute_back_rejects_overlap():
    pairs = [
        align.ExpansionPair("x", "yy", (0, 1), (0, 2), 0),
        align.ExpansionPair("z", "y", (2, 3), (1, 2), 0),
    ]
    with pytest.raises(ValueError):
        align.substitute_back("yyy", pairs)


# --- levenshtein ---


def test_levenshtein_known_values():
    assert align.levenshtein("kitten", "sitting") == 3
    assert align.levenshtein("saturday", "sunday") == 3
    assert align.levenshtein("flaw", "lawn") == 2
    assert align.levenshtein("", "abc") == 3
    assert align.levenshtein("abc", "") == 3
    assert align.levenshtein("abc", "abc") == 0
    assert align.levenshtein("ab", "ba") == 2


def test_levenshtein_matches_reference():
    rng = random.Random(3)
    alphabet = "abcd "
    for _ in range(250):
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        assert align.levenshtein(a, b) == edit_distance_reference(a, b)


def test_levenshtein_metric_properties():
    rng = random.Random(4)
    words = ["".join(rng.choices("xyz", k=rng.randint(0, 6))) for _ in range(12)]
    for a in words:
        for b in words:
            d = align.levenshtein(a, b)
            assert d == align.levenshtein(b, a)
            assert (d == 0) == (a == b)
            assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
            for c in words[:6]:
                assert d <= align.levenshtein(a, c) + align.levenshtein(c, b)
