"""Alignment of a note against its rewritten form and expansion-pair extraction.

Matching runs are found at the whitespace-token level (robust to rewrites that
reflow whitespace) and then mapped back to character offsets, so downstream
consumers can slice either text directly.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from difflib import SequenceMatcher

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class AlignmentBlock:
    """A run of identical characters shared by text A and text B."""

    a_start: int
    b_start: int
    length: int


@dataclass(frozen=True)
class ExpansionPair:
    """One (abbreviation, expansion) extracted from an aligned text pair.

    Spans are half-open [start, end) character ranges: ``a_span`` into the
    original text, ``b_span`` into the expanded text. ``occurrence_index``
    counts earlier standalone occurrences of the same abbreviation in the
    original text, so the pair can be matched against per-occurrence gold.
    """

    abbreviation: str
    expansion: str
    a_span: tuple[int, int]
    b_span: tuple[int, int]
    occurrence_index: int


def _token_spans(text: str) -> list[tuple[int, int, str]]:
    return [(m.start(), m.end(), m.group()) for m in _TOKEN_RE.finditer(text)]


def match_blocks(a: str, b: str) -> list[AlignmentBlock]:
    """Maximal runs of identical text shared by ``a`` and ``b``.

    Tokens are matched with a recursive longest-common-run strategy (no junk
    heuristic), then adjacent matched tokens are merged into one block when
    the text between them, whitespace included, is identical on both sides.
    Blocks never overlap and appear in strictly increasing offset order on
    both sides; each block's slice of ``a`` equals its slice of ``b``.
    """
    if a == b:
        return [AlignmentBlock(a_start=0, b_start=0, length=len(a))] if a else []
    a_spans = _token_spans(a)
    b_spans = _token_spans(b)
    matcher = SequenceMatcher(
        None, [t for _, _, t in a_spans], [t for _, _, t in b_spans], autojunk=False
    )
    pairs: list[tuple[int, int, int, int]] = []
    for i, j, n in matcher.get_matching_blocks():
        for k in range(n):
            sa, ea, _ = a_spans[i + k]
            sb, eb, _ = b_spans[j + k]
            pairs.append((sa, ea, sb, eb))
    merged: list[list[int]] = []
    for sa, ea, sb, eb in pairs:
        if merged:
            psa, pea, psb, peb = merged[-1]
            if a[pea:sa] == b[peb:sb]:
                merged[-1][1] = ea
                merged[-1][3] = eb
                continue
        merged.append([sa, ea, sb, eb])
    if merged:
        # Absorb identical flanking whitespace. Never absorb letter runs:
        # "with sob" vs "with shortness" must not pull the shared "s" out of
        # the differing tokens.
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
    return [AlignmentBlock(a_start=sa, b_start=sb, length=ea - sa) for sa, ea, sb, eb in merged]


# At this depth the trie stops branching and lists the keys' remaining
# characters as one flat alternation. re's parser recurses once per nested
# group, so a full trie of keys that extend one another hundreds of times
# would not compile; few keys share a prefix this long.
_TRIE_DEPTH = 8


def _ignorecase_classes(keys: Iterable[str]) -> dict[str, str]:
    """Each character of ``keys`` -> the first such character re.IGNORECASE equates with it.

    re matches a character case-insensitively by its simple lowercase plus
    a few extra equivalences (``ſ`` with ``s``, ``ı`` with ``i``), which
    ``str.lower`` alone does not reproduce; asking re itself keeps the two
    the same.
    """
    representative: dict[str, str] = {}
    for ch in dict.fromkeys("".join(keys)):
        representative[ch] = next(
            (r for r in dict.fromkeys(representative.values())
             if re.fullmatch(re.escape(r), ch, re.IGNORECASE)),
            ch,
        )
    return representative


def _trie_alternation(keys: Sequence[str], fold: Mapping[str, str], depth: int = 0) -> str:
    """A regex for ``"|".join(map(re.escape, keys))`` shaped as a prefix trie.

    ``keys`` come longest first. They branch on their first character, one
    branch per class of characters ``fold`` equates, so under
    re.IGNORECASE at most one branch can match and a key that ends at a node
    is tried after every longer key through it. The trie thus makes the same
    match as the flat alternation without trying every key at each position.
    """
    if depth == _TRIE_DEPTH:
        alternatives = [re.escape(k) for k in keys]
    else:
        branches: dict[str, list[str]] = {}
        for key in keys:
            if key:
                branches.setdefault(fold[key[0]], []).append(key[1:])
        alternatives = [
            re.escape(first) + _trie_alternation(rest, fold, depth + 1)
            for first, rest in branches.items()
        ]
        if "" in keys:
            alternatives.append("")
    return alternatives[0] if len(alternatives) == 1 else "(?:" + "|".join(alternatives) + ")"


def standalone_pattern(keys: Iterable[str]) -> re.Pattern[str]:
    """A pattern matching the standalone occurrences of ``keys``, case-insensitively.

    An occurrence is standalone when no letter or digit, a character whose
    ``str.isalnum()`` is true, touches it on either side: "co" is not found
    inside "course", nor "hr" inside "Möhr". Case is compared as
    re.IGNORECASE does. Where keys overlap, the longest one matches.
    """
    ordered = sorted(keys, key=len, reverse=True)
    if not ordered or not all(ordered):
        raise ValueError("keys must be one or more non-empty strings")
    token_char = r"[^\W_]"  # exactly the characters whose str.isalnum() is true
    return re.compile(
        f"(?<!{token_char})"
        + _trie_alternation(ordered, _ignorecase_classes(ordered))
        + f"(?!{token_char})",
        re.IGNORECASE,
    )


def count_occurrences(text: str, phrase: str) -> int:
    """Standalone occurrences of ``phrase`` in ``text``, as ``standalone_pattern`` finds them."""
    return _OccurrenceIndex(text).count_before(phrase, len(text))


class _OccurrenceIndex:
    """``count_occurrences(text[:end], phrase)`` from one scan of ``text`` per phrase.

    The scan of the whole text makes the same left-to-right, non-overlapping
    matches as a scan of any prefix, up to the prefix's last character: a
    match ending before ``end`` is found by both. The prefix adds at most one
    match, ending exactly at ``end``, since its end of string satisfies the
    trailing guard; that match counts when its leading guard holds and it
    does not overlap the previous match.

    When text and phrase are ASCII, where re.IGNORECASE equates exactly the
    characters ``str.lower`` does, the scan is ``str.find`` over the text
    lowered once. Other text takes ``standalone_pattern``, which also
    equates characters such as ``ſ`` and ``s``.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._lowered = text.lower() if text.isascii() else None
        self._scans: dict[str, tuple[list[int], Callable[[int, int], bool]]] = {}

    def count_before(self, phrase: str, end: int) -> int:
        scan = self._scans.get(phrase)
        if scan is None:
            scan = self._scans[phrase] = self._scan(phrase)
        ends, occurs_at = scan
        count = bisect_left(ends, end)
        start = end - len(phrase)
        previous_end = ends[count - 1] if count else 0
        if start >= previous_end and occurs_at(start, end):
            count += 1
        return count

    def _scan(self, phrase: str) -> tuple[list[int], Callable[[int, int], bool]]:
        """The ends of ``phrase``'s matches, and a test of a match at ``[start, end)``.

        The test takes ``end`` as the end of the text, which passes the
        trailing guard.
        """
        if not phrase:
            raise ValueError("phrase must be non-empty")
        if self._lowered is None or not phrase.isascii():
            pattern = standalone_pattern([phrase])
            ends = [m.end() for m in pattern.finditer(self._text)]
            return ends, lambda start, end: pattern.fullmatch(self._text, start, end) is not None
        text, lowered, needle = self._text, self._lowered, phrase.lower()

        def guarded_before(start: int) -> bool:
            return not text[start - 1:start].isalnum()  # "" at the start of the text

        ends = []
        start = lowered.find(needle)
        while start >= 0:
            end = start + len(needle)
            if guarded_before(start) and not text[end:end + 1].isalnum():
                ends.append(end)
                start = lowered.find(needle, end)
            else:
                start = lowered.find(needle, start + 1)
        return ends, lambda start, end: (
            lowered.startswith(needle, start, end) and guarded_before(start)
        )


def _trim(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def _shed_shared_affixes(
    original: str, expanded: str, ta_s: int, ta_e: int, tb_s: int, tb_e: int
) -> tuple[int, int, int, int]:
    # Whitespace is trimmed per side; punctuation is shed only when the same
    # character flanks both sides ("cp." vs "chest pain." keeps cp / chest
    # pain). Alphanumeric affixes stay: trimming them would distort real
    # substitutions that happen to share letters.
    changed = True
    while changed:
        changed = False
        na_s, na_e = _trim(original, ta_s, ta_e)
        nb_s, nb_e = _trim(expanded, tb_s, tb_e)
        if (na_s, na_e, nb_s, nb_e) != (ta_s, ta_e, tb_s, tb_e):
            ta_s, ta_e, tb_s, tb_e = na_s, na_e, nb_s, nb_e
            changed = True
        while (
            ta_s < ta_e
            and tb_s < tb_e
            and original[ta_s] == expanded[tb_s]
            and not original[ta_s].isalnum()
        ):
            ta_s += 1
            tb_s += 1
            changed = True
        while (
            ta_s < ta_e
            and tb_s < tb_e
            and original[ta_e - 1] == expanded[tb_e - 1]
            and not original[ta_e - 1].isalnum()
        ):
            ta_e -= 1
            tb_e -= 1
            changed = True
    return ta_s, ta_e, tb_s, tb_e


def extract_pairs(
    original: str,
    expanded: str,
    sections: Sequence[tuple[str, str]] | None = None,
) -> list[ExpansionPair]:
    """Extract (abbreviation, expansion) pairs from an aligned text pair.

    ``sections`` splits the two texts into (original, expanded) pieces that
    join back to them, each rewritten on its own; every piece is aligned
    apart and its blocks shifted to note offsets. By default the whole texts
    are one piece. Spans and occurrence indexes are note-wide either way.

    Each gap between consecutive matching blocks that is non-empty on both
    sides after trimming yields one pair; pure insertions and deletions are
    skipped. Trimming removes surrounding whitespace and any punctuation
    shared by both sides, so a trailing period or comma never sticks to the
    extracted pair. Identical inputs yield no pairs. Adjacent rewrites with
    no matching token between them come back as one combined pair.
    """
    if sections is None:
        sections = [(original, expanded)]
    elif "".join(a for a, _ in sections) != original or (
        "".join(b for _, b in sections) != expanded
    ):
        raise ValueError("sections do not join back to the original and expanded texts")
    # Blocks of neighbouring sections may touch; the empty gap between them
    # yields no pair.
    gaps: list[tuple[int, int, int, int]] = []
    prev_a = prev_b = a_offset = b_offset = 0
    for section_a, section_b in sections:
        for blk in match_blocks(section_a, section_b):
            a_start = a_offset + blk.a_start
            b_start = b_offset + blk.b_start
            gaps.append((prev_a, a_start, prev_b, b_start))
            prev_a = a_start + blk.length
            prev_b = b_start + blk.length
        a_offset += len(section_a)
        b_offset += len(section_b)
    gaps.append((prev_a, len(original), prev_b, len(expanded)))
    occurrences = _OccurrenceIndex(original)
    pairs: list[ExpansionPair] = []
    for ga_s, ga_e, gb_s, gb_e in gaps:
        ta_s, ta_e, tb_s, tb_e = _shed_shared_affixes(
            original, expanded, ga_s, ga_e, gb_s, gb_e
        )
        if ta_s == ta_e or tb_s == tb_e:
            continue
        abbreviation = original[ta_s:ta_e]
        expansion = expanded[tb_s:tb_e]
        pairs.append(
            ExpansionPair(
                abbreviation=abbreviation,
                expansion=expansion,
                a_span=(ta_s, ta_e),
                b_span=(tb_s, tb_e),
                occurrence_index=occurrences.count_before(abbreviation, ta_s),
            )
        )
    return pairs


def substitute_back(expanded: str, pairs: Sequence[ExpansionPair]) -> str:
    """Rebuild the original-side text by putting the abbreviations back.

    Replaces each pair's expanded-side span with its abbreviation. Faithful
    whenever the text outside the pair spans is identical on both sides,
    which holds for whitespace-preserving substitution rewrites.
    """
    ordered = sorted(pairs, key=lambda p: p.b_span[0])
    pieces: list[str] = []
    prev = 0
    for pair in ordered:
        start, end = pair.b_span
        if start < prev:
            raise ValueError("pair spans overlap on the expanded side")
        pieces.append(expanded[prev:start])
        pieces.append(pair.abbreviation)
        prev = end
    pieces.append(expanded[prev:])
    return "".join(pieces)


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings: unit-cost insert, delete, substitute."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != cb),
            )
        prev = cur
    return prev[len(b)]
