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


# Shared token runs at least this long are found once per section; a
# longest-run query that none of them answers goes to difflib.
_RUN_TOKENS = 4


def _run_length(a: Sequence[str], b: Sequence[str], i: int, j: int, n: int) -> int:
    """The largest ``m >= n`` with ``a[i:i + m] == b[j:j + m]``, given that for ``n``.

    Windows double until one differs or passes an end, then halve onto the
    first difference, so a run of length L costs O(log L) slice comparisons.
    """
    cap = min(len(a) - i, len(b) - j)
    step = 1
    while n + step <= cap and a[i + n:i + n + step] == b[j + n:j + n + step]:
        n += step
        step *= 2
    # The first difference, or the cap, lies in [n, n + step).
    while step > 1:
        step //= 2
        if n + step <= cap and a[i + n:i + n + step] == b[j + n:j + n + step]:
            n += step
    return n


def _shared_runs(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int, int]]:
    """Every maximal ``(i, j, n)`` with ``a[i:i + n] == b[j:j + n]`` and ``n >= _RUN_TOKENS``.

    Maximal: the run extends on neither side. Each run is found from its
    first shared K-gram of tokens, K = ``_RUN_TOKENS``: one whose tokens
    before it, if any, differ.
    """
    k = _RUN_TOKENS
    a_grams = list(zip(*(a[t:] for t in range(k))))
    b_grams = list(zip(*(b[t:] for t in range(k))))
    first_at = dict(zip(b_grams, range(len(b_grams))))
    if len(first_at) == len(b_grams):  # each K-gram of b is unique: one lookup per K-gram of a
        starts = [
            (i, j) for i, j in enumerate(map(first_at.get, a_grams))
            if j is not None and not (i and j and a[i - 1] == b[j - 1])
        ]
    else:
        # b's positions of each K-gram, grouped by the token before them (None
        # at the start of b). The group whose token is the one before a's
        # K-gram only continues runs and is skipped whole: in a section of one
        # repeated token, it holds nearly every shared K-gram.
        by_prev: dict[tuple[str, ...], dict[str | None, list[int]]] = {}
        for j, gram in enumerate(b_grams):
            by_prev.setdefault(gram, {}).setdefault(b[j - 1] if j else None, []).append(j)
        starts = [
            (i, j)
            for i, gram in enumerate(a_grams)
            for prev, js in by_prev.get(gram, {}).items()
            if not i or prev != a[i - 1]
            for j in js
        ]
    return [(i, j, _run_length(a, b, i, j, k)) for i, j in starts]


def _token_blocks(a: Sequence[str], b: Sequence[str]) -> list[tuple[int, int, int]]:
    """``SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()``, as tuples.

    The same recursion as difflib's: take the longest shared run of the
    rectangle, earliest in ``a`` and then in ``b`` among equals, and recurse
    on the rectangles left and right of it; then sort and join adjacent
    runs. A run of ``_RUN_TOKENS`` or more tokens inside a rectangle lies
    within one of ``_shared_runs``, so when one of them keeps that many
    tokens inside, the longest clipped one is the answer. Otherwise the
    answer is shorter, and difflib's ``find_longest_match`` gives it, from a
    matcher built only for a section that needs one.
    """
    matcher = None
    found: list[tuple[int, int, int]] = []
    # Each rectangle carries the runs clipped to it that keep _RUN_TOKENS
    # tokens; a run meets at most one of the two rectangles left and right of
    # a longest run, or it would be the longer.
    queue = [(0, len(a), 0, len(b), _shared_runs(a, b))]
    while queue:
        alo, ahi, blo, bhi, runs = queue.pop()
        inside = []
        for i, j, n in runs:
            start = max(i, alo, blo + i - j)
            length = min(i + n, ahi, bhi + i - j) - start
            if length >= _RUN_TOKENS:
                inside.append((start, start - i + j, length))
        if inside:
            i, j, k = min(inside, key=lambda run: (-run[2], run[0], run[1]))
        elif ahi - alo == 1:
            # One token of a, as an abbreviation mostly is: difflib's answer is
            # its first match in b, found without building the matcher.
            if a[alo] not in b[blo:bhi]:
                continue
            i, j, k = alo, b.index(a[alo], blo, bhi), 1
        else:
            if matcher is None:
                matcher = SequenceMatcher(None, a, b, autojunk=False)
            i, j, k = matcher.find_longest_match(alo, ahi, blo, bhi)
            if not k:
                continue
        found.append((i, j, k))
        if alo < i and blo < j:
            queue.append((alo, i, blo, j, inside))
        if i + k < ahi and j + k < bhi:
            queue.append((i + k, ahi, j + k, bhi, inside))
    found.sort()
    blocks: list[tuple[int, int, int]] = []
    i1 = j1 = k1 = 0
    for i2, j2, k2 in found:
        if i1 + k1 == i2 and j1 + k1 == j2:
            k1 += k2
        else:
            if k1:
                blocks.append((i1, j1, k1))
            i1, j1, k1 = i2, j2, k2
    if k1:
        blocks.append((i1, j1, k1))
    blocks.append((len(a), len(b), 0))
    return blocks


def match_blocks(a: str, b: str) -> list[AlignmentBlock]:
    """Maximal runs of identical text shared by ``a`` and ``b``.

    Tokens are matched with difflib's recursive longest-common-run strategy
    (no junk heuristic), then adjacent matched tokens are merged into one
    block when the text between them, whitespace included, is identical on
    both sides. Blocks never overlap and appear in strictly increasing
    offset order on both sides; each block's slice of ``a`` equals its slice
    of ``b``.
    """
    if a == b:
        return [AlignmentBlock(a_start=0, b_start=0, length=len(a))] if a else []
    a_spans = [m.span() for m in _TOKEN_RE.finditer(a)]
    b_spans = [m.span() for m in _TOKEN_RE.finditer(b)]
    merged: list[list[int]] = []
    for i, j, n in _token_blocks(a.split(), b.split())[:-1]:
        sa, ea = a_spans[i][0], a_spans[i + n - 1][1]
        sb, eb = b_spans[j][0], b_spans[j + n - 1][1]
        if a[sa:ea] == b[sb:eb]:
            pieces = [(sa, ea, sb, eb)]
        else:  # the block's inner whitespace differs: merge token by token
            pieces = [a_spans[i + t] + b_spans[j + t] for t in range(n)]
        for sa, ea, sb, eb in pieces:
            if merged and a[merged[-1][1]:sa] == b[merged[-1][3]:sb]:
                merged[-1][1] = ea
                merged[-1][3] = eb
            else:
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
