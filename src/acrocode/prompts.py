"""Chunking of ranked candidates into fixed-size entry lists, and merging back.

No command calls these. They stay because the benchmark imports this module
and its tracer wraps both functions by name.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .corpus import CandidateList

DEFAULT_CHUNK_SIZE = 50


def chunk_candidates(
    candidates: CandidateList,
    displays: Mapping[str, str],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[list[tuple[str, str]]]:
    """Partition a ranked candidate list into entry lists of fixed size.

    Order is preserved, chunks are disjoint, and only the final chunk may be
    short. Every candidate code must have a display text.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    entries: list[tuple[str, str]] = []
    for code in candidates.ranked_codes:
        if code not in displays:
            raise ValueError(f"no display text for candidate code {code!r}")
        entries.append((code, displays[code]))
    return [entries[i : i + chunk_size] for i in range(0, len(entries), chunk_size)]


def merge_chunk_scores(
    chunks: Sequence[Sequence[tuple[str, str]]],
    chunk_scores: Sequence[Sequence[float]],
) -> dict[str, float]:
    """Merge per-chunk score lists back into one score per candidate code."""
    if len(chunks) != len(chunk_scores):
        raise ValueError("chunks and chunk_scores differ in length")
    merged: dict[str, float] = {}
    for chunk, scores in zip(chunks, chunk_scores):
        if len(chunk) != len(scores):
            raise ValueError("chunk and its scores differ in length")
        for (code, _display), score in zip(chunk, scores):
            if code in merged:
                raise ValueError(f"code {code!r} scored in more than one chunk")
            merged[code] = float(score)
    return merged
