"""Corpus file formats: notes, code sets, candidate lists, gold expansions, score matrices."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Candidate codes kept per note, best first; load_candidates cuts the rest.
CANDIDATE_LIMIT = 300


@dataclass(frozen=True)
class Note:
    """One clinical note with its assigned label codes."""

    id: str
    text: str
    labels: frozenset[str] = frozenset()


@dataclass
class CodeSet:
    """Ordered label space: (code, description) pairs plus optional synonyms per code."""

    codes: list[tuple[str, str]]
    synonyms: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for pos, (code, _desc) in enumerate(self.codes):
            if not code:
                raise ValueError(f"empty code id at position {pos}")
            if code in seen:
                raise ValueError(f"duplicate code id {code!r}")
            seen[code] = pos
        for code in self.synonyms:
            if code not in seen:
                raise ValueError(f"synonyms given for unknown code {code!r}")
        self._index = seen

    @property
    def code_ids(self) -> list[str]:
        return [code for code, _ in self.codes]

    def description(self, code: str) -> str:
        return self.codes[self._index[code]][1]

    def index_of(self, code: str) -> int:
        return self._index[code]

    def __contains__(self, code: str) -> bool:
        return code in self._index

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class CandidateList:
    """Ranked candidate codes for one note, best first.

    ``cut`` counts the codes a ranking lost past ``load_candidates``' limit.
    """

    note_id: str
    ranked_codes: tuple[str, ...]
    cut: int = 0


@dataclass(frozen=True)
class GoldExpansion:
    """Reference expansion of one abbreviation occurrence in one note."""

    note_id: str
    abbreviation: str
    full_form: str
    occurrence_index: int


@dataclass(eq=False)
class ScoreMatrix:
    """Per-note, per-code scores in [0, 1] with explicit row and column ids."""

    note_ids: list[str]
    code_ids: list[str]
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.note_ids), len(self.code_ids)):
            raise ValueError(
                f"score shape {self.scores.shape} does not match "
                f"{len(self.note_ids)} notes x {len(self.code_ids)} codes"
            )
        if len(set(self.note_ids)) != len(self.note_ids):
            raise ValueError("duplicate note ids in score matrix")
        if len(set(self.code_ids)) != len(self.code_ids):
            raise ValueError("duplicate code ids in score matrix")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite, but some are NaN or infinite")
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreMatrix):
            return NotImplemented
        return (
            self.note_ids == other.note_ids
            and self.code_ids == other.code_ids
            and np.array_equal(self.scores, other.scores)
        )


def load_code_set(path: str | Path) -> CodeSet:
    """Read a tab-separated code file: code, description, optional |-joined synonyms."""
    codes: list[tuple[str, str]] = []
    synonyms: dict[str, list[str]] = {}
    for lineno, raw in _numbered_lines(path):
        parts = raw.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        code, desc = parts[0], parts[1]
        codes.append((code, desc))
        if len(parts) == 3 and parts[2]:
            synonyms[code] = [s for s in parts[2].split("|") if s]
    return CodeSet(codes=codes, synonyms=synonyms)


def load_notes(path: str | Path, code_set: CodeSet | None = None) -> list[Note]:
    """Read JSON-lines notes with fields id, text, labels.

    When ``code_set`` is given, every label must be a known code.
    """
    notes: list[Note] = []
    seen: set[str] = set()
    for lineno, raw in _numbered_lines(path):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        try:
            note_id, text, labels = record["id"], record["text"], record["labels"]
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from exc
        if not isinstance(note_id, str) or not note_id:
            raise ValueError(f"{path}:{lineno}: id must be a non-empty string")
        if not isinstance(text, str):
            raise ValueError(f"{path}:{lineno}: text must be a string")
        if not isinstance(labels, list) or any(not isinstance(c, str) for c in labels):
            raise ValueError(f"{path}:{lineno}: labels must be an array of strings")
        if note_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate note id {note_id!r}")
        seen.add(note_id)
        if code_set is not None:
            for code in labels:
                if code not in code_set:
                    raise ValueError(f"note {note_id!r} has unknown label code {code!r}")
        notes.append(Note(id=note_id, text=text, labels=frozenset(labels)))
    return notes


def load_corpus(notes_path: str | Path, codes_path: str | Path) -> tuple[list[Note], CodeSet]:
    """Load a code set and its notes, validating note labels against the codes."""
    code_set = load_code_set(codes_path)
    notes = load_notes(notes_path, code_set)
    return notes, code_set


def save_notes(notes: Iterable[Note], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            record = {"id": note.id, "text": note.text, "labels": sorted(note.labels)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_candidates(
    path: str | Path, code_set: CodeSet, limit: int = CANDIDATE_LIMIT
) -> dict[str, CandidateList]:
    """Read ranked candidate codes per note: note-id, then comma-joined codes.

    Rankings longer than ``limit`` are cut to their top ``limit`` entries.
    """
    out: dict[str, CandidateList] = {}
    for lineno, raw in _numbered_lines(path):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")
        note_id, joined = parts
        if note_id in out:
            raise ValueError(f"{path}:{lineno}: duplicate note id {note_id!r}")
        ranked = [c for c in joined.split(",") if c]
        seen: set[str] = set()
        for code in ranked:
            if code not in code_set:
                raise ValueError(f"{path}:{lineno}: unknown candidate code {code!r}")
            if code in seen:
                raise ValueError(f"{path}:{lineno}: duplicate candidate code {code!r}")
            seen.add(code)
        out[note_id] = CandidateList(
            note_id=note_id,
            ranked_codes=tuple(ranked[:limit]),
            cut=max(0, len(ranked) - limit),
        )
    return out


def load_gold_expansions(path: str | Path) -> list[GoldExpansion]:
    """Read gold expansions: note-id, abbreviation, full form, occurrence index."""
    out: list[GoldExpansion] = []
    for lineno, raw in _numbered_lines(path):
        parts = raw.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
        note_id, abbrev, full_form, occ_raw = parts
        try:
            occ = int(occ_raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: occurrence index must be an integer") from exc
        if occ < 0:
            raise ValueError(f"{path}:{lineno}: occurrence index must be >= 0")
        if not abbrev:
            raise ValueError(f"{path}:{lineno}: empty abbreviation")
        out.append(GoldExpansion(note_id, abbrev, full_form, occ))
    return out


def save_scores(matrix: ScoreMatrix, path: str | Path) -> None:
    """Write a score matrix as tab-separated text with full float precision.

    Floats are written with repr, whose shortest-roundtrip form guarantees
    that load_scores reproduces the matrix bit for bit.
    """
    for name in matrix.note_ids + matrix.code_ids:
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"id {name!r} contains a tab or newline")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("note_id\t" + "\t".join(matrix.code_ids) + "\n")
        for i, note_id in enumerate(matrix.note_ids):
            row = "\t".join(map(repr, matrix.scores[i].tolist()))
            fh.write(f"{note_id}\t{row}\n")


def load_scores(path: str | Path) -> ScoreMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty score file")
        cols = header.rstrip("\n").split("\t")
        if cols[0] != "note_id" or len(cols) < 2:
            raise ValueError(f"{path}: malformed score header")
        code_ids = cols[1:]
        note_ids: list[str] = []
        rows: list[list[float]] = []
        for lineno, raw in enumerate(fh, start=2):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != len(cols):
                raise ValueError(f"{path}:{lineno}: expected {len(cols)} fields")
            note_ids.append(parts[0])
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid float") from exc
            for v in values:
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"{path}:{lineno}: score {v!r} outside [0, 1]")
            rows.append(values)
    scores = np.array(rows, dtype=np.float64).reshape(len(note_ids), len(code_ids))
    return ScoreMatrix(note_ids=note_ids, code_ids=code_ids, scores=scores)


def gold_matrix(notes: Sequence[Note], code_set: CodeSet) -> np.ndarray:
    """Binary label matrix aligned to the notes order and code set order."""
    out = np.zeros((len(notes), len(code_set)), dtype=np.int8)
    for i, note in enumerate(notes):
        for code in note.labels:
            out[i, code_set.index_of(code)] = 1
    return out


def _numbered_lines(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line:
                yield lineno, line
