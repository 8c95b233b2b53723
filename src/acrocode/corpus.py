"""Corpus file formats: notes, code sets, candidate lists, gold expansions, score matrices.

Every JSON, JSONL and TSV input is parsed here, so that a malformed record
fails with a ``ValueError`` naming its file, line and field. Every output
is written through ``replace_file``, so no reader sees half a file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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
    """Ordered label space: (code, description) pairs."""

    codes: list[tuple[str, str]]

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for pos, (code, _desc) in enumerate(self.codes):
            if not code:
                raise ValueError(f"empty code id at position {pos}")
            if code in seen:
                raise ValueError(f"duplicate code id {code!r}")
            seen[code] = pos
        self._index = seen

    @property
    def code_ids(self) -> list[str]:
        return [code for code, _ in self.codes]

    def description(self, code: str) -> str:
        return self.codes[self._index[code]][1]

    def index_of(self, code: str) -> int:
        return self._index[code]

    def indices_of(self, codes: Iterable[str]) -> np.ndarray:
        return np.fromiter(map(self._index.__getitem__, codes), dtype=np.intp)

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
    """Read a tab-separated code file: code, description and an optional ignored third field."""
    codes: dict[str, str] = {}
    for where, parts in read_tsv(path, 2, 3):
        code = parts[0]
        if not code:
            raise ValueError(f"{where}: empty code id")
        if code in codes:
            raise ValueError(f"{where}: duplicate code id {code!r}")
        codes[code] = parts[1]
    return CodeSet(codes=list(codes.items()))


def load_notes(path: str | Path, code_set: CodeSet | None = None) -> list[Note]:
    """Read JSON-lines notes with fields id, text, labels.

    When ``code_set`` is given, every label must be a known code.
    """
    notes: list[Note] = []
    seen: set[str] = set()
    for where, record in read_jsonl(path):
        note_id = field(record, "id", str, where)
        if not note_id:
            raise ValueError(f"{where}: field 'id' must be a non-empty string")
        text = field(record, "text", str, where)
        labels = field(record, "labels", list, where)
        if any(not isinstance(c, str) for c in labels):
            raise ValueError(f"{where}: field 'labels' must be an array of strings")
        if note_id in seen:
            raise ValueError(f"{where}: duplicate note id {note_id!r}")
        seen.add(note_id)
        if code_set is not None:
            for code in labels:
                if code not in code_set:
                    raise ValueError(f"{where}: note {note_id!r} has unknown label code {code!r}")
        notes.append(Note(id=note_id, text=text, labels=frozenset(labels)))
    return notes


def load_corpus(notes_path: str | Path, codes_path: str | Path) -> tuple[list[Note], CodeSet]:
    """Load a code set and its notes, validating note labels against the codes."""
    code_set = load_code_set(codes_path)
    notes = load_notes(notes_path, code_set)
    return notes, code_set


def save_notes(notes: Iterable[Note], path: str | Path) -> None:
    records = ({"id": n.id, "text": n.text, "labels": sorted(n.labels)} for n in notes)
    write_jsonl(path, records)


def load_candidates(
    path: str | Path, code_set: CodeSet, limit: int = CANDIDATE_LIMIT
) -> dict[str, CandidateList]:
    """Read ranked candidate codes per note: note-id, then comma-joined codes.

    Rankings longer than ``limit`` are cut to their top ``limit`` entries.
    """
    known = code_set._index.keys()
    out: dict[str, CandidateList] = {}
    for where, (note_id, joined) in read_tsv(path, 2):
        if note_id in out:
            raise ValueError(f"{where}: duplicate note id {note_id!r}")
        ranked = [c for c in joined.split(",") if c]
        distinct = set(ranked)
        if len(distinct) != len(ranked) or not distinct <= known:
            # Walk the ranking only to name its first offending code.
            seen: set[str] = set()
            for code in ranked:
                if code not in known:
                    raise ValueError(f"{where}: unknown candidate code {code!r}")
                if code in seen:
                    raise ValueError(f"{where}: duplicate candidate code {code!r}")
                seen.add(code)
        out[note_id] = CandidateList(
            note_id=note_id,
            ranked_codes=tuple(ranked[:limit]),
            cut=max(0, len(ranked) - limit),
        )
    return out


def load_gold_expansions(path: str | Path) -> list[GoldExpansion]:
    """Read gold expansions: note-id, abbreviation, full form, occurrence index.

    An abbreviation or full form that is empty or only whitespace is refused,
    naming its line: scoring compares them with outer whitespace trimmed.
    """
    out: list[GoldExpansion] = []
    for where, (note_id, abbrev, full_form, occ_raw) in read_tsv(path, 4):
        try:
            occ = int(occ_raw)
        except ValueError as exc:
            raise ValueError(f"{where}: occurrence index must be an integer") from exc
        if occ < 0:
            raise ValueError(f"{where}: occurrence index must be >= 0")
        if not abbrev.strip():
            raise ValueError(f"{where}: empty or whitespace-only abbreviation")
        if not full_form.strip():
            raise ValueError(f"{where}: empty or whitespace-only full form")
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
    with replace_file(path) as fh:
        fh.write("note_id\t" + "\t".join(matrix.code_ids) + "\n")
        for i, note_id in enumerate(matrix.note_ids):
            row = "\t".join(map(repr, matrix.scores[i].tolist()))
            fh.write(f"{note_id}\t{row}\n")


def load_scores(path: str | Path) -> ScoreMatrix:
    """Read a score matrix as ``save_scores`` writes it; empty lines are skipped.

    The file is read once. The cells of all rows are parsed by one
    ``np.loadtxt`` call, and that matrix is kept only when every row has the
    header's field count, every cell is printable ASCII without ``_``, the
    parse succeeds and every score lies in [0, 1]. On such cells numpy and
    ``float`` both parse through ``PyOS_string_to_double``, so the matrix is
    bit for bit the one ``float`` gives; on others they disagree (numpy reads
    ``"\\x1c0.5"``, ``float`` reads ``"0_5"``). Otherwise ``_scores_by_cell``
    walks the rows already read, parsing each cell with ``float``, and names
    the first fault in file order; a byte that is not UTF-8 is named only
    when no line before it has a fault.
    """
    rows: list[tuple[str, str, str, str]] = []
    unreadable = None
    with contextlib.closing(_lines(path)) as lines:
        _, header = next(lines, (None, ""))
        if not header:
            raise ValueError(f"{path}: empty score file")
        cols = header.split("\t")
        if cols[0] != "note_id" or len(cols) < 2:
            raise ValueError(f"{path}: malformed score header")
        try:
            for where, line in lines:
                rows.append((where, *line.partition("\t")))
        except ValueError as exc:  # not UTF-8
            unreadable = exc
    scores = None if unreadable else _plain_scores([row[3] for row in rows], len(cols) - 1)
    if scores is None:
        scores = _scores_by_cell(rows, len(cols))
        if unreadable:
            raise unreadable
    try:
        return ScoreMatrix(note_ids=[row[1] for row in rows], code_ids=cols[1:], scores=scores)
    except ValueError as exc:  # a duplicate note or code id
        raise ValueError(f"{path}: {exc}") from exc


# The bytes of a plain score cell: printable ASCII but "_", and the tab between cells.
# numpy 2.4 refuses "0_5" on its own; excluding "_" keeps the condition off that.
_PLAIN_CELL_BYTES = bytes(range(0x20, 0x7F)).replace(b"_", b"") + b"\t"


def _plain_scores(cells: list[str], width: int) -> np.ndarray | None:
    """The rows ``cells`` hold as one ``np.loadtxt`` matrix, or None unless every row is plain.

    Each row is the text after a line's note id. An empty row (a line with
    no tab, or one code and no score) is refused before the parse, since
    ``np.loadtxt`` would skip it; a row of another field count fails the
    parse or the shape check.
    """
    if not (cells and all(cells)):
        return None
    # Row by row, so no copy of the whole file is made.
    for row in cells:
        if not row.isascii() or row.encode("ascii").translate(None, _PLAIN_CELL_BYTES):
            return None
    try:
        scores = np.loadtxt(cells, delimiter="\t", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    # NaN fails both comparisons.
    if scores.shape != (len(cells), width) or not (scores.min() >= 0.0 and scores.max() <= 1.0):
        return None
    return scores


def _scores_by_cell(rows: list[tuple[str, str, str, str]], n_fields: int) -> np.ndarray:
    """The scores of ``rows`` parsed one cell at a time, or the first fault in file order.

    Each row is ``(where, note_id, tab, cells)``, a line split at its first tab.
    """
    values: list[list[float]] = []
    for where, _, tab, cells in rows:
        parts = cells.split("\t")
        if not tab or len(parts) != n_fields - 1:
            raise ValueError(f"{where}: expected {n_fields} fields")
        try:
            row = [float(v) for v in parts]
        except ValueError as exc:
            raise ValueError(f"{where}: invalid float") from exc
        for v in row:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{where}: score {v!r} outside [0, 1]")
        values.append(row)
    return np.array(values, dtype=np.float64).reshape(len(rows), n_fields - 1)


def gold_matrix(notes: Sequence[Note], code_set: CodeSet) -> np.ndarray:
    """Binary label matrix aligned to the notes order and code set order."""
    out = np.zeros((len(notes), len(code_set)), dtype=np.int8)
    for i, note in enumerate(notes):
        out[i, code_set.indices_of(note.labels)] = 1
    return out


_REQUIRED = object()
NUMBER = (int, float)
_JSON_TYPES = {str: "a string", dict: "an object", list: "an array", int: "an integer",
               NUMBER: "a number"}


def parse_object(text: str, where: str) -> dict:
    """The JSON object ``text`` holds; anything else fails naming ``where``."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return record


def read_json(path: str | Path) -> dict:
    """A JSON file that holds one object; anything else fails naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    return parse_object(text, str(path))


def read_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """``(where, record)`` for each JSON object line, ``where`` being "path:lineno".

    Blank and whitespace-only lines are skipped; any other line must hold
    one JSON object.
    """
    for where, line in _lines(path):
        if not line.isspace():
            yield where, parse_object(line, where)


def json_line(record: dict) -> str:
    """One JSONL line: the record with sorted keys, then a newline."""
    return json.dumps(record, sort_keys=True) + "\n"


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with replace_file(path) as fh:
        fh.writelines(map(json_line, records))


def write_json(path: str | Path, record: dict) -> None:
    with replace_file(path) as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


@contextlib.contextmanager
def replace_file(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A file opened in ``mode`` (UTF-8 if text) that replaces ``path`` when the block ends.

    It is written beside ``path`` and renamed over it, so a reader sees the
    old file or the whole new one; on any exception it is removed and
    ``path`` is left as it was. A plain ``open``, unlike ``tempfile.mkstemp``,
    gives it the permissions the umask allows. Its name holds the process
    and thread ids, because two expansion threads can write the same
    response-cache file at once.
    """
    tmp_name = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp_name, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_name)
        raise


def field(record: dict, name: str, kind: type | tuple, where: str, default=_REQUIRED):
    """``record[name]`` if it is of JSON type ``kind``, else an error naming ``where`` and it."""
    if name not in record:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing field {name!r}")
        return default
    value = record[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: field {name!r} must be {_JSON_TYPES[kind]}")
    # json parses NaN and Infinity, which no metric or threshold can be.
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: field {name!r} must be finite, not {value!r}")
    return value


def numbers(record: dict, name: str, where: str, default=_REQUIRED) -> dict[str, float]:
    """A field holding an object of numbers, as floats."""
    values = field(record, name, dict, where, default)
    for key in values:
        field(values, key, NUMBER, f"{where}: field {name!r}")
    return {k: float(v) for k, v in values.items()}


def read_tsv(path: str | Path, *counts: int) -> Iterator[tuple[str, list[str]]]:
    """``(where, fields)`` for each non-empty line, whose field count must be in ``counts``."""
    expected = " or ".join(map(str, counts))
    for where, line in _lines(path):
        parts = line.split("\t")
        if len(parts) not in counts:
            raise ValueError(f"{where}: expected {expected} tab-separated fields")
        yield where, parts


def _lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """``("path:lineno", line)`` for each non-empty line, without its newline.

    A UTF-8 byte-order mark at the start of the file is dropped, so it never
    sticks to the first field.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if line:
                    yield f"{path}:{lineno}", line
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc


def _not_utf8(path: str | Path) -> ValueError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte.

    Text reads decode a block at a time, so the line is found again from the bytes.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as text mode does: a line ends at \n, \r\n or \r.
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = before.count(b"\n") + 1
        return ValueError(f"{path}:{line}: not valid UTF-8")
    return ValueError(f"{path}: not valid UTF-8")
