import contextlib
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrocode import corpus


@pytest.fixture
def code_set():
    return corpus.CodeSet(
        codes=[
            ("401.9", "unspecified essential hypertension"),
            ("428.0", "congestive heart failure"),
            ("427.31", "atrial fibrillation"),
        ],
    )


def test_code_set_lookup(code_set):
    assert code_set.code_ids == ["401.9", "428.0", "427.31"]
    assert code_set.index_of("428.0") == 1
    assert code_set.description("427.31") == "atrial fibrillation"
    assert "401.9" in code_set
    assert "999.9" not in code_set
    assert len(code_set) == 3


def test_code_set_rejects_duplicates():
    with pytest.raises(ValueError):
        corpus.CodeSet(codes=[("1", "a"), ("1", "b")])


def test_notes_roundtrip(tmp_path, code_set):
    notes = [
        corpus.Note(id="a", text="line one\nline two", labels=frozenset(["401.9", "428.0"])),
        corpus.Note(id="b", text="", labels=frozenset()),
    ]
    path = tmp_path / "notes.jsonl"
    corpus.save_notes(notes, path)
    loaded = corpus.load_notes(path, code_set)
    assert loaded == notes


def test_save_notes_is_deterministic(tmp_path):
    # label order inside the set must not leak into the file
    n1 = corpus.Note(id="a", text="t", labels=frozenset(["2", "1", "3"]))
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    corpus.save_notes([n1], p1)
    corpus.save_notes([corpus.Note(id="a", text="t", labels=frozenset(["3", "1", "2"]))], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_notes_rejects_duplicate_ids(tmp_path, code_set):
    path = tmp_path / "notes.jsonl"
    record = '{"id": "a", "text": "x", "labels": []}\n'
    path.write_text(record + record)
    with pytest.raises(ValueError, match="duplicate"):
        corpus.load_notes(path, code_set)


def test_load_notes_rejects_unknown_label(tmp_path, code_set):
    path = tmp_path / "notes.jsonl"
    path.write_text('{"id": "a", "text": "x", "labels": ["999"]}\n')
    with pytest.raises(ValueError, match="999"):
        corpus.load_notes(path, code_set)


def test_load_code_set(tmp_path):
    path = tmp_path / "codes.tsv"
    path.write_text("1\tfirst code\tsyn one|syn two\n2\tsecond code\n")
    cs = corpus.load_code_set(path)
    assert cs.code_ids == ["1", "2"]
    assert cs.description("1") == "first code"


@pytest.mark.parametrize("rows, error", [
    ("401.9\ta\n\tb\n", "2: empty code id"),
    ("401.9\ta\n428.0\tb\n401.9\tc\n", "3: duplicate code id '401.9'"),
], ids=["empty", "duplicate"])
def test_load_code_set_names_the_line_of_a_bad_code_id(tmp_path, rows, error):
    path = tmp_path / "codes.tsv"
    path.write_text(rows)
    with pytest.raises(ValueError) as info:
        corpus.load_code_set(path)
    assert str(info.value) == f"{path}:{error}"


def test_load_candidates_truncates(tmp_path, code_set):
    path = tmp_path / "cands.tsv"
    path.write_text("n1\t427.31,401.9,428.0\n")
    cands = corpus.load_candidates(path, code_set, limit=2)
    assert cands["n1"].ranked_codes == ("427.31", "401.9")


def test_load_candidates_rejects_unknown_code(tmp_path, code_set):
    path = tmp_path / "cands.tsv"
    path.write_text("n1\tbogus\n")
    with pytest.raises(ValueError, match="bogus"):
        corpus.load_candidates(path, code_set)


def test_load_candidates_rejects_duplicate_code(tmp_path, code_set):
    path = tmp_path / "cands.tsv"
    path.write_text("n1\t401.9,401.9\n")
    with pytest.raises(ValueError, match="duplicate"):
        corpus.load_candidates(path, code_set)


@pytest.mark.parametrize("ranking, error", [
    ("401.9,bogus,401.9", "unknown candidate code 'bogus'"),
    ("401.9,401.9,bogus", "duplicate candidate code '401.9'"),
])
def test_load_candidates_names_the_first_offending_code(tmp_path, code_set, ranking, error):
    path = tmp_path / "cands.tsv"
    path.write_text(f"n0\t428.0\nn1\t{ranking}\n")
    with pytest.raises(ValueError) as info:
        corpus.load_candidates(path, code_set)
    assert str(info.value) == f"{path}:2: {error}"


def test_gold_expansions_roundtrip(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("n1\thr\theart rate\t0\nn1\thr\theart rate\t1\n")
    gold = corpus.load_gold_expansions(path)
    assert len(gold) == 2
    assert gold[0] == corpus.GoldExpansion(
        note_id="n1", abbreviation="hr", full_form="heart rate", occurrence_index=0
    )


def test_gold_expansions_drop_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text("n01\thr\theart rate\t0\n", encoding="utf-8")
    marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert corpus.load_gold_expansions(marked) == corpus.load_gold_expansions(plain)


def test_json_and_score_readers_drop_a_byte_order_mark(tmp_path):
    matrix = corpus.ScoreMatrix(note_ids=["n0"], code_ids=["c0"], scores=np.array([[0.5]]))
    plain_scores, marked_scores = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    corpus.save_scores(matrix, plain_scores)
    marked_scores.write_text(plain_scores.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert corpus.load_scores(marked_scores).code_ids == ["c0"]
    marked_json = tmp_path / "marked.json"
    marked_json.write_text('{"kind": "global"}', encoding="utf-8-sig")
    assert corpus.read_json(marked_json) == {"kind": "global"}


@pytest.mark.parametrize("name, lines, read", [
    ("notes.jsonl", [b'{"id": "n1", "text": "ok", "labels": []}',
                     b'{"id": "n2", "text": "bad \xc0", "labels": []}'], corpus.load_notes),
    ("gold.tsv", [b"n1\thr\theart rate\t0", b"n1\thr\theart \xc0\t1"],
     corpus.load_gold_expansions),
    ("policy.json", [b"{", b'"kind": "gl\xc0obal"}'], corpus.read_json),
    ("scores.tsv", [b"note_id\tc0", b"n\xc0\t0.5"], corpus.load_scores),
], ids=["jsonl", "tsv", "json", "scores"])
def test_a_file_that_is_not_utf8_is_named_with_its_line(tmp_path, name, lines, read):
    path = tmp_path / name
    # A CRLF line ending counts as one line end, as text mode reads it.
    path.write_bytes(b"\r\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: not valid UTF-8$"):
        read(path)


def test_score_readers_skip_empty_lines(tmp_path):
    rows = ["note_id\tc0\tc1", "n1\t0.25\t0.5", "n2\t1.0\t0.0"]
    plain, spaced = tmp_path / "plain.tsv", tmp_path / "spaced.tsv"
    plain.write_text("\n".join(rows) + "\n")
    spaced.write_text("\n" + rows[0] + "\n\n" + rows[1] + "\n\n\n" + rows[2] + "\n\n")
    assert corpus.load_scores(spaced) == corpus.load_scores(plain)


def test_a_bad_score_after_an_empty_line_is_named_by_its_line(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("note_id\tc0\n\nn1\t0.5\n\nn2\tx\n")
    with pytest.raises(ValueError) as info:
        corpus.load_scores(path)
    assert str(info.value) == f"{path}:5: invalid float"


def test_duplicate_ids_in_a_score_file_name_the_file(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("note_id\tc0\tc1\nn1\t0.5\t0.5\nn1\t0.5\t0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate note ids"):
        corpus.load_scores(path)
    path.write_text("note_id\tc0\tc0\nn1\t0.5\t0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate code ids"):
        corpus.load_scores(path)


def _reference_load_scores(path):
    """The line-by-line score reader, kept as it was before ``load_scores`` parsed in one call."""
    note_ids: list[str] = []
    rows: list[list[float]] = []
    with contextlib.closing(corpus._lines(path)) as lines:
        _, header = next(lines, (None, ""))
        if not header:
            raise ValueError(f"{path}: empty score file")
        cols = header.split("\t")
        if cols[0] != "note_id" or len(cols) < 2:
            raise ValueError(f"{path}: malformed score header")
        code_ids = cols[1:]
        for where, line in lines:
            parts = line.split("\t")
            if len(parts) != len(cols):
                raise ValueError(f"{where}: expected {len(cols)} fields")
            note_ids.append(parts[0])
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{where}: invalid float") from exc
            for v in values:
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"{where}: score {v!r} outside [0, 1]")
            rows.append(values)
    scores = np.array(rows, dtype=np.float64).reshape(len(note_ids), len(code_ids))
    try:
        return corpus.ScoreMatrix(note_ids=note_ids, code_ids=code_ids, scores=scores)
    except ValueError as exc:  # a duplicate note or code id
        raise ValueError(f"{path}: {exc}") from exc


def _outcome(read, path):
    """The ids and scores ``read`` gives for ``path``, or the message of the error it raises."""
    try:
        matrix = read(path)
    except ValueError as exc:
        return str(exc)
    return matrix.note_ids, matrix.code_ids, matrix.scores


def _assert_reads_as_reference(path):
    got, want = _outcome(corpus.load_scores, path), _outcome(_reference_load_scores, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[:2] == want[:2]
    assert np.array_equal(got[2], want[2])
    assert np.array_equal(np.signbit(got[2]), np.signbit(want[2]))
    assert got[2].shape == want[2].shape and got[2].dtype == want[2].dtype


_SCORE_CELLS = st.tuples(
    st.sampled_from(["", " ", "  "]),
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0).map(repr),
        st.sampled_from(["-0.0", "5e-324", "1.0", "0.0"]),
    ),
    st.sampled_from(["", " "]),
).map("".join)
_BAD_CELLS = st.sampled_from(
    ["x", "", " ", "nan", "inf", "-inf", "1.5", "-1e-300", "0x1p-1", "0.5.5", "1e400"]
)


@st.composite
def _score_files(draw):
    """A score file's bytes: repr cells, then up to two faults, a BOM and CRLF line ends."""
    n_codes = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 4))
    lines = ["note_id\t" + "\t".join(f"c{j}" for j in range(n_codes))]
    note_ids = draw(st.lists(st.sampled_from(["n0", "n1", "n_2", "né3", "n4"]),
                             min_size=n_rows, max_size=n_rows, unique=True))
    for note_id in note_ids:
        cells = draw(st.lists(_SCORE_CELLS, min_size=n_codes, max_size=n_codes))
        lines.append("\t".join([note_id, *cells]))
    faults = draw(st.lists(st.sampled_from(["field-count", "cell", "blank-line"]), max_size=2))
    for fault in faults:
        if fault == "blank-line" or not n_rows:
            continue
        row = draw(st.integers(1, n_rows))
        parts = lines[row].split("\t")
        if fault == "field-count":
            parts = parts[:-1] if draw(st.booleans()) else [*parts, "0.5"]
        else:
            parts[draw(st.integers(1, n_codes))] = draw(_BAD_CELLS)
        lines[row] = "\t".join(parts)
    for _ in range(faults.count("blank-line")):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = "\r\n" if draw(st.booleans()) else "\n"
    bom = "﻿" if draw(st.booleans()) else ""
    return (bom + end.join(lines) + end).encode("utf-8")


@settings(max_examples=300)
@given(_score_files())
@example(b"note_id\tc0\tc1\nn0\t0_5\t0.5\n")
@example(b"note_id\tc0\tc1\nn0\t0.5\t0_0\n")
@example("note_id\tc0\nn0\t١\n".encode("utf-8"))
@example(b"note_id\tc0\nn0\t\x1c0.5\n")
@example(b"note_id\tc0\nn0\t0.5\x0b\n")
@example("note_id\tc0\nn0\t　0.5\n".encode("utf-8"))
@example(b"note_id\tc0\tc1\nn0\t0.5\t1.5\nn1\t0.5\nn2\tx\t0.5\n")
def test_load_scores_reads_every_file_as_the_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "equivalence.tsv"
    path.write_bytes(data)
    _assert_reads_as_reference(path)


def test_a_plain_score_file_is_parsed_without_the_line_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    matrix = corpus.ScoreMatrix(
        note_ids=["n_1", "né2"], code_ids=["c0", "c1", "c2"], scores=rng.random((2, 3))
    )
    path = tmp_path / "scores.tsv"
    corpus.save_scores(matrix, path)

    def refuse(rows, n_fields):
        raise AssertionError("a plain file went to the per-cell walk")

    monkeypatch.setattr(corpus, "_scores_by_cell", refuse)
    assert corpus.load_scores(path) == matrix


@pytest.mark.parametrize("cell", ["0_5", "\x1c0.5", "nan", "1.5", "x"])
def test_a_score_file_with_a_cell_that_is_not_plain_goes_to_the_line_reader(
    tmp_path, monkeypatch, cell
):
    path = tmp_path / "scores.tsv"
    path.write_text(f"note_id\tc0\tc1\nn0\t0.5\t{cell}\n", encoding="utf-8")
    calls = []
    walk = corpus._scores_by_cell
    monkeypatch.setattr(corpus, "_scores_by_cell",
                        lambda rows, n_fields: calls.append(rows) or walk(rows, n_fields))
    _outcome(corpus.load_scores, path)
    assert calls == [[(f"{path}:2", "n0", "\t", f"0.5\t{cell}")]]
    _assert_reads_as_reference(path)


def _bad_byte_past_the_first_block(fault: str) -> bytes:
    """A score file whose bad byte sits past the first block text mode decodes.

    The lines before it are read, so a fault on one of them is named first.
    """
    filler = b"".join(b"n%d\t0.25\n" % i for i in range(1, 2000))
    return b"note_id\tc0\n" + fault.encode() + b"\n" + filler + b"n\xc0\t0.5\n"


@pytest.mark.parametrize("fault, error", [
    ("n0\t0.5\t0.5", "{path}:2: expected 2 fields"),
    ("n0\t0.5", "{path}:2002: not valid UTF-8"),
], ids=["fault-before-bad-byte", "bad-byte-only"])
def test_a_score_file_that_is_not_utf8_names_an_earlier_fault_first(tmp_path, fault, error):
    path = tmp_path / "scores.tsv"
    path.write_bytes(_bad_byte_past_the_first_block(fault))
    with pytest.raises(ValueError) as info:
        corpus.load_scores(path)
    assert str(info.value) == error.format(path=path)
    _assert_reads_as_reference(path)


@pytest.mark.parametrize("data", [
    b"note_id\tc0\tc1\nn0\t0.25\t0.5\nn1\t1.0\t0.0\n",
    b"note_id\tc0\tc1\nn0\t0.25\t0_5\n",
    b"note_id\tc0\tc1\nn0\t0.25\t0.5\nn1\t0.5\n",
    _bad_byte_past_the_first_block("n0\t0.5\t0.5"),
], ids=["plain", "underscore-cell", "field-count", "not-utf8"])
def test_a_score_file_is_read_once(tmp_path, monkeypatch, data):
    path = tmp_path / "scores.tsv"
    path.write_bytes(data)
    calls = []
    lines = corpus._lines
    monkeypatch.setattr(corpus, "_lines", lambda path: calls.append(path) or lines(path))
    _outcome(corpus.load_scores, path)
    assert calls == [path]


@pytest.mark.parametrize("text", [
    "note_id\tc0\tc1\tc2\n",
    "note_id\tc0\tc1\tc2\nn0\t0.25\t0.5\t1.0\n",
    "note_id\tc0\nn0\t0.25\nn1\t-0.0\nn2\t1.0\n",
    "note_id\tc0\nn0\t0.75\n",
], ids=["header-only", "one-row", "one-code", "one-row-one-code"])
def test_edge_shaped_score_files_read_as_the_line_reader(tmp_path, text):
    path = tmp_path / "scores.tsv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_reads_as_reference(path)
        loaded = corpus.load_scores(path)
    assert loaded.scores.shape == (text.count("\n") - 1, text.split("\n")[0].count("\t"))


def test_gold_expansions_reject_negative_occurrence(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("n1\thr\theart rate\t-1\n")
    with pytest.raises(ValueError):
        corpus.load_gold_expansions(path)


@pytest.mark.parametrize("line, error", [
    ("n1\t\theart rate\t0", "empty or whitespace-only abbreviation"),
    ("n1\t \theart rate\t0", "empty or whitespace-only abbreviation"),
    ("n1\thr\t\t0", "empty or whitespace-only full form"),
    ("n1\thr\t \t0", "empty or whitespace-only full form"),
    ("n1\thr\t\u3000\x85\t0", "empty or whitespace-only full form"),
], ids=["empty-abbreviation", "blank-abbreviation", "empty-full-form", "blank-full-form",
        "unicode-blank-full-form"])
def test_gold_expansions_refuse_a_blank_field_naming_its_line(tmp_path, line, error):
    path = tmp_path / "gold.tsv"
    path.write_text(f"n1\thr\theart rate\t1\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        corpus.load_gold_expansions(path)
    assert str(info.value) == f"{path}:2: {error}"


def test_scores_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    scores = rng.random((7, 4))
    matrix = corpus.ScoreMatrix(
        note_ids=[f"n{i}" for i in range(7)],
        code_ids=["c1", "c2", "c3", "c4"],
        scores=scores,
    )
    path = tmp_path / "scores.tsv"
    corpus.save_scores(matrix, path)
    loaded = corpus.load_scores(path)
    assert loaded.note_ids == matrix.note_ids
    assert loaded.code_ids == matrix.code_ids
    assert np.array_equal(loaded.scores, matrix.scores)


def test_scores_reject_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        corpus.ScoreMatrix(note_ids=["a"], code_ids=["c"], scores=np.array([[1.5]]))


@pytest.mark.parametrize(
    "scores",
    [[[np.nan]], [[0.2, np.nan], [0.5, 0.9]], [[np.inf, 0.5]], [[0.1, -np.inf]]],
    ids=["nan", "nan-beside-valid", "inf", "minus-inf"],
)
def test_scores_reject_non_finite(scores):
    scores = np.array(scores)
    with pytest.raises(ValueError, match="finite"):
        corpus.ScoreMatrix(
            note_ids=[f"n{i}" for i in range(scores.shape[0])],
            code_ids=[f"c{j}" for j in range(scores.shape[1])],
            scores=scores,
        )


def test_save_scores_rejects_tab_in_id(tmp_path):
    matrix = corpus.ScoreMatrix(
        note_ids=["bad\tid"], code_ids=["c"], scores=np.array([[0.5]])
    )
    with pytest.raises(ValueError):
        corpus.save_scores(matrix, tmp_path / "s.tsv")


def test_gold_matrix(code_set):
    notes = [
        corpus.Note(id="a", text="", labels=frozenset(["401.9", "427.31"])),
        corpus.Note(id="b", text="", labels=frozenset()),
    ]
    gold = corpus.gold_matrix(notes, code_set)
    assert gold.tolist() == [[1, 0, 1], [0, 0, 0]]


def test_two_threads_replacing_one_file_leave_one_whole_file(tmp_path):
    # Both threads hold the file open at once, as two expansion threads can
    # when two notes share a response-cache chunk.
    path = tmp_path / "shared.txt"
    both_open = threading.Barrier(2)
    errors = []

    def write(text):
        try:
            with corpus.replace_file(path) as fh:
                fh.write(text)
                both_open.wait(timeout=10)
                fh.write(text)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(c * 4096,)) for c in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert path.read_text() in ("a" * 8192, "b" * 8192)
    assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]
