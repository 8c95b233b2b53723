"""End-to-end CLI tests over the bundled demo fixture.

These run every command in-process through main() and check the on-disk
artifacts, including byte-for-byte determinism of a full pipeline run.
"""

import argparse
import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import tracemalloc
import uuid
from collections.abc import MutableMapping, MutableSequence, MutableSet
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from acrocode import cli, coding_eval, corpus, train
from acrocode.cli import main
from acrocode.expand import USER_PROMPT_PREFIX, Expander, ExpanderConfig, expand_notes
from acrocode.seeding import derive_seed
from acrocode.segment import segment
from test_coding_eval import permutation_oracle, whole_matrix_metric

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "expansion_demo"
NOTES = str(FIXTURES / "notes.jsonl")
CODES = str(FIXTURES / "codes.tsv")
DICTIONARY = str(FIXTURES / "mock_dictionary.tsv")
GOLD = str(FIXTURES / "gold_expansions.tsv")

# The demo dictionary is built so the twelve gold acronyms come back with
# this exact spread of similarity scores (two of them negative/zero).
EXPECTED_SIMILARITIES = sorted(
    [100.0, 86.67, 84.61, 81.82, 69.23, 68.42, 66.67, 50.0, 45.45, 28.57, 0.0, -25.0]
)


def run(*argv: str) -> int:
    return main(list(argv))


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


@pytest.fixture
def out(tmp_path):
    return tmp_path / "out"


def _expand_align(out: Path) -> None:
    assert run("expand", "--output-dir", str(out), "--notes", NOTES,
               "--mode", "mock", "--dictionary", DICTIONARY) == 0
    assert run("align", "--output-dir", str(out), "--notes", NOTES) == 0


def test_segment_command(out, capsys):
    assert run("segment", "--output-dir", str(out), "--notes", NOTES) == 0
    records = read_jsonl(out / "sections.jsonl")
    assert [r["id"] for r in records] == ["n01", "n02", "n03"]
    notes = {r["id"]: r for r in read_jsonl(Path(NOTES))}
    for record in records:
        joined = "".join(s["body"] for s in record["sections"])
        assert joined == notes[record["id"]]["text"]
        assert any(s["header"] == "chief complaint" for s in record["sections"])
    # nothing is over the default budget, so reduced text == original text
    reduced = read_jsonl(out / "reduced.jsonl")
    assert [r["text"] for r in reduced] == [notes[r["id"]]["text"] for r in reduced]
    assert "segmented 3 notes" in capsys.readouterr().out


def test_segment_budget_reduces_notes(out):
    assert run("segment", "--output-dir", str(out), "--notes", NOTES,
               "--budget", "4", "--droppable", "family history") == 0
    reduced = read_jsonl(out / "reduced.jsonl")
    for record in reduced:
        assert len(record["text"].split()) <= 4
    assert all("father" not in r["text"] for r in reduced)
    # labels survive the rewrite so the file still works as a notes file
    assert read_jsonl(Path(NOTES))[0]["labels"] == reduced[0]["labels"]


def test_expand_mock_and_align(out):
    _expand_align(out)
    expanded = read_jsonl(out / "expanded.jsonl")
    assert len(expanded) == 3
    for record in expanded:
        assert record["expanded_text"] == "".join(s["expanded"] for s in record["sections"])
        assert all(s["source"] == "mock" for s in record["sections"])
    pairs = read_jsonl(out / "pairs.jsonl")
    assert len(pairs) == 12
    by_note: dict[str, set[str]] = {}
    for pair in pairs:
        by_note.setdefault(pair["note_id"], set()).add(pair["abbreviation"])
    assert by_note["n01"] == {"hr", "dm2", "chol", "mi"}
    assert by_note["n02"] == {"lbp", "fx", "lad", "lzp"}
    assert by_note["n03"] == {"afib", "dvt", "fe", "bb"}



def test_align_refuses_sections_that_do_not_join_back_to_the_note(out, capsys):
    # Expansions of an edited copy of n02: the sections join back to that
    # copy, not to n02 as the notes file holds it.
    _expand_align(out)
    expanded = out / "expanded.jsonl"
    records = read_jsonl(expanded)
    section = records[1]["sections"][0]
    section["original"] = section["original"].replace("left", "right", 1)
    expanded.write_text("".join(json.dumps(r) + "\n" for r in records))
    (out / "pairs.jsonl").unlink()
    assert run("align", "--output-dir", str(out), "--notes", NOTES) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["type"] == "ValueError"
    assert record["error"].startswith("note 'n02': ")
    assert str(expanded) in record["error"] and NOTES in record["error"]
    assert not (out / "pairs.jsonl").exists()

_NO_EXPANSION = ("--expanded", "expanded.jsonl", "no expansion for note 'n03' in {}; "
                 "run the 'expand' command on the same notes first")
_NO_CANDIDATES = ("--candidates", "candidates.tsv", "no candidate list for note 'n03' in {}; "
                  "rank candidate codes for every note of the notes file")


@pytest.mark.parametrize("command, side", [
    ("align", _NO_EXPANSION),
    ("train", _NO_EXPANSION),
    ("score", _NO_CANDIDATES),
], ids=["align", "train", "score"])
def test_a_note_missing_from_a_side_file_is_named(tmp_path, capsys, command, side):
    flag, name, error = side
    side_dir, out = tmp_path / "side", tmp_path / "out"
    _expand_align(side_dir)
    assert run("train", "--output-dir", str(side_dir), "--notes", NOTES, "--codes", CODES,
               "--epochs", "1") == 0
    # Both side files cover n01 and n02 only.
    expanded = side_dir / "expanded.jsonl"
    expanded.write_text("".join(expanded.read_text().splitlines(keepends=True)[:2]))
    (side_dir / "candidates.tsv").write_text("n01\t401.9\nn02\t428.0\n")
    args = ["--output-dir", str(out), "--notes", NOTES, flag, str(side_dir / name)]
    if command != "align":
        args += ["--codes", CODES]
    if command == "score":
        args += ["--model", str(side_dir / "model.bin")]
    capsys.readouterr()
    assert run(command, *args) == 1
    assert json.loads(capsys.readouterr().err)["error"] == error.format(side_dir / name)
    assert list(out.iterdir()) == []


def test_eval_expansion_reproduces_reference_scores(out):
    _expand_align(out)
    assert run("eval-expansion", "--output-dir", str(out), "--gold", GOLD) == 0
    report = read_jsonl(out / "expansion_report.jsonl")
    assert len(report) == 12
    got = sorted(r["similarity"] for r in report)
    assert got == pytest.approx(EXPECTED_SIMILARITIES, abs=0.01)
    summary = json.loads((out / "expansion_summary.json").read_text())
    assert summary["detection_precision"] == 1.0
    assert summary["detection_recall"] == 1.0
    assert summary["strict_accuracy"] == pytest.approx(1 / 12)
    assert summary["lenient_accuracy"] == pytest.approx(4 / 12)
    assert summary["lenient_threshold"] == 70.0


def test_eval_expansion_threshold_flag(out):
    _expand_align(out)
    # the bar is inclusive, so at 0 everything but the one negative score passes
    assert run("eval-expansion", "--output-dir", str(out), "--gold", GOLD,
               "--threshold", "0") == 0
    summary = json.loads((out / "expansion_summary.json").read_text())
    assert summary["lenient_accuracy"] == pytest.approx(11 / 12)


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_eval_expansion_refuses_a_threshold_that_is_not_finite(out, capsys, threshold):
    _expand_align(out)
    capsys.readouterr()
    assert run("eval-expansion", "--output-dir", str(out), "--gold", GOLD,
               f"--threshold={threshold}") == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"threshold must be a finite number, got {float(threshold)}"
    assert not (out / "expansion_summary.json").exists()


@pytest.mark.parametrize("abbreviation", ["hr", "zz"], ids=["predicted", "not-predicted"])
def test_eval_expansion_refuses_a_blank_gold_full_form_naming_its_line(out, tmp_path, capsys,
                                                                       abbreviation):
    _expand_align(out)
    gold = tmp_path / "gold.tsv"
    lines = Path(GOLD).read_text().splitlines(keepends=True)
    assert lines[0] == "n01\thr\theart rate\t0\n"
    gold.write_text(f"n01\t{abbreviation}\t \t0\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert run("eval-expansion", "--output-dir", str(out), "--gold", str(gold)) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{gold}:1: empty or whitespace-only full form"
    assert not (out / "expansion_report.jsonl").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["learning_rate", "consistency_weight"])
@pytest.mark.parametrize("source", ["flag", "ini"])
def test_train_refuses_a_rate_or_weight_that_is_not_finite(out, tmp_path, capsys, source, field,
                                                           value):
    _expand_align(out)
    capsys.readouterr()
    if source == "flag":
        given = [f"--{field.replace('_', '-')}={value}"]
    else:
        config = tmp_path / "run.ini"
        config.write_text(f"[train]\n{field} = {value}\n")
        given = ["--config", str(config)]
    assert run("train", "--output-dir", str(out), "--notes", NOTES, "--codes", CODES,
               "--feature-dim", "512", "--epochs", "1", "--batch-size", "2", *given) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": "train", "error": f"{field} must be a finite number, got {float(value)}",
        "type": "ValueError",
    }
    assert not (out / "model.bin").exists()
    assert not (out / "loss_trace.jsonl").exists()


def _run_pipeline(out: Path, seed: str = "7") -> None:
    common = ["--output-dir", str(out), "--seed", seed]
    assert run("segment", *common, "--notes", NOTES) == 0
    assert run("expand", *common, "--notes", NOTES, "--mode", "mock",
               "--dictionary", DICTIONARY) == 0
    assert run("align", *common, "--notes", NOTES) == 0
    assert run("eval-expansion", *common, "--gold", GOLD) == 0
    assert run("train", *common, "--notes", NOTES, "--codes", CODES,
               "--feature-dim", "512", "--epochs", "8", "--batch-size", "2") == 0
    assert run("score", *common, "--notes", NOTES, "--codes", CODES) == 0
    assert run("eval-coding", *common, "--notes", NOTES, "--codes", CODES,
               "--k-list", "1,2") == 0


def test_full_pipeline_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    _run_pipeline(first)
    _run_pipeline(second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert "model.bin" in names and "metrics.json" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_pipeline_seed_changes_model(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_pipeline(a, seed="7")
    _run_pipeline(b, seed="8")
    assert (a / "model.bin").read_bytes() != (b / "model.bin").read_bytes()


def _inodes(root: Path) -> dict[Path, int]:
    return {path: path.stat().st_ino for path in root.rglob("*") if path.is_file()}


def test_each_command_writes_its_outputs_and_names_them(tmp_path, capsys):
    out, masked = tmp_path / "out", tmp_path / "masked"
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text("n01\t401.9,428.0\nn02\t427.31\nn03\t428.0\n")
    corpus_args = ["--notes", NOTES, "--codes", CODES]
    steps = [
        ("segment", out, ["--notes", NOTES]),
        ("expand", out, ["--notes", NOTES, "--mode", "mock", "--dictionary", DICTIONARY]),
        ("align", out, ["--notes", NOTES]),
        ("eval-expansion", out, ["--gold", GOLD]),
        ("train", out, [*corpus_args, "--feature-dim", "256", "--epochs", "2"]),
        ("score", out, corpus_args),
        ("score", masked, [*corpus_args, "--model", str(out / "model.bin"),
                           "--candidates", str(candidates)]),
        ("tune-threshold", out, corpus_args),
        ("eval-coding", out, [*corpus_args, "--k-list", "1,2"]),
        ("perm-test", out, [*corpus_args, "--scores-a", str(out / "scores.tsv"),
                            "--scores-b", str(masked / "scores.tsv"), "--rounds", "20"]),
        ("report", out, [str(out / "metrics.json"), str(out / "metrics.json")]),
    ]
    assert {name for name, _, _ in steps} == set(cli.COMMANDS)
    for name, output_dir, argv in steps:
        before = _inodes(tmp_path)
        assert run(name, "--output-dir", str(output_dir), *argv) == 0, name
        # replace_file renames a new file over the old one, so its inode changes.
        changed = {path for path, ino in _inodes(tmp_path).items() if before.get(path) != ino}
        outputs = [output_dir / output for output in cli.COMMANDS[name].outputs]
        assert changed == set(outputs), name
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "wrote " + " and ".join(map(str, outputs)), name


# Each input read from --output-dir: its command, the other arguments it
# needs, its option and the command producing it.
_OUTPUT_DIR_INPUTS = [
    ("align", ["--notes", NOTES], "--expanded", "expand"),
    ("eval-expansion", [], "--pairs", "align"),
    ("score", ["--notes", NOTES, "--codes", CODES], "--model", "train"),
    ("eval-coding", ["--notes", NOTES, "--codes", CODES], "--scores", "score"),
]


@pytest.mark.parametrize("command, argv, option, producer", _OUTPUT_DIR_INPUTS)
def test_a_missing_input_from_the_output_dir_names_its_producer(out, capsys, command, argv,
                                                                option, producer):
    opt = next(o for o in cli.COMMANDS[command].options if o.flag == option)
    assert run(command, "--output-dir", str(out), *argv) == 1
    record = json.loads(capsys.readouterr().err)
    default = out / cli.COMMANDS[opt.produced_by].outputs[0]
    assert record["error"] == (
        f"{opt.file} not found at {default}; run the {producer!r} command first"
    )


@pytest.mark.parametrize("command, argv, option, producer", _OUTPUT_DIR_INPUTS)
def test_renaming_an_output_renames_its_consumers_default(out, capsys, monkeypatch, command,
                                                          argv, option, producer):
    outputs = cli.COMMANDS[producer].outputs
    renamed = ("renamed-" + outputs[0], *outputs[1:])
    monkeypatch.setitem(cli.COMMANDS, producer, replace(cli.COMMANDS[producer], outputs=renamed))
    opt = next(o for o in cli.COMMANDS[command].options if o.flag == option)
    args = cli.build_parser().parse_args([command, "--output-dir", str(out)])
    assert getattr(cli.resolve_options(args), opt.dest) == out / renamed[0]
    assert run(command, "--output-dir", str(out), *argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"{opt.file} not found at {out / renamed[0]}; run the {producer!r} command first"
    )


def test_score_with_candidates_matches_full_scoring(out, tmp_path):
    _run_pipeline(out)
    full = (out / "scores.tsv").read_text()
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text("n01\t401.9,428.0,427.31\n"
                          "n02\t427.31,401.9,428.0\n"
                          "n03\t428.0,427.31,401.9\n")
    chunked = tmp_path / "chunked"
    assert run("score", "--output-dir", str(chunked), "--notes", NOTES,
               "--codes", CODES, "--model", str(out / "model.bin"),
               "--candidates", str(candidates)) == 0
    assert (chunked / "scores.tsv").read_text() == full


def _wide_corpus(tmp_path: Path, n_codes: int, feature_dim: int, weights=None):
    """Two notes, ``n_codes`` codes and a checkpoint of the given weights (zeros by default)."""
    codes = [f"c{i}" for i in range(n_codes)]
    (tmp_path / "codes.tsv").write_text("".join(f"{c}\tcode {c}\n" for c in codes))
    (tmp_path / "notes.jsonl").write_text(
        json.dumps({"id": "n1", "text": "pt c/o sob x3 days", "labels": ["c1"]}) + "\n"
        + json.dumps({"id": "n2", "text": "chest pain to the left arm", "labels": []}) + "\n"
    )
    if weights is None:
        weights = np.zeros((n_codes, feature_dim))
    params = train.ModelParams(weights=weights, biases=np.zeros(n_codes))
    config = train.TrainConfig(feature_dim=feature_dim)
    train.save_checkpoint(params, codes, config, tmp_path / "model.bin")
    return codes, params


def test_candidate_rankings_cut_at_the_limit_are_counted(tmp_path, capsys):
    n_codes = corpus.CANDIDATE_LIMIT + 2
    codes, _ = _wide_corpus(tmp_path, n_codes, 16)
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text(f"n1\t{','.join(codes)}\nn2\tc0,c1\n")
    assert run("score", "--output-dir", str(tmp_path / "out"), "--notes",
               str(tmp_path / "notes.jsonl"), "--codes", str(tmp_path / "codes.tsv"),
               "--candidates", str(candidates), "--model", str(tmp_path / "model.bin")) == 0
    stdout = capsys.readouterr().out
    assert f"cut 1 of 2 candidate rankings to their top {corpus.CANDIDATE_LIMIT} codes" in stdout
    scores = corpus.load_scores(tmp_path / "out" / "scores.tsv").scores
    assert np.count_nonzero(scores, axis=1).tolist() == [corpus.CANDIDATE_LIMIT, 2]


def test_score_never_reads_the_whole_weight_matrix(tmp_path):
    weights = np.random.default_rng(0).normal(size=(64, 8192))
    _, params = _wide_corpus(tmp_path, 64, 8192, weights)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run("score", "--output-dir", str(out), "--notes", str(tmp_path / "notes.jsonl"),
                   "--codes", str(tmp_path / "codes.tsv"),
                   "--model", str(tmp_path / "model.bin")) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weights.nbytes / 2
    texts = ["pt c/o sob x3 days", "chest pain to the left arm"]
    expected = train.score_texts(params, texts)
    assert np.array_equal(corpus.load_scores(out / "scores.tsv").scores, expected)


def test_package_runs_as_a_module(tmp_path):
    # From a checkout: the import path of the acrocode copy this process imported.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "acrocode", "score", "--output-dir", str(tmp_path),
         "--notes", NOTES, "--codes", CODES],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PYTHONPATH": package_root, "PATH": "/usr/bin:/bin"},
    )
    assert child.returncode == 1
    record = json.loads(child.stderr)
    assert record["command"] == "score"
    assert "run the 'train' command first" in record["error"]


# scipy took most of every command's start-up, and numpy does all the program
# needs of it; requests and the four packages it pulls in took most of the
# rest, for one POST the standard library makes. What the interpreter and
# numpy load before the import does not count: a site hook may load certifi,
# and numpy loads charset_normalizer wherever it is installed.
NOT_IMPORTED_BY_THE_CLI = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")


def test_importing_the_cli_does_not_load_scipy():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, numpy; before = set(sys.modules); import acrocode.cli; "
         "print(json.dumps([sorted(set(sys.modules) - before), sorted(sys.modules)]))"],
        capture_output=True, text=True,
        env={"PYTHONPATH": package_root, "PATH": "/usr/bin:/bin"},
    )
    assert child.returncode == 0, child.stderr
    added, loaded = json.loads(child.stdout)
    assert "acrocode.cli" in added
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    assert [name for name in NOT_IMPORTED_BY_THE_CLI if name in added] == []


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    shared = tmp_path / "shared"
    _expand_align(shared)
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text("n01\t401.9,428.0\nn02\t427.31\nn03\t428.0\n")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {"PYTHONPATH": package_root, "PATH": "/usr/bin:/bin",
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        perm = ["perm-test", "--scores-a", str(out / "scores.tsv"),
                "--scores-b", str(out / "masked" / "scores.tsv"), "--rounds", "3000"]
        for argv in (["train", "--expanded", str(shared / "expanded.jsonl"),
                      "--feature-dim", "256", "--epochs", "4", "--batch-size", "2"],
                     ["score"],
                     ["score", "--candidates", str(candidates), "--model", str(out / "model.bin"),
                      "--output-dir", str(out / "masked")],
                     ["tune-threshold", "--mode", "per-code"],
                     ["eval-coding", "--k-list", "1,2", "--threshold-policy",
                      str(out / "threshold.json")],
                     [*perm, "--metric", "macro-auc", "--output-dir", str(out / "macro-auc")],
                     [*perm, "--metric", "micro-auc", "--output-dir", str(out / "micro-auc")]):
            child = subprocess.run(
                # an entry's own --output-dir comes later, and argparse keeps the last
                [sys.executable, "-m", "acrocode", argv[0], "--output-dir", str(out), *argv[1:],
                 "--notes", NOTES, "--codes", CODES],
                capture_output=True, text=True, env=env,
            )
            assert child.returncode == 0, child.stderr
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("model.bin", "loss_trace.jsonl", "scores.tsv",
                                         "masked/scores.tsv", "threshold.json", "metrics.json",
                                         "macro-auc/perm_test.json", "micro-auc/perm_test.json")}
    assert outputs["1"] == outputs["2"]


def test_score_with_candidate_subset_zeroes_the_other_codes(out, tmp_path):
    _run_pipeline(out)
    full = np.loadtxt(out / "scores.tsv", dtype=str)
    codes = list(full[0, 1:])
    candidates = tmp_path / "candidates.tsv"
    subsets = {"n01": ["428.0"], "n02": ["427.31", "401.9"], "n03": []}
    candidates.write_text("".join(f"{n}\t{','.join(c)}\n" for n, c in subsets.items()))
    masked = tmp_path / "masked"
    assert run("score", "--output-dir", str(masked), "--notes", NOTES,
               "--codes", CODES, "--model", str(out / "model.bin"),
               "--candidates", str(candidates)) == 0
    got = np.loadtxt(masked / "scores.tsv", dtype=str)
    assert got[0].tolist() == full[0].tolist()
    for full_row, row in zip(full[1:], got[1:]):
        assert row[0] == full_row[0]
        for code, full_cell, cell in zip(codes, full_row[1:], row[1:]):
            if code in subsets[row[0]]:
                assert cell == full_cell
            else:
                assert float(cell) == 0.0 and float(full_cell) > 0.0


def test_tune_threshold_and_reuse(out, capsys):
    _run_pipeline(out)
    assert run("tune-threshold", "--output-dir", str(out), "--notes", NOTES,
               "--codes", CODES, "--mode", "per-code") == 0
    policy = json.loads((out / "threshold.json").read_text())
    assert policy["kind"] == "per-code"
    assert set(policy["per_code_values"]) <= {"401.9", "427.31", "428.0"}
    assert run("eval-coding", "--output-dir", str(out), "--notes", NOTES,
               "--codes", CODES, "--k-list", "1,2",
               "--threshold-policy", str(out / "threshold.json")) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["threshold"]["kind"] == "per-code"
    # tuned on the same notes it is scored on, so F1 is at its optimum
    assert metrics["micro_f1"] == 1.0
    assert "micro-f1" in capsys.readouterr().out.replace("micro-f1 ", "micro-f1")


def test_perm_test_identical_scores(out):
    _run_pipeline(out)
    assert run("perm-test", "--output-dir", str(out), "--notes", NOTES,
               "--codes", CODES, "--scores-a", str(out / "scores.tsv"),
               "--scores-b", str(out / "scores.tsv"), "--metric", "micro-f1",
               "--rounds", "50") == 0
    result = json.loads((out / "perm_test.json").read_text())
    assert result["observed_diff"] == 0.0
    assert result["p_value"] == 1.0
    assert result["rounds"] == 50


@pytest.mark.parametrize("metric", ["micro-auc", "macro-f1"])
def test_perm_test_output_equals_the_whole_matrix_loop(out, tmp_path, metric):
    # a wrong round moves the p-value only when the two systems differ
    header = "note_id\t401.9\t428.0\t427.31\n"
    paths = {"a": tmp_path / "a.tsv", "b": tmp_path / "b.tsv"}
    paths["a"].write_text(header + "n01\t0.9\t0.2\t0.1\nn02\t0.7\t0.4\t0.3\n"
                          "n03\t0.2\t0.8\t0.6\n")
    paths["b"].write_text(header + "n01\t0.4\t0.6\t0.1\nn02\t0.8\t0.3\t0.7\n"
                          "n03\t0.6\t0.3\t0.2\n")
    assert run("perm-test", "--output-dir", str(out), "--notes", NOTES, "--codes", CODES,
               "--scores-a", str(paths["a"]), "--scores-b", str(paths["b"]),
               "--metric", metric, "--rounds", "300", "--seed", "11") == 0
    got = json.loads((out / "perm_test.json").read_text())
    scores = {side: corpus.load_scores(path) for side, path in paths.items()}
    gold = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 1]], dtype=np.int8)
    policy = coding_eval.ThresholdPolicy(kind="global")
    oracle = whole_matrix_metric(metric, policy, None, scores["a"].code_ids)
    expected = permutation_oracle(scores["a"], scores["b"], gold, oracle, metric, 300,
                                  derive_seed(11, "perm-test"))
    assert 0.0 < expected.p_value < 1.0
    assert got == asdict(expected)


def test_tuning_on_candidate_scores_never_picks_zero(out, tmp_path):
    # n02 and n03 leave out one of their gold codes, so those positives
    # score 0; 427.31's only positive is one of them
    _run_pipeline(out)
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text("n01\t401.9,428.0\nn02\t427.31\nn03\t428.0\n")
    masked = tmp_path / "masked"
    assert run("score", "--output-dir", str(masked), "--notes", NOTES,
               "--codes", CODES, "--model", str(out / "model.bin"),
               "--candidates", str(candidates)) == 0
    assert run("tune-threshold", "--output-dir", str(masked), "--notes", NOTES,
               "--codes", CODES, "--mode", "per-code") == 0
    policy = json.loads((masked / "threshold.json").read_text())
    assert 0.0 not in [policy["fallback"], *policy["per_code_values"].values()]
    assert policy["per_code_values"]["427.31"] == 1.0


@pytest.mark.parametrize(
    "metric", ["micro-f1", "macro-f1", "micro-auc", "macro-auc", "precision-at-k"]
)
def test_perm_test_on_scores_without_notes_is_a_named_error(out, tmp_path, capsys, metric):
    empty = tmp_path / "empty.tsv"
    empty.write_text("note_id\t401.9\t428.0\t427.31\n")
    assert run("perm-test", "--output-dir", str(out), "--notes", NOTES,
               "--codes", CODES, "--scores-a", str(empty), "--scores-b", str(empty),
               "--metric", metric, "--k", "1", "--rounds", "10") == 1
    error = json.loads(capsys.readouterr().err)
    assert error["type"] == "ValueError"
    assert error["error"] == "score matrix is empty: 0 notes x 3 codes"
    assert not (out / "perm_test.json").exists()


@pytest.mark.parametrize("command, error", [
    ("eval-coding", "score matrix code ids in {scores} do not match the code set in {codes}"),
    ("tune-threshold", "score matrix code ids in {scores} do not match the code set in {codes}"),
    ("perm-test", "score matrix code ids in {scores} do not match the code set in {codes}"),
    ("score", "model checkpoint code ids in {model} do not match the codes file {codes}"),
])
def test_code_ids_that_do_not_match_name_both_files(out, tmp_path, capsys, command, error):
    scores = tmp_path / "scores.tsv"
    scores.write_text("note_id\t428.0\t401.9\t427.31\nn01\t0.9\t0.2\t0.1\n")
    model = tmp_path / "model.bin"
    train.save_checkpoint(train.ModelParams.zeros(3, 8), ["428.0", "401.9", "427.31"],
                          train.TrainConfig(feature_dim=8), model)
    argv = {
        "eval-coding": ["--scores", str(scores)],
        "tune-threshold": ["--scores", str(scores)],
        "perm-test": ["--scores-a", str(scores), "--scores-b", str(scores), "--rounds", "10"],
        "score": ["--model", str(model)],
    }[command]
    assert run(command, "--output-dir", str(out), "--notes", NOTES, "--codes", CODES,
               *argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": command, "type": "ValueError",
        "error": error.format(scores=scores, codes=CODES, model=model),
    }
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["eval-coding", "tune-threshold", "perm-test"])
def test_a_score_file_note_missing_from_the_notes_names_both_files(out, tmp_path, capsys,
                                                                    command):
    scores = tmp_path / "scores.tsv"
    scores.write_text("note_id\t401.9\t428.0\t427.31\nn99\t0.9\t0.2\t0.1\n")
    argv = ["--scores", str(scores)]
    if command == "perm-test":
        argv = ["--scores-a", str(scores), "--scores-b", str(scores), "--rounds", "10"]
    assert run(command, "--output-dir", str(out), "--notes", NOTES, "--codes", CODES,
               *argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": command, "type": "ValueError",
        "error": f"score matrix note 'n99' in {scores} not present in notes file {NOTES}",
    }
    assert not any(out.iterdir())


@pytest.mark.parametrize("header_b, rows_b, ids", [
    ("401.9\t428.0\t427.31", ["n02\t0.1\t0.2\t0.3", "n01\t0.1\t0.2\t0.3"], "note ids"),
    ("428.0\t401.9\t427.31", ["n01\t0.1\t0.2\t0.3", "n02\t0.1\t0.2\t0.3"], "code ids"),
], ids=["note-order", "code-order"])
def test_perm_test_names_both_score_files_when_they_disagree(out, tmp_path, capsys, header_b,
                                                             rows_b, ids):
    scores_a = tmp_path / "a.tsv"
    scores_a.write_text("note_id\t401.9\t428.0\t427.31\nn01\t0.9\t0.2\t0.1\n"
                        "n02\t0.3\t0.8\t0.4\n")
    scores_b = tmp_path / "b.tsv"
    scores_b.write_text("".join(f"{line}\n" for line in [f"note_id\t{header_b}", *rows_b]))
    assert run("perm-test", "--output-dir", str(out), "--notes", NOTES, "--codes", CODES,
               "--scores-a", str(scores_a), "--scores-b", str(scores_b), "--rounds", "10") == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": "perm-test", "type": "ValueError",
        "error": f"score matrices {scores_a} (--scores-a) and {scores_b} (--scores-b) "
                 f"disagree on {ids}",
    }
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, argv, ini, error", [
    ("perm-test", ["--rounds", "0"], None, "--rounds (eval.rounds) must be at least 1, got 0"),
    ("perm-test", [], "[eval]\nrounds = -3\n",
     "--rounds (eval.rounds) must be at least 1, got -3"),
    ("perm-test", ["--metric", "precision-at-k"], None, "--metric precision-at-k needs --k"),
    ("perm-test", ["--metric", "precision-at-k", "--k", "9"], None,
     "--k: cutoff 9 must lie in [1, 3], the number of codes"),
    ("perm-test", ["--metric", "precision-at-k", "--k", "0"], None,
     "--k: cutoff 0 must lie in [1, 3], the number of codes"),
    ("eval-coding", [], None,
     "--k-list (eval.k_list): cutoff 5 must lie in [1, 3], the number of codes"),
    ("eval-coding", ["--k-list", "1,0"], None,
     "--k-list (eval.k_list): cutoff 0 must lie in [1, 3], the number of codes"),
    ("eval-coding", [], "[eval]\nk_list = 1,4\n",
     "--k-list (eval.k_list): cutoff 4 must lie in [1, 3], the number of codes"),
], ids=["rounds-flag", "rounds-ini", "k-missing", "k-above", "k-zero", "k-list-default",
        "k-list-flag", "k-list-ini"])
def test_an_option_out_of_range_is_named(out, tmp_path, capsys, command, argv, ini, error):
    scores = tmp_path / "scores.tsv"
    scores.write_text("note_id\t401.9\t428.0\t427.31\n"
                      "n01\t0.9\t0.2\t0.1\nn02\t0.3\t0.8\t0.6\nn03\t0.1\t0.7\t0.4\n")
    if ini is not None:
        config = tmp_path / "run.ini"
        config.write_text(ini)
        argv = [*argv, "--config", str(config)]
    if command == "perm-test":
        argv = [*argv, "--scores-a", str(scores), "--scores-b", str(scores)]
    else:
        argv = [*argv, "--scores", str(scores)]
    assert run(command, "--output-dir", str(out), "--notes", NOTES, "--codes", CODES,
               *argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": command, "error": error, "type": "ValueError"
    }
    assert not any(out.iterdir())


POLICY = {"kind": "global", "global_value": 0.5}
REPORT = {"macro_auc": 0.5, "micro_auc": 0.5, "macro_f1": 0.5, "micro_f1": 0.5,
          "precision_at": {"1": 0.5}, "threshold": POLICY}


@pytest.mark.parametrize("command, record, error", [
    ("eval-coding", {"global_value": 0.5}, "missing field 'kind'"),
    ("eval-coding", {**POLICY, "per_code_values": []},
     "field 'per_code_values' must be an object"),
    ("eval-coding", [POLICY], "expected a JSON object"),
    ("perm-test", {"global_value": 0.5}, "missing field 'kind'"),
    ("perm-test", {**POLICY, "fallback": "0.5"}, "field 'fallback' must be a number"),
    ("perm-test", {**POLICY, "per_code_values": {"428.0": None}},
     "field 'per_code_values': field '428.0' must be a number"),
    ("report", {k: v for k, v in REPORT.items() if k != "micro_auc"}, "missing field 'micro_auc'"),
    ("report", {**REPORT, "macro_f1": True}, "field 'macro_f1' must be a number"),
    ("report", {**REPORT, "precision_at": {"top": 0.5}},
     "field 'precision_at' must have positive integer keys, not 'top'"),
    ("report", {**REPORT, "threshold": {"global_value": 0.5}},
     "field 'threshold': missing field 'kind'"),
    ("eval-coding", {**POLICY, "global_value": float("nan")},
     "field 'global_value' must be finite, not nan"),
    ("eval-coding", {**POLICY, "per_code_values": {"428.0": float("-inf")}},
     "field 'per_code_values': field '428.0' must be finite, not -inf"),
    ("report", {**REPORT, "macro_auc": float("nan")}, "field 'macro_auc' must be finite, not nan"),
    ("report", {**REPORT, "precision_at": {"1": float("inf")}},
     "field 'precision_at': field '1' must be finite, not inf"),
    ("eval-coding", {"kind": "global", "global_value": 1.5}, "threshold 1.5 outside [0, 1]"),
    ("eval-coding", {"kind": "globl"}, "unknown threshold kind 'globl'"),
    ("report", {**REPORT, "threshold": {"kind": "global", "global_value": 1.5}},
     "field 'threshold': threshold 1.5 outside [0, 1]"),
    # a second spelling of cutoff 1 would replace or be averaged into p@1
    ("report", {**REPORT, "precision_at": {"1": 0.9, "01": 0.1}},
     "field 'precision_at' must have positive integer keys, not '01'"),
    ("report", {**REPORT, "precision_at": {"\u0661": 0.5}},
     "field 'precision_at' must have positive integer keys, not '\u0661'"),
    ("report", {**REPORT, "precision_at": {"0": 0.5}},
     "field 'precision_at' must have positive integer keys, not '0'"),
])
def test_malformed_policy_or_report_is_a_named_error(out, tmp_path, capsys, command, record,
                                                     error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(record))
    scores = tmp_path / "scores.tsv"
    scores.write_text("note_id\t401.9\t428.0\t427.31\n"
                      "n01\t0.9\t0.2\t0.1\nn02\t0.3\t0.8\t0.6\nn03\t0.1\t0.7\t0.4\n")
    data = ["--notes", NOTES, "--codes", CODES, "--threshold-policy", str(path)]
    argv = {
        "eval-coding": [*data, "--scores", str(scores)],
        "perm-test": [*data, "--scores-a", str(scores), "--scores-b", str(scores),
                      "--metric", "micro-f1", "--rounds", "10"],
        "report": [str(path)],
    }[command]
    assert run(command, "--output-dir", str(out), *argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": command, "error": f"{path}: {error}", "type": "ValueError"
    }
    assert not any(out.iterdir())


def _damage_first_line(path: Path, damage) -> None:
    """Rewrite the JSON object on the first line of ``path``; later bytes stay as they are."""
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(damage(json.loads(head))).encode("utf-8") + b"\n" + rest)


def _without(name):
    return lambda record: {k: v for k, v in record.items() if k != name}


def _first_original_is_five(record):
    first, *rest = record["sections"]
    return {**record, "sections": [{**first, "original": 5}, *rest]}


@pytest.mark.parametrize("name, damage, command, error", [
    ("expanded.jsonl", _without("sections"), "align", ":1: missing field 'sections'"),
    ("expanded.jsonl", _first_original_is_five, "align",
     ":1: section 0: field 'original' must be a string"),
    ("expanded.jsonl", lambda record: [1, 2], "align", ":1: expected a JSON object"),
    ("pairs.jsonl", _without("a_start"), "eval-expansion", ":1: missing field 'a_start'"),
    ("notes.jsonl", lambda record: {**record, "labels": "401.9"}, "segment",
     ":1: field 'labels' must be an array"),
    ("model.bin", _without("n_codes"), "score", ": header: missing field 'n_codes'"),
    ("model.bin", lambda header: [header], "score", ": header: expected a JSON object"),
    ("model.bin", lambda header: {**header, "feature_dim": "two"}, "score",
     ": header: field 'feature_dim' must be an integer"),
    ("model.bin", lambda header: {**header, "feature_dim": 0}, "score",
     ": header: field 'feature_dim' must be >= 1"),
])
def test_malformed_record_names_its_file_line_and_field(out, tmp_path, capsys, name, damage,
                                                         command, error):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(Path(NOTES).read_text())
    _expand_align(out)
    train.save_checkpoint(train.ModelParams.zeros(3, 8), ["401.9", "428.0", "427.31"],
                          train.TrainConfig(feature_dim=8), out / "model.bin")
    path = notes if name == "notes.jsonl" else out / name
    _damage_first_line(path, damage)
    argv = {
        "align": ["--notes", NOTES],
        "eval-expansion": ["--gold", GOLD],
        "segment": ["--notes", str(notes)],
        "score": ["--notes", NOTES, "--codes", CODES],
    }[command]
    assert run(command, "--output-dir", str(out), *argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": command, "error": f"{path}{error}", "type": "ValueError"
    }


def test_whitespace_only_lines_are_skipped_in_every_jsonl_input(tmp_path):
    def blank_lines_between(text: str) -> str:
        return "   \n" + "".join(line + " \t\n" for line in text.splitlines(keepends=True))

    clean, spaced = tmp_path / "clean", tmp_path / "spaced"
    _expand_align(clean)
    assert run("eval-expansion", "--output-dir", str(clean), "--gold", GOLD) == 0
    notes = tmp_path / "notes.jsonl"
    notes.write_text(blank_lines_between(Path(NOTES).read_text()))
    assert run("expand", "--output-dir", str(spaced), "--notes", str(notes), "--mode", "mock",
               "--dictionary", DICTIONARY) == 0
    expanded = spaced / "expanded.jsonl"
    assert expanded.read_bytes() == (clean / "expanded.jsonl").read_bytes()
    expanded.write_text(blank_lines_between(expanded.read_text()))
    assert run("align", "--output-dir", str(spaced), "--notes", str(notes)) == 0
    pairs = spaced / "pairs.jsonl"
    assert pairs.read_bytes() == (clean / "pairs.jsonl").read_bytes()
    pairs.write_text(blank_lines_between(pairs.read_text()))
    assert run("eval-expansion", "--output-dir", str(spaced), "--gold", GOLD) == 0
    for name in ("expansion_report.jsonl", "expansion_summary.json"):
        assert (spaced / name).read_bytes() == (clean / name).read_bytes(), name


def test_a_byte_order_mark_is_dropped_from_every_augment_input(tmp_path):
    def mark(path: Path) -> Path:
        marked = tmp_path / ("marked_" + path.name)
        marked.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        return marked

    clean, marked = tmp_path / "clean", tmp_path / "marked"
    _expand_align(clean)
    assert run("eval-expansion", "--output-dir", str(clean), "--gold", GOLD) == 0
    notes = mark(Path(NOTES))
    assert run("expand", "--output-dir", str(marked), "--notes", str(notes), "--mode", "mock",
               "--dictionary", str(mark(Path(DICTIONARY)))) == 0
    assert run("align", "--output-dir", str(marked), "--notes", str(notes),
               "--expanded", str(mark(marked / "expanded.jsonl"))) == 0
    assert run("eval-expansion", "--output-dir", str(marked), "--gold", str(mark(Path(GOLD))),
               "--pairs", str(mark(marked / "pairs.jsonl"))) == 0
    for name in ("expanded.jsonl", "pairs.jsonl", "expansion_report.jsonl",
                 "expansion_summary.json"):
        assert (marked / name).read_bytes() == (clean / name).read_bytes(), name


def test_a_key_glued_to_a_non_ascii_letter_is_neither_expanded_nor_counted(tmp_path):
    notes, dictionary, gold = (tmp_path / n for n in ("notes.jsonl", "dict.tsv", "gold.tsv"))
    notes.write_text(json.dumps({"id": "n01", "text": "Möhr hr stable.", "labels": []}) + "\n",
                     encoding="utf-8")
    dictionary.write_text("hr\theart rate\n", encoding="utf-8")
    gold.write_text("n01\thr\theart rate\t0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("expand", "--output-dir", str(out), "--notes", str(notes), "--mode", "mock",
               "--dictionary", str(dictionary)) == 0
    assert read_jsonl(out / "expanded.jsonl")[0]["expanded_text"] == "Möhr heart rate stable."
    assert run("align", "--output-dir", str(out), "--notes", str(notes)) == 0
    assert [(p["abbreviation"], p["expansion"], p["occurrence_index"])
            for p in read_jsonl(out / "pairs.jsonl")] == [("hr", "heart rate", 0)]
    assert run("eval-expansion", "--output-dir", str(out), "--gold", str(gold)) == 0
    summary = json.loads((out / "expansion_summary.json").read_text())
    assert summary["strict_accuracy"] == 1.0


def test_cache_file_that_is_not_utf8_names_the_note_section_and_file(out, tmp_path, capsys):
    cache = tmp_path / "cache"
    notes = corpus.load_notes(NOTES)
    live = ExpanderConfig(mode="live", endpoint_url="http://unit.test", cache_dir=cache)

    def post(url, payload, timeout):
        body = payload["messages"][1]["content"][len(USER_PROMPT_PREFIX):]
        return {"choices": [{"message": {"content": body}}]}

    expand_notes(notes, {n.id: segment(n.text) for n in notes}, Expander(live, post_fn=post))
    files = sorted(cache.rglob("*.txt"))
    assert files
    for path in files:
        path.write_bytes(b"\xff\xfe not utf-8")
    assert run("expand", "--output-dir", str(out), "--notes", NOTES, "--mode", "cache-only",
               "--cache-dir", str(cache)) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["type"] == "ExpanderError"
    assert record["error"].startswith("note 'n01' section 0: cache file ")
    assert str(cache) in record["error"] and "is not UTF-8 text" in record["error"]
    assert not (out / "expanded.jsonl").exists()


def test_report_averages_metrics(out, tmp_path, capsys):
    _run_pipeline(out)
    metrics = out / "metrics.json"
    assert run("report", "--output-dir", str(tmp_path / "rep"), str(metrics),
               str(metrics)) == 0
    mean = json.loads((tmp_path / "rep" / "mean_metrics.json").read_text())
    single = json.loads(metrics.read_text())
    assert mean["n_reports"] == 2
    assert mean["micro_f1"] == single["micro_f1"]
    assert mean["precision_at"] == single["precision_at"]
    assert "mean over 2 runs" in capsys.readouterr().out


def test_missing_input_reports_producer_command(out, capsys):
    code = run("align", "--output-dir", str(out), "--notes", NOTES)
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "align"
    assert record["type"] == "ValueError"
    assert "'expand'" in record["error"]


def test_missing_notes_file_is_a_clean_error(out, capsys):
    code = run("segment", "--output-dir", str(out), "--notes", str(out / "nope.jsonl"))
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "segment"
    assert "notes file not found" in record["error"]


def test_config_file_supplies_paths_and_flags_override(out, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(
        "[paths]\n"
        f"notes = {NOTES}\n"
        f"dictionary = {DICTIONARY}\n"
        "[expander]\n"
        "mode = mock\n"
        "[segmenter]\n"
        "budget = 4\n"
    )
    assert run("segment", "--config", str(config), "--output-dir", str(out)) == 0
    reduced = read_jsonl(out / "reduced.jsonl")
    assert all(len(r["text"].split()) <= 4 for r in reduced)

    # flag wins over the config value
    flagged = out.parent / "flagged"
    assert run("segment", "--config", str(config), "--output-dir", str(flagged),
               "--budget", "100000") == 0
    full = read_jsonl(flagged / "reduced.jsonl")
    assert any(len(r["text"].split()) > 4 for r in full)

    # expander settings come from the config too
    assert run("expand", "--config", str(config), "--output-dir", str(out)) == 0
    assert (out / "expanded.jsonl").is_file()
    capsys.readouterr()


@pytest.mark.parametrize("key, value, error", [
    ("max_retries", "-1", "max_retries must be >= 0"),
    ("timeout_seconds", "0", "timeout_seconds must be a finite number > 0"),
    ("timeout_seconds", "inf", "timeout_seconds must be a finite number > 0"),
    ("temperature", "nan", "temperature must be a finite number >= 0"),
    ("temperature", "-0.5", "temperature must be a finite number >= 0"),
    ("max_response_tokens", "0", "max_response_tokens must be >= 1"),
], ids=["max_retries", "timeout_seconds-zero", "timeout_seconds-inf", "temperature-nan",
        "temperature-negative", "max_response_tokens"])
def test_bad_endpoint_setting_is_refused_naming_its_field(out, tmp_path, capsys, key, value,
                                                          error):
    config = tmp_path / "run.ini"
    config.write_text(f"[expander]\n{key} = {value}\n")
    cache = tmp_path / "cache"
    assert run("expand", "--config", str(config), "--output-dir", str(out), "--notes", NOTES,
               "--mode", "cache-only", "--cache-dir", str(cache)) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"command": "expand", "error": error, "type": "ValueError"}
    assert not (out / "expanded.jsonl").exists()
    assert not cache.exists()


def test_a_config_file_with_a_byte_order_mark_is_read(out, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\nnotes = {NOTES}\n[segmenter]\nbudget = 4\n",
                      encoding="utf-8-sig")
    assert config.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run("segment", "--config", str(config), "--output-dir", str(out)) == 0
    assert all(len(r["text"].split()) <= 4 for r in read_jsonl(out / "reduced.jsonl"))


def test_a_config_file_that_is_not_utf8_is_named(out, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_bytes(b"[segmenter]\nbudget = 4 \xc0\n")
    assert run("segment", "--config", str(config), "--notes", NOTES,
               "--output-dir", str(out)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": "segment", "error": f"config file {config} is not valid UTF-8",
        "type": "ValueError",
    }


def test_missing_config_file_errors(out, capsys):
    assert run("segment", "--config", str(out / "absent.ini"), "--notes", NOTES,
               "--output-dir", str(out)) == 1
    assert "config file not found" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("section, key", [
    ("train", "learning_rat"),
    ("train", "use_synonym_prompt"),
    ("eval", "chunk_size"),
    ("trian", "epochs"),
    ("DEFAULT", "epochs"),
], ids=["misspelled", "removed-train", "removed-eval", "unknown-section", "default-section"])
def test_an_unknown_config_key_is_refused_before_anything_is_written(out, tmp_path, capsys,
                                                                     section, key):
    _expand_align(out)
    capsys.readouterr()
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = 5.0\n")
    assert run("train", "--config", str(config), "--output-dir", str(out), "--notes", NOTES,
               "--codes", CODES, "--epochs", "1") == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": "train", "error": f"unknown key {section}.{key} in config file {config}",
        "type": "ValueError",
    }
    assert not (out / "model.bin").exists()


def test_a_bad_k_list_names_its_option(out, tmp_path, capsys):
    argv = ["eval-coding", "--notes", NOTES, "--codes", CODES, "--output-dir", str(out)]
    code, _, stderr = _parse_outcome(main, [*argv, "--k-list", "5,x"])
    assert code == 2 and "argument --k-list: invalid int_list value: '5,x'" in stderr
    config = tmp_path / "run.ini"
    config.write_text("[eval]\nk_list = 5,x\n")
    assert run(*argv, "--config", str(config)) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"eval.k_list in {config}: invalid value '5,x' (")
    assert not out.exists()


def test_mock_mode_without_dictionary_errors(out, capsys):
    assert run("expand", "--output-dir", str(out), "--notes", NOTES,
               "--mode", "mock") == 1
    assert "dictionary" in json.loads(capsys.readouterr().err)["error"]


def _module_state() -> dict[str, int]:
    """The size of each container that an acrocode module holds, and of each functools cache.

    Containers are looked for in the modules' globals, in their classes'
    attributes and in their functions' default arguments.
    """
    sizes = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "acrocode":
            continue
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            held = [(name, value)]
            if isinstance(value, type):
                held += [(f"{name}.{attr}", v) for attr, v in vars(value).items()
                         if not attr.startswith("__")]
            defaults = getattr(value, "__defaults__", None) or ()
            held += [(f"{name} default {i}", v) for i, v in enumerate(defaults)]
            kwdefaults = getattr(value, "__kwdefaults__", None) or {}
            held += [(f"{name} default {k}", v) for k, v in kwdefaults.items()]
            for where, item in held:
                if callable(getattr(item, "cache_info", None)):
                    sizes[f"{module_name}.{where}"] = item.cache_info().currsize
                elif isinstance(item, (MutableMapping, MutableSequence, MutableSet)):
                    sizes[f"{module_name}.{where}"] = len(item)
    return sizes


def test_commands_keep_no_state_between_calls(tmp_path):
    # The benchmark runs every command in one process; each command must cost
    # there what it costs in a process of its own, and give the same output.
    _run_pipeline(tmp_path / "out")
    # A word no earlier call in this process has seen: a memo of texts or
    # tokens would grow on the first score.
    salt = uuid.uuid4().hex
    notes = tmp_path / "notes.jsonl"
    notes.write_text("".join(json.dumps({**r, "text": f"{r['text']} {salt}"}) + "\n"
                             for r in read_jsonl(Path(NOTES))))
    before = _module_state()
    assert before, "no module containers found: the scan looks in the wrong place"
    outputs = []
    for name in ("first", "second"):
        assert run("score", "--output-dir", str(tmp_path / name), "--notes", str(notes),
                   "--codes", CODES, "--model", str(tmp_path / "out" / "model.bin")) == 0
        assert _module_state() == before, f"module state changed by the {name} score"
        outputs.append((tmp_path / name / "scores.tsv").read_bytes())
    assert outputs[0] == outputs[1]


def test_outputs_contain_no_output_dir_path(out):
    _run_pipeline(out)
    marker = str(out).encode()
    for path in out.iterdir():
        assert marker not in path.read_bytes(), path.name


# --- the option table ---

# The option strings of every subcommand; renaming or dropping a flag must
# show up here.
SUBCOMMAND_OPTIONS = {
    "segment": {"--notes", "--budget", "--droppable"},
    "expand": {"--notes", "--mode", "--dictionary", "--endpoint-url", "--model-name",
               "--cache-dir", "--max-inflight", "--temperature"},
    "align": {"--notes", "--expanded"},
    "eval-expansion": {"--pairs", "--gold", "--threshold"},
    "train": {"--notes", "--codes", "--expanded", "--consistency-weight", "--feature-dim",
              "--learning-rate", "--epochs", "--batch-size"},
    "score": {"--notes", "--codes", "--model", "--candidates"},
    "eval-coding": {"--notes", "--codes", "--scores", "--threshold", "--threshold-policy",
                    "--k-list"},
    "tune-threshold": {"--notes", "--codes", "--scores", "--mode"},
    "perm-test": {"--notes", "--codes", "--scores-a", "--scores-b", "--metric", "--k",
                  "--rounds", "--threshold", "--threshold-policy"},
    "report": {"inputs"},
}


def test_subcommand_option_strings_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for action in p._actions for s in action.option_strings or [action.dest]}
        - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    common = {"--config", "--output-dir", "--seed"}
    assert got == {name: flags | common for name, flags in SUBCOMMAND_OPTIONS.items()}


def _parse_outcome(parse, argv: list[str]) -> tuple[object, str, str]:
    """The exit code, stdout and stderr of ``parse(argv)``, which argparse may end by exiting."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_main_builds_one_command_parser_that_answers_as_the_full_parser(name, monkeypatch):
    cases = [
        [name, "--help"],
        [name, "--output-dir"],  # an option without its value
        [name, "--no-such-option"],  # refused by the top-level parser
    ]
    if any(opt.required or opt.nargs == "+" for opt in cli.COMMANDS[name].options):
        cases.append([name])  # a required option or argument left out
    full = cli.build_parser()
    built = []
    build = cli.build_parser

    def recording_build(commands=None):
        built.append(commands)
        return build(commands)

    monkeypatch.setattr(cli, "build_parser", recording_build)
    for argv in cases:
        code, stdout, stderr = _parse_outcome(cli.main, argv)
        assert (code, stdout, stderr) == _parse_outcome(full.parse_args, argv), argv
        assert code in (0, 2) and (stdout if code == 0 else stderr).startswith("usage: ")
    assert built == [[name]] * len(cases)


# Every INI key any command reads.
INI_KEYS = {
    "paths.notes", "paths.codes", "paths.dictionary", "paths.expanded", "paths.pairs",
    "paths.gold_expansions", "paths.model", "paths.scores", "paths.candidates",
    "segmenter.budget", "segmenter.droppable",
    "expander.mode", "expander.endpoint_url", "expander.model_name", "expander.cache_dir",
    "expander.max_inflight", "expander.temperature", "expander.max_retries",
    "expander.timeout_seconds", "expander.max_response_tokens", "expander.request_token_budget",
    "train.consistency_weight", "train.feature_dim", "train.learning_rate", "train.epochs",
    "train.batch_size",
    "eval.lenient_threshold", "eval.threshold", "eval.threshold_mode",
    "eval.k_list", "eval.rounds",
}


def test_ini_keys_are_pinned():
    keys = {opt.key for c in cli.COMMANDS.values() for opt in c.options if opt.key is not None}
    assert keys == INI_KEYS


# Two distinct values per option type: one for the INI file, one for the flag.
_SAMPLES = {int: ("7", "9"), float: ("0.25", "0.75"), str: ("from-ini", "from-flag"),
            cli.int_list: ("7,9", "3")}
# A value per option type that the option refuses; a free-text option has none.
_BAD = {int: "x", float: "x", str: None, cli.int_list: "5,x"}
_INI_OPTIONS = [
    (name, opt, "bogus" if opt.choices is not None else _BAD[opt.type])
    for name, command in cli.COMMANDS.items()
    for opt in command.options
    if opt.key is not None
]


@pytest.mark.parametrize(
    "name,opt,bad", _INI_OPTIONS, ids=[f"{name}:{opt.key}" for name, opt, _ in _INI_OPTIONS]
)
def test_ini_key_reaches_the_options_and_the_flag_overrides_it(name, opt, bad, tmp_path):
    if opt.choices is not None:
        ini_raw, flag_raw = opt.choices[-1], opt.choices[0]
    else:
        ini_raw, flag_raw = _SAMPLES[opt.type]
    ini_value, flag_value = opt.type(ini_raw), opt.type(flag_raw)
    required = {"perm-test": ["--scores-a", "a.tsv", "--scores-b", "b.tsv"],
                "report": ["metrics.json"]}.get(name, [])
    parser = cli.build_parser()

    def resolved(*argv):
        return getattr(cli.resolve_options(parser.parse_args([name, *argv, *required])), opt.dest)

    default = resolved("--output-dir", "d")
    if opt.produced_by is not None:
        assert default == Path("d") / cli.COMMANDS[opt.produced_by].outputs[0]
    else:
        assert default == opt.default
    assert ini_value != default

    section, key = opt.key.split(".")
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = {ini_raw}\n")
    assert resolved("--config", str(config)) == ini_value
    if opt.flag is not None:
        assert resolved("--config", str(config), opt.flag, flag_raw) == flag_value
    if bad is not None:
        config.write_text(f"[{section}]\n{key} = {bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{opt.key} in {config}: invalid value")):
            resolved("--config", str(config))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_ini_table_matches_the_option_table():
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index("| INI key | flag | commands |") + 2:]:
        if not line.startswith("|"):
            break
        key, flag, commands = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:4])
        assert len(key) == 1 and key[0] not in rows, line
        rows[key[0]] = (set(flag), set(commands))
    table = {}
    for name, command in cli.COMMANDS.items():
        for opt in command.options:
            if opt.key is not None:
                flags, names = table.setdefault(opt.key, (set(), set()))
                flags.update([opt.flag] if opt.flag is not None else [])
                names.add(name)
    assert rows == table


def test_the_readme_quick_start_runs_and_writes_each_commands_outputs(tmp_path, monkeypatch,
                                                                      capsys):
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("cd fixtures/expansion_demo")
    block = "\n".join(lines[start:lines.index("```", start)]).replace("\\\n", " ")
    cd, *commands = block.replace("/tmp/demo", str(tmp_path)).splitlines()
    monkeypatch.chdir(README.parent / cd.removeprefix("cd "))
    assert len(commands) == 7
    for command in commands:
        program, name, *argv = shlex.split(command)
        assert program == "acrocode"
        outputs = [tmp_path / output for output in cli.COMMANDS[name].outputs]
        assert not any(path.exists() for path in outputs), name
        assert main([name, *argv]) == 0, name
        assert all(path.is_file() for path in outputs), name
        assert capsys.readouterr().out.splitlines()[-1] == (
            "wrote " + " and ".join(map(str, outputs))
        ), name
