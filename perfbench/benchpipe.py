"""The two workloads, the command sequence of one round, and its output checks.

A round runs the whole CLI pipeline once over a workload's generated inputs.
The first round checks every output against `benchgen`'s ground truth and
`benchref`'s reference computations and records the digest of each output
file; later rounds must reproduce those digests byte for byte, which the
pipeline guarantees for identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import benchgen
import benchref

STUB_MODEL = "generator-stub"
SCORE_TOLERANCE = 1e-12
AUC_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # keeps the two workloads' random streams apart for one seed
    shape: benchgen.Shape
    augment_splits: tuple[str, ...]  # the notes the text commands read
    segment_budget: int
    # None: `expand --mode mock` with the dictionary. A number: the run fills
    # a response cache after set-up, and `expand --mode cache-only` replays
    # it with this request token budget.
    cache_request_budget: int | None
    feature_dim: int
    learning_rate: float
    epochs: int
    batch_size: int
    threshold_mode: str
    k_list: str
    perm_metric: str
    perm_rounds: int
    min_ace_micro_auc: float  # floor for the ACE arm's test micro-AUC


WORKLOADS = {
    "common50": Workload(
        name="common50",
        tag=1,
        shape=benchgen.Shape(
            n_codes=50,
            n_train=16,
            n_dev=64,
            n_test=64,
            median_tokens=1500,
            token_sigma=0.35,
            min_tokens=400,
            max_tokens=4000,
            dictionary_size=300,
            label_zipf=0.5,
            labels_per_note=(2, 8),
            evidence_rate=0.02,
        ),
        augment_splits=("train",),
        segment_budget=1800,
        cache_request_budget=None,
        feature_dim=65536,
        learning_rate=0.001,
        epochs=3,
        batch_size=8,
        threshold_mode="global",
        k_list="5,8",
        perm_metric="macro-auc",
        perm_rounds=150,
        min_ace_micro_auc=0.0,
    ),
    "fullcode": Workload(
        name="fullcode",
        tag=2,
        shape=benchgen.Shape(
            n_codes=1000,
            n_train=48,
            n_dev=48,
            n_test=48,
            median_tokens=250,
            token_sigma=0.3,
            min_tokens=80,
            max_tokens=600,
            dictionary_size=200,
            label_zipf=1.0,
            labels_per_note=(4, 12),
            evidence_rate=0.04,
            candidates=(200, 300),
        ),
        augment_splits=("train", "dev", "test"),
        segment_budget=300,
        cache_request_budget=40,
        feature_dim=32768,
        learning_rate=0.5,
        epochs=2,
        batch_size=48,
        threshold_mode="per-code",
        k_list="5,8,15",
        perm_metric="micro-f1",
        perm_rounds=1000,
        min_ace_micro_auc=0.6,
    ),
}

ARMS = (("base", 0.0), ("ace", 0.05))  # (arm, consistency weight)


class CheckFailed(Exception):
    """An output disagrees with the ground truth or a reference computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


@dataclass
class Op:
    """One CLI command of a round, with the work it does and how it is checked."""

    command: str
    phase: str
    argv: list[str]
    units: float  # tokens, examples, notes, cells or rounds, by phase
    outputs: list[Path]
    check: Callable[[], None]


@dataclass
class Pipeline:
    workload: Workload
    corpus: benchgen.Corpus
    files: dict[str, Path]
    out: Path
    seed: int
    augment: tuple[benchgen.GenNote, ...] = field(init=False)
    ops: list[Op] = field(init=False)
    _digests: dict[int, str] = field(init=False, default_factory=dict)
    _ref_probs: dict[tuple[str, str], np.ndarray] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.augment = tuple(
            n for split in self.workload.augment_splits for n in getattr(self.corpus, split)
        )
        self.ops = self._build()

    # Running.

    def check(self, index: int, round_index: int) -> None:
        """Check op `index`'s outputs: in full on round 0, by digest after."""
        op = self.ops[index]
        if round_index == 0:
            op.check()
            self._digests[index] = _digest(op.outputs)
            return
        _require(index in self._digests, f"{op.command}: no verified output to compare with")
        _require(
            _digest(op.outputs) == self._digests[index],
            f"{op.command}: outputs differ from the verified first round",
        )

    # The command sequence.

    def _build(self) -> list[Op]:
        wl, f, out = self.workload, self.files, self.out
        augment_tokens = sum(n.tokens for n in self.augment)
        n_codes = wl.shape.n_codes
        ops = [
            Op("segment", "augment",
               ["segment", "--notes", str(f["augment"]), "--budget", str(wl.segment_budget),
                "--output-dir", str(out / "segment")],
               augment_tokens,
               [out / "segment" / "sections.jsonl", out / "segment" / "reduced.jsonl"],
               self._check_segment),
        ]
        if wl.cache_request_budget is None:
            ace_expand = ["--mode", "mock", "--dictionary", str(f["dictionary"])]
        else:
            ace_expand = ["--mode", "cache-only", "--cache-dir", str(f["cache"]),
                          "--model-name", STUB_MODEL, "--config", str(f["config"])]
        for arm, extra in (("ace", ace_expand),
                           ("base", ["--mode", "mock", "--dictionary", str(f["empty_dictionary"])])):
            ops.append(Op("expand", "augment",
                          ["expand", "--notes", str(f["augment"]), *extra,
                           "--output-dir", str(out / arm)],
                          augment_tokens, [out / arm / "expanded.jsonl"],
                          lambda arm=arm: self._check_expand(arm)))
        ops.append(Op("align", "augment",
                      ["align", "--notes", str(f["augment"]), "--output-dir", str(out / "ace")],
                      augment_tokens, [out / "ace" / "pairs.jsonl"], self._check_align))
        ops.append(Op("eval-expansion", "augment",
                      ["eval-expansion", "--gold", str(f["gold"]), "--output-dir", str(out / "ace")],
                      augment_tokens,
                      [out / "ace" / "expansion_report.jsonl", out / "ace" / "expansion_summary.json"],
                      self._check_eval_expansion))
        for arm, weight in ARMS:
            ops.append(Op("train", "train",
                          ["train", "--notes", str(f["train"]), "--codes", str(f["codes"]),
                           "--expanded", str(out / arm / "expanded.jsonl"),
                           "--consistency-weight", repr(weight),
                           "--feature-dim", str(wl.feature_dim),
                           "--learning-rate", repr(wl.learning_rate),
                           "--epochs", str(wl.epochs), "--batch-size", str(wl.batch_size),
                           "--seed", str(self.seed), "--output-dir", str(out / arm)],
                          len(self.corpus.train) * wl.epochs,
                          [out / arm / "model.bin", out / arm / "loss_trace.jsonl"],
                          lambda arm=arm: self._check_train(arm)))
        candidates = ["--candidates", str(f["candidates"])] if "candidates" in f else []
        for arm, _ in ARMS:
            for split in ("dev", "test"):
                notes = getattr(self.corpus, split)
                ops.append(Op("score", "score",
                              ["score", "--notes", str(f[split]), "--codes", str(f["codes"]),
                               "--model", str(out / arm / "model.bin"), *candidates,
                               "--output-dir", str(out / arm / split)],
                              len(notes), [out / arm / split / "scores.tsv"],
                              lambda arm=arm, split=split: self._check_score(arm, split)))
            ops.append(Op("tune-threshold", "eval",
                          ["tune-threshold", "--notes", str(f["dev"]), "--codes", str(f["codes"]),
                           "--scores", str(out / arm / "dev" / "scores.tsv"),
                           "--mode", wl.threshold_mode, "--output-dir", str(out / arm / "dev")],
                          len(self.corpus.dev) * n_codes, [out / arm / "dev" / "threshold.json"],
                          lambda arm=arm: self._check_tune(arm)))
            ops.append(Op("eval-coding", "eval",
                          ["eval-coding", "--notes", str(f["test"]), "--codes", str(f["codes"]),
                           "--scores", str(out / arm / "test" / "scores.tsv"),
                           "--threshold-policy", str(out / arm / "dev" / "threshold.json"),
                           "--k-list", wl.k_list, "--output-dir", str(out / arm / "test")],
                          len(self.corpus.test) * n_codes, [out / arm / "test" / "metrics.json"],
                          lambda arm=arm: self._check_eval_coding(arm)))
        policy = []
        if wl.perm_metric.endswith("-f1"):
            policy = ["--threshold-policy", str(out / "ace" / "dev" / "threshold.json")]
        ops.append(Op("perm-test", "perm",
                      ["perm-test", "--notes", str(f["test"]), "--codes", str(f["codes"]),
                       "--scores-a", str(out / "ace" / "test" / "scores.tsv"),
                       "--scores-b", str(out / "base" / "test" / "scores.tsv"),
                       "--metric", wl.perm_metric, *policy,
                       "--rounds", str(wl.perm_rounds), "--seed", str(self.seed),
                       "--output-dir", str(out / "perm")],
                      wl.perm_rounds, [out / "perm" / "perm_test.json"], self._check_perm))
        return ops

    # Checks, run on the first round.

    def _check_segment(self) -> None:
        notes = self.augment
        budget = self.workload.segment_budget
        records = _read_jsonl(self.out / "segment" / "sections.jsonl")
        _require([r["id"] for r in records] == [n.id for n in notes], "segment: note ids")
        for record, note in zip(records, notes):
            bodies = [s["body"] for s in record["sections"]]
            _require("".join(bodies) == note.text, f"segment: {note.id} bodies do not join back")
            headers = [s["header"] for s in record["sections"]]
            _require(headers == list(note.headers), f"segment: {note.id} headers {headers}")
        reduced = _read_jsonl(self.out / "segment" / "reduced.jsonl")
        _require([r["id"] for r in reduced] == [n.id for n in notes], "segment: reduced ids")
        changed = 0
        for record, note in zip(reduced, notes):
            _require(len(record["text"].split()) <= budget, f"segment: {note.id} over budget")
            if note.tokens <= budget:
                _require(record["text"] == note.text, f"segment: {note.id} fits but changed")
            changed += record["text"] != note.text
        expected = sum(n.tokens > budget for n in notes)
        _require(changed == expected, f"segment: {changed} notes reduced, expected {expected}")

    def _check_expand(self, arm: str) -> None:
        records = _read_jsonl(self.out / arm / "expanded.jsonl")
        notes = self.augment
        _require([r["id"] for r in records] == [n.id for n in notes], f"expand {arm}: ids")
        source = "mock" if arm == "base" or self.workload.cache_request_budget is None else "cache"
        for record, note in zip(records, notes):
            expected = note.expanded_text if arm == "ace" else note.text
            _require(record["expanded_text"] == expected, f"expand {arm}: {note.id} text differs")
            sources = {s["source"] for s in record["sections"]}
            _require(sources == {source}, f"expand {arm}: {note.id} sources {sources}")

    def _gold_keys(self) -> set[tuple[str, str, str, int]]:
        return {
            (n.id, g.abbreviation, g.full_form, g.occurrence)
            for n in self.augment
            for g in n.gold
        }

    def _check_align(self) -> None:
        by_id = {n.id: n for n in self.augment}
        pairs = _read_jsonl(self.out / "ace" / "pairs.jsonl")
        for p in pairs:
            note = by_id[p["note_id"]]
            _require(note.text[p["a_start"]:p["a_end"]] == p["abbreviation"],
                     f"align: {note.id} original span")
            _require(note.expanded_text[p["b_start"]:p["b_end"]] == p["expansion"],
                     f"align: {note.id} expanded span")
        found = {(p["note_id"], p["abbreviation"], p["expansion"], p["occurrence_index"])
                 for p in pairs}
        _require(len(found) == len(pairs), "align: duplicate pairs")
        _require(found == self._gold_keys(), f"align: pairs differ from gold "
                 f"({len(found - self._gold_keys())} extra, {len(self._gold_keys() - found)} missing)")

    def _check_eval_expansion(self) -> None:
        summary = _read_json(self.out / "ace" / "expansion_summary.json")
        for key in ("detection_precision", "detection_recall", "strict_accuracy"):
            _require(summary[key] == 1.0, f"eval-expansion: {key} = {summary[key]}")
        _require(summary["gold_records"] == len(self._gold_keys()), "eval-expansion: gold count")

    def _check_train(self, arm: str) -> None:
        wl = self.workload
        path = self.out / arm / "model.bin"
        ckpt = benchref.read_checkpoint(path)
        _require(ckpt.header["n_codes"] == wl.shape.n_codes, "train: n_codes")
        _require(ckpt.header["feature_dim"] == wl.feature_dim, "train: feature_dim")
        _require(ckpt.header["code_ids"] == self.corpus.code_ids, "train: code ids")
        _require(path.stat().st_size == ckpt.expected_size,
                 f"train: model.bin is {path.stat().st_size} bytes, expected {ckpt.expected_size}")
        losses = [r["loss"] for r in _read_jsonl(self.out / arm / "loss_trace.jsonl")]
        _require(len(losses) == wl.epochs, "train: one loss per epoch")
        _require(all(math.isfinite(x) for x in losses), f"train {arm}: non-finite loss {losses}")
        _require(losses[-1] < benchref.LN2, f"train {arm}: last loss {losses[-1]} >= ln 2")
        _require(losses[-1] <= losses[0], f"train {arm}: loss rose {losses}")
        # Reference scores for the later score checks, so the checkpoint is read once.
        featurizer = benchref.Featurizer(wl.feature_dim)
        for split in ("dev", "test"):
            notes = getattr(self.corpus, split)
            self._ref_probs[arm, split] = np.array(
                [benchref.forward(ckpt, featurizer, n.text, 1e-7) for n in notes]
            )

    def _check_score(self, arm: str, split: str) -> None:
        notes = getattr(self.corpus, split)
        note_ids, code_ids, scores = benchref.read_scores(self.out / arm / split / "scores.tsv")
        _require(note_ids == [n.id for n in notes], f"score {arm}/{split}: note ids")
        _require(code_ids == self.corpus.code_ids, f"score {arm}/{split}: code ids")
        expected = self._ref_probs[arm, split]
        if self.corpus.candidates:
            column = {c: j for j, c in enumerate(code_ids)}
            mask = np.zeros_like(expected, dtype=bool)
            for i, note in enumerate(notes):
                mask[i, [column[c] for c in self.corpus.candidates[note.id]]] = True
            _require(not scores[~mask].any(), f"score {arm}/{split}: nonzero outside candidates")
            expected = np.where(mask, expected, 0.0)
        gap = float(np.max(np.abs(scores - expected)))
        _require(gap <= SCORE_TOLERANCE, f"score {arm}/{split}: off the reference by {gap}")

    def _gold(self, split: str) -> np.ndarray:
        column = {c: j for j, c in enumerate(self.corpus.code_ids)}
        notes = getattr(self.corpus, split)
        gold = np.zeros((len(notes), len(column)), dtype=bool)
        for i, note in enumerate(notes):
            gold[i, [column[c] for c in note.labels]] = True
        return gold

    def _scores(self, arm: str, split: str) -> np.ndarray:
        return benchref.read_scores(self.out / arm / split / "scores.tsv")[2]

    def _thresholds(self, arm: str) -> np.ndarray:
        policy = _read_json(self.out / arm / "dev" / "threshold.json")
        if policy["kind"] == "global":
            return np.full(len(self.corpus.code_ids), policy["global_value"])
        return np.array([policy["per_code_values"].get(c, policy["fallback"])
                         for c in self.corpus.code_ids])

    def _check_tune(self, arm: str) -> None:
        policy = _read_json(self.out / arm / "dev" / "threshold.json")
        scores, gold = self._scores(arm, "dev"), self._gold("dev")
        best_f1, best_t = benchref.best_threshold_f1(scores, gold)
        _require(policy["kind"] == self.workload.threshold_mode, f"tune {arm}: kind")
        if policy["kind"] == "global":
            value = policy["global_value"]
            _require(benchref.f1_at(scores, gold, value) == best_f1,
                     f"tune {arm}: F1 at {value} is not the best {best_f1}")
            _require(value == best_t, f"tune {arm}: threshold {value}, sweep gives {best_t}")
            return
        _require(policy["fallback"] == best_t, f"tune {arm}: fallback {policy['fallback']}")
        per_code = policy["per_code_values"]
        for j, code in enumerate(self.corpus.code_ids):
            if not gold[:, j].any():
                _require(code not in per_code, f"tune {arm}: {code} has no positives")
                continue
            code_best, _ = benchref.best_threshold_f1(scores[:, j], gold[:, j])
            _require(benchref.f1_at(scores[:, j], gold[:, j], per_code[code]) == code_best,
                     f"tune {arm}: {code} threshold is not F1-optimal")

    def _check_eval_coding(self, arm: str) -> None:
        report = _read_json(self.out / arm / "test" / "metrics.json")
        scores, gold = self._scores(arm, "test"), self._gold("test")
        macro_f1, micro_f1 = benchref.f1(scores >= self._thresholds(arm), gold)
        _require(report["macro_f1"] == macro_f1, f"eval {arm}: macro F1 {report['macro_f1']}")
        _require(report["micro_f1"] == micro_f1, f"eval {arm}: micro F1 {report['micro_f1']}")
        for k in self.workload.k_list.split(","):
            expected = benchref.precision_at_k(scores, gold, int(k))
            _require(report["precision_at"][k] == expected, f"eval {arm}: P@{k}")
        macro_auc, micro_auc = benchref.macro_micro_auc(scores, gold)
        _require(abs(report["macro_auc"] - macro_auc) <= AUC_TOLERANCE, f"eval {arm}: macro AUC")
        _require(abs(report["micro_auc"] - micro_auc) <= AUC_TOLERANCE, f"eval {arm}: micro AUC")
        if arm == "ace":
            floor = self.workload.min_ace_micro_auc
            _require(micro_auc > floor, f"eval ace: micro AUC {micro_auc} not above {floor}")

    def _check_perm(self) -> None:
        wl = self.workload
        result = _read_json(self.out / "perm" / "perm_test.json")
        gold = self._gold("test")
        a, b = self._scores("ace", "test"), self._scores("base", "test")
        if wl.perm_metric == "macro-auc":
            observed = benchref.macro_micro_auc(a, gold)[0] - benchref.macro_micro_auc(b, gold)[0]
            tolerance = 2 * AUC_TOLERANCE
        else:
            thresholds = self._thresholds("ace")
            observed = benchref.f1(a >= thresholds, gold)[1] - benchref.f1(b >= thresholds, gold)[1]
            tolerance = 0.0
        _require(result["statistic_name"] == wl.perm_metric, "perm-test: statistic")
        _require(result["rounds"] == wl.perm_rounds, "perm-test: rounds")
        _require(abs(result["observed_diff"] - observed) <= tolerance,
                 f"perm-test: observed {result['observed_diff']}, reference {observed}")
        _require(benchref.permutation_hits(result["p_value"], wl.perm_rounds) is not None,
                 f"perm-test: p = {result['p_value']} is not (1 + h) / (rounds + 1)")
