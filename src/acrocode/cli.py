"""Command-line pipeline: segment, expand, align, evaluate, train, score, report.

Every command reads and writes plain files under an output directory, takes
its defaults from an optional INI config file, and lets flags override the
config. Each option is declared once, in the option table below, and one
runner resolves, checks and hands them to the command. All randomness flows
from one --seed value; each component hashes (seed, component name) so
streams stay independent of each other.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import align as align_mod
from . import coding_eval, corpus, expansion_eval, segment as segment_mod, train as train_mod
from .expand import (
    ExpandedNote,
    Expander,
    ExpanderConfig,
    SectionExpansion,
    expand_notes,
    load_mock_dictionary,
)
from .seeding import derive_seed
from .train import TrainConfig

@dataclass(frozen=True)
class Option:
    """One command option: flag over INI key over default, all of one type.

    ``flag`` is None for an INI-only key and ``key`` ("section.key") is None
    for a flag-only option. An option with ``file`` set names an input file:
    the runner checks that it exists and passes it on as a Path. With
    ``produced_by`` the default is that command's first output under
    --output-dir.
    ``choices``, ``required`` and ``nargs`` go to argparse as they are; an
    INI value must be one of the ``choices`` too.
    """

    flag: str | None
    key: str | None = None
    default: object = None
    type: Callable = str
    help: str | None = None
    file: str | None = None
    produced_by: str | None = None
    choices: Sequence[str] | None = None
    required: bool = False
    nargs: str | None = None

    @property
    def dest(self) -> str:
        name = self.flag if self.flag is not None else self.key.split(".")[1]
        return name.lstrip("-").replace("-", "_")

    def from_ini(self, raw: str, path: str):
        """This option's value from the text of its INI key in config file ``path``."""
        try:
            value = self.type(raw)
            if self.choices is not None and value not in self.choices:
                raise ValueError(f"choose from {', '.join(self.choices)}")
        except ValueError as exc:
            raise ValueError(f"{self.key} in {path}: invalid value {raw!r} ({exc})") from None
        return value


def int_list(raw: str) -> list[int]:
    """Comma-separated integers, empty items skipped."""
    return [int(k) for k in raw.split(",") if k]


# The option table. Options that several commands share are named here; the
# rest are declared in COMMANDS at the end of the module.
CONFIG = Option("--config", help="INI config file; flags override it")
OUTPUT_DIR = Option("--output-dir", default="out", help="directory for outputs")
SEED = Option("--seed", default=0, type=int, help="base seed for all randomness")
NOTES = Option("--notes", "paths.notes", "notes.jsonl", help="notes JSONL file",
               file="notes file")
CODES = Option("--codes", "paths.codes", "codes.tsv", help="code descriptions TSV file",
               file="codes file")
EXPANDED = Option("--expanded", "paths.expanded",
                  help="expanded notes JSONL from the expand command",
                  file="expanded notes file", produced_by="expand")
SCORES = Option("--scores", "paths.scores", help="score matrix TSV from the score command",
                file="score matrix", produced_by="score")
THRESHOLD = Option("--threshold", "eval.threshold", 0.5, float, "global decision threshold")
THRESHOLD_POLICY = Option("--threshold-policy", help="threshold policy JSON file",
                          file="threshold policy file")
COMMON = (CONFIG, OUTPUT_DIR, SEED)


def _require(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        producer = next((name for name, c in COMMANDS.items() if p.name in c.outputs), None)
        hint = f"; run the {producer!r} command first" if producer else ""
        raise ValueError(f"{what} not found at {p}{hint}")
    return p


def _per_note(notes: Sequence[corpus.Note], entries: dict, what: str, path: Path,
              remedy: str) -> list:
    """Each note's entry from a side file, in note order; a missing one names ``remedy``."""
    for note in notes:
        if note.id not in entries:
            raise ValueError(f"no {what} for note {note.id!r} in {path}; {remedy}")
    return [entries[note.id] for note in notes]


def _load_candidates(
    path: Path, code_set: corpus.CodeSet, notes: Sequence[corpus.Note]
) -> list[corpus.CandidateList]:
    """Each note's candidate ranking; says on stdout how many were cut to the ranking limit."""
    candidates = corpus.load_candidates(path, code_set)
    cut = sum(1 for entry in candidates.values() if entry.cut)
    print(
        f"cut {cut} of {len(candidates)} candidate rankings "
        f"to their top {corpus.CANDIDATE_LIMIT} codes"
    )
    return _per_note(notes, candidates, "candidate list", path,
                     "rank candidate codes for every note of the notes file")


def _load_expanded(path: Path, notes: Sequence[corpus.Note]) -> list[ExpandedNote]:
    """Each note's expansion from an ``expand`` output file."""
    out: dict[str, ExpandedNote] = {}
    for where, record in corpus.read_jsonl(path):
        sections = []
        for index, section in enumerate(corpus.field(record, "sections", list, where)):
            at = f"{where}: section {index}"
            if not isinstance(section, dict):
                raise ValueError(f"{at}: expected a JSON object")
            sections.append(SectionExpansion(*(
                corpus.field(section, name, str, at) for name in ("original", "expanded", "source")
            )))
        note_id = corpus.field(record, "id", str, where)
        expanded_text = corpus.field(record, "expanded_text", str, where)
        try:
            note = ExpandedNote(note_id, expanded_text, tuple(sections))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if note_id in out:
            raise ValueError(f"{where}: duplicate note id {note_id!r}")
        out[note_id] = note
    return _per_note(notes, out, "expansion", path,
                     "run the 'expand' command on the same notes first")


def _policy_from_dict(record: dict, where: str) -> coding_eval.ThresholdPolicy:
    values = dict(
        kind=corpus.field(record, "kind", str, where),
        global_value=float(corpus.field(record, "global_value", corpus.NUMBER, where,
                                        coding_eval.ThresholdPolicy.global_value)),
        per_code_values=corpus.numbers(record, "per_code_values", where, {}),
        fallback=float(corpus.field(record, "fallback", corpus.NUMBER, where,
                                    coding_eval.ThresholdPolicy.fallback)),
    )
    try:
        return coding_eval.ThresholdPolicy(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _report_to_dict(report: coding_eval.MetricsReport) -> dict:
    return {
        "macro_auc": report.macro_auc,
        "micro_auc": report.micro_auc,
        "macro_f1": report.macro_f1,
        "micro_f1": report.micro_f1,
        "precision_at": {str(k): v for k, v in sorted(report.precision_at.items())},
        "threshold": None if report.threshold_used is None else asdict(report.threshold_used),
    }


def _report_from_dict(record: dict, where: str) -> coding_eval.MetricsReport:
    precision_at = corpus.numbers(record, "precision_at", where)
    for k in precision_at:
        # only the ASCII decimal of a positive integer, as eval-coding writes it,
        # so that no two keys name one cutoff
        if not (k.isascii() and k.isdecimal() and k[0] != "0"):
            raise ValueError(
                f"{where}: field 'precision_at' must have positive integer keys, not {k!r}"
            )
    threshold = None
    if record.get("threshold") is not None:
        threshold = _policy_from_dict(
            corpus.field(record, "threshold", dict, where), f"{where}: field 'threshold'"
        )
    return coding_eval.MetricsReport(
        macro_auc=float(corpus.field(record, "macro_auc", corpus.NUMBER, where)),
        micro_auc=float(corpus.field(record, "micro_auc", corpus.NUMBER, where)),
        macro_f1=float(corpus.field(record, "macro_f1", corpus.NUMBER, where)),
        micro_f1=float(corpus.field(record, "micro_f1", corpus.NUMBER, where)),
        precision_at={int(k): v for k, v in precision_at.items()},
        threshold_used=threshold,
    )


def _print_report(report: coding_eval.MetricsReport) -> None:
    print(f"macro-auc {report.macro_auc:.4f}")
    print(f"micro-auc {report.micro_auc:.4f}")
    print(f"macro-f1  {report.macro_f1:.4f}")
    print(f"micro-f1  {report.micro_f1:.4f}")
    for k in sorted(report.precision_at):
        print(f"p@{k:<8}{report.precision_at[k]:.4f}")


def _load_scored(
    opts: argparse.Namespace, *paths: Path
) -> tuple[corpus.CodeSet, np.ndarray, list[corpus.ScoreMatrix]]:
    """The code set, the gold rows of the first file's notes, and each file's scores."""
    notes, code_set = corpus.load_corpus(opts.notes, opts.codes)
    matrices = [corpus.load_scores(path) for path in paths]
    scores = matrices[0]
    if list(scores.code_ids) != list(code_set.code_ids):
        raise ValueError(
            f"score matrix code ids in {paths[0]} do not match the code set in {opts.codes}"
        )
    by_id = {n.id: n for n in notes}
    for note_id in scores.note_ids:
        if note_id not in by_id:
            raise ValueError(
                f"score matrix note {note_id!r} in {paths[0]} not present in notes file "
                f"{opts.notes}"
            )
    return code_set, corpus.gold_matrix([by_id[i] for i in scores.note_ids], code_set), matrices


def _from_options(cls, opts: argparse.Namespace, **overrides):
    """Build a config dataclass from the resolved options named like its fields."""
    values = {f.name: getattr(opts, f.name) for f in fields(cls)}
    return cls(**{**values, **overrides})


def _threshold_policy(opts: argparse.Namespace) -> coding_eval.ThresholdPolicy:
    if opts.threshold_policy is not None:
        path = opts.threshold_policy
        return _policy_from_dict(corpus.read_json(path), str(path))
    return coding_eval.ThresholdPolicy(
        kind=coding_eval.THRESHOLD_GLOBAL, global_value=opts.threshold
    )


# Command bodies. Each gets the resolved options, with input files checked
# and the output directory created and made a Path, then the paths of its
# outputs under it. A record of a flat dataclass is written from ``vars``:
# asdict's keys in its order, without its deep copy.

def _cmd_segment(opts: argparse.Namespace, sections_path: Path, reduced_path: Path) -> None:
    notes = corpus.load_notes(opts.notes)
    if opts.droppable is None:
        droppable = list(segment_mod.DEFAULT_DROPPABLE)
    else:
        droppable = [s.strip() for s in opts.droppable.split(",") if s.strip()]
    records = []
    reduced_notes = []
    section_count = 0
    shortened = 0
    for note in notes:
        sections = segment_mod.segment(note.text)
        section_count += len(sections)
        records.append({"id": note.id, "sections": [vars(s) for s in sections]})
        reduced = segment_mod.reduce_to_budget(sections, opts.budget, droppable)
        if reduced != note.text:
            shortened += 1
        reduced_notes.append(corpus.Note(id=note.id, text=reduced, labels=note.labels))
    corpus.write_jsonl(sections_path, records)
    corpus.save_notes(reduced_notes, reduced_path)
    print(f"segmented {len(notes)} notes into {section_count} sections")
    print(f"reduced {shortened} notes to the {opts.budget}-token budget")


def _cmd_expand(opts: argparse.Namespace, expanded_path: Path) -> None:
    notes = corpus.load_notes(opts.notes)
    config = _from_options(ExpanderConfig, opts)
    dictionary = None
    if config.mode == "mock":
        if opts.dictionary is None:
            raise ValueError("mock mode requires --dictionary")
        dictionary = load_mock_dictionary(opts.dictionary)
    expander = Expander(config, dictionary=dictionary)
    sections_by_note = {n.id: segment_mod.segment(n.text) for n in notes}
    expanded = expand_notes(notes, sections_by_note, expander)
    corpus.write_jsonl(
        expanded_path,
        (
            {
                "id": e.note_id,
                "expanded_text": e.expanded_text,
                "sections": [vars(s) for s in e.sections],
            }
            for e in expanded
        ),
    )
    sources = [s.source for e in expanded for s in e.sections]
    summary = {src: sources.count(src) for src in sorted(set(sources))}
    print(f"expanded {len(expanded)} notes (section sources: {summary})")


def _cmd_align(opts: argparse.Namespace, pairs_path: Path) -> None:
    notes = corpus.load_notes(opts.notes)
    records = []
    pair_count = 0
    for note, entry in zip(notes, _load_expanded(opts.expanded, notes)):
        sections = [(s.original, s.expanded) for s in entry.sections]
        try:
            pairs = align_mod.extract_pairs(note.text, entry.expanded_text, sections)
        except ValueError as exc:
            raise ValueError(
                f"note {note.id!r}: {exc} ({opts.expanded} against {opts.notes}); "
                "run the 'expand' command on the same notes again"
            ) from exc
        for pair in pairs:
            pair_count += 1
            records.append(
                {
                    "note_id": note.id,
                    "abbreviation": pair.abbreviation,
                    "expansion": pair.expansion,
                    "a_start": pair.a_span[0],
                    "a_end": pair.a_span[1],
                    "b_start": pair.b_span[0],
                    "b_end": pair.b_span[1],
                    "occurrence_index": pair.occurrence_index,
                }
            )
    corpus.write_jsonl(pairs_path, records)
    print(f"extracted {pair_count} expansion pairs from {len(notes)} notes")


def _cmd_eval_expansion(opts: argparse.Namespace, report_path: Path, summary_path: Path) -> None:
    pairs_by_note: dict[str, list[align_mod.ExpansionPair]] = {}
    for where, record in corpus.read_jsonl(opts.pairs):
        note_id, abbreviation, expansion = (
            corpus.field(record, name, str, where)
            for name in ("note_id", "abbreviation", "expansion")
        )
        a_start, a_end, b_start, b_end, occurrence = (
            corpus.field(record, name, int, where)
            for name in ("a_start", "a_end", "b_start", "b_end", "occurrence_index")
        )
        pairs_by_note.setdefault(note_id, []).append(align_mod.ExpansionPair(
            abbreviation, expansion, (a_start, a_end), (b_start, b_end), occurrence
        ))
    gold = corpus.load_gold_expansions(opts.gold)
    report = expansion_eval.evaluate(pairs_by_note, gold, opts.threshold)
    corpus.write_jsonl(report_path, (vars(v) for v in report.per_pair))
    summary = {
        "detection_precision": report.detection_precision,
        "detection_recall": report.detection_recall,
        "strict_accuracy": report.strict_accuracy,
        "lenient_accuracy": report.lenient_accuracy,
        "lenient_threshold": opts.threshold,
        "gold_records": len(report.per_pair),
    }
    corpus.write_json(summary_path, summary)
    print("expansion evaluation")
    print(f"  detection precision {report.detection_precision:.4f}")
    print(f"  detection recall    {report.detection_recall:.4f}")
    print(f"  strict accuracy     {report.strict_accuracy:.4f}")
    print(f"  lenient accuracy    {report.lenient_accuracy:.4f}")


def _cmd_train(opts: argparse.Namespace, model_path: Path, trace_path: Path) -> None:
    notes, code_set = corpus.load_corpus(opts.notes, opts.codes)
    pairs = list(zip(notes, _load_expanded(opts.expanded, notes)))
    config = _from_options(TrainConfig, opts, seed=derive_seed(opts.seed, "train"))
    result = train_mod.train(pairs, code_set, config)
    train_mod.save_checkpoint(result.params, code_set.code_ids, config, model_path)
    corpus.write_jsonl(
        trace_path, ({"epoch": i, "loss": loss} for i, loss in enumerate(result.loss_trace))
    )
    print(f"trained on {len(pairs)} notes for {config.epochs} epochs")
    print(f"final epoch loss {result.loss_trace[-1]:.6f}")


def _cmd_score(opts: argparse.Namespace, scores_path: Path) -> None:
    notes, code_set = corpus.load_corpus(opts.notes, opts.codes)
    with train_mod.open_checkpoint(opts.model) as checkpoint:
        if checkpoint.code_ids != list(code_set.code_ids):
            raise ValueError(
                f"model checkpoint code ids in {opts.model} do not match the codes file "
                f"{opts.codes}"
            )
        # Only the feature columns the notes use are read from the checkpoint.
        matrix = train_mod.score_matrix(checkpoint, notes, code_set)
    if opts.candidates is not None:
        keep = np.zeros((len(notes), len(code_set)), dtype=bool)
        for i, entry in enumerate(_load_candidates(opts.candidates, code_set, notes)):
            keep[i, code_set.indices_of(entry.ranked_codes)] = True
        # Each code has its own head, so scoring only a note's candidates
        # gives the full row with every other code at zero.
        matrix.scores[~keep] = 0.0
    corpus.save_scores(matrix, scores_path)
    print(f"scored {len(notes)} notes over {len(code_set)} codes")


def _check_cutoffs(cutoffs: Sequence[int], n_codes: int, option: str) -> None:
    """Refuse a precision cutoff outside [1, n_codes], naming the option it came from."""
    for k in cutoffs:
        if not 1 <= k <= n_codes:
            raise ValueError(
                f"{option}: cutoff {k} must lie in [1, {n_codes}], the number of codes"
            )


def _cmd_eval_coding(opts: argparse.Namespace, metrics_path: Path) -> None:
    code_set, gold, (scores,) = _load_scored(opts, opts.scores)
    policy = _threshold_policy(opts)
    _check_cutoffs(opts.k_list, len(code_set), "--k-list (eval.k_list)")
    report = coding_eval.evaluate_coding(scores, gold, policy, opts.k_list)
    corpus.write_json(metrics_path, _report_to_dict(report))
    _print_report(report)


def _cmd_tune_threshold(opts: argparse.Namespace, threshold_path: Path) -> None:
    _, gold, (scores,) = _load_scored(opts, opts.scores)
    policy = coding_eval.tune_threshold(scores, gold, opts.mode)
    corpus.write_json(threshold_path, asdict(policy))
    if policy.kind == coding_eval.THRESHOLD_GLOBAL:
        print(f"tuned global threshold {policy.global_value!r}")
    else:
        print(
            f"tuned per-code thresholds for {len(policy.per_code_values)} codes "
            f"(fallback {policy.fallback!r})"
        )


def _cmd_perm_test(opts: argparse.Namespace, result_path: Path) -> None:
    if opts.rounds < 1:
        raise ValueError(f"--rounds (eval.rounds) must be at least 1, got {opts.rounds}")
    top_k = opts.metric == "precision-at-k"
    if top_k and opts.k is None:
        raise ValueError("--metric precision-at-k needs --k")
    code_set, gold, (scores_a, scores_b) = _load_scored(opts, opts.scores_a, opts.scores_b)
    for ids in ("note_ids", "code_ids"):
        if getattr(scores_a, ids) != getattr(scores_b, ids):
            raise ValueError(
                f"score matrices {opts.scores_a} (--scores-a) and {opts.scores_b} (--scores-b) "
                f"disagree on {ids.replace('_', ' ')}"
            )
    policy = _threshold_policy(opts)
    if top_k:
        _check_cutoffs([opts.k], len(code_set), "--k")
    name, metric = coding_eval.make_metric(
        opts.metric, policy=policy, k=opts.k, code_ids=scores_a.code_ids
    )
    result = coding_eval.permutation_test(
        scores_a,
        scores_b,
        gold,
        metric,
        statistic_name=name,
        rounds=opts.rounds,
        seed=derive_seed(opts.seed, "perm-test"),
    )
    corpus.write_json(result_path, asdict(result))
    print(
        f"{result.statistic_name}: observed diff {result.observed_diff:+.6f}, "
        f"p = {result.p_value:.6f} ({result.rounds} rounds)"
    )


def _cmd_report(opts: argparse.Namespace, mean_path: Path) -> None:
    reports = []
    for path in opts.inputs:
        reports.append(_report_from_dict(corpus.read_json(path), str(path)))
    mean = coding_eval.mean_reports(reports)
    record = _report_to_dict(mean)
    record["n_reports"] = len(reports)
    corpus.write_json(mean_path, record)
    print(f"mean over {len(reports)} runs")
    _print_report(mean)


@dataclass(frozen=True)
class Command:
    """A command's body, its help line, its own options and its outputs.

    ``outputs`` names the files the command writes under --output-dir; the
    body gets their paths after the options, in that order.
    """

    run: Callable[..., None]
    help: str
    own_options: tuple[Option, ...]
    outputs: tuple[str, ...]

    @property
    def options(self) -> tuple[Option, ...]:
        return COMMON + self.own_options


COMMANDS = {
    "segment": Command(_cmd_segment, "split notes into header-delimited sections", (
        NOTES,
        Option("--budget", "segmenter.budget", segment_mod.DEFAULT_TOKEN_BUDGET, int,
               "token budget for the reduced notes"),
        Option("--droppable", "segmenter.droppable",
               help="comma-separated droppable section headers"),
    ), outputs=("sections.jsonl", "reduced.jsonl")),
    "expand": Command(_cmd_expand, "expand acronyms in notes section by section", (
        NOTES,
        Option("--mode", "expander.mode", ExpanderConfig.mode, help="where expansions come from",
               choices=("live", "mock", "cache-only")),
        Option("--dictionary", "paths.dictionary",
               help="mock dictionary file (abbr<TAB>full form)", file="mock dictionary"),
        Option("--endpoint-url", "expander.endpoint_url", ExpanderConfig.endpoint_url,
               help="chat-completion endpoint for live mode"),
        Option("--model-name", "expander.model_name", ExpanderConfig.model_name,
               help="model identifier sent to the endpoint"),
        Option("--cache-dir", "expander.cache_dir", help="response cache directory"),
        Option("--max-inflight", "expander.max_inflight", ExpanderConfig.max_inflight, int,
               "concurrent endpoint requests"),
        Option("--temperature", "expander.temperature", ExpanderConfig.temperature, float,
               "sampling temperature"),
        Option(None, "expander.max_retries", ExpanderConfig.max_retries, int),
        Option(None, "expander.timeout_seconds", ExpanderConfig.timeout_seconds, float),
        Option(None, "expander.max_response_tokens", ExpanderConfig.max_response_tokens, int),
        Option(None, "expander.request_token_budget", ExpanderConfig.request_token_budget, int),
    ), outputs=("expanded.jsonl",)),
    "align": Command(_cmd_align, "extract (abbreviation, expansion) pairs", (
        NOTES,
        EXPANDED,
    ), outputs=("pairs.jsonl",)),
    "eval-expansion": Command(_cmd_eval_expansion, "score expansion pairs against gold", (
        Option("--pairs", "paths.pairs", help="pairs JSONL from the align command",
               file="pairs file", produced_by="align"),
        # An empty path fails the file check, so --gold must come from somewhere.
        Option("--gold", "paths.gold_expansions", "", help="gold expansions TSV file",
               file="gold expansions file"),
        Option("--threshold", "eval.lenient_threshold", expansion_eval.DEFAULT_LENIENT_THRESHOLD,
               float, "lenient similarity threshold"),
    ), outputs=("expansion_report.jsonl", "expansion_summary.json")),
    "train": Command(_cmd_train, "train the reference coding model", (
        NOTES,
        CODES,
        EXPANDED,
        Option("--consistency-weight", "train.consistency_weight", TrainConfig.consistency_weight,
               float, "weight of the prediction-agreement term"),
        Option("--feature-dim", "train.feature_dim", TrainConfig.feature_dim, int,
               "hashed feature space size"),
        Option("--learning-rate", "train.learning_rate", TrainConfig.learning_rate, float,
               "gradient step size"),
        Option("--epochs", "train.epochs", TrainConfig.epochs, int, "training epochs"),
        Option("--batch-size", "train.batch_size", TrainConfig.batch_size, int,
               "examples per gradient step"),
    ), outputs=("model.bin", "loss_trace.jsonl")),
    "score": Command(_cmd_score, "score notes with a trained model", (
        NOTES,
        CODES,
        Option("--model", "paths.model", help="model checkpoint from the train command",
               file="model checkpoint", produced_by="train"),
        Option("--candidates", "paths.candidates", help="per-note candidate code TSV file",
               file="candidates file"),
    ), outputs=("scores.tsv",)),
    "eval-coding": Command(_cmd_eval_coding, "compute coding metrics for a score matrix", (
        NOTES,
        CODES,
        SCORES,
        THRESHOLD,
        THRESHOLD_POLICY,
        Option("--k-list", "eval.k_list", (5, 8), int_list,
               "comma-separated precision@k cutoffs"),
    ), outputs=("metrics.json",)),
    "tune-threshold": Command(_cmd_tune_threshold, "tune decision thresholds on dev scores", (
        NOTES,
        CODES,
        SCORES,
        Option("--mode", "eval.threshold_mode", coding_eval.THRESHOLD_GLOBAL,
               help="tune one shared threshold or one per code",
               choices=(coding_eval.THRESHOLD_GLOBAL, coding_eval.THRESHOLD_PER_CODE)),
    ), outputs=("threshold.json",)),
    "perm-test": Command(_cmd_perm_test, "paired permutation test between two score files", (
        NOTES,
        CODES,
        Option("--scores-a", help="score matrix TSV of system A", file="score matrix A",
               required=True),
        Option("--scores-b", help="score matrix TSV of system B", file="score matrix B",
               required=True),
        Option("--metric", default="micro-f1", help="statistic compared between the systems",
               choices=("micro-f1", "macro-f1", "micro-auc", "macro-auc", "precision-at-k")),
        Option("--k", type=int, help="cutoff for precision-at-k"),
        Option("--rounds", "eval.rounds", 1000, int, "permutation rounds"),
        THRESHOLD,
        THRESHOLD_POLICY,
    ), outputs=("perm_test.json",)),
    "report": Command(_cmd_report, "average several metrics files into one report", (
        Option("inputs", help="metrics JSON files to average", file="metrics file", nargs="+"),
    ), outputs=("mean_metrics.json",)),
}


def build_parser(commands: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with subparsers for ``commands`` (default: every command).

    Whatever it holds, a parser parses, helps with and refuses the command
    lines of its commands as the full parser does.
    """
    parser = argparse.ArgumentParser(
        prog="acrocode",
        description="Acronym expansion and multi-label coding evaluation pipeline.",
    )
    # With some commands left out, the usage line printed for an unrecognized
    # argument still lists every command, as the full parser's does.
    every = None if commands is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, command in COMMANDS.items():
        if commands is not None and name not in commands:
            continue
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            if opt.flag is None:
                continue
            # Every default is None here, so an absent flag lets the INI
            # key and then the table default through.
            kwargs = {"default": None, "help": opt.help}
            if opt.type is not str:
                kwargs["type"] = opt.type
            if opt.choices is not None:
                kwargs["choices"] = opt.choices
            if opt.required:
                kwargs["required"] = True
            if opt.nargs is not None:
                kwargs["nargs"] = opt.nargs
            p.add_argument(opt.flag, **kwargs)
    return parser


def resolve_options(args: argparse.Namespace) -> argparse.Namespace:
    """Every option of the parsed command: its flag, else its INI key, else its default."""
    ini = configparser.ConfigParser()
    if args.config is not None:
        if not Path(args.config).is_file():
            raise ValueError(f"config file not found: {args.config}")
        try:
            ini.read(args.config, encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ValueError(f"config file {args.config} is not valid UTF-8") from exc
    # A misspelled or removed key would otherwise leave its option at the default.
    known = {opt.key for command in COMMANDS.values() for opt in command.options}
    for section in (ini.default_section, *ini.sections()):
        for name in ini[section]:
            if f"{section}.{name}" not in known:
                raise ValueError(f"unknown key {section}.{name} in config file {args.config}")
    resolved = argparse.Namespace()
    for opt in COMMANDS[args.command].options:
        value = getattr(args, opt.dest, None)
        if value is None and opt.key is not None:
            raw = ini.get(*opt.key.split("."), fallback=None)
            if raw is not None:
                value = opt.from_ini(raw, args.config)
        if value is None and opt.produced_by is not None:
            value = Path(resolved.output_dir) / COMMANDS[opt.produced_by].outputs[0]
        setattr(resolved, opt.dest, opt.default if value is None else value)
    return resolved


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked command's subparser is built. Without a command name
    # first (no arguments, --help, an unknown command) the full parser answers.
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        command = COMMANDS[args.command]
        opts = resolve_options(args)
        for opt in command.options:
            value = getattr(opts, opt.dest)
            if opt.file is None or value is None:
                continue
            if isinstance(value, list):
                setattr(opts, opt.dest, [_require(v, opt.file) for v in value])
            else:
                setattr(opts, opt.dest, _require(value, opt.file))
        opts.output_dir = Path(opts.output_dir)
        opts.output_dir.mkdir(parents=True, exist_ok=True)
        outputs = [opts.output_dir / name for name in command.outputs]
        command.run(opts, *outputs)
        print("wrote " + " and ".join(map(str, outputs)))
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        record = {
            "command": getattr(args, "command", None),
            "error": str(exc),
            "type": type(exc).__name__,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
