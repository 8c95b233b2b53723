"""Spans and counts around the public functions of `acrocode`'s modules.

The tracer wraps module attributes from outside, so the program itself is
unchanged. It assumes one thread: spans nest on a stack, and a span's self
time is its duration minus the durations of the spans directly inside it.
Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name): functions whose self time is reported.
# cli.py binds `expand_notes` by name, so that binding is wrapped as well.
WRAPPED = (
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("corpus", "save_notes", "corpus.save_notes"),
    ("corpus", "load_scores", "corpus.load_scores"),
    ("corpus", "save_scores", "corpus.save_scores"),
    ("corpus", "load_candidates", "corpus.load_candidates"),
    ("corpus", "load_gold_expansions", "corpus.load_gold_expansions"),
    ("segment", "segment", "segment.segment"),
    ("segment", "reduce_to_budget", "segment.reduce_to_budget"),
    ("cli", "expand_notes", "expand.expand_notes"),
    ("expand", "mock_expand", "expand.mock_expand"),
    ("expand", "split_for_request", "expand.split_for_request"),
    ("align", "extract_pairs", "align.extract_pairs"),
    ("align", "match_blocks", "align.match_blocks"),
    ("align", "count_occurrences", "align.count_occurrences"),
    ("expansion_eval", "evaluate", "expansion_eval.evaluate"),
    ("train", "train", "train.train"),
    ("train", "total_loss", "train.total_loss"),
    ("train", "gradient", "train.gradient"),
    ("train", "forward", "train.forward"),
    ("train", "featurize", "train.featurize"),
    ("train", "featurize_tokens", "train.featurize"),
    ("train", "save_checkpoint", "train.save_checkpoint"),
    ("train", "load_checkpoint", "train.load_checkpoint"),
    ("train", "score_texts", "train.score_texts"),
    ("prompts", "chunk_candidates", "prompts.chunk_candidates"),
    ("prompts", "merge_chunk_scores", "prompts.merge_chunk_scores"),
    ("coding_eval", "tune_threshold", "coding_eval.tune_threshold"),
    ("coding_eval", "evaluate_coding", "coding_eval.evaluate_coding"),
    ("coding_eval", "auc_scores", "coding_eval.auc_scores"),
    ("coding_eval", "f1_scores", "coding_eval.f1_scores"),
    ("coding_eval", "precision_at_k", "coding_eval.precision_at_k"),
    ("coding_eval", "permutation_test", "coding_eval.permutation_test"),
)

COMMANDS = (
    "segment",
    "expand",
    "align",
    "eval-expansion",
    "train",
    "score",
    "tune-threshold",
    "eval-coding",
    "perm-test",
)

_MIB = float(1 << 20)


def _pinned(tracer, args, kwargs, probs) -> None:
    clamp = args[2] if len(args) > 2 else kwargs["prob_clamp"]
    tracer.count("train.probabilities", probs.size)
    tracer.count("train.pinned", int(np.count_nonzero((probs <= clamp) | (probs >= 1.0 - clamp))))


def _cache_read(tracer, args, kwargs, text) -> None:
    tracer.count("expand.cache_reads")
    tracer.count("expand.cache_hits", text is not None)


def _reduced(tracer, args, kwargs, text) -> None:
    tracer.count("segment.notes_reduced", text != "".join(s.body for s in args[0]))


# Counters kept at the wrapped calls: attribute -> (tracer, args, kwargs, result).
_COUNTERS = {
    "segment": lambda t, a, k, r: t.count("segment.sections", len(r)),
    "reduce_to_budget": _reduced,
    "split_for_request": lambda t, a, k, r: t.count("expand.chunks", len(r)),
    "_cache_read": _cache_read,
    "extract_pairs": lambda t, a, k, r: t.count("align.pairs", len(r)),
    "total_loss": lambda t, a, k, r: t.count("train.examples"),
    "gradient": lambda t, a, k, r: t.count("train.batches"),
    "forward": _pinned,
    "featurize_tokens": lambda t, a, k, r: t.count("train.tokens_featurized", len(a[0])),
    "save_checkpoint": lambda t, a, k, r: t.peak("train.checkpoint_mb",
                                                 os.path.getsize(a[3]) / _MIB),
    "metric": lambda t, a, k, r: t.count("coding_eval.metric_calls"),
}

# Per-layer metrics: self times of every span name, the cache fill's spans, counts
# reported as they are, and ratios derived from counts.
SELF_TIME = tuple(dict.fromkeys(name for _, _, name in WRAPPED))
FILL_SELF_TIME = ("expand.cache_fill", "expand.endpoint_wait")
COUNTS = (
    "segment.sections", "segment.notes_reduced", "expand.chunks", "expand.cache_hits",
    "align.pairs", "train.examples", "train.batches", "train.tokens_featurized",
    "coding_eval.metric_calls",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"cli.{c}_s": "s" for c in COMMANDS}
    units.update({f"{name}_s": "s" for name in SELF_TIME + FILL_SELF_TIME})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "expand.cache_hit_ratio": "ratio",
        "train.pinned_fraction": "ratio",
        "train.checkpoint_mb": "MB",
    })
    units.update({f"rss_after.{c}_mb": "MB" for c in COMMANDS})
    units["trace.overhead_pct"] = "%"
    return units


def max_rss_mb() -> float:
    """The process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / _MIB


class Tracer:
    """Span stack, finished spans and counters for one traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.phase = "setup"
        # Finished spans: [name, start, end, parent index or -1, phase, self time].
        self.spans: list[list] = []
        self._stack: list[list] = []  # open spans: [index, name, start, child time]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patched: list[tuple[object, str, object]] = []

    # Spans and counts.

    def begin(self, name: str) -> None:
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)  # reserved slot keeps parents before children

    def end(self) -> None:
        index, name, start, child = self._stack.pop()
        stop = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += stop - start
        self.spans[index] = [name, start, stop, parent, self.phase, stop - start - child]

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.phase][name] += value

    def peak(self, name: str, value: float) -> None:
        phase = self.counts[self.phase]
        phase[name] = max(phase[name], value)

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # Installing and removing the wrappers.

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules: dict) -> None:
        """Wrap every function in WRAPPED, and `cli.main` under its command's name.

        The `cli.<command>` span covers all of `cli.main`: argument parsing,
        the INI configuration and the command itself.
        """
        for module, attr, name in WRAPPED:
            owner = modules[module]
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, self._after(attr)))
        cli = modules["cli"]
        main = cli.main

        def traced_main(argv):
            self.begin(f"cli.{argv[0]}")
            try:
                return main(argv)
            finally:
                self.end()

        self._patch(cli, "main", traced_main)
        expander = modules["expand"].Expander
        self._patch(expander, "_cache_read", self._counted(expander._cache_read, "_cache_read"))
        coding_eval = modules["coding_eval"]
        make_metric = coding_eval.make_metric

        def counted_make_metric(*args, **kwargs):
            name, metric = make_metric(*args, **kwargs)
            return name, self._counted(metric, "metric")

        self._patch(coding_eval, "make_metric", counted_make_metric)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counted(self, fn, attr: str):
        """Wrap `fn` with its counters only, without a span."""
        after = self._after(attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return counted

    def _after(self, attr: str):
        counter = _COUNTERS.get(attr)
        if counter is None:
            return None
        return lambda args, kwargs, result: counter(self, args, kwargs, result)

    # Output.

    def self_times(self, phase: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _start, _stop, _parent, span_phase, self_time in self.spans:
            if span_phase == phase:
                out[name] += self_time
        return out

    def layer_metrics(self, rounds: list[str]) -> dict[str, float]:
        """Self times, counts and ratios: medians over traced rounds, and the cache fill's."""
        per_round = []
        for phase in rounds:
            times = self.self_times(phase)
            counts = self.counts[phase]
            values = {f"{name}_s": times[name] for name in SELF_TIME}
            values.update({f"cli.{c}_s": times[f"cli.{c}"] for c in COMMANDS})
            values.update({name: counts[name] for name in COUNTS})
            reads, probs = counts["expand.cache_reads"], counts["train.probabilities"]
            values["expand.cache_hit_ratio"] = counts["expand.cache_hits"] / reads if reads else 0.0
            values["train.pinned_fraction"] = counts["train.pinned"] / probs if probs else 0.0
            values["train.checkpoint_mb"] = counts["train.checkpoint_mb"]
            per_round.append(values)
        metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        fill = self.self_times("fill")
        metrics.update({f"{name}_s": fill[name] for name in FILL_SELF_TIME})
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, stop, parent, phase, self_time in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": stop,
                            "self": self_time,
                            "parent": parent,
                            "phase": phase,
                            "workload": self.workload,
                        }
                    )
                    + "\n"
                )
