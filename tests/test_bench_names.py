"""The benchmark's traced runs wrap `acrocode` functions by module and name.

`perfbench/benchtrace.py` resolves each (module, attribute) of its `WRAPPED`
table with `getattr` when it installs, and also patches `cli.main`,
`expand.Expander._cache_read` and `coding_eval.make_metric`. So renaming or
deleting one of those functions makes every traced benchmark run fail, and
an attribute left patched would trace the untraced rounds after it. These
tests read the tracer as it stands and fail first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from acrocode.corpus import ScoreMatrix

BENCHTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "benchtrace.py"


def _benchtrace():
    spec = importlib.util.spec_from_file_location("_benchtrace", BENCHTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_acrocode():
    wrapped = _benchtrace().WRAPPED
    assert wrapped
    missing = [
        f"acrocode.{module}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(f"acrocode.{module}"), attr, None))
    ]
    assert missing == []


def test_tracer_uninstall_restores_every_patched_attribute():
    benchtrace = _benchtrace()
    names = {module for module, _, _ in benchtrace.WRAPPED} | {"cli", "expand", "coding_eval"}
    modules = {name: importlib.import_module(f"acrocode.{name}") for name in names}
    patched = [(modules[module], attr) for module, attr, _ in benchtrace.WRAPPED] + [
        (modules["cli"], "main"),
        (modules["expand"].Expander, "_cache_read"),
        (modules["coding_eval"], "make_metric"),
    ]
    originals = [getattr(owner, attr) for owner, attr in patched]
    tracer = benchtrace.Tracer("guard")
    try:
        tracer.install(modules)
        assert all(getattr(o, a) is not fn for (o, a), fn in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert [
        f"{owner.__name__}.{attr}"
        for (owner, attr), fn in zip(patched, originals)
        if getattr(owner, attr) is not fn
    ] == []


def test_traced_training_and_scoring_count_their_calls():
    # The counters read some arguments by position, such as forward's clamp
    # and featurize_tokens' tokens; a call that moves one fails here.
    from test_trainer import _training_pairs

    benchtrace = _benchtrace()
    names = {module for module, _, _ in benchtrace.WRAPPED} | {"cli", "expand", "coding_eval"}
    modules = {name: importlib.import_module(f"acrocode.{name}") for name in names}
    train = modules["train"]
    pairs, code_set = _training_pairs(6)
    tracer = benchtrace.Tracer("guard")
    try:
        tracer.install(modules)
        config = train.TrainConfig(feature_dim=64, epochs=2, batch_size=4)
        result = train.train(pairs, code_set, config)
        train.score_texts(result.params, [note.text for note, _ in pairs])
    finally:
        tracer.uninstall()
    counts = tracer.counts[tracer.phase]
    for name in ("train.batches", "train.probabilities", "train.tokens_featurized"):
        assert counts[name] > 0, name


def test_traced_permutation_test_counts_its_metric_calls():
    # The tracer counts calls of the metric its patched make_metric returns;
    # a permutation test that does not call that function reads 0 here.
    benchtrace = _benchtrace()
    names = {module for module, _, _ in benchtrace.WRAPPED} | {"cli", "expand", "coding_eval"}
    modules = {name: importlib.import_module(f"acrocode.{name}") for name in names}
    coding_eval = modules["coding_eval"]
    gold = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.int8)
    note_ids, code_ids = ["n0", "n1", "n2", "n3"], ["c0", "c1"]
    a = ScoreMatrix(note_ids, code_ids, np.array([[0.9, 0.2], [0.3, 0.8], [0.7, 0.6], [0.1, 0.4]]))
    b = ScoreMatrix(note_ids, code_ids, np.full((4, 2), 0.5))
    tracer = benchtrace.Tracer("guard")
    try:
        tracer.install(modules)
        _, metric = coding_eval.make_metric("micro-auc")
        coding_eval.permutation_test(a, b, gold, metric, rounds=5, seed=0)
    finally:
        tracer.uninstall()
    assert tracer.counts[tracer.phase]["coding_eval.metric_calls"] > 0
