"""Trainer tests.

The gradient is checked against central finite differences of the loss, and
the hashed featurizer against a from-scratch reimplementation of the hash.
Loss identities are pinned to hand-derived constants.
"""

import filecmp
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrocode import corpus, train
from acrocode.corpus import CodeSet, Note
from acrocode.expand import ExpandedNote, SectionExpansion
from acrocode.seeding import derive_seed


def fnv1a_reference(data: bytes) -> int:
    value = 0x811C9DC5
    for byte in data:
        value = ((value ^ byte) * 0x01000193) % 2**32
    return value


def test_tokenize():
    assert train.tokenize("Pt c/o SOB x3 days!") == ["pt", "c", "o", "sob", "x3", "days"]
    assert train.tokenize("") == []


# Non-ASCII characters, some of whose lowercase is ASCII or holds ASCII:
# KELVIN SIGN lowers to "k", and CAPITAL I WITH DOT ABOVE to "i" and a
# combining dot. The rest stay non-ASCII, and some are digits or letters
# outside [a-z0-9].
_NON_ASCII = "\u212a\u0130\u0131\u00df\u00e9\u212b\ufb01\u00b2\u0660\u00a0\u2028\u0085"
_ASCII_CHARS = st.characters(min_codepoint=0, max_codepoint=127)


def _oracle_tokens(text: str) -> list[str]:
    return re.findall("[a-z0-9]+", text.lower())


def _oracle_vector(tokens: list[str], feature_dim: int) -> train.SparseVector:
    counts = Counter(fnv1a_reference(t.encode()) % feature_dim for t in tokens)
    indices = sorted(counts)
    return train.SparseVector(
        np.array(indices, dtype=np.int64), np.array([counts[i] for i in indices], dtype=np.float64)
    )


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(_ASCII_CHARS, max_size=80),
        st.text(st.one_of(_ASCII_CHARS, st.sampled_from(_NON_ASCII)), max_size=80),
    ),
    feature_dim=st.sampled_from([1, 7, 64, 4096]),
)
@example(text="".join(map(chr, range(128))), feature_dim=4096)
@example(text="a\x0bb\x0cc\x1cd\x1de\x1ef\x1fg h\ti\nj\rk", feature_dim=64)
@example(text="\u212aelvin 5\u212a \u0130stanbul", feature_dim=64)
def test_tokenize_and_featurize_match_the_regex_oracle(text, feature_dim):
    tokens = _oracle_tokens(text)
    assert train.tokenize(text) == tokens
    expected = _oracle_vector(tokens, feature_dim)
    assert train.featurize(text, feature_dim) == expected
    for memo in ({}, train._Buckets(feature_dim)):
        assert train.featurize(text, feature_dim, memo) == expected
        assert memo == {t: fnv1a_reference(t.encode()) % feature_dim for t in tokens}


def test_hash_matches_reference():
    for token in ["", "a", "sob", "heart", "x" * 40, "0123456789"]:
        assert train.fnv1a_32(token) == fnv1a_reference(token.encode())


def test_featurize_counts_and_dedup():
    vec = train.featurize("apple apple banana", 1024)
    assert len(vec.indices) == 2
    assert sorted(vec.values.tolist()) == [1.0, 2.0]
    by_index = dict(zip(vec.indices.tolist(), vec.values.tolist()))
    assert by_index[train.fnv1a_32("apple") % 1024] == 2.0
    assert by_index[train.fnv1a_32("banana") % 1024] == 1.0


def test_featurize_is_process_independent():
    # the hash must not involve PYTHONHASHSEED. Each child gets a minimal env
    # (an inherited PYTHONHASHSEED would hide the very thing under test) plus
    # the import path of the acrocode copy this process imported.
    code = (
        "from acrocode.train import featurize;"
        "v = featurize('alpha bravo charlie alpha', 4096);"
        "print(sorted(zip(v.indices.tolist(), v.values.tolist())))"
    )
    package_root = str(Path(train.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in (0, 1, 2):
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": str(hash_seed),
                "PYTHONPATH": package_root,
                "PATH": "/usr/bin:/bin",
            },
        )
        assert child.returncode == 0, (
            f"child with PYTHONHASHSEED={hash_seed} failed:\n{child.stderr}"
        )
        outputs.add(child.stdout)
    assert len(outputs) == 1, f"outputs differ across hash seeds: {sorted(outputs)}"
    v = train.featurize("alpha bravo charlie alpha", 4096)
    in_process = f"{sorted(zip(v.indices.tolist(), v.values.tolist()))}\n"
    assert outputs == {in_process}, f"children {sorted(outputs)} != parent {in_process!r}"


@pytest.fixture
def tiny_setup():
    rng = np.random.default_rng(0)
    params = train.ModelParams(
        weights=rng.normal(scale=0.5, size=(3, 32)), biases=rng.normal(scale=0.1, size=3)
    )
    fa = train.featurize("alpha bravo charlie delta", 32)
    fb = train.featurize("alpha bravo charlie delta echo foxtrot golf", 32)
    labels = np.array([1.0, 0.0, 1.0])
    return params, fa, fb, labels


# --- loss values ---


def test_consistency_loss_hand_value():
    # Ber(0.8) against Ber(0.5): both direction KLs sum to
    # 0.3 * ln(4) - 0.5 * ln(0.8/0.2 * 0.5/0.5) ... easiest stated form:
    # 0.5 * (p - q) * (logit(p) - logit(q)) = 0.15 * ln(4) = 0.2079...
    p = np.array([0.8])
    q = np.array([0.5])
    expected = 0.15 * math.log(4.0)
    assert train.consistency_loss(p, q) == pytest.approx(expected, abs=1e-12)
    assert train.consistency_loss(p, q) == pytest.approx(0.2079, abs=1e-3)


def test_consistency_loss_equals_symmetric_kl():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.05, 0.95, size=8)
    q = rng.uniform(0.05, 0.95, size=8)

    def kl(a, b):
        return a * np.log(a / b) + (1 - a) * np.log((1 - a) / (1 - b))

    expected = float(np.mean(0.5 * (kl(p, q) + kl(q, p))))
    assert train.consistency_loss(p, q) == pytest.approx(expected, abs=1e-12)


def test_consistency_loss_zero_iff_equal():
    p = np.array([0.3, 0.7])
    assert train.consistency_loss(p, p) == 0.0
    assert train.consistency_loss(p, np.array([0.3, 0.8])) > 0.0


def test_cross_entropy_hand_value():
    p = np.array([0.8, 0.3])
    y = np.array([1.0, 0.0])
    expected = -(math.log(0.8) + math.log(0.7)) / 2
    assert train.cross_entropy(p, y) == pytest.approx(expected, abs=1e-12)


def test_total_loss_without_consistency_is_plain_ce(tiny_setup):
    params, fa, fb, labels = tiny_setup
    config = train.TrainConfig(consistency_weight=0.0, feature_dim=32)
    p = train.forward(params, fa, config.prob_clamp)
    q = train.forward(params, fb, config.prob_clamp)
    expected = 0.5 * (train.cross_entropy(p, labels) + train.cross_entropy(q, labels))
    assert train.total_loss(params, fa, fb, labels, config) == expected


def test_total_loss_is_linear_in_consistency_weight(tiny_setup):
    params, fa, fb, labels = tiny_setup
    values = {}
    for weight in (0.0, 0.05, 0.1):
        config = train.TrainConfig(consistency_weight=weight, feature_dim=32)
        values[weight] = train.total_loss(params, fa, fb, labels, config)
    jump_small = values[0.05] - values[0.0]
    jump_large = values[0.1] - values[0.0]
    assert jump_large == pytest.approx(2 * jump_small, abs=1e-10)


# --- gradient against finite differences ---


def test_gradient_matches_finite_differences(tiny_setup):
    params, fa, fb, labels = tiny_setup
    config = train.TrainConfig(consistency_weight=0.05, feature_dim=32)
    batch = [(fa, fb, labels), (fb, fa, 1.0 - labels)]
    _, columns, grad_w, grad_b = train.gradient(params, batch, config)
    dense = np.zeros_like(params.weights)
    dense[:, columns] = grad_w

    def loss_at(p):
        return sum(train.total_loss(p, xa, xb, y, config) for xa, xb, y in batch) / len(
            batch
        )

    h = 1e-6
    touched = sorted(set(fa.indices.tolist()) | set(fb.indices.tolist()))
    for code in range(3):
        for j in touched[:4]:
            bumped = params.copy()
            bumped.weights[code, j] += h
            dipped = params.copy()
            dipped.weights[code, j] -= h
            fd = (loss_at(bumped) - loss_at(dipped)) / (2 * h)
            assert dense[code, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)
        bumped = params.copy()
        bumped.biases[code] += h
        dipped = params.copy()
        dipped.biases[code] -= h
        fd = (loss_at(bumped) - loss_at(dipped)) / (2 * h)
        assert grad_b[code] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradient_zero_on_untouched_features(tiny_setup):
    params, fa, fb, labels = tiny_setup
    config = train.TrainConfig(consistency_weight=0.05, feature_dim=32)
    _, columns, grad_w, _ = train.gradient(params, [(fa, fb, labels)], config)
    dense = np.zeros_like(params.weights)
    dense[:, columns] = grad_w
    touched = set(fa.indices.tolist()) | set(fb.indices.tolist())
    untouched = [j for j in range(32) if j not in touched]
    assert untouched, "fixture must leave some feature columns untouched"
    assert not dense[:, untouched].any()


@pytest.mark.parametrize("consistency_weight", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("pinned", [False, True], ids=["inside", "pinned"])
def test_gradient_loss_is_the_summed_total_loss(consistency_weight, pinned):
    pool = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "hotel"]
    config = train.TrainConfig(consistency_weight=consistency_weight, feature_dim=16)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        scale = 40.0 if pinned else 0.6
        params = train.ModelParams(
            weights=rng.normal(scale=scale, size=(6, 16)),
            biases=rng.normal(scale=scale, size=6),
        )
        batch = [
            (
                train.featurize(" ".join(rng.choice(pool, size=5)), 16),
                train.featurize(" ".join(rng.choice(pool, size=3)), 16),
                rng.integers(0, 2, size=6).astype(np.float64),
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        loss, _, _, _ = train.gradient(params, batch, config)
        assert loss == sum(train.total_loss(params, a, b, y, config) for a, b, y in batch)
        eps = config.prob_clamp
        probs = np.concatenate([train.forward(params, a, eps) for a, _, _ in batch])
        assert np.any((probs == eps) | (probs == 1.0 - eps)) == pinned


def test_gradient_is_zero_through_the_clamp():
    # Code 0 is pinned at the upper clamp on both branches, code 1 is not.
    params = train.ModelParams(weights=np.zeros((2, 8)), biases=np.array([50.0, 0.3]))
    vec = train.featurize("alpha bravo", 8)
    config = train.TrainConfig(consistency_weight=0.3, feature_dim=8)
    _, columns, grad_w, grad_b = train.gradient(
        params, [(vec, vec, np.array([0.0, 0.0]))], config
    )
    dense = np.zeros_like(params.weights)
    dense[:, columns] = grad_w
    assert grad_b[0] == 0.0 and not dense[0].any()
    assert grad_b[1] > 0.0


def test_weight_gradient_adds_each_cells_terms_in_batch_order():
    rng = np.random.default_rng(0)
    n_columns, n_codes = 6, 300  # three slabs of codes, the last one partial
    vectors = []
    for _ in range(9):
        indices = np.sort(rng.choice(n_columns, size=int(rng.integers(0, 5)), replace=False))
        counts = rng.integers(1, 4, size=indices.size).astype(np.float64)
        vectors.append(train.SparseVector(indices, counts))
    # Terms of mixed magnitudes, so that another order of a cell's sum moves its bits.
    rows = rng.normal(size=(9, n_codes)) * 10.0 ** rng.integers(-6, 7, size=(9, n_codes))

    def loop(order):
        expected = np.zeros((n_columns, n_codes))
        for k in order:
            for column, value in zip(vectors[k].indices, vectors[k].values):
                for code in range(n_codes):
                    expected[column, code] += value * rows[k, code]
        return expected

    total = train._batch_order_sum(vectors, rows, n_columns)
    assert np.array_equal(total, loop(range(9)))
    assert not np.array_equal(total, loop(reversed(range(9))))


def test_gradient_columns_are_the_union_of_batch_indices(tiny_setup):
    params, fa, fb, labels = tiny_setup
    empty = train.featurize("", 32)
    config = train.TrainConfig(consistency_weight=0.05, feature_dim=32)
    batch = [(fa, empty, labels), (empty, fb, 1.0 - labels)]
    _, columns, grad_w, grad_b = train.gradient(params, batch, config)
    union = sorted(set(fa.indices.tolist()) | set(fb.indices.tolist()))
    assert columns.tolist() == union
    assert grad_w.shape == (3, len(union))
    assert grad_b.shape == (3,)


def test_gradient_of_a_batch_without_tokens_has_no_columns(tiny_setup):
    params, _, _, labels = tiny_setup
    empty = train.featurize("", 32)
    config = train.TrainConfig(consistency_weight=0.05, feature_dim=32)
    loss, columns, grad_w, grad_b = train.gradient(params, [(empty, empty, labels)], config)
    assert columns.size == 0
    assert grad_w.shape == (3, 0)
    assert loss == train.total_loss(params, empty, empty, labels, config)
    assert grad_b.any()


def _dense(params):
    """A codes x feature_dim copy of the weights, zero in the columns not held."""
    dense = np.zeros((len(params.biases), params.feature_dim))
    dense[:, slice(None) if params.columns is None else params.columns] = params.weights
    return dense


def _dense_reference_train(pairs, code_set, config):
    """The training loop with every gradient densified and every weight updated.

    Each epoch draws every example's two vectors afresh, as dropout does, from
    the note's tokens and the expansion's tokens.
    """
    labels = np.array(
        [[1.0 if c in note.labels else 0.0 for c in code_set.code_ids] for note, _ in pairs]
    )
    tokens = [
        (train.tokenize(note.text), train.tokenize(expanded.expanded_text))
        for note, expanded in pairs
    ]
    params = train.ModelParams.zeros(len(code_set), config.feature_dim)
    trace = []
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            derive_seed(config.seed, "epoch-order", epoch)
        ).permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), config.batch_size):
            batch = []
            for i in order[start : start + config.batch_size]:
                original, expanded = (
                    train._dropout_features(t, config, epoch, int(i), branch)
                    for branch, t in enumerate(tokens[i])
                )
                batch.append((original, expanded, labels[i]))
            loss, columns, grad_w, grad_b = train.gradient(params, batch, config)
            dense = np.zeros_like(params.weights)
            dense[:, columns] = grad_w
            params.weights -= config.learning_rate * dense
            params.biases -= config.learning_rate * grad_b
            epoch_loss += loss
        trace.append(epoch_loss / len(pairs))
    return params, tuple(trace)


@pytest.mark.parametrize("consistency_weight, token_dropout", [
    pytest.param(0.0, 0.0, id="0.0"),
    pytest.param(0.3, 0.0, id="0.3"),
    pytest.param(0.3, 0.3, id="0.3-dropout"),
])
def test_train_matches_a_dense_reference_loop(consistency_weight, token_dropout):
    pairs, code_set = _training_pairs(10)
    config = train.TrainConfig(
        consistency_weight=consistency_weight, feature_dim=64, epochs=3, batch_size=4,
        learning_rate=0.5, seed=4, token_dropout=token_dropout,
    )
    result = train.train(pairs, code_set, config)
    params, trace = _dense_reference_train(pairs, code_set, config)
    assert result.loss_trace == trace
    assert np.array_equal(_dense(result.params), params.weights)
    assert np.array_equal(result.params.biases, params.biases)


def test_training_never_allocates_codes_by_feature_dim(tmp_path):
    pairs, code_set = _training_pairs()
    config = train.TrainConfig(feature_dim=2**22, epochs=2, batch_size=4, seed=6)
    dense_bytes = len(code_set) * config.feature_dim * 8  # 64 MiB
    tracemalloc.start()
    try:
        result = train.train(pairs, code_set, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 16
    assert result.params.feature_dim == config.feature_dim
    params, trace = _dense_reference_train(pairs, code_set, config)
    assert result.loss_trace == trace
    compact, dense = tmp_path / "compact.bin", tmp_path / "dense.bin"
    train.save_checkpoint(result.params, code_set.code_ids, config, compact)
    train.save_checkpoint(params, code_set.code_ids, config, dense)
    assert filecmp.cmp(compact, dense, shallow=False)


@pytest.mark.parametrize("where", ["weight", "bias"])
def test_gradient_rejects_nonfinite_touched_params(tiny_setup, where):
    params, fa, fb, labels = tiny_setup
    if where == "weight":
        params.weights[1, fa.indices[0]] = np.nan
    else:
        params.biases[2] = np.inf
    config = train.TrainConfig(feature_dim=32)
    with pytest.raises(ValueError, match="non-finite"):
        train.gradient(params, [(fa, fb, labels)], config)


# --- training loop ---


def _training_pairs(n=12):
    code_set = CodeSet(
        codes=[("hyp", "hypertension code"), ("card", "cardiac code")], synonyms={}
    )
    pairs = []
    for i in range(n):
        cardiac = i % 2 == 0
        body = "chest pressure troponin" if cardiac else "ankle swelling pressure"
        text = f"case {i}: {body} noted"
        labels = frozenset(["card"] if cardiac else ["hyp"])
        note = Note(id=f"n{i}", text=text, labels=labels)
        expanded = ExpandedNote.from_sections(
            f"n{i}",
            [SectionExpansion(original=text, expanded=text.replace("noted", "documented"), source="mock")],
        )
        pairs.append((note, expanded))
    return pairs, code_set


def test_train_learns_separable_data():
    pairs, code_set = _training_pairs()
    config = train.TrainConfig(feature_dim=256, epochs=25, batch_size=4, seed=3)
    result = train.train(pairs, code_set, config)
    assert result.loss_trace[-1] < result.loss_trace[0]
    notes = [n for n, _ in pairs]
    matrix = train.score_matrix(result.params, notes, code_set)
    gold = np.array([[1.0 if c in n.labels else 0.0 for c in code_set.code_ids] for n in notes])
    accuracy = ((matrix.scores > 0.5) == gold).mean()
    assert accuracy == 1.0


def test_train_is_bitwise_deterministic():
    pairs, code_set = _training_pairs()
    config = train.TrainConfig(feature_dim=128, epochs=4, batch_size=4, seed=11)
    a = train.train(pairs, code_set, config)
    b = train.train(pairs, code_set, config)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.params.weights, b.params.weights)
    assert np.array_equal(a.params.biases, b.params.biases)


def test_train_seed_changes_epoch_order_not_data():
    pairs, code_set = _training_pairs()
    a = train.train(pairs, code_set, train.TrainConfig(feature_dim=128, epochs=2, batch_size=4, seed=1))
    b = train.train(pairs, code_set, train.TrainConfig(feature_dim=128, epochs=2, batch_size=4, seed=2))
    assert not np.array_equal(a.params.weights, b.params.weights)


def test_train_rejects_mismatched_pairing():
    pairs, code_set = _training_pairs(4)
    note, _ = pairs[0]
    wrong = ExpandedNote.from_sections(
        "other-id", [SectionExpansion(original=note.text, expanded=note.text, source="mock")]
    )
    with pytest.raises(ValueError):
        train.train([(note, wrong)], code_set, train.TrainConfig(feature_dim=64))


def test_token_dropout_draws_two_branches():
    tokens = train.tokenize("alpha bravo charlie delta echo foxtrot golf hotel")
    config = train.TrainConfig(feature_dim=64, token_dropout=0.5, seed=9)
    kept_a = train._dropout_features(tokens, config, epoch=0, example=0, branch=0)
    kept_b = train._dropout_features(tokens, config, epoch=0, example=0, branch=1)
    again = train._dropout_features(tokens, config, epoch=0, example=0, branch=0)
    assert np.array_equal(kept_a.indices, again.indices)
    assert not np.array_equal(kept_a.indices, kept_b.indices)


def test_dropout_zero_is_identity():
    tokens = train.tokenize("alpha bravo charlie")
    config = train.TrainConfig(feature_dim=64, token_dropout=0.0, seed=1)
    kept = train._dropout_features(tokens, config, epoch=0, example=0, branch=0)
    vec = train.featurize_tokens(tokens, 64)
    assert np.array_equal(kept.indices, vec.indices)
    assert np.array_equal(kept.values, vec.values)


# --- forward/scoring ---


def test_forward_clamps_probabilities():
    params = train.ModelParams(weights=np.zeros((1, 4)), biases=np.array([100.0]))
    vec = train.featurize("word", 4)
    clamp = 1e-7
    prob = train.forward(params, vec, clamp)
    assert prob[0] == 1.0 - clamp


def test_forward_rejects_nonfinite_params():
    params = train.ModelParams(weights=np.zeros((1, 4)), biases=np.array([np.nan]))
    with pytest.raises(ValueError):
        train.forward(params, train.featurize("word", 4), 1e-7)


def test_score_matrix_shape_and_ids():
    pairs, code_set = _training_pairs(4)
    notes = [n for n, _ in pairs]
    params = train.ModelParams.zeros(len(code_set), 64)
    matrix = train.score_matrix(params, notes, code_set)
    assert matrix.note_ids == [n.id for n in notes]
    assert matrix.code_ids == list(code_set.code_ids)
    assert np.all(matrix.scores == 0.5)


# --- checkpointing ---


def test_checkpoint_roundtrip(tmp_path):
    pairs, code_set = _training_pairs(4)
    config = train.TrainConfig(feature_dim=64, epochs=1, batch_size=2, seed=0)
    result = train.train(pairs, code_set, config)
    path = tmp_path / "model.bin"
    train.save_checkpoint(result.params, code_set.code_ids, config, path)
    params, code_ids, config_hash = train.load_checkpoint(path)
    assert code_ids == list(code_set.code_ids)
    assert config_hash == config.content_hash()
    assert np.array_equal(params.weights, _dense(result.params))
    assert np.array_equal(params.biases, result.params.biases)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ValueError):
        train.load_checkpoint(path)


def _claim_huge_feature_dim(data):
    header, body = data.split(b"\n", 1)
    fields = json.loads(header)
    fields["feature_dim"] = 2**40
    return json.dumps(fields).encode("utf-8") + b"\n" + body


@pytest.mark.parametrize(
    "damage",
    [lambda data: data[:-16], lambda data: data + b"\0" * 8, _claim_huge_feature_dim],
    ids=["truncated", "trailing-bytes", "huge-header"],
)
def test_checkpoint_rejects_truncation(tmp_path, damage):
    pairs, code_set = _training_pairs(2)
    config = train.TrainConfig(feature_dim=32, epochs=1, batch_size=2)
    result = train.train(pairs, code_set, config)
    path = tmp_path / "model.bin"
    train.save_checkpoint(result.params, code_set.code_ids, config, path)
    data = path.read_bytes()
    path.write_bytes(damage(data))
    with pytest.raises(ValueError, match=r"expected \d+ parameter bytes, found \d+"):
        train.load_checkpoint(path)
    # Reading some columns, as score does, checks the same sizes first.
    with pytest.raises(ValueError, match=r"expected \d+ parameter bytes, found \d+"):
        train.load_checkpoint(path, np.arange(4))


def test_loaded_checkpoint_is_writable(tmp_path):
    params = train.ModelParams(weights=np.arange(6.0).reshape(2, 3), biases=np.ones(2))
    path = tmp_path / "model.bin"
    train.save_checkpoint(params, ["a", "b"], train.TrainConfig(feature_dim=3), path)
    loaded, _, _ = train.load_checkpoint(path)
    loaded.weights -= 1.0
    loaded.biases *= 2.0
    assert np.array_equal(loaded.weights, params.weights - 1.0)
    assert np.array_equal(loaded.biases, [2.0, 2.0])


class _FullDisk:
    """Rows, or an array, that fail as a full disk does, after row 0 is written."""

    def __init__(self, rows=None):
        self.rows = rows

    def __getitem__(self, row):
        if row:
            raise OSError("no space left on device")
        return self.rows[row]

    def astype(self, dtype):
        raise OSError("no space left on device")


def _records_then_a_full_disk():
    yield {"id": "partial"}
    raise OSError("no space left on device")


def _save_scores(path, value, fail=False):
    matrix = corpus.ScoreMatrix(["n1", "n2"], ["c1"], np.full((2, 1), value))
    if fail:
        matrix.scores = _FullDisk(matrix.scores)
    corpus.save_scores(matrix, path)


def _save_checkpoint(path, value, fail=False):
    params = train.ModelParams(weights=np.full((2, 8), value), biases=np.zeros(2))
    if fail:
        params.biases = _FullDisk()  # fails after the header and weights are written
    train.save_checkpoint(params, ["c1", "c2"], train.TrainConfig(), path)


# Per writer: the previous file's write, then a write interrupted partway
# (before anything is written, for a value json cannot encode).
_INTERRUPTED_WRITES = {
    "write_jsonl": (
        lambda path: corpus.write_jsonl(path, [{"id": "a"}, {"id": "b"}]),
        lambda path: corpus.write_jsonl(path, _records_then_a_full_disk()),
    ),
    "write_json": (
        lambda path: corpus.write_json(path, {"value": 1}),
        lambda path: corpus.write_json(path, {"value": object()}),
    ),
    "save_scores": (
        lambda path: _save_scores(path, 0.25),
        lambda path: _save_scores(path, 0.75, fail=True),
    ),
    "save_checkpoint": (
        lambda path: _save_checkpoint(path, 1.0),
        lambda path: _save_checkpoint(path, 2.0, fail=True),
    ),
}


@pytest.mark.parametrize("writer", list(_INTERRUPTED_WRITES))
def test_interrupted_write_keeps_the_previous_file(tmp_path, writer):
    write, interrupted = _INTERRUPTED_WRITES[writer]
    path = tmp_path / "output"
    write(path)
    before = path.read_bytes()
    with pytest.raises((OSError, TypeError)):
        interrupted(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["output"]


def test_checkpoint_save_does_not_copy_the_weights(tmp_path):
    params = train.ModelParams(
        weights=np.random.default_rng(0).normal(size=(64, 8192)), biases=np.zeros(64)
    )
    path = tmp_path / "model.bin"
    tracemalloc.start()
    try:
        train.save_checkpoint(params, [f"c{i}" for i in range(64)], train.TrainConfig(), path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.weights.nbytes / 2
    loaded, _, _ = train.load_checkpoint(path)
    assert np.array_equal(loaded.weights, params.weights)


@st.composite
def column_reads(draw):
    """(codes, feature_dim, columns, block bytes): any columns, repeats and disorder too."""
    n_codes = draw(st.integers(0, 5))
    feature_dim = draw(st.integers(1, 40))
    columns = draw(st.lists(st.integers(0, feature_dim - 1), max_size=12))
    # Blocks of one or a few rows make the read take several blocks.
    block_bytes = draw(st.sampled_from([8, 24, 1 << 20]))
    return n_codes, feature_dim, np.array(columns, dtype=np.int64), block_bytes


@settings(max_examples=100)
@given(column_reads())
@example((3, 5, np.empty(0, dtype=np.int64), 8))
def test_checkpoint_columns_equal_the_full_read(case):
    n_codes, feature_dim, columns, block_bytes = case
    rng = np.random.default_rng(n_codes * 100 + feature_dim)
    params = train.ModelParams(
        weights=rng.normal(size=(n_codes, feature_dim)), biases=rng.normal(size=n_codes)
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "_READ_BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "model.bin"
        codes = [f"c{i}" for i in range(n_codes)]
        train.save_checkpoint(params, codes, train.TrainConfig(feature_dim=feature_dim), path)
        full, full_codes, full_hash = train.load_checkpoint(path)
        some, some_codes, some_hash = train.load_checkpoint(path, columns)
    assert np.array_equal(full.weights, params.weights)
    assert np.array_equal(full.biases, params.biases)
    assert some.weights.shape == (n_codes, columns.size)
    assert np.array_equal(some.weights, full.weights[:, columns])
    assert np.array_equal(some.biases, full.biases)
    assert (some_codes, some_hash) == (full_codes, full_hash)


def test_checkpoint_columns_outside_the_features_are_refused(tmp_path):
    path = tmp_path / "model.bin"
    params = train.ModelParams(weights=np.ones((2, 3)), biases=np.zeros(2))
    train.save_checkpoint(params, ["a", "b"], train.TrainConfig(feature_dim=3), path)
    for columns in ([0, 3], [-1]):
        with pytest.raises(ValueError, match=r"feature columns must lie in \[0, 3\)"):
            train.load_checkpoint(path, np.array(columns))


# --- scoring ---

SCORE_TEXTS = st.lists(
    st.one_of(
        st.lists(st.sampled_from(["pt", "sob", "cp", "alpha", "x3", "Heart"]), max_size=8).map(
            " ".join
        ),
        st.sampled_from(["", " ", "...", "!?\n"]),  # texts with no tokens
    ),
    max_size=6,
)


@settings(max_examples=100)
@given(texts=SCORE_TEXTS, n_codes=st.integers(1, 4), feature_dim=st.integers(1, 64),
       compact=st.booleans())
@example(texts=[], n_codes=2, feature_dim=8, compact=False)
@example(texts=["", "--"], n_codes=2, feature_dim=8, compact=False)  # no columns
@example(texts=["pt sob", "alpha x3 Heart"], n_codes=2, feature_dim=64, compact=True)
def test_scoring_equals_forward_per_note(texts, n_codes, feature_dim, compact):
    rng = np.random.default_rng(feature_dim)
    dense = train.ModelParams(
        weights=rng.normal(size=(n_codes, feature_dim)), biases=rng.normal(size=n_codes)
    )
    params = dense
    if compact:
        # Only some feature columns held, as after training: the others weigh zero.
        columns = np.flatnonzero(rng.random(feature_dim) < 0.5)
        dense.weights[:, np.setdiff1d(np.arange(feature_dim), columns)] = 0.0
        params = train.ModelParams(dense.weights[:, columns], dense.biases, columns, feature_dim)
    expected = np.array(
        [train.forward(dense, train.featurize(t, feature_dim), 1e-7) for t in texts]
    ).reshape(len(texts), n_codes)
    in_memory = train.score_texts(params, texts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        codes = [f"c{i}" for i in range(n_codes)]
        train.save_checkpoint(params, codes, train.TrainConfig(feature_dim=feature_dim), path)
        with train.open_checkpoint(path) as checkpoint:
            from_file = train.score_texts(checkpoint, texts)
    assert np.array_equal(in_memory, expected)
    assert np.array_equal(from_file, expected)


def test_shared_buckets_give_the_same_features():
    texts = ["pt c/o sob", "sob sob pt", "", "heart x3 pt"]
    buckets: dict[str, int] = {}
    for text in texts:
        assert train.featurize(text, 97, buckets) == train.featurize(text, 97)
    assert buckets == {t: train.fnv1a_32(t) % 97 for t in train.tokenize(" ".join(texts))}


def test_scoring_from_a_checkpoint_does_not_read_the_whole_matrix(tmp_path):
    params = train.ModelParams(
        weights=np.random.default_rng(0).normal(size=(64, 8192)), biases=np.zeros(64)
    )
    path = tmp_path / "model.bin"
    train.save_checkpoint(params, [f"c{i}" for i in range(64)], train.TrainConfig(), path)
    texts = ["pt c/o sob x3 days", "chest pain radiating to the left arm", ""]
    tracemalloc.start()
    try:
        with train.open_checkpoint(path) as checkpoint:
            scores = train.score_texts(checkpoint, texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.weights.nbytes / 2
    assert np.array_equal(scores, train.score_texts(params, texts))


@pytest.mark.parametrize("columns, feature_dim, error", [
    ([0, 2], None, "feature columns need a feature_dim"),
    ([0, 2, 3], 8, "one weight column per feature column required"),
    ([2, 2], 8, r"feature columns must increase strictly within \[0, 8\)"),
    ([3, 1], 8, r"feature columns must increase strictly within \[0, 8\)"),
    ([-1, 2], 8, r"feature columns must increase strictly within \[0, 8\)"),
    ([0, 8], 8, r"feature columns must increase strictly within \[0, 8\)"),
    (None, 5, "feature_dim must equal the weight columns"),
], ids=["no-feature-dim", "one-too-many", "repeated", "unsorted", "negative", "beyond",
        "dense-feature-dim"])
def test_params_refuse_columns_that_do_not_fit(columns, feature_dim, error):
    with pytest.raises(ValueError, match=error):
        train.ModelParams(np.ones((3, 2)), np.zeros(3), columns, feature_dim)


def test_config_hash_tracks_content():
    a = train.TrainConfig(feature_dim=64)
    b = train.TrainConfig(feature_dim=64)
    c = train.TrainConfig(feature_dim=128)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(consistency_weight=-0.1)
    with pytest.raises(ValueError):
        train.TrainConfig(feature_dim=0)
    with pytest.raises(ValueError):
        train.TrainConfig(token_dropout=1.0)
    with pytest.raises(ValueError):
        train.TrainConfig(prob_clamp=0.5)


def test_epoch_order_seed_derivation():
    assert derive_seed(3, "epoch-order", 0) != derive_seed(3, "epoch-order", 1)
