"""Reference trainer: per-code logistic models over hashed bag-of-words features.

The model is intentionally small so every quantity in the two-branch
objective is observable and checkable: each label code gets an independent
Bernoulli logistic head over a shared hashed feature space. The objective
averages cross entropy over an original-text branch and an expanded-text
branch and adds a weighted symmetric KL consistency term between the two
branches' probabilities.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .corpus import (
    CodeSet, Note, ScoreMatrix, field, gold_matrix, json_line, parse_object, replace_file,
)
from .expand import ExpandedNote
from .seeding import derive_seed

_WORD_RE = re.compile(r"[a-z0-9]+")

# Maps every ASCII character outside [a-z0-9] to a space: on lowercased ASCII
# text, splitting after it gives exactly the runs _WORD_RE finds.
_ASCII_DELIMITERS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not ("a" <= c <= "z" or "0" <= c <= "9")}
)

CHECKPOINT_MAGIC = "acrocode-model-v1"

# Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] in training, in
# ``total_loss`` and in scoring alike.
PROB_CLAMP = 1e-7

# Bytes of weight rows read at a time when only some columns of a checkpoint are kept.
_READ_BLOCK_BYTES = 1 << 20

# Codes per slab of the weight gradient's scatter-add. A slab of a 2,102-column
# batch is 2 MiB and stays in cache while every row adds into it; the scatter
# over all 1,000 codes at once went to memory for each row and took 87 ms
# against 52 ms for slabs of 128 codes.
_GRADIENT_SLAB_CODES = 128

# Weights updated at a time by train(): 256 KiB of feature rows.
_UPDATE_BLOCK_ELEMENTS = 1 << 15


@dataclass
class TrainConfig:
    consistency_weight: float = 0.05
    feature_dim: int = 65536
    learning_rate: float = 0.1
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        # The range checks below let a NaN through (every comparison with it
        # is false), and an infinite rate or weight trains to NaN weights.
        for name in ("consistency_weight", "learning_rate"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.consistency_weight < 0:
            raise ValueError("consistency_weight must be >= 0")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def content_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(eq=False)
class ModelParams:
    """Per-code biases, and weights over ``feature_dim`` hashed feature columns.

    ``columns`` is a strictly increasing array of the feature columns held,
    and ``weights`` is codes x len(columns): its column ``k`` holds the
    weights of feature column ``columns[k]``, and every other feature
    column's weights are zero. Without ``columns``, every column is held and
    ``feature_dim`` is the number of weight columns. ``train`` returns only
    the columns its examples use.
    """

    weights: np.ndarray
    biases: np.ndarray
    columns: np.ndarray | None = None
    feature_dim: int | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("weights must be 2-D with one bias per row")
        if self.columns is None:
            if self.feature_dim not in (None, self.weights.shape[1]):
                raise ValueError("feature_dim must equal the weight columns")
            self.columns = np.arange(self.weights.shape[1])
            self.feature_dim = self.weights.shape[1]
            return
        self.columns = np.asarray(self.columns, dtype=np.int64)
        if self.feature_dim is None:
            raise ValueError("feature columns need a feature_dim")
        if self.columns.shape != (self.weights.shape[1],):
            raise ValueError("one weight column per feature column required")
        if self.columns.size and (
            self.columns[0] < 0
            or self.columns[-1] >= self.feature_dim
            or np.any(np.diff(self.columns) <= 0)
        ):
            raise ValueError(
                f"feature columns must increase strictly within [0, {self.feature_dim})"
            )

    @classmethod
    def zeros(cls, n_codes: int, feature_dim: int) -> "ModelParams":
        return cls(
            weights=np.zeros((n_codes, feature_dim), dtype=np.float64),
            biases=np.zeros(n_codes, dtype=np.float64),
        )

    def copy(self) -> "ModelParams":
        return replace(self, weights=self.weights.copy(), biases=self.biases.copy())


@dataclass(eq=False, frozen=True)
class SparseVector:
    """Hashed token counts: strictly increasing indices with positive values."""

    indices: np.ndarray
    values: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    loss_trace: tuple[float, ...]


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; everything else is a delimiter.

    The tokens are the maximal ``[a-z0-9]`` runs of ``text.lower()``. When
    that is ASCII, they come from one translate-and-split pass, which leaves
    only ``[a-z0-9]`` and spaces to split; other text goes through the regex.
    """
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_DELIMITERS).split()
    return _WORD_RE.findall(lowered)


def fnv1a_32(token: str) -> int:
    """32-bit FNV-1a hash of the token's UTF-8 bytes.

    Chosen because it is trivially portable: the same token maps to the
    same bucket on every platform and interpreter.
    """
    value = 2166136261
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value


class _Buckets(dict):
    """A token -> bucket memo for one ``feature_dim`` that hashes a token on its first lookup."""

    def __init__(self, feature_dim: int) -> None:
        super().__init__()
        self.feature_dim = feature_dim

    def __missing__(self, token: str) -> int:
        bucket = self[token] = fnv1a_32(token) % self.feature_dim
        return bucket


def featurize_tokens(
    tokens: Sequence[str], feature_dim: int, buckets: _Buckets | None = None
) -> SparseVector:
    """Hashed token counts: each token counts in bucket ``fnv1a_32(token) % feature_dim``.

    ``buckets`` is the memo of this ``feature_dim``, filled as tokens are
    first seen. Share one across the calls of one training run or one
    scoring call, so each distinct token is hashed once there.
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    if buckets is None:
        buckets = _Buckets(feature_dim)
    raw = np.fromiter(map(buckets.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    indices, counts = np.unique(raw, return_counts=True)
    return SparseVector(indices=indices, values=counts.astype(np.float64))


def featurize(text: str, feature_dim: int, buckets: _Buckets | None = None) -> SparseVector:
    """Hashed token-count features of a text; ``buckets`` as in ``featurize_tokens``."""
    return featurize_tokens(tokenize(text), feature_dim, buckets)


def forward(
    params: ModelParams | Checkpoint,
    features: SparseVector | Sequence[SparseVector],
    prob_clamp: float,
) -> np.ndarray:
    """Per-code probabilities, one row per feature vector, clamped away from 0 and 1.

    ``params`` is a model in memory or an open checkpoint, and the vectors
    index its feature space. A sequence of vectors gives one row each; one
    vector gives one 1-D row. The feature columns the vectors use are
    gathered once, and only they are read from a checkpoint. Each row's
    logits are one vector-matrix product over that vector's own columns, so
    they are the same to the bit whichever vectors are scored with it. A
    product over a whole batch sums each row's terms in an order set by the
    other rows' columns, and moves its last bits.

    Raises if any parameter a vector touches is non-finite. Feature values
    are positive counts, so a NaN or infinite touched weight always surfaces
    as a non-finite logit.
    """
    if isinstance(features, SparseVector):
        return forward(params, [features], prob_clamp)[0]
    columns = _union(features)
    by_column, biases = _gather(params, columns)
    logits = np.empty((len(features), len(biases)))
    for row, f in zip(logits, features):
        row[:] = f.values @ by_column[np.searchsorted(columns, f.indices)]
    logits += biases
    if not np.isfinite(logits).all():
        raise ValueError("non-finite model parameters")
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-logits))
    return np.clip(probs, prob_clamp, 1.0 - prob_clamp, out=probs)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Bernoulli cross entropy averaged over codes."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    terms = labels * np.log(probs) + (1.0 - labels) * np.log1p(-probs)
    return float(-terms.mean())


def consistency_loss(p: np.ndarray, q: np.ndarray) -> float:
    """Mean over codes of the symmetrized Bernoulli KL divergence, halved.

    Per code this equals (KL(p||q) + KL(q||p)) / 2, computed through the
    identity KL(p||q) + KL(q||p) = (p - q) * (logit(p) - logit(q)), which is
    symmetric and manifestly non-negative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    gap = (p - q) * (_logit(p) - _logit(q))
    return float(0.5 * gap.mean())


def total_loss(
    params: ModelParams,
    features_original: SparseVector,
    features_expanded: SparseVector,
    labels: np.ndarray,
    config: TrainConfig,
) -> float:
    """Two-branch objective for one example.

    The mean of the two branch cross entropies plus ``consistency_weight``
    times the consistency term between the branch probabilities.
    """
    p = forward(params, features_original, PROB_CLAMP)
    q = forward(params, features_expanded, PROB_CLAMP)
    return _example_loss(p, q, labels, config.consistency_weight)


def gradient(
    params: ModelParams,
    batch: Sequence[tuple[SparseVector, SparseVector, np.ndarray]],
    config: TrainConfig,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Summed total loss of a batch and the closed-form gradient of its mean.

    Returns (loss, columns, weight gradient, bias gradient). ``columns`` is
    the sorted union of the feature indices of every vector in the batch,
    and the weight gradient is ``codes x len(columns)``: column ``k`` is the
    gradient of the weights of feature column ``columns[k]``. The gradient
    of every other weight is zero. The loss is the sum of ``total_loss``
    over the batch's examples, in order, from the same probabilities the
    gradient uses. Probabilities pinned at the clamp boundary propagate a zero
    derivative, matching what finite differences of the clamped loss see.
    Raises ``ValueError`` if a parameter an example touches is non-finite.
    """
    if not batch:
        raise ValueError("empty batch")
    vectors = [f for f1, f2, _ in batch for f in (f1, f2)]
    # Row 2k is example k's original branch and row 2k + 1 its expanded one;
    # ``other`` holds each row's partner branch, ``labels`` its example's labels.
    probs = forward(params, vectors, PROB_CLAMP)
    n_examples, n_codes = len(batch), probs.shape[1]
    other = probs.reshape(n_examples, 2, n_codes)[:, ::-1].reshape(probs.shape)
    labels = np.repeat(np.array([y for _, _, y in batch], dtype=np.float64), 2, axis=0)
    cw = config.consistency_weight
    loss = sum(map(_example_loss, probs[0::2], probs[1::2], labels[0::2], [cw] * n_examples))
    # dLoss/dprob for each branch, including the 1/N mean over codes.
    dce = -(labels / probs - (1.0 - labels) / (1.0 - probs)) / n_codes
    dcons = 0.5 * (_logit(probs) - _logit(other) + (probs - other) / (probs * (1.0 - probs)))
    dl_dp = 0.5 * dce + cw * (dcons / n_codes)
    # Through the clamp: zero slope wherever the probability was cut. A
    # probability strictly inside the clamp is the sigmoid's own value.
    active = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    dl_dz = dl_dp * probs * (1.0 - probs) * active
    columns = _union(vectors)
    # The vectors' indices as rows of the weight gradient.
    local = [SparseVector(np.searchsorted(columns, f.indices), f.values) for f in vectors]
    grad_by_feature = _batch_order_sum(local, dl_dz, columns.size)
    grad_by_feature /= n_examples
    grad_b = (dl_dz[0::2] + dl_dz[1::2]).sum(axis=0) / n_examples
    # Held feature-major, as train() holds its weights.
    return loss, columns, grad_by_feature.T, grad_b


def _batch_order_sum(
    vectors: Sequence[SparseVector], rows: np.ndarray, n_columns: int
) -> np.ndarray:
    """The sum over ``k`` of ``vectors[k]`` times ``rows[k]``, ``n_columns x codes``.

    Each cell adds its terms in the order of the vectors, from zero. A BLAS
    product's sums, unlike these, change with its thread count. The vectors
    scatter into one cache-sized slab of codes at a time; the order of each
    cell's terms is the same as over all codes at once.
    """
    total = np.empty((n_columns, rows.shape[1]))
    for start in range(0, rows.shape[1], _GRADIENT_SLAB_CODES):
        codes = slice(start, start + _GRADIENT_SLAB_CODES)
        slab = np.zeros_like(total[:, codes])
        for vector, row in zip(vectors, rows[:, codes]):
            slab[vector.indices] += vector.values[:, np.newaxis] * row
        total[:, codes] = slab
    return total


def train(
    pairs: Sequence[tuple[Note, ExpandedNote]],
    code_set: CodeSet,
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch gradient descent over (original, expanded) note pairs.

    The run is a pure function of its inputs: example order is derived from
    the config seed, batches are visited in a fixed order, and gradients
    accumulate in example order, so repeated runs produce bitwise-identical
    parameter trajectories.

    Only the feature columns the examples can use are held: the returned
    weights are codes x len(columns), and every other feature column keeps
    its initial zero weights, as it would in a codes x feature_dim matrix.
    """
    if not pairs:
        raise ValueError("no training pairs")
    for note, expanded in pairs:
        if note.id != expanded.note_id:
            raise ValueError(f"note {note.id!r} paired with expansion of {expanded.note_id!r}")
    n_codes = len(code_set)
    labels_matrix = gold_matrix([note for note, _ in pairs], code_set).astype(np.float64)

    # One memo for this run only: a run hashes each distinct token once.
    buckets = _Buckets(config.feature_dim)
    features = []
    for note, expanded in pairs:
        original = featurize(note.text, config.feature_dim, buckets)
        # An expansion that changed nothing (the base arm, a note with no
        # acronym) shares the original's vector; vectors are never mutated.
        if expanded.expanded_text == note.text:
            features.append((original, original))
        else:
            features.append(
                (original, featurize(expanded.expanded_text, config.feature_dim, buckets))
            )
    # The weights are held feature-major: a batch's columns are then whole
    # rows to gather and to update.
    columns = _union([f for pair in features for f in pair])
    by_feature = np.zeros((columns.size, n_codes))
    params = ModelParams(by_feature.T, np.zeros(n_codes), columns, config.feature_dim)
    # A block of feature rows at a time: one fancy-indexed update of every row
    # makes batch-sized temporaries, and took 20 ms against 6 ms on 2,102
    # columns and 1,000 codes; a row at a time took 9 ms.
    update_rows = max(1, _UPDATE_BLOCK_ELEMENTS // max(1, n_codes))

    trace: list[float] = []
    n = len(pairs)
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            derive_seed(config.seed, "epoch-order", epoch)
        ).permutation(n)
        epoch_loss = 0.0
        for batch_start in range(0, n, config.batch_size):
            batch_ids = order[batch_start : batch_start + config.batch_size]
            batch = [(*features[i], labels_matrix[i]) for i in batch_ids]
            batch_loss, batch_columns, grad_w, grad_b = gradient(params, batch, config)
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch starting at {batch_start}"
                )
            epoch_loss += batch_loss
            grad_by_feature = grad_w.T
            held = np.searchsorted(columns, batch_columns)
            for start in range(0, held.size, update_rows):
                rows = slice(start, start + update_rows)
                by_feature[held[rows]] -= config.learning_rate * grad_by_feature[rows]
            params.biases -= config.learning_rate * grad_b
        trace.append(epoch_loss / n)
    return TrainResult(params=params, loss_trace=tuple(trace))


def score_texts(params: ModelParams | Checkpoint, texts: Sequence[str]) -> np.ndarray:
    """Per-code probabilities for each text, stacked into one array.

    ``params`` is a model in memory or an open checkpoint, and texts are
    hashed into its own feature dimension and scored by one ``forward``.
    """
    buckets = _Buckets(params.feature_dim)
    vectors = [featurize(text, params.feature_dim, buckets) for text in texts]
    return forward(params, vectors, PROB_CLAMP)


def score_matrix(
    params: ModelParams | Checkpoint, notes: Sequence[Note], code_set: CodeSet
) -> ScoreMatrix:
    scores = score_texts(params, [n.text for n in notes])
    return ScoreMatrix(
        note_ids=[n.id for n in notes], code_ids=list(code_set.code_ids), scores=scores
    )


def save_checkpoint(
    params: ModelParams, code_ids: Sequence[str], config: TrainConfig, path: str | Path
) -> None:
    """Write a checkpoint: one JSON header line, then raw little-endian floats.

    The body is every code's weights over all ``feature_dim`` feature
    columns, then the biases. The weight rows are written one at a time
    through one ``feature_dim`` buffer, so nothing codes x feature_dim is
    allocated for them.
    """
    if params.weights.shape[0] != len(code_ids):
        raise ValueError("one weight row per code id required")
    header = {
        "magic": CHECKPOINT_MAGIC,
        "code_ids": list(code_ids),
        "config_hash": config.content_hash(),
        "feature_dim": int(params.feature_dim),
        "n_codes": int(params.weights.shape[0]),
    }
    # Feature columns the parameters do not hold stay zero in every row.
    row = np.zeros(params.feature_dim, dtype="<f8")
    with replace_file(path, "wb") as fh:
        fh.write(json_line(header).encode("utf-8"))
        for weights in params.weights:
            row[params.columns] = weights
            fh.write(row.data)
        fh.write(params.biases.astype("<f8").data)


@dataclass(eq=False, frozen=True)
class Checkpoint:
    """An open checkpoint file whose header and size passed every check.

    Only the header has been read; ``load_checkpoint`` reads the parameters
    from ``offset``, where the header ends. Close it, or use it in a
    ``with`` block.
    """

    path: str | Path
    file: BinaryIO
    offset: int
    code_ids: list[str]
    config_hash: str
    feature_dim: int

    def close(self) -> None:
        self.file.close()

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_checkpoint(path: str | Path) -> Checkpoint:
    """Open a checkpoint and check its header, and the body's size against it."""
    fh = open(path, "rb")
    try:
        where = f"{path}: header"
        try:
            text = fh.readline().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: malformed checkpoint header") from exc
        header = parse_object(text, where)
        if header.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        n_codes = field(header, "n_codes", int, where)
        feature_dim = field(header, "feature_dim", int, where)
        code_ids = field(header, "code_ids", list, where)
        config_hash = field(header, "config_hash", str, where)
        if not all(isinstance(code, str) and code for code in code_ids):
            raise ValueError(f"{where}: field 'code_ids' must be an array of non-empty strings")
        if feature_dim < 1:
            raise ValueError(f"{where}: field 'feature_dim' must be >= 1")
        if len(code_ids) != n_codes:
            raise ValueError(f"{path}: header code ids do not match n_codes")
        # The body is sized from the file before anything is allocated, so a
        # header that claims more parameters than the file holds fails here.
        expected = (n_codes * feature_dim + n_codes) * 8
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise ValueError(f"{path}: expected {expected} parameter bytes, found {found}")
        return Checkpoint(path, fh, fh.tell(), code_ids, config_hash, feature_dim)
    except BaseException:
        fh.close()
        raise


def load_checkpoint(
    source: str | Path | Checkpoint, columns: np.ndarray | None = None
) -> tuple[ModelParams, list[str], str]:
    """Read a checkpoint; returns (params, code ids, config hash).

    ``source`` is a path, or a checkpoint from ``open_checkpoint``. The
    parameters hold ``columns``, strictly increasing feature columns
    (default: every one), over the checkpoint's ``feature_dim``. The body is
    read a block of rows at a time through one buffer of about 1 MiB, and
    only those columns are kept, so nothing else ``codes x feature_dim`` is
    allocated.
    """
    if not isinstance(source, Checkpoint):
        with open_checkpoint(source) as checkpoint:
            return load_checkpoint(checkpoint, columns)
    n_codes, feature_dim = len(source.code_ids), source.feature_dim
    columns = np.arange(feature_dim) if columns is None else np.asarray(columns, np.int64)
    if columns.size and (
        columns[0] < 0 or columns[-1] >= feature_dim or np.any(np.diff(columns) <= 0)
    ):
        raise ValueError(
            f"{source.path}: feature columns must lie in [0, {feature_dim}) "
            "and increase strictly"
        )
    source.file.seek(source.offset)
    rows = max(1, _READ_BLOCK_BYTES // (8 * feature_dim))
    buffer = np.empty((min(rows, n_codes), feature_dim), dtype="<f8")
    weights = np.empty((n_codes, columns.size), dtype="<f8")
    for start in range(0, n_codes, rows):
        block = buffer[: min(rows, n_codes - start)]
        _read_into(source, block)
        np.take(block, columns, axis=1, out=weights[start : start + len(block)])
    biases = np.empty(n_codes, dtype="<f8")
    _read_into(source, biases)
    params = ModelParams(weights, biases, columns, feature_dim)
    return params, list(source.code_ids), source.config_hash


def _read_into(checkpoint: Checkpoint, array: np.ndarray) -> None:
    read = checkpoint.file.readinto(array)
    if read != array.nbytes:
        raise ValueError(
            f"{checkpoint.path}: expected {array.nbytes} more parameter bytes, found {read}"
        )


def _gather(
    params: ModelParams | Checkpoint, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feature-major weights of the sorted feature ``columns``, and the biases.

    Row ``k`` holds the weights of feature column ``columns[k]``; a column
    the parameters do not hold is an explicit zero row. So each vector's
    ``nnz x codes`` rows hold the same values, zeros included, as a dense
    model's, and every product over them is bit-identical. From a
    checkpoint, only these columns are read.
    """
    if isinstance(params, Checkpoint):
        params, _, _ = load_checkpoint(params, columns)
    at = np.searchsorted(params.columns, columns)
    held = at < params.columns.size
    held[held] = params.columns[at[held]] == columns[held]
    # Feature-major weights, as train() holds them, give whole rows here. When
    # every column is held, as in training and from a checkpoint, one gather
    # is the block: filling a zero block took 128 ms against 100 ms to score
    # 48 notes from a 1,000-code checkpoint.
    if held.all():
        return params.weights.T[at], params.biases
    by_feature = np.zeros((columns.size, len(params.biases)))
    by_feature[held] = params.weights.T[at[held]]
    return by_feature, params.biases


def _union(vectors: Sequence[SparseVector]) -> np.ndarray:
    """The sorted union of the vectors' indices."""
    # Sorted, each index is kept where it differs from the one before it (-1
    # before the first: indices are >= 0). np.unique hashes first, and took
    # 3.2 ms against 0.27 ms on 16 vectors of ~1,500 indices.
    indices = np.sort(np.concatenate([np.empty(0, np.int64)] + [f.indices for f in vectors]))
    return indices[np.diff(indices, prepend=-1) != 0]


def _example_loss(p: np.ndarray, q: np.ndarray, labels: np.ndarray, cw: float) -> float:
    """Mean branch cross entropy plus ``cw`` times the branch consistency."""
    ce = 0.5 * (cross_entropy(p, labels) + cross_entropy(q, labels))
    return ce + cw * consistency_loss(p, q)


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)

