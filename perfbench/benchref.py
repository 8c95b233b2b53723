"""Reference computations for the benchmark's output checks.

Each function here is written from the file formats and the method's
definitions, not from `acrocode`'s code, and nothing here imports
`acrocode`: a tokenizer, FNV-1a hashing and a forward pass that read
`model.bin` directly; F1 and precision@k by counting; AUC by counting the
(positive, negative) pairs each positive wins; a sort-based sweep of
candidate thresholds; and the p-value structure of a permutation test.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_WORD_RE = re.compile(r"[a-z0-9]+")
FNV_OFFSET = 0x811C9DC5
FNV_PRIME = 0x01000193
LN2 = math.log(2.0)


def tokenize(text: str) -> list[str]:
    """Lowercased runs of ASCII letters and digits."""
    return _WORD_RE.findall(text.lower())


def fnv1a_32(data: bytes) -> int:
    value = FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * FNV_PRIME) % (1 << 32)
    return value


class Featurizer:
    """Hashed token counts, memoizing each token's bucket."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._bucket: dict[str, int] = {}

    def __call__(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        counts: dict[int, int] = {}
        for token in tokenize(text):
            bucket = self._bucket.get(token)
            if bucket is None:
                bucket = fnv1a_32(token.encode("utf-8")) % self.dim
                self._bucket[token] = bucket
            counts[bucket] = counts.get(bucket, 0) + 1
        idx = np.array(sorted(counts), dtype=np.int64)
        values = np.array([counts[i] for i in idx.tolist()], dtype=np.float64)
        return idx, values


@dataclass
class Checkpoint:
    header: dict
    header_bytes: int
    weights: np.ndarray  # codes x dim
    biases: np.ndarray

    @property
    def expected_size(self) -> int:
        n, d = self.header["n_codes"], self.header["feature_dim"]
        return self.header_bytes + 8 * (n * d + n)


def read_checkpoint(path: Path) -> Checkpoint:
    """Parse `model.bin`: one JSON header line, then little-endian float64s."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    header = json.loads(header_line)
    n, d = int(header["n_codes"]), int(header["feature_dim"])
    flat = np.frombuffer(body, dtype="<f8")
    if flat.size != n * d + n:
        raise ValueError(f"{path}: {flat.size} parameters, expected {n * d + n}")
    return Checkpoint(
        header=header,
        header_bytes=len(header_line),
        weights=flat[: n * d].reshape(n, d),
        biases=flat[n * d :],
    )


def forward(ckpt: Checkpoint, featurizer: Featurizer, text: str, clamp: float) -> np.ndarray:
    """Per-code logistic probabilities, kept within [clamp, 1 - clamp]."""
    idx, values = featurizer(text)
    logits = ckpt.biases + ckpt.weights[:, idx] @ values
    probs = 1.0 / (1.0 + np.exp(-logits))
    return np.minimum(np.maximum(probs, clamp), 1.0 - clamp)


def read_scores(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a score TSV: a `note_id` header row of codes, then one row per note."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    if header[0] != "note_id":
        raise ValueError(f"{path}: bad header")
    note_ids = []
    rows = []
    for line in lines[1:]:
        parts = line.split("\t")
        note_ids.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return note_ids, header[1:], np.array(rows, dtype=np.float64)


def f1_counts(tp: int, predicted: int, positive: int) -> float:
    """F1 from confusion counts; 0 when nothing is predicted or positive."""
    total = predicted + positive
    return 2.0 * tp / total if total else 0.0


def f1(predictions: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """(macro F1 over every code, micro F1 over all cells) by counting."""
    per_code = []
    tp_all = pred_all = pos_all = 0
    for c in range(gold.shape[1]):
        tp = int(np.count_nonzero(predictions[:, c] & gold[:, c]))
        pred = int(np.count_nonzero(predictions[:, c]))
        pos = int(np.count_nonzero(gold[:, c]))
        per_code.append(f1_counts(tp, pred, pos))
        tp_all, pred_all, pos_all = tp_all + tp, pred_all + pred, pos_all + pos
    return float(np.mean(per_code)), f1_counts(tp_all, pred_all, pos_all)


def precision_at_k(scores: np.ndarray, gold: np.ndarray, k: int) -> float:
    """Mean share of gold codes among each row's top k; ties go to the lower column."""
    fractions = []
    for i in range(scores.shape[0]):
        top = sorted(range(scores.shape[1]), key=lambda c: (-scores[i, c], c))[:k]
        fractions.append(sum(int(gold[i, c]) for c in top) / k)
    return float(np.mean(fractions))


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(random positive outscores random negative), ties worth one half.

    Counts, for each positive, the negatives strictly below it and those
    equal to it, by binary search in the sorted negatives.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    pos = scores[labels]
    neg = np.sort(scores[~labels])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes")
    below = np.searchsorted(neg, pos, side="left")
    equal = np.searchsorted(neg, pos, side="right") - below
    wins2 = 2 * int(below.sum()) + int(equal.sum())
    return wins2 / (2 * pos.size * neg.size)


def macro_micro_auc(scores: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    per_code = [
        auc(scores[:, c], gold[:, c])
        for c in range(gold.shape[1])
        if 0 < gold[:, c].sum() < gold.shape[0]
    ]
    return float(np.mean(per_code)), auc(scores, gold)


def best_threshold_f1(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Sort-based sweep: (best F1, largest threshold reaching it).

    A threshold t predicts every score >= t. Sorting descending, predicting
    the top n cells for each n that ends a run of equal scores gives every
    distinct outcome; a threshold of 1 (or above every score) predicts
    nothing, which is also a candidate.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(np.int64)
    positive = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp = np.cumsum(labels[order])
    best_f1, best_t = f1_counts(0, 0, positive), 1.0
    if sorted_scores.size and sorted_scores[0] == 1.0:
        best_f1 = -1.0  # a threshold of 1 predicts the cells scoring 1
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    for end in ends.tolist():
        value = f1_counts(int(tp[end]), end + 1, positive)
        if value > best_f1:
            best_f1, best_t = value, float(sorted_scores[end])
    return best_f1, best_t


def f1_at(scores: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    predicted = np.asarray(scores).ravel() >= threshold
    labels = np.asarray(labels).ravel().astype(bool)
    return f1_counts(
        int(np.count_nonzero(predicted & labels)),
        int(np.count_nonzero(predicted)),
        int(np.count_nonzero(labels)),
    )


def permutation_hits(p_value: float, rounds: int) -> int | None:
    """The integer h with p = (1 + h) / (rounds + 1), or None if there is none."""
    h = round(p_value * (rounds + 1)) - 1
    if 0 <= h <= rounds and (1 + h) / (rounds + 1) == p_value:
        return h
    return None
