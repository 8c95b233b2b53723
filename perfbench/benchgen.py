"""Deterministic corpus generator for the pipeline benchmark.

Every acronym in a generated note is placed by the generator itself, so the
note's original text, its expected expansion and its gold (abbreviation,
full form, occurrence) records are all known by construction. The
benchmark's checks compare the pipeline's outputs with these and never ask
`acrocode` for an answer. Nothing here imports `acrocode`.

Word classes are disjoint by construction:

- filler and evidence words are lowercase pseudo-words of five or more
  letters and appear in the original text;
- full-form words come from their own pool and appear only in expansions;
- acronyms are three or four capital letters, never adjacent to one
  another, and never equal to a header word or any pool word.

That keeps every acronym a standalone token that dictionary substitution
and token alignment both see as exactly one rewrite.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Clinical section headers in note order; DROPPABLE_HEADERS are the
# segmenter's default droppable sections, and each note has two of them.
HEADERS = (
    "chief complaint",
    "history of present illness",
    "past medical history",
    "social history",
    "family history",
    "medication on admission",
    "hospital course",
    "physical exam",
    "assessment and plan",
    "discharge instructions",
)
DROPPABLE_HEADERS = (
    "social history",
    "family history",
    "medication on admission",
    "discharge instructions",
)
OPTIONAL_SECTIONS = 2  # droppable sections per note, chosen at random
SENTENCE_TOKENS = (6, 18)
ACRONYM_RATE = 0.03  # acronyms per content token
FILLER_VOCAB = 2000
FILLER_ZIPF = 1.0  # exponent of the filler word frequencies

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_HEADER_WORDS = frozenset(w for h in HEADERS for w in h.split())


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's generated inputs."""

    n_codes: int
    n_train: int
    n_dev: int
    n_test: int
    median_tokens: int  # median content tokens per note (lognormal, stratified)
    token_sigma: float  # sigma of log(content tokens)
    min_tokens: int
    max_tokens: int
    dictionary_size: int
    label_zipf: float  # exponent of the code frequencies; 0 is uniform
    labels_per_note: tuple[int, int]  # inclusive range
    evidence_rate: float  # label evidence words per content token
    candidates: tuple[int, int] | None = None  # inclusive list length range


@dataclass(frozen=True)
class GoldRecord:
    abbreviation: str
    full_form: str
    occurrence: int


@dataclass(frozen=True)
class GenNote:
    id: str
    text: str
    expanded_text: str
    labels: tuple[str, ...]
    headers: tuple[str, ...]  # one per section, in order
    tokens: int  # whitespace tokens of `text`, counted while building it
    gold: tuple[GoldRecord, ...]


@dataclass(frozen=True)
class Corpus:
    codes: tuple[tuple[str, str], ...]  # (code id, description)
    dictionary: dict[str, str]  # acronym -> full form
    train: tuple[GenNote, ...]
    dev: tuple[GenNote, ...]
    test: tuple[GenNote, ...]
    candidates: dict[str, tuple[str, ...]]  # dev and test note id -> ranked codes

    @property
    def code_ids(self) -> list[str]:
        return [code for code, _ in self.codes]


def _pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """`count` new words; the i-th has 5 + i % 5 letters whatever the seed.

    Word frequencies are tied to list positions, so fixing each position's
    length keeps the bytes the pipeline hashes, scans and aligns the same
    from seed to seed.
    """
    out: list[str] = []
    while len(out) < count:
        length = 5 + len(out) % 5
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(length // 2)
        )
        if length % 2:
            word += _CONSONANTS[rng.integers(len(_CONSONANTS))]
        if word in taken or word in _HEADER_WORDS:
            continue
        taken.add(word)
        out.append(word)
    return out


def _acronyms(rng: np.random.Generator, count: int) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    while len(out) < count:
        length = 3 + len(out) % 2
        word = "".join(letters[rng.integers(26)] for _ in range(length))
        if word in seen or word.lower() in _HEADER_WORDS:
            continue
        seen.add(word)
        out.append(word)
    return out


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def generate(shape: Shape, seed: int, workload_tag: int = 0) -> Corpus:
    """Generate one workload's corpus; the same arguments give the same corpus."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, workload_tag]))
    taken: set[str] = set()
    filler = _pseudo_words(rng, FILLER_VOCAB, taken)
    evidence = _pseudo_words(rng, 3 * shape.n_codes, taken)
    # Full form i has 2 + i % 2 words of its own, so its length, like the
    # acronym's, depends on its position only.
    form_sizes = [2 + i % 2 for i in range(shape.dictionary_size)]
    long_words = iter(_pseudo_words(rng, sum(form_sizes), taken))
    acronyms = _acronyms(rng, shape.dictionary_size)
    dictionary = {
        acronym: " ".join(next(long_words) for _ in range(size))
        for acronym, size in zip(acronyms, form_sizes)
    }

    width = len(str(shape.n_codes - 1))
    codes = tuple(
        (f"C{j:0{width}d}", " ".join(evidence[3 * j : 3 * j + 3])) for j in range(shape.n_codes)
    )
    code_weights = _zipf_weights(shape.n_codes, shape.label_zipf)
    filler_weights = _zipf_weights(FILLER_VOCAB, FILLER_ZIPF)
    acronym_weights = _zipf_weights(shape.dictionary_size, 1.0)

    def stratified_lengths(n: int) -> list[int]:
        # Lognormal lengths at the n mid-quantiles, in seeded order: every
        # seed gets the same multiset of lengths, so the work per run does
        # not swing with the seed while the notes themselves differ.
        quantiles = (np.arange(n) + 0.5) / n
        z = np.array([statistics.NormalDist().inv_cdf(float(q)) for q in quantiles])
        lengths = np.clip(
            np.round(shape.median_tokens * np.exp(shape.token_sigma * z)),
            shape.min_tokens,
            shape.max_tokens,
        ).astype(int)
        return [int(x) for x in rng.permutation(lengths)]

    def draw_note(note_id: str, n_tokens: int) -> GenNote:
        lo, hi = shape.labels_per_note
        n_labels = int(rng.integers(lo, hi + 1))
        label_idx = np.sort(
            rng.choice(shape.n_codes, size=n_labels, replace=False, p=code_weights)
        )
        optional = set(rng.choice(DROPPABLE_HEADERS, size=OPTIONAL_SECTIONS, replace=False))
        headers = [h for h in HEADERS if h not in DROPPABLE_HEADERS or h in optional]
        # Content tokens of the whole note: acronym, evidence or filler.
        kinds = rng.random(n_tokens)
        filler_draw = rng.choice(FILLER_VOCAB, size=n_tokens, p=filler_weights)
        acronym_draw = rng.choice(shape.dictionary_size, size=n_tokens, p=acronym_weights)
        evidence_pool = [evidence[3 * j + k] for j in label_idx for k in range(3)]
        evidence_draw = rng.integers(len(evidence_pool), size=n_tokens)
        original: list[str] = []
        is_acronym: list[bool] = []
        for t in range(n_tokens):
            if kinds[t] < ACRONYM_RATE and not (is_acronym and is_acronym[-1]):
                original.append(acronyms[acronym_draw[t]])
                is_acronym.append(True)
            elif kinds[t] < ACRONYM_RATE + shape.evidence_rate:
                original.append(evidence_pool[evidence_draw[t]])
                is_acronym.append(False)
            else:
                original.append(filler[filler_draw[t]])
                is_acronym.append(False)
        # Split content among sections (each at least one full sentence),
        # then each section into sentences ending with a period.
        share = rng.dirichlet(np.full(len(headers), 2.0))
        min_section = SENTENCE_TOKENS[0]
        spare = max(n_tokens - min_section * len(headers), 0)
        sizes = [min_section + int(s) for s in np.floor(share * spare)]
        sizes[-1] += n_tokens - sum(sizes)
        text_parts: list[str] = []
        expanded_parts: list[str] = []
        gold: list[GoldRecord] = []
        seen_count: dict[str, int] = {}
        token_total = 0
        pos = 0
        for header, size in zip(headers, sizes):
            text_lines = [header + ":\n"]
            expanded_lines = [header + ":\n"]
            token_total += len(header.split())
            sentences_orig: list[str] = []
            sentences_exp: list[str] = []
            end = pos + size
            while pos < end:
                length = min(int(rng.integers(*SENTENCE_TOKENS)), end - pos)
                words_orig: list[str] = []
                words_exp: list[str] = []
                for t in range(pos, pos + length):
                    word = original[t]
                    if is_acronym[t]:
                        occurrence = seen_count.get(word, 0)
                        seen_count[word] = occurrence + 1
                        gold.append(GoldRecord(word, dictionary[word], occurrence))
                        words_exp.append(dictionary[word])
                    else:
                        words_exp.append(word)
                    words_orig.append(word)
                sentences_orig.append(" ".join(words_orig) + ".")
                sentences_exp.append(" ".join(words_exp) + ".")
                token_total += length
                pos += length
            text_lines.append(" ".join(sentences_orig) + "\n")
            expanded_lines.append(" ".join(sentences_exp) + "\n")
            text_parts.extend(text_lines)
            expanded_parts.extend(expanded_lines)
        return GenNote(
            id=note_id,
            text="".join(text_parts),
            expanded_text="".join(expanded_parts),
            labels=tuple(codes[j][0] for j in label_idx),
            headers=tuple(headers),
            tokens=token_total,
            gold=tuple(gold),
        )

    def draw_split(prefix: str, n: int) -> tuple[GenNote, ...]:
        lengths = stratified_lengths(n)
        return tuple(draw_note(f"{prefix}{i:04d}", lengths[i]) for i in range(n))

    train = draw_split("train", shape.n_train)
    dev = draw_split("dev", shape.n_dev)
    test = draw_split("test", shape.n_test)

    candidates: dict[str, tuple[str, ...]] = {}
    if shape.candidates is not None:
        lo, hi = shape.candidates
        code_ids = [code for code, _ in codes]
        for note in dev + test:
            size = int(rng.integers(lo, hi + 1))
            gold_idx = [int(c[1:]) for c in note.labels]
            others = np.setdiff1d(np.arange(shape.n_codes), gold_idx)
            p = code_weights[others] / code_weights[others].sum()
            extra = rng.choice(others, size=size - len(gold_idx), replace=False, p=p)
            ranked = np.concatenate([gold_idx, extra])
            rng.shuffle(ranked)
            candidates[note.id] = tuple(code_ids[int(i)] for i in ranked)

    return Corpus(
        codes=codes,
        dictionary=dictionary,
        train=train,
        dev=dev,
        test=test,
        candidates=candidates,
    )


def expand_text(text: str, dictionary: dict[str, str]) -> str:
    """The generator's own expansion of any slice of a generated note.

    Acronyms are whole whitespace tokens, optionally followed by the period
    that ends a sentence, so replacing those tokens is the whole job.
    """
    def replace(match: re.Match) -> str:
        word = match.group(1)
        return dictionary.get(word, word) + match.group(2)

    return re.sub(r"(?<!\S)([A-Z]{3,4})(\.?)(?!\S)", replace, text)


def _notes_jsonl(notes) -> str:
    return "".join(
        json.dumps({"id": n.id, "text": n.text, "labels": sorted(n.labels)}, sort_keys=True)
        + "\n"
        for n in notes
    )


def write_inputs(
    corpus: Corpus, directory: Path, augment_splits: tuple[str, ...] = ("train",)
) -> dict[str, Path]:
    """Write the files the pipeline reads, plus truth.jsonl for inspection.

    augment.jsonl holds the notes of `augment_splits`, the ones the text
    commands (segment, expand, align, eval-expansion) read, and
    gold_expansions.tsv their gold records. truth.jsonl holds each note's
    original text, expected expansion and gold records together; the
    pipeline is never given it.
    """
    augment = [n for split in augment_splits for n in getattr(corpus, split)]
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "train": directory / "train.jsonl",
        "dev": directory / "dev.jsonl",
        "test": directory / "test.jsonl",
        "augment": directory / "augment.jsonl",
        "codes": directory / "codes.tsv",
        "dictionary": directory / "dictionary.tsv",
        "empty_dictionary": directory / "empty_dictionary.tsv",
        "gold": directory / "gold_expansions.tsv",
        "truth": directory / "truth.jsonl",
    }
    files["train"].write_text(_notes_jsonl(corpus.train), encoding="utf-8")
    files["dev"].write_text(_notes_jsonl(corpus.dev), encoding="utf-8")
    files["test"].write_text(_notes_jsonl(corpus.test), encoding="utf-8")
    files["augment"].write_text(_notes_jsonl(augment), encoding="utf-8")
    files["codes"].write_text(
        "".join(f"{code}\t{desc}\n" for code, desc in corpus.codes), encoding="utf-8"
    )
    files["dictionary"].write_text(
        "".join(f"{a}\t{f}\n" for a, f in corpus.dictionary.items()), encoding="utf-8"
    )
    files["empty_dictionary"].write_text("", encoding="utf-8")
    files["gold"].write_text(
        "".join(
            f"{n.id}\t{g.abbreviation}\t{g.full_form}\t{g.occurrence}\n"
            for n in augment
            for g in n.gold
        ),
        encoding="utf-8",
    )
    files["truth"].write_text(
        "".join(
            json.dumps(
                {
                    "id": n.id,
                    "text": n.text,
                    "expanded_text": n.expanded_text,
                    "gold": [[g.abbreviation, g.full_form, g.occurrence] for g in n.gold],
                },
                sort_keys=True,
            )
            + "\n"
            for n in corpus.train + corpus.dev + corpus.test
        ),
        encoding="utf-8",
    )
    if corpus.candidates:
        files["candidates"] = directory / "candidates.tsv"
        files["candidates"].write_text(
            "".join(f"{nid}\t{','.join(ranked)}\n" for nid, ranked in corpus.candidates.items()),
            encoding="utf-8",
        )
    return files
