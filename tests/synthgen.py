"""Synthetic corpus generator for the consistency-training benchmark.

Builds a world of invented conditions where each code's evidence phrase has
a short form and a long form. Training notes mostly spell the evidence out;
half the test notes use only the short forms. A model trained purely on the
written-out training text is weak on that slice, which is exactly the gap
augmentation plus consistency training is supposed to close.
"""

from dataclasses import dataclass

import numpy as np

from acrocode.corpus import CodeSet, Note
from acrocode.expand import Expander, ExpanderConfig, expand_notes
from acrocode.segment import segment
from acrocode.seeding import derive_seed

N_CODES = 20
TRAIN_ACRONYM_RATE = 0.1
FILLER_VOCAB = 200


@dataclass(frozen=True)
class SynthCorpus:
    code_set: CodeSet
    dictionary: dict[str, str]
    train: list[Note]
    test_acronym: list[Note]
    test_full: list[Note]


def _concepts() -> list[tuple[str, str, str]]:
    """(code_id, short form, long form) for each invented condition."""
    out = []
    for j in range(N_CODES):
        short = f"zq{j}x"
        long = f"protracted kind{j} syndrome"
        out.append((f"code{j:02d}", short, long))
    return out


def _note_text(rng, concepts, active, use_acronym: bool) -> str:
    tokens = [f"filler{rng.integers(FILLER_VOCAB)}" for _ in range(rng.integers(6, 12))]
    for j in active:
        _, short, long = concepts[j]
        tokens.append(short if use_acronym else long)
    rng.shuffle(tokens)
    return "presenting condition: " + " ".join(tokens) + "\n"


def generate(seed: int, n_train: int = 300, n_test: int = 200) -> SynthCorpus:
    concepts = _concepts()
    code_set = CodeSet(codes=[(code, long) for code, _, long in concepts])
    dictionary = {short: long for _, short, long in concepts}
    rng = np.random.default_rng(derive_seed(seed, "synth-corpus"))

    def draw(n, acronym_policy):
        notes = []
        for i in range(n):
            active = sorted(rng.choice(N_CODES, size=rng.integers(1, 4), replace=False))
            if acronym_policy == "train":
                use_acronym = rng.random() < TRAIN_ACRONYM_RATE
            else:
                use_acronym = acronym_policy == "acronym"
            notes.append(
                Note(
                    id=f"{acronym_policy}{i:04d}",
                    text=_note_text(rng, concepts, active, use_acronym),
                    labels=frozenset(concepts[j][0] for j in active),
                )
            )
        return notes

    return SynthCorpus(
        code_set=code_set,
        dictionary=dictionary,
        train=draw(n_train, "train"),
        test_acronym=draw(n_test // 2, "acronym"),
        test_full=draw(n_test // 2, "full"),
    )


def expand_with_mock(notes: list[Note], dictionary: dict[str, str]):
    """Run the real mock expander over the notes, as the pipeline would."""
    expander = Expander(ExpanderConfig(mode="mock"), dictionary=dictionary)
    return expand_notes(notes, {n.id: segment(n.text) for n in notes}, expander)


def identity_pairs(notes: list[Note]):
    """(note, expansion) pairs where nothing was expanded: the unaugmented arm."""
    expanded = expand_with_mock(notes, {})
    return list(zip(notes, expanded))


def augmented_pairs(notes: list[Note], dictionary: dict[str, str]):
    expanded = expand_with_mock(notes, dictionary)
    return list(zip(notes, expanded))
