"""The benchmark's generator is deterministic and its ground truth is consistent."""

import re

import pytest

import benchgen

SMALL = benchgen.Shape(
    n_codes=12,
    n_train=6,
    n_dev=4,
    n_test=4,
    median_tokens=200,
    token_sigma=0.4,
    min_tokens=80,
    max_tokens=500,
    dictionary_size=20,
    label_zipf=1.0,
    labels_per_note=(1, 4),
    evidence_rate=0.05,
    candidates=(6, 9),
)


def _files(tmp_path, name, seed):
    files = benchgen.write_inputs(benchgen.generate(SMALL, seed, 1), tmp_path / name)
    return {key: path.read_bytes() for key, path in files.items()}


def test_same_seed_gives_the_same_bytes(tmp_path):
    first = _files(tmp_path, "a", 5)
    assert first == _files(tmp_path, "b", 5)
    assert first["train"] != _files(tmp_path, "c", 6)["train"]


@pytest.fixture(scope="module", params=[0, 1, 2])
def corpus(request):
    return benchgen.generate(SMALL, request.param, 1)


def _notes(corpus):
    return corpus.train + corpus.dev + corpus.test


def test_token_counts_and_expansions_match_the_text(corpus):
    for note in _notes(corpus):
        assert note.tokens == len(note.text.split())
        assert benchgen.expand_text(note.text, corpus.dictionary) == note.expanded_text


def test_gold_occurrences_count_standalone_earlier_uses(corpus):
    for note in _notes(corpus):
        seen: dict[str, int] = {}
        for record in note.gold:
            assert record.occurrence == seen.get(record.abbreviation, 0)
            seen[record.abbreviation] = record.occurrence + 1
            assert record.full_form == corpus.dictionary[record.abbreviation]
        for abbreviation, count in seen.items():
            pattern = r"(?<![A-Za-z0-9])" + re.escape(abbreviation) + r"(?![A-Za-z0-9])"
            assert len(re.findall(pattern, note.text, re.IGNORECASE)) == count


def test_acronyms_stand_alone_and_full_forms_never_reach_the_original(corpus):
    keys = set(corpus.dictionary)
    long_words = {w for form in corpus.dictionary.values() for w in form.split()}
    for note in _notes(corpus):
        words = [w.rstrip(".:") for w in note.text.split()]
        assert not any(a in keys and b in keys for a, b in zip(words, words[1:]))
        assert not long_words & set(words)
        assert not keys & {w.rstrip(".:").upper() for w in note.expanded_text.split()
                           if w.rstrip(".:").isalpha() and len(w.rstrip(".:")) <= 4}


def test_sections_follow_the_header_order(corpus):
    for note in _notes(corpus):
        headers = [line[:-1] for line in note.text.splitlines() if line.endswith(":")]
        assert headers == list(note.headers)
        assert [h for h in benchgen.HEADERS if h in note.headers] == list(note.headers)
        dropped = set(benchgen.HEADERS) - set(note.headers)
        assert len(dropped) == len(benchgen.DROPPABLE_HEADERS) - benchgen.OPTIONAL_SECTIONS
        assert dropped <= set(benchgen.DROPPABLE_HEADERS)


def test_word_lengths_depend_on_rank_not_seed():
    def lengths(seed):
        corpus = benchgen.generate(SMALL, seed, 1)
        return [(len(a), len(f)) for a, f in corpus.dictionary.items()], [
            len(desc) for _, desc in corpus.codes
        ]

    assert lengths(0) == lengths(1)


def test_note_lengths_are_the_same_multiset_for_every_seed():
    def content_lengths(seed):
        corpus = benchgen.generate(SMALL, seed, 1)
        return sorted(
            n.tokens - sum(len(h.split()) for h in n.headers) for n in corpus.train
        )

    assert content_lengths(0) == content_lengths(1) == content_lengths(2)


def test_candidates_cover_the_gold_labels(corpus):
    lo, hi = SMALL.candidates
    for note in corpus.dev + corpus.test:
        ranked = corpus.candidates[note.id]
        assert lo <= len(ranked) <= hi
        assert len(set(ranked)) == len(ranked)
        assert set(note.labels) <= set(ranked)
