"""The aligner's token block finder gives difflib's blocks exactly.

``align._token_blocks`` answers difflib's longest-run queries from shared
runs found once per section; these tests hold it to
``SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()`` of the
running Python. Small alphabets make ties and repeated K-grams common.

The module imports nothing of acrocode but ``acrocode.align``, which needs no
numpy, and carries its own hypothesis settings, so it also runs alone under
``pytest --noconftest`` on every Python version the package admits.
"""

from difflib import SequenceMatcher

from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrocode import align

# Well past the run length, so one section holds several shared runs.
MAX_TOKENS = 6 * align._RUN_TOKENS + 10

SETTINGS = settings(deadline=None, derandomize=True, database=None)


def difflib_blocks(a: list[str], b: list[str]) -> list[tuple[int, int, int]]:
    return [tuple(m) for m in SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()]


@st.composite
def _edited(draw, a: list[str], alphabet: list[str]) -> list[str]:
    """``a`` after a few random substitutions, insertions, deletions and moves.

    A moved stretch gives runs that cross one another, whose order by start
    in ``a`` can disagree with their order once clipped to a rectangle.
    """
    b = list(a)
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(["substitute", "insert", "delete", "move"]))
        at = draw(st.integers(0, len(b)))
        if op == "insert":
            b.insert(at, draw(st.sampled_from(alphabet)))
        elif op == "move":
            stretch = b[at:at + draw(st.integers(1, 2 * align._RUN_TOKENS))]
            del b[at:at + len(stretch)]
            to = draw(st.integers(0, len(b)))
            b[to:to] = stretch
        elif at < len(b):
            if op == "substitute":
                b[at] = draw(st.sampled_from(alphabet))
            else:
                del b[at]
    return b


@st.composite
def token_pairs(draw) -> tuple[list[str], list[str]]:
    alphabet = [chr(ord("a") + k) for k in range(draw(st.integers(1, 6)))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=MAX_TOKENS)
    a = draw(tokens)
    b = draw(st.one_of(tokens, _edited(a, alphabet)))
    return a, b


@settings(SETTINGS, max_examples=1000)
@given(token_pairs())
@example((["t"] * 60, ["t"] * 29 + ["u", "v"] + ["t"] * 29))
@example((["t"] * 60, ["t"] * 60))
# Two runs of five start at a[0]; the one earlier in b, at 6, is found after
# the one at 12, so the tie rule, not the order found, must pick it.
@example((list("cabcb"), list("ccabcacabcbccabcb")))
@example(([], ["t"]))
def test_token_blocks_are_difflibs(pair):
    a, b = pair
    assert align._token_blocks(a, b) == difflib_blocks(a, b)
    assert align._token_blocks(b, a) == difflib_blocks(b, a)


def test_one_repeated_token_with_a_substitution_in_the_middle():
    a = ["t"] * 2000
    b = ["t"] * 999 + ["u", "v"] + ["t"] * 999
    # difflib's blocks, written out: difflib takes half a second for them.
    assert align._token_blocks(a, b) == [(0, 0, 999), (999, 1001, 999), (2000, 2000, 0)]


def maximal_runs(a: list[str], b: list[str]) -> list[tuple[int, int, int]]:
    """Every ``(i, j, n)``, ``a[i:i + n] == b[j:j + n]``, that extends on neither side."""
    runs = []
    for i in range(len(a)):
        for j in range(len(b)):
            if i and j and a[i - 1] == b[j - 1]:
                continue
            n = 0
            while i + n < len(a) and j + n < len(b) and a[i + n] == b[j + n]:
                n += 1
            if n:
                runs.append((i, j, n))
    return runs


@settings(SETTINGS, max_examples=300)
@given(token_pairs())
def test_shared_runs_are_the_maximal_runs_of_run_length(pair):
    a, b = pair
    expected = [run for run in maximal_runs(a, b) if run[2] >= align._RUN_TOKENS]
    assert sorted(align._shared_runs(a, b)) == expected


def test_str_split_tokens_are_the_token_pattern_on_every_code_point():
    # Each code point between two letters: a separator for both, or for neither.
    text = "".join("a" + chr(c) for c in range(0x110000)) + "a"
    assert text.split() == align._TOKEN_RE.findall(text)
