import email.message
import http
import json
import re
import string
import time
import urllib.error

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrocode import cli, expand
from acrocode.corpus import Note
from acrocode.segment import segment


def test_prompt_constants_are_fixed():
    assert expand.SYSTEM_MESSAGE == "You are a helpful assistant."
    assert expand.USER_PROMPT_PREFIX == (
        "Expand all acronyms to their full forms while preserving all the "
        "details in the following paragraph, do not mention the acronyms "
        "again. Paragraph: "
    )
    assert expand.ASSISTANT_PREFIX == (
        "Here is the paragraph with all acronyms expanded to their full forms:"
    )


def test_build_user_message():
    assert expand.build_user_message("pt stable") == (
        expand.USER_PROMPT_PREFIX + "pt stable"
    )


# --- mock expansion ---


def test_mock_expand_basic():
    out = expand.mock_expand("pt has sob", {"sob": "shortness of breath"})
    assert out == "pt has shortness of breath"


def test_mock_expand_longest_key_first():
    d = {"ut": "urinary tract", "uti": "urinary tract infection"}
    assert expand.mock_expand("recurrent uti noted", d) == (
        "recurrent urinary tract infection noted"
    )
    assert expand.mock_expand("recurrent ut noted", d) == "recurrent urinary tract noted"


def test_mock_expand_respects_token_boundaries():
    d = {"co": "cardiac output"}
    assert expand.mock_expand("co was low during the course", d) == (
        "cardiac output was low during the course"
    )


def test_mock_expand_case_insensitive_match():
    out = expand.mock_expand("CHF and chf", {"chf": "congestive heart failure"})
    assert out == "congestive heart failure and congestive heart failure"


def test_mock_expand_single_pass():
    # an inserted expansion must never itself be re-expanded
    d = {"bp": "sbp reading", "sbp": "systolic blood pressure"}
    assert expand.mock_expand("bp checked", d) == "sbp reading checked"


def test_mock_expand_empty_dictionary():
    assert expand.mock_expand("unchanged", {}) == "unchanged"


def test_mock_expand_substitutes_the_key_that_matched():
    # re.IGNORECASE matches the long s "ſ" to "s", though "ſ".lower() is "ſ",
    # so no key equals the occurrence in lower case.
    assert expand.mock_expand("a ſ b", {"s": "sierra"}) == "a sierra b"


def test_mock_expand_leaves_keys_inside_non_ascii_words():
    assert expand.mock_expand("Möhr hr", {"hr": "heart rate"}) == "Möhr heart rate"


def flat_mock_expand(text, dictionary):
    """Mock expansion through one flat alternation of every key, longest first.

    The substitution as it stood before the prefix trie, with one group per
    key: an occurrence takes the full form of its text lowered. Where that is
    no key, as when re's case folding matched "ſ" to the key "s", the old code
    raised ``KeyError``; here it takes the form of the key whose group matched.
    """
    lowered = {key.lower(): value for key, value in dictionary.items()}
    ordered = sorted(lowered, key=len, reverse=True)
    alternation = "|".join(f"({re.escape(k)})" for k in ordered)
    pattern = re.compile(
        r"(?<![^\W_])(?:" + alternation + r")(?![^\W_])", re.IGNORECASE
    )
    return pattern.sub(
        lambda m: lowered.get(m.group(0).lower(), lowered[ordered[m.lastindex - 1]]), text
    )


# Both cases of ASCII letters, digits and separators, plus three letters
# outside ASCII that re.IGNORECASE folds to ASCII ones: the long s "ſ" (to
# s, which str.lower does not do), the Kelvin sign (to k) and "İ" (to i,
# where str.lower makes it two characters); and two that it folds to none,
# "é" and "ö", which are token characters all the same.
_MOCK_ALPHABET = string.ascii_letters + string.digits + ".-/ ſ\u212aİéö"
_REFOLD = str.maketrans("sSkKiI", "ſſ\u212a\u212aİİ")


@st.composite
def _mock_cases(draw):
    # Some keys come from the folding letters alone, so that keys often
    # match each other's occurrences.
    key_text = st.one_of(st.text(_MOCK_ALPHABET, min_size=1, max_size=4),
                         st.text("sSſkK\u212a.", min_size=1, max_size=4))
    keys = draw(st.lists(key_text, min_size=1, max_size=8))
    dictionary = {key: f"<{i}>" for i, key in enumerate(keys)}
    # Texts are mostly keys, as written, in upper case or with their letters
    # swapped for ones re folds to them, so most cases substitute something.
    key = st.sampled_from(keys)
    pieces = st.one_of(
        key,
        key.map(str.upper),
        key.map(lambda k: k.translate(_REFOLD)),
        st.text(_MOCK_ALPHABET, max_size=3),
    )
    return "".join(draw(st.lists(pieces, max_size=8))), dictionary


@settings(max_examples=500)
@given(_mock_cases())
@example(("ſ.", {"s": "sierra", "ſ.": "long s"}))
@example(("ſ.", {"s": "sierra", "sab": "sabre", "ſ.": "long s"}))  # an s branch before ſ
@example(("uti ut utis UTI", {"ut": "urinary tract", "uti": "urinary tract infection"}))
@example(("İ i ı", {"i": "india", "İ": "dotted"}))
@example(("s ſ S", {"ſ": "long", "s": "short"}))
@example(("Möhr hr", {"hr": "heart rate"}))  # ö is a letter: "hr" in "Möhr" is no key
def test_mock_expand_equals_the_flat_alternation(case):
    text, dictionary = case
    assert expand.mock_expand(text, dictionary) == flat_mock_expand(text, dictionary)


def test_mock_expand_nests_no_deeper_than_the_trie_depth():
    # 600 keys, each a prefix of the next, would nest 600 groups deep in a
    # full trie, past the recursion limit of re's parser.
    dictionary = {"a" * n: f"<{n}>" for n in range(1, 601)}
    text = "a " + "A" * 9 + " " + "a" * 600 + " " + "a" * 601
    assert expand.mock_expand(text, dictionary) == flat_mock_expand(text, dictionary)


def test_load_mock_dictionary(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("HR\theart rate\nsob\tshortness of breath\n")
    d = expand.load_mock_dictionary(path)
    assert d == {"hr": "heart rate", "sob": "shortness of breath"}


def test_load_mock_dictionary_drops_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text("sob\tshortness of breath\nhr\theart rate\n", encoding="utf-8")
    marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert expand.load_mock_dictionary(marked) == expand.load_mock_dictionary(plain)


def test_load_mock_dictionary_rejects_duplicates(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("hr\theart rate\nHR\theart rhythm\n")
    with pytest.raises(ValueError):
        expand.load_mock_dictionary(path)


# --- response cleaning ---


def test_clean_response_strips_echoed_preamble():
    raw = (
        "Here is the paragraph with all acronyms expanded to their full forms:"
        " pt is stable"
    )
    assert expand.clean_response(raw) == "pt is stable"


def test_clean_response_strips_repeated_preamble():
    raw = (
        "here is the paragraph with all acronyms expanded to their full forms: "
        "Here is the paragraph with all acronyms expanded to their full forms: body"
    )
    assert expand.clean_response(raw) == "body"


def test_clean_response_keeps_plain_text():
    assert expand.clean_response("  already clean  ") == "already clean  "


# --- request chunking ---


def test_split_for_request_short_text_unsplit():
    assert expand.split_for_request("one two three", 10) == ["one two three"]


def test_split_for_request_preserves_concatenation():
    text = "first sentence here. second one now! third part? tail without end"
    for budget in [1, 2, 3, 5, 8]:
        chunks = expand.split_for_request(text, budget)
        assert "".join(chunks) == text
        assert all(chunk for chunk in chunks)


def test_split_for_request_splits_at_sentence_ends():
    text = "aa bb. cc dd. ee ff."
    chunks = expand.split_for_request(text, 2)
    assert chunks == ["aa bb.", " cc dd.", " ee ff."]


def test_split_for_request_oversized_sentence_kept_whole():
    text = "word " * 50
    chunks = expand.split_for_request(text.strip(), 10)
    assert "".join(chunks) == text.strip()


# --- Expander modes ---


def _response(text):
    return {"choices": [{"message": {"content": text}}]}


def make_post(log):
    def post(url, payload, timeout):
        log.append(payload)
        body = payload["messages"][1]["content"][len(expand.USER_PROMPT_PREFIX) :]
        return _response(
            expand.ASSISTANT_PREFIX + " " + body.replace("sob", "shortness of breath")
        )

    return post


def test_live_mode_calls_and_caches(tmp_path):
    note = Note(id="n1", text="hpi: pt has sob today.\n", labels=frozenset())
    sections = segment(note.text)
    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    log = []
    expander = expand.Expander(config, post_fn=make_post(log))
    first = expander.expand_note(note, sections)
    assert first.expanded_text == "hpi: pt has shortness of breath today.\n"
    assert [s.source for s in first.sections] == ["llm"]
    assert len(log) == 1
    assert log[0]["model"] == "m"
    assert log[0]["temperature"] == 0.0
    assert log[0]["messages"][0]["content"] == expand.SYSTEM_MESSAGE
    assert log[0]["messages"][2]["content"] == expand.ASSISTANT_PREFIX

    second = expander.expand_note(note, sections)
    assert second.expanded_text == first.expanded_text
    assert [s.source for s in second.sections] == ["cache"]
    assert len(log) == 1


def test_cache_only_mode(tmp_path):
    note = Note(id="n1", text="pt has sob", labels=frozenset())
    sections = segment(note.text)
    live = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    expand.Expander(live, post_fn=make_post([])).expand_note(note, sections)

    offline = expand.ExpanderConfig(model_name="m", cache_dir=tmp_path, mode="cache-only")
    expander = expand.Expander(offline)
    result = expander.expand_note(note, sections)
    assert result.expanded_text == "pt has shortness of breath"

    other = Note(id="n2", text="never requested", labels=frozenset())
    with pytest.raises(expand.ExpanderError, match="n2"):
        expander.expand_note(other, segment(other.text))


def test_cache_key_depends_on_model_and_prompt(monkeypatch):
    def key(prompt="prompt", **fields):
        config = expand.ExpanderConfig(**{"model_name": "model-a", **fields})
        return expand._cache_key(expand._request_payload(config, prompt))

    a = key()
    assert a == key()
    assert a != key(model_name="model-b")
    assert a != key("other prompt")
    assert key("c", model_name="ab") != key("bc", model_name="a")
    assert a != key(temperature=0.9)
    assert a != key(max_response_tokens=256)
    assert key(max_response_tokens=256) != key(max_response_tokens=512)
    monkeypatch.setattr(expand, "SYSTEM_MESSAGE", "Another system message.")
    assert a != key()
    monkeypatch.undo()
    monkeypatch.setattr(expand, "ASSISTANT_PREFIX", "Another assistant prefix:")
    assert a != key()


def test_retries_then_raises(tmp_path, monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    attempts = []

    def failing_post(url, payload, timeout):
        attempts.append(1)
        raise ConnectionError("boom")

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test",
        model_name="m",
        cache_dir=tmp_path,
        mode="live",
        max_retries=2,
    )
    expander = expand.Expander(config, post_fn=failing_post)
    note = Note(id="n1", text="text", labels=frozenset())
    with pytest.raises(expand.ExpanderError, match="3 attempts"):
        expander.expand_note(note, segment(note.text))
    assert len(attempts) == 3


def test_retry_succeeds_after_failure(tmp_path, monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    calls = []

    def flaky_post(url, payload, timeout):
        calls.append(1)
        if len(calls) == 1:
            raise ConnectionError("first try fails")
        return _response(expand.ASSISTANT_PREFIX + " all good")

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    note = Note(id="n1", text="all good", labels=frozenset())
    result = expand.Expander(config, post_fn=flaky_post).expand_note(
        note, segment(note.text)
    )
    assert result.expanded_text == "all good"
    assert len(calls) == 2


def _http_error(status, retry_after=None):
    headers = email.message.Message()
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    phrase = http.HTTPStatus(status).phrase
    return urllib.error.HTTPError("http://unit.test", status, phrase, headers, None)


def _live_config(tmp_path):
    return expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )


@pytest.mark.parametrize(
    "failure, cause",
    [
        (_http_error(400), "refused the request: HTTP Error 400: Bad Request"),
        (_http_error(404), "refused the request: HTTP Error 404: Not Found"),
        ({}, "no choices"),
        ({"choices": []}, "no choices"),
        ({"choices": [{"message": {"content": None}}]}, "content is NoneType"),
        (json.JSONDecodeError("Expecting value", "<html>", 0), "not JSON"),
        (_http_error(308), "refused the request: HTTP Error 308: Permanent Redirect"),
        (
            {"choices": [{"message": {"content": "cut sh"}, "finish_reason": "length"}]},
            "truncated at the token limit",
        ),
    ],
    ids=["400", "404", "empty-payload", "no-choices", "null-content", "not-json", "redirects",
         "truncated"],
)
def test_permanent_endpoint_failures_are_not_retried(tmp_path, monkeypatch, failure, cause):
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    attempts = []

    def post(url, payload, timeout):
        attempts.append(1)
        if isinstance(failure, Exception):
            raise failure
        return failure

    note = Note(id="n1", text="text", labels=frozenset())
    with pytest.raises(expand.ExpanderError, match=f"n1.*{cause}"):
        expand.Expander(_live_config(tmp_path), post_fn=post).expand_note(
            note, segment(note.text)
        )
    assert len(attempts) == 1
    assert slept == []
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@pytest.mark.parametrize(
    "failure",
    [_http_error(503), _http_error(429), TimeoutError("timed out"),
     urllib.error.URLError(TimeoutError("timed out"))],
    ids=["503", "429", "timeout", "urlopen-timeout"],
)
def test_transient_endpoint_failures_are_retried(tmp_path, monkeypatch, failure):
    monkeypatch.setattr("time.sleep", lambda s: None)
    attempts = []

    def post(url, payload, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            raise failure
        return _response(expand.ASSISTANT_PREFIX + " all good")

    note = Note(id="n1", text="all good", labels=frozenset())
    result = expand.Expander(_live_config(tmp_path), post_fn=post).expand_note(
        note, segment(note.text)
    )
    assert result.expanded_text == "all good"
    assert len(attempts) == 3


@pytest.mark.parametrize(
    "status, retry_after, wait",
    [
        (429, "3", 3.0),
        (503, "3", 3.0),
        (429, "120", 8.0),
        (503, "soon", 1.0),
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", 1.0),
        (503, None, 1.0),
        (500, "3", 1.0),
    ],
    ids=["429-seconds", "503-seconds", "capped", "malformed", "http-date", "missing",
         "500-ignored"],
)
def test_retry_after_sets_the_wait(tmp_path, monkeypatch, status, retry_after, wait):
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    attempts = []

    def post(url, payload, timeout):
        attempts.append(1)
        if len(attempts) == 1:
            raise _http_error(status, retry_after)
        return _response(expand.ASSISTANT_PREFIX + " all good")

    note = Note(id="n1", text="all good", labels=frozenset())
    result = expand.Expander(_live_config(tmp_path), post_fn=post).expand_note(
        note, segment(note.text)
    )
    assert result.expanded_text == "all good"
    assert slept == [wait]


@pytest.mark.parametrize("finish_reason", ["stop", None], ids=["stop", "missing"])
def test_complete_endpoint_response_is_accepted(tmp_path, finish_reason):
    def post(url, payload, timeout):
        response = _response(expand.ASSISTANT_PREFIX + " pt has shortness of breath")
        if finish_reason is not None:
            response["choices"][0]["finish_reason"] = finish_reason
        return response

    note = Note(id="n1", text="pt has sob", labels=frozenset())
    result = expand.Expander(_live_config(tmp_path), post_fn=post).expand_note(
        note, segment(note.text)
    )
    assert result.expanded_text == "pt has shortness of breath"
    assert [s.source for s in result.sections] == ["llm"]


def test_mock_mode_requires_dictionary():
    config = expand.ExpanderConfig(mode="mock")
    with pytest.raises(ValueError):
        expand.Expander(config)


def test_live_mode_requires_endpoint_and_cache():
    with pytest.raises(ValueError):
        expand.ExpanderConfig(model_name="m", mode="live", cache_dir="/tmp/x")
    with pytest.raises(ValueError):
        expand.ExpanderConfig(
            endpoint_url="http://unit.test", model_name="m", mode="live"
        )


def test_section_whitespace_reattached(tmp_path):
    # responses come back stripped; the section's outer whitespace survives
    def post(url, payload, timeout):
        return _response("expanded core")

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    note = Note(id="n1", text="  original core  \n", labels=frozenset())
    result = expand.Expander(config, post_fn=post).expand_note(
        note, segment(note.text)
    )
    assert result.expanded_text == "  expanded core  \n"


@pytest.mark.parametrize("content", ["", "  \n", expand.ASSISTANT_PREFIX + "  "],
                         ids=["empty", "whitespace", "prefix-only"])
def test_empty_live_response_is_refused_and_not_cached(tmp_path, content):
    def post(url, payload, timeout):
        return _response(content)

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    note = Note(id="n1", text="pt has sob\n", labels=frozenset())
    with pytest.raises(expand.ExpanderError, match="n1.*endpoint response is empty"):
        expand.Expander(config, post_fn=post).expand_note(note, segment(note.text))
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("mode", ["live", "cache-only"])
def test_empty_cached_response_is_refused(tmp_path, mode):
    note = Note(id="n1", text="pt has sob\n", labels=frozenset())
    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode=mode
    )
    request = expand._request_payload(config, expand.build_user_message(note.text))
    key = expand._cache_key(request)
    entry = tmp_path / key[:2] / f"{key}.txt"
    entry.parent.mkdir()
    entry.write_text(expand.ASSISTANT_PREFIX)
    calls = []

    def post(url, payload, timeout):
        calls.append(payload)
        return _response("pt has shortness of breath")

    with pytest.raises(expand.ExpanderError, match="cached response .* is empty"):
        expand.Expander(config, post_fn=post).expand_note(note, segment(note.text))
    assert calls == []


def test_empty_response_for_a_blank_section_is_kept(tmp_path):
    def post(url, payload, timeout):
        return _response("")

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    note = Note(id="n1", text="   \n", labels=frozenset())
    result = expand.Expander(config, post_fn=post).expand_note(note, segment(note.text))
    assert [s.source for s in result.sections] == ["llm"]
    assert result.expanded_text == "   \n"


def test_expand_notes_double_expansion_counts(tmp_path):
    # chunked requests still expand each note section exactly once per call
    notes = [
        Note(id="n1", text="hpi: one. two.\n", labels=frozenset()),
        Note(id="n2", text="hpi: three.\n", labels=frozenset()),
    ]
    sections = {n.id: segment(n.text) for n in notes}
    seen = []

    def post(url, payload, timeout):
        body = payload["messages"][1]["content"][len(expand.USER_PROMPT_PREFIX) :]
        seen.append(body)
        return _response(body)

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test",
        model_name="m",
        cache_dir=tmp_path,
        mode="live",
        request_token_budget=1,
    )
    expander = expand.Expander(config, post_fn=post)
    results = expand.expand_notes(notes, sections, expander)
    assert [r.expanded_text for r in results] == [n.text for n in notes]
    # "hpi: one." and " two." for n1, "hpi: three." for n2
    assert len(seen) == 3


def test_expanded_note_rejects_mismatched_join():
    with pytest.raises(ValueError):
        expand.ExpandedNote(
            note_id="n1",
            expanded_text="abc",
            sections=(
                expand.SectionExpansion(original="a", expanded="zzz", source="mock"),
            ),
        )


def test_cache_files_store_raw_response(tmp_path):
    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live"
    )
    raw = expand.ASSISTANT_PREFIX + " body text"

    def post(url, payload, timeout):
        return _response(raw)

    note = Note(id="n1", text="body text", labels=frozenset())
    expand.Expander(config, post_fn=post).expand_note(note, segment(note.text))
    files = list(tmp_path.rglob("*.txt"))
    assert len(files) == 1
    assert files[0].read_text() == raw
    # two-hex fan-out keeps directories small
    assert files[0].parent.name == files[0].name[:2]


def test_a_failed_note_stops_the_notes_not_yet_started(tmp_path):
    notes = [Note(id=f"n{i}", text=f"text of note {i}.", labels=frozenset()) for i in range(20)]
    calls = []

    def post(url, payload, timeout):
        paragraph = payload["messages"][1]["content"][len(expand.USER_PROMPT_PREFIX):]
        calls.append(paragraph)
        if paragraph == "text of note 0.":
            raise _http_error(400)
        time.sleep(0.01)
        return _response(paragraph)

    config = expand.ExpanderConfig(
        endpoint_url="http://unit.test", model_name="m", cache_dir=tmp_path, mode="live",
        max_inflight=2,
    )
    with pytest.raises(expand.ExpanderError, match="note 'n0' section 0: .* 400"):
        expand.expand_notes(
            notes, {n.id: segment(n.text) for n in notes}, expand.Expander(config, post_fn=post)
        )
    assert len(calls) < 20


# --- the default client over a loopback socket ---

NOTE_TEXT = "pt has sob at 37.5°C\n"

# What the client built on `requests` sent for NOTE_TEXT with model "m" and
# the credential "sekrit", read off a loopback socket. The standard-library
# client must send the same bytes and headers.
SENT_BODY = (
    b'{"model": "m", "messages": [{"role": "system", "content": "You are a helpful '
    b'assistant."}, {"role": "user", "content": "Expand all acronyms to their full forms '
    b'while preserving all the details in the following paragraph, do not mention the '
    b'acronyms again. Paragraph: pt has sob at 37.5\\u00b0C\\n"}, {"role": "assistant", '
    b'"content": "Here is the paragraph with all acronyms expanded to their full forms:"}], '
    b'"temperature": 0.0}'
)
SENT_CONTENT_TYPE = "application/json"
SENT_AUTHORIZATION = "Bearer sekrit"

RETRY_CAP = 0.05  # seconds; stands in for _MAX_RETRY_WAIT so retries are quick


def _expand_live(tmp_path, endpoint_url, *argv, timeout=10.0):
    """Run ``expand --mode live`` on NOTE_TEXT through ``cli.main``; its exit code.

    ``argv`` comes last, so a ``--mode`` in it wins.
    """
    notes = tmp_path / "notes.jsonl"
    notes.write_text(json.dumps({"id": "n1", "text": NOTE_TEXT, "labels": []}) + "\n")
    config = tmp_path / "run.ini"
    config.write_text(f"[expander]\nmax_retries = 2\ntimeout_seconds = {timeout}\n")
    return cli.main([
        "expand", "--config", str(config), "--output-dir", str(tmp_path / "out"),
        "--notes", str(notes), "--mode", "live", "--endpoint-url", endpoint_url,
        "--model-name", "m", "--cache-dir", str(tmp_path / "cache"), *argv,
    ])


@pytest.fixture
def waits(monkeypatch):
    """The wait before each retry, in order; every wait is capped at RETRY_CAP."""
    monkeypatch.setattr(expand, "_MAX_RETRY_WAIT", RETRY_CAP)
    seen = []
    real = expand._retry_wait

    def retry_wait(error, attempt):
        seen.append(real(error, attempt))
        return seen[-1]

    monkeypatch.setattr(expand, "_retry_wait", retry_wait)
    return seen


# (script, attempts, cause in the error, or None for success, wait before each retry)
LIVE_CASES = {
    "200": (["ok"], 1, None, RETRY_CAP),
    "503-then-200": (["503", "ok"], 2, None, RETRY_CAP),
    "429": (["429"], 3, r"after 3 attempts: <HTTPError 429: 'Too Many Requests'>", RETRY_CAP),
    "429-retry-after": (["429-retry-after-0"], 3, r"after 3 attempts: <HTTPError 429", 0.0),
    "503": (["503"], 3, r"after 3 attempts: <HTTPError 503: 'Service Unavailable'>", RETRY_CAP),
    "400": (["400"], 1, r"refused the request: HTTP Error 400: Bad Request$", None),
    "302": (["302"], 1, r"refused the request: HTTP Error 302: Found$", None),
    "308": (["308"], 1, r"refused the request: HTTP Error 308: Permanent Redirect$", None),
    "not-json": (["not-json"], 1, r"endpoint response is not JSON: Expecting value", None),
    "no-choices": (["no-choices"], 1, r"no choices\[0\]\.message\.content: IndexError", None),
    "length": (["length"], 1, r"truncated at the token limit \(finish_reason 'length'\)$", None),
    "slow": (["slow"], 3, r"after 3 attempts: TimeoutError\('timed out'\)$", RETRY_CAP),
    "close": (["close"], 3, r"after 3 attempts: RemoteDisconnected\('Remote end closed", RETRY_CAP),
    "mid-body": (["mid-body"], 3, r"after 3 attempts: IncompleteRead\(13 bytes read, 87 more",
                 RETRY_CAP),
    "garbage": (["garbage"], 3, r"after 3 attempts: BadStatusLine\('garbage", RETRY_CAP),
}


@pytest.mark.parametrize("case", LIVE_CASES)
def test_live_endpoint_faults_follow_the_retry_rule(case, endpoint, waits, tmp_path, capsys,
                                                    monkeypatch):
    script, attempts, cause, wait = LIVE_CASES[case]
    monkeypatch.setenv(expand.API_KEY_ENV_VAR, "sekrit")
    endpoint.script = script
    code = _expand_live(tmp_path, endpoint.url, timeout=0.3 if case == "slow" else 10.0)
    err = capsys.readouterr().err

    assert len(endpoint.requests) == attempts
    assert waits == [wait] * (attempts - 1)
    for method, path, headers, body in endpoint.requests:
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert body == SENT_BODY
        assert headers["Content-Type"] == SENT_CONTENT_TYPE
        assert headers["Authorization"] == SENT_AUTHORIZATION
    out, cache = tmp_path / "out", tmp_path / "cache"
    if cause is not None:
        assert code == 1
        record = json.loads(err)
        assert record["type"] == "ExpanderError"
        assert record["error"].startswith("note 'n1' section 0: ")
        assert re.search(cause, record["error"]), record["error"]
        assert not [p for p in cache.rglob("*") if p.is_file()]
        assert not (out / "expanded.jsonl").exists()
        return
    assert code == 0
    live = json.loads((out / "expanded.jsonl").read_text())
    assert live["expanded_text"] == "pt has shortness of breath at 37.5°C\n"
    assert [s["source"] for s in live["sections"]] == ["llm"]
    (out / "expanded.jsonl").unlink()
    assert _expand_live(tmp_path, endpoint.url, "--mode", "cache-only") == 0
    replayed = json.loads((out / "expanded.jsonl").read_text())
    assert replayed["expanded_text"] == live["expanded_text"]
    assert [s["source"] for s in replayed["sections"]] == ["cache"]
    assert len(endpoint.requests) == attempts


@pytest.mark.parametrize("planted, cause", [
    ("directory", "cannot be read: "),
    ("not-utf8", "is not UTF-8 text: "),
])
@pytest.mark.parametrize("mode", ["live", "cache-only"])
def test_a_cache_path_that_is_no_readable_file_fails_naming_it_before_any_request(
        mode, planted, cause, endpoint, waits, tmp_path, capsys):
    probe = tmp_path / "probe"
    probe.mkdir()
    assert _expand_live(probe, endpoint.url) == 0
    [cached] = (probe / "cache").rglob("*.txt")
    path = tmp_path / "cache" / cached.relative_to(probe / "cache")
    if planted == "directory":
        path.mkdir(parents=True)
    else:
        path.parent.mkdir(parents=True)
        path.write_bytes(b"pt has \xc0\n")
    endpoint.requests.clear()
    capsys.readouterr()

    assert _expand_live(tmp_path, endpoint.url, "--mode", mode) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["type"] == "ExpanderError"
    assert record["error"].startswith(f"note 'n1' section 0: cache file {path} {cause}")
    assert endpoint.requests == []
    assert not (tmp_path / "out" / "expanded.jsonl").exists()


@pytest.mark.parametrize("url", ["htp://x/v1", "no-scheme", "http:///v1", "http://x:port/v1"])
def test_unusable_endpoint_url_fails_at_once_naming_it(url, waits, tmp_path, capsys):
    assert _expand_live(tmp_path, url) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["type"] == "ExpanderError"
    assert record["error"].startswith(f"note 'n1' section 0: unusable endpoint URL {url!r}: ")
    assert waits == []


def test_expanded_file_is_the_same_at_any_max_inflight(endpoint, tmp_path):
    notes = tmp_path / "notes.jsonl"
    notes.write_text("".join(
        json.dumps({"id": f"n{i}", "labels": [],
                    "text": f"hpi: pt {i} has sob.\nplan: recheck hr of pt {i} today.\n"}) + "\n"
        for i in range(6)
    ))
    # the first note is answered last whenever later notes are in flight with it
    endpoint.delay = lambda paragraph: 0.3 if "pt 0 " in paragraph else 0.0
    outputs = {}
    for inflight in ("1", "4"):
        endpoint.answered.clear()
        run = tmp_path / f"inflight-{inflight}"
        assert cli.main([
            "expand", "--output-dir", str(run), "--notes", str(notes), "--mode", "live",
            "--endpoint-url", endpoint.url, "--model-name", "m",
            "--cache-dir", str(run / "cache"), "--max-inflight", inflight,
        ]) == 0
        outputs[inflight] = {
            str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()
        }
        order = [next(i for i in range(6) if f"pt {i} " in p) for p in endpoint.answered]
        assert (order == sorted(order)) == (inflight == "1"), order
    assert outputs["1"] == outputs["4"]
    assert len(endpoint.requests) == 2 * 12


def test_default_post_sends_credential_from_env(endpoint, monkeypatch):
    config = expand.ExpanderConfig(model_name="m")
    payload = expand._request_payload(config, expand.build_user_message(NOTE_TEXT))
    monkeypatch.delenv(expand.API_KEY_ENV_VAR, raising=False)
    answer = expand._default_post(endpoint.url, payload, 10.0)
    assert answer["choices"][0]["message"]["content"].endswith("shortness of breath at 37.5°C\n")
    monkeypatch.setenv(expand.API_KEY_ENV_VAR, "sekrit")
    expand._default_post(endpoint.url, payload, 10.0)
    (_, _, without, body), (_, _, with_key, _) = endpoint.requests
    assert body == SENT_BODY
    assert "Authorization" not in without
    assert with_key["Authorization"] == SENT_AUTHORIZATION
