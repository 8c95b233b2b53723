"""Acronym expansion of note sections via a chat-completions endpoint.

``live`` and ``cache-only`` share one code path, which splits a section into
request chunks and looks each up in the on-disk response cache, keyed by the
full request: ``live`` calls the endpoint on a miss, ``cache-only`` fails.
``mock`` skips that path and applies an offline dictionary substitution to
the whole section, so pipelines stay runnable and deterministic without any
network access.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .align import standalone_pattern
from .corpus import Note, read_tsv, replace_file
from .segment import Section, token_count

SYSTEM_MESSAGE = "You are a helpful assistant."
USER_PROMPT_PREFIX = (
    "Expand all acronyms to their full forms while preserving all the details "
    "in the following paragraph, do not mention the acronyms again. Paragraph: "
)
ASSISTANT_PREFIX = "Here is the paragraph with all acronyms expanded to their full forms:"

SOURCE_LLM = "llm"
SOURCE_MOCK = "mock"
SOURCE_CACHE = "cache"

MODE_LIVE = "live"
MODE_MOCK = "mock"
MODE_CACHE_ONLY = "cache-only"

_SENTENCE_END_RE = re.compile(r"[.?!](?=\s)")


class ExpanderError(RuntimeError):
    """Raised when a section cannot be expanded in the configured mode."""


@dataclass
class ExpanderConfig:
    endpoint_url: str = ""
    model_name: str = ""
    max_inflight: int = 1
    temperature: float = 0.0
    cache_dir: str | Path | None = None
    mode: str = MODE_MOCK
    max_retries: int = 3
    timeout_seconds: float = 60.0
    max_response_tokens: int | None = None
    request_token_budget: int = 1000

    def __post_init__(self) -> None:
        if self.mode not in (MODE_LIVE, MODE_MOCK, MODE_CACHE_ONLY):
            raise ValueError(f"unknown expander mode {self.mode!r}")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.request_token_budget < 1:
            raise ValueError("request_token_budget must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ValueError("timeout_seconds must be a finite number > 0")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if self.max_response_tokens is not None and self.max_response_tokens < 1:
            raise ValueError("max_response_tokens must be >= 1")
        if self.mode == MODE_LIVE and not self.endpoint_url:
            raise ValueError("live mode requires endpoint_url")
        if self.mode in (MODE_LIVE, MODE_CACHE_ONLY) and self.cache_dir is None:
            raise ValueError(f"{self.mode} mode requires cache_dir")


@dataclass(frozen=True)
class SectionExpansion:
    """Provenance entry for one section: what went in, what came out, and how."""

    original: str
    expanded: str
    source: str


@dataclass(frozen=True)
class ExpandedNote:
    note_id: str
    expanded_text: str
    sections: tuple[SectionExpansion, ...]

    def __post_init__(self) -> None:
        joined = "".join(s.expanded for s in self.sections)
        if self.expanded_text != joined:
            raise ValueError(
                f"note {self.note_id!r}: expanded_text does not equal the join "
                "of its section expansions"
            )

    @classmethod
    def from_sections(cls, note_id: str, sections: Sequence[SectionExpansion]) -> "ExpandedNote":
        return cls(
            note_id=note_id,
            expanded_text="".join(s.expanded for s in sections),
            sections=tuple(sections),
        )


def load_mock_dictionary(path: str | Path) -> dict[str, str]:
    """Read abbreviation -> full-form pairs, one tab-separated pair per line."""
    out: dict[str, str] = {}
    for where, (abbreviation, full_form) in read_tsv(path, 2):
        if not abbreviation or not full_form:
            raise ValueError(f"{where}: expected abbreviation<TAB>full form")
        key = abbreviation.lower()
        if key in out:
            raise ValueError(f"{where}: duplicate abbreviation {abbreviation!r}")
        out[key] = full_form
    return out


def _mock_substituter(dictionary: Mapping[str, str]) -> Callable[[str], str]:
    """``mock_expand`` with ``dictionary`` bound, its pattern compiled once."""
    if not dictionary:
        return lambda text: text
    lowered = {key.lower(): value for key, value in dictionary.items()}
    ordered = sorted(lowered, key=len, reverse=True)
    pattern = standalone_pattern(ordered)

    def replace(match: re.Match[str]) -> str:
        occurrence = match[0]
        value = lowered.get(occurrence.lower())
        if value is None:  # matched only through re's wider folding, as "ſ" matches "s"
            value = next(
                lowered[k] for k in ordered
                if len(k) == len(occurrence)
                and re.fullmatch(re.escape(k), occurrence, re.IGNORECASE)
            )
        return value

    return lambda text: pattern.sub(replace, text)


def mock_expand(text: str, dictionary: Mapping[str, str]) -> str:
    """Dictionary-substitute every standalone occurrence of a known abbreviation.

    Occurrences are those ``align.standalone_pattern`` finds, the rule
    occurrence indexes count by: case-insensitive as under re.IGNORECASE,
    touched by no letter or digit on either side, and of the longest key
    when keys overlap. An occurrence takes the full form of
    the key equal to it in lower case; one that matched only through
    re's wider case folding (``ſ`` for ``s``) takes that of the first key,
    longest first and then in dictionary order, that it matched. A single
    pass never rescans its own replacements.
    """
    return _mock_substituter(dictionary)(text)


def build_user_message(section_text: str) -> str:
    return USER_PROMPT_PREFIX + section_text


def clean_response(text: str) -> str:
    """Strip echoes of the seeded assistant prefix from a model response."""
    cleaned = text.lstrip()
    prefix = ASSISTANT_PREFIX.lower()
    while cleaned.lower().startswith(prefix):
        cleaned = cleaned[len(ASSISTANT_PREFIX):].lstrip()
    return cleaned


def split_for_request(text: str, budget: int) -> list[str]:
    """Split an oversized section at sentence ends into budget-sized chunks.

    A sentence end is '.', '?', or '!' followed by whitespace. Chunks
    concatenate back to the input exactly; a single overlong sentence is
    left whole.
    """
    if token_count(text) <= budget:
        return [text]
    bounds = [0]
    for m in _SENTENCE_END_RE.finditer(text):
        if m.end() > bounds[-1]:
            bounds.append(m.end())
    if bounds[-1] < len(text):
        bounds.append(len(text))
    pieces = [text[s:e] for s, e in zip(bounds, bounds[1:])]
    chunks: list[str] = []
    current = ""
    current_tokens = 0
    for piece in pieces:
        piece_tokens = token_count(piece)
        # a tokenless piece (trailing whitespace) always rides along
        if current and piece_tokens and current_tokens + piece_tokens > budget:
            chunks.append(current)
            current = piece
            current_tokens = piece_tokens
        else:
            current += piece
            current_tokens += piece_tokens
    if current:
        chunks.append(current)
    return chunks


# The endpoint credential deliberately never appears in config files or
# flags; it is read from the environment at call time only.
API_KEY_ENV_VAR = "ACROCODE_API_KEY"


_MAX_RETRY_WAIT = 8.0  # seconds


def _retry_wait(error: Exception | None, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1 for the first retry).

    A 429 or 503 response's ``Retry-After`` header in delta seconds sets the
    wait; any other failure, an HTTP-date, a malformed value or no header
    gives the exponential schedule. Both are capped at ``_MAX_RETRY_WAIT``.
    """
    header = ""
    if isinstance(error, urllib.error.HTTPError) and error.code in (429, 503):
        header = error.headers.get("Retry-After", "").strip()
    if header.isascii() and header.isdigit():
        return min(float(header), _MAX_RETRY_WAIT)
    return min(2.0 ** (attempt - 1), _MAX_RETRY_WAIT)


class _RefuseRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args):  # urllib re-sends a 301-303 POST as a GET, bearer and all
        return None


def _default_post(url: str, payload: dict, timeout: float) -> dict:
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV_VAR)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    try:
        request = urllib.request.Request(url, body, headers)
        if request.type not in ("http", "https") or not request.host:
            raise ValueError("expected http:// or https:// and a host")
        response = urllib.request.build_opener(_RefuseRedirect).open(request, timeout=timeout)
    except (ValueError, http.client.InvalidURL) as exc:
        raise ExpanderError(f"unusable endpoint URL {url!r}: {exc}") from exc
    with response:
        return json.loads(response.read())


class Expander:
    """Expands the sections of a note according to the configured mode."""

    def __init__(
        self,
        config: ExpanderConfig,
        dictionary: Mapping[str, str] | None = None,
        post_fn: Callable[[str, dict, float], dict] | None = None,
    ) -> None:
        if config.mode == MODE_MOCK and dictionary is None:
            raise ValueError("mock mode requires a dictionary")
        self.config = config
        self._post = post_fn or _default_post
        if config.mode == MODE_MOCK:
            self._mock = _mock_substituter(dictionary)

    def expand_note(self, note: Note, sections: Sequence[Section]) -> ExpandedNote:
        results: list[SectionExpansion] = []
        for index, section in enumerate(sections):
            try:
                expanded, source = self._expand_body(section.body)
            except ExpanderError as exc:
                raise ExpanderError(
                    f"note {note.id!r} section {index}: {exc}"
                ) from exc
            results.append(
                SectionExpansion(original=section.body, expanded=expanded, source=source)
            )
        return ExpandedNote.from_sections(note.id, results)

    def _expand_body(self, body: str) -> tuple[str, str]:
        if self.config.mode == MODE_MOCK:
            return self._mock(body), SOURCE_MOCK
        chunks = split_for_request(body, self.config.request_token_budget)
        outputs: list[str] = []
        sources: list[str] = []
        for chunk in chunks:
            text, source = self._expand_chunk(chunk)
            outputs.append(text)
            sources.append(source)
        merged = "".join(
            _reattach_whitespace(chunk, out) for chunk, out in zip(chunks, outputs)
        )
        source = SOURCE_LLM if SOURCE_LLM in sources else SOURCE_CACHE
        return merged, source

    def _expand_chunk(self, chunk: str) -> tuple[str, str]:
        payload = _request_payload(self.config, build_user_message(chunk))
        key = _cache_key(payload)
        cached = self._cache_read(key)
        if cached is not None:
            return _nonempty_response(chunk, cached, f"cached response {key}"), SOURCE_CACHE
        if self.config.mode == MODE_CACHE_ONLY:
            raise ExpanderError(f"cache miss for key {key} in cache-only mode")
        raw = self._call_endpoint(payload)
        text = _nonempty_response(chunk, raw, "endpoint response")
        self._cache_write(key, raw)
        return text, SOURCE_LLM

    def _call_endpoint(self, payload: dict) -> str:
        """The response text, retrying only failures that may pass on their own.

        429 and 5xx responses, network errors (timeouts, refused or dropped
        connections, answers cut short) and malformed answers (a garbled
        status line) are retried with backoff, or after the wait a 429 or 503
        asks for in ``Retry-After``. Any other HTTP status (a redirect too), a
        body that is not JSON, a payload without ``choices[0].message.content``
        text, or a response cut at the token limit (``finish_reason``
        ``"length"``) would fail the same way again, so they raise at once.
        """
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(_retry_wait(last_error, attempt))
            try:
                data = self._post(
                    self.config.endpoint_url, payload, self.config.timeout_seconds
                )
            except urllib.error.HTTPError as exc:  # an OSError too, so it comes first
                exc.close()  # the response it holds; its status and headers stay
                if exc.code != 429 and not 500 <= exc.code <= 599:
                    raise ExpanderError(f"endpoint refused the request: {exc}") from exc
                last_error = exc
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            except ValueError as exc:
                raise ExpanderError(f"endpoint response is not JSON: {exc}") from exc
            try:
                choice = data["choices"][0]
                content = choice["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise ExpanderError(
                    f"malformed endpoint payload, no choices[0].message.content: {exc!r}"
                ) from exc
            if not isinstance(content, str):
                raise ExpanderError(
                    f"malformed endpoint payload, content is {type(content).__name__}"
                )
            if choice.get("finish_reason") == "length":
                raise ExpanderError(
                    "endpoint response was truncated at the token limit (finish_reason 'length')"
                )
            return content
        raise ExpanderError(
            f"endpoint failed after {self.config.max_retries + 1} attempts: {last_error!r}"
        )

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.config.cache_dir, key[:2], f"{key}.txt")

    def _cache_read(self, key: str) -> str | None:
        """The cached response, or None when nothing is at the cache path.

        Anything else there, such as a directory or a file that cannot be
        read or is not UTF-8, fails naming the path, before any request.
        """
        path = self._cache_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            return None
        except UnicodeDecodeError as exc:
            raise ExpanderError(f"cache file {path} is not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise ExpanderError(f"cache file {path} cannot be read: {exc}") from exc

    def _cache_write(self, key: str, text: str) -> None:
        path = self._cache_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with replace_file(path) as fh:
            fh.write(text)


def expand_notes(
    notes: Sequence[Note],
    sections_by_note: Mapping[str, Sequence[Section]],
    expander: Expander,
) -> list[ExpandedNote]:
    """Expand many notes, up to ``max_inflight`` at once; mock mode runs one at a time."""
    workers = expander.config.max_inflight
    if workers <= 1 or expander.config.mode == MODE_MOCK:
        return [expander.expand_note(n, sections_by_note[n.id]) for n in notes]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(expander.expand_note, n, sections_by_note[n.id]) for n in notes
        ]
        # After the first failure, notes not yet started are never sent. Notes
        # start in order, so a failure is read before any cancelled note.
        wait(futures, return_when=FIRST_EXCEPTION)
        pool.shutdown(cancel_futures=True)
        return [f.result() for f in futures]


def _request_payload(config: ExpanderConfig, prompt: str) -> dict:
    """The chat-completions request body sent for one user prompt."""
    payload = {
        "model": config.model_name,
        "messages": [
            {"role": "system", "content": SYSTEM_MESSAGE},
            {"role": "user", "content": prompt},
            {"role": "assistant", "content": ASSISTANT_PREFIX},
        ],
        "temperature": config.temperature,
    }
    if config.max_response_tokens is not None:
        payload["max_tokens"] = config.max_response_tokens
    return payload


def _cache_key(payload: dict) -> str:
    """Digest of everything the endpoint is sent, so any change to it misses."""
    material = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(material).hexdigest()


def _nonempty_response(chunk: str, raw: str, what: str) -> str:
    """The cleaned response, refusing an empty one for text that is not blank.

    An empty answer, or one that only echoes the assistant prefix, would
    otherwise replace the section with nothing.
    """
    text = clean_response(raw)
    if not text and chunk.strip():
        raise ExpanderError(f"{what} is empty after cleaning for a non-blank section")
    return text


def _reattach_whitespace(original: str, expanded: str) -> str:
    """Give an endpoint response the same outer whitespace as the source text.

    Keeps section boundaries intact when responses drop the trailing newline.
    A blank response is only accepted for a blank source, which is kept as is.
    """
    core = expanded.strip()
    lead = original[: len(original) - len(original.lstrip())]
    trail = original[len(original.rstrip()):]
    if not core:
        return original
    return lead + core + trail
