"""Exception hierarchy shared across the pipeline, and the one reader of
input JSON: parse_json turns every decode failure of an input document
into MalformedInput, and read_input reads an input file and names it in
the error. Model replies are not input files and keep their own decoding.

The CLI maps these onto exit codes: transport failures exit 4, every
other error exits 2 (bad input), and a session that ends without a
usable conclusion exits 3 without raising. Each class below is one that
some `except` or retry decision tells apart from its parent:

- GestureLinkError: caught by the CLI, `eval` and the tune loaders.
- MalformedInput: caught where a loader names the file it came from
  (read_input, the transport and prompt loaders, load_manifest).
- DegenerateGeometry: raised only by the one-frame views finger_curl_deg,
  thumb_direction_measurement and palm_orientation_measurement; the
  batched readings return NaN instead, and nothing in the package catches it.
- CalculatorFailure: caught by resolve_placeholders, which writes an
  unavailability note instead.
- TransportError: exits 4; RetryingBackend retries it.
- AuthError, FixtureExhausted: exit 4; RetryingBackend never retries them.
- ParseError: caught by the agents, which ask for a repaired reply
  and, failing that, fall back or end the session Negative.
"""

import json
from pathlib import Path


class GestureLinkError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(GestureLinkError):
    """Input is malformed or invalid: bad bytes, JSON, schema or value."""


class DegenerateGeometry(GestureLinkError):
    """A geometric construction collapsed (zero-length bone, zero normal).

    Raised by the one-frame views finger_curl_deg, thumb_direction_measurement
    and palm_orientation_measurement. The batched readings the encoder and
    the tuner use read such a frame as NaN, so its verdict is unsure/unknown.
    """


class CalculatorFailure(GestureLinkError):
    """A placeholder names no calculator, or its calculator failed;
    diagnostics are attached."""

    def __init__(self, message: str, diagnostics: str = ""):
        super().__init__(message)
        self.diagnostics = diagnostics


class TransportError(GestureLinkError):
    """Completion backend failed (network, rate limit, HTTP 5xx, exhausted
    retries). retry_after holds the server's Retry-After delay in seconds,
    if it sent one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthError(TransportError):
    """Missing or rejected credentials; never retried."""


class FixtureExhausted(TransportError):
    """Scripted backend ran out of fixture responses."""


class ParseError(GestureLinkError):
    """Model response could not be parsed into the expected shape."""


def parse_json(text: str | bytes, **json_kwargs):
    """json.loads(text, **json_kwargs) with bytes decoded as strict UTF-8;
    MalformedInput for every decode failure, UTF-16/32 bytes and a BOM too."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, **json_kwargs)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise MalformedInput(f"not valid JSON: {exc}") from exc


def read_input(path: str | Path, parse=parse_json):
    """parse(the text of path), naming the file in the error if it is
    malformed. The bytes are freed once decoded, before parse runs."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not valid JSON: {exc}") from exc
    except (MalformedInput, ValueError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
