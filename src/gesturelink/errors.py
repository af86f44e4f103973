"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: transport failures exit 4, every
other error exits 2 (bad input), and a session that ends without a
usable conclusion exits 3 without raising. Each class below is one that
some `except` or retry decision tells apart from its parent:

- GestureLinkError: caught by the CLI, `eval` and the tune loaders.
- MalformedInput: caught where a loader names the file it came from
  (cli._read_file, the transport and prompt loaders, load_manifest).
- DegenerateGeometry: caught by the rules, which read it as undecided.
- CalculatorFailure: caught by resolve_placeholders, which writes an
  unavailability note instead.
- TransportError: exits 4; RetryingBackend retries it.
- AuthError, FixtureExhausted: exit 4; RetryingBackend never retries them.
- ParseError: caught by the agents, which ask for a repaired reply
  and, failing that, fall back or end the session Negative.
"""


class GestureLinkError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(GestureLinkError):
    """Input is malformed or invalid: bad bytes, JSON, schema or value."""


class DegenerateGeometry(GestureLinkError):
    """A geometric construction collapsed (zero-length bone, zero normal).

    Rule calculators catch this and report an unsure/unknown verdict.
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
