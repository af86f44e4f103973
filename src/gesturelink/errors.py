"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: input/validation problems exit 2,
a session that ends without a usable conclusion exits 3, transport
failures exit 4.
"""


class GestureLinkError(Exception):
    """Base class for all errors raised by this package."""


# --- landmark stream parsing ---

class MalformedInput(GestureLinkError):
    """Input bytes are not valid JSON or do not match the stream schema."""


class BadLandmarkCount(MalformedInput):
    """A frame does not carry exactly 21 landmarks."""


class NonMonotonicTimestamps(MalformedInput):
    """Frame timestamps are not strictly increasing."""


class UnknownLandmarkName(GestureLinkError):
    """Requested landmark name is not one of the 21 canonical names."""


# --- geometry / rules ---

class DegenerateGeometry(GestureLinkError):
    """A geometric construction collapsed (zero-length bone, zero normal).

    Rule calculators catch this and report an unsure/unknown verdict.
    """


# --- gesture segmentation ---

class LeftHandUnsupported(GestureLinkError):
    """Encoder received a left-hand stream; only right hands are encoded."""


class EmptyStream(GestureLinkError):
    """Stream contains no frames."""


# --- threshold tuning ---

class StateSpaceMismatch(GestureLinkError):
    """Prediction or label uses states outside the rule's state space."""


class EmptyDataset(GestureLinkError):
    """An aggregate was requested over zero samples."""


class EmptyGrid(GestureLinkError):
    """Grid specification expands to zero cells."""


class AmbiguousLabelPresent(GestureLinkError):
    """Tuning dataset still contains a label with more than one acceptable state."""


# --- context library ---

class DuplicateName(GestureLinkError):
    """Context type with this name already exists in the library."""


class UnknownContext(GestureLinkError):
    """No context type with the requested name."""


class UnknownCalculator(GestureLinkError):
    """Placeholder names a calculator that is not registered."""


class CalculatorFailure(GestureLinkError):
    """A calculator raised or exited nonzero; diagnostics are attached."""

    def __init__(self, message: str, diagnostics: str = ""):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- LLM transport / orchestration ---

class TransportError(GestureLinkError):
    """Completion backend failed (network, HTTP 5xx, exhausted retries).
    retry_after holds the server's Retry-After delay in seconds, if it sent one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthError(TransportError):
    """Missing or rejected credentials; never retried."""


class RateLimited(TransportError):
    """Backend signalled rate limiting; retryable."""


class FixtureExhausted(TransportError):
    """Scripted backend ran out of fixture responses."""


class ParseError(GestureLinkError):
    """Model response could not be parsed into the expected shape."""
