"""Context library: named context types served to the agent dialogue.

A library stores ordered context types (markdown description + JSON
values) and supports adding types and calculating derived values through
placeholder tokens of the form ``{{CALC:<id>}}`` or
``{{CALC:<id>:<json-args>}}``.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import CalculatorFailure, MalformedInput

logger = logging.getLogger(__name__)

# A placeholder up to its arguments' colon, or whole when it has none.
_OPENER_RE = re.compile(r"\{\{CALC:([A-Za-z0-9_\-]+)(:|\}\})")
_BRACES_RE = re.compile(r"\}*")

# Gaze samples within this many seconds of the newest sample count as
# "recent" for the built-in gaze calculators. The window length is an
# artifact choice, not a tuned value.
GAZE_WINDOW_SECONDS = 1.0

# gaze_target's numpy screen keeps the functions whose squared distance
# lies within this relative margin, plus _SCREEN_SLACK, of the smallest.
# numpy's x * x and sum round differently from ** and sum by a few ulps,
# so the exact loop's winner is always among them. At _SCREEN_LIMIT or
# above, a term could overflow in ** (which raises) and not in numpy, so
# the screen gives way to the whole loop.
_SCREEN_REL = 1e-9
_SCREEN_SLACK = 1e-300
_SCREEN_LIMIT = 1e300


@dataclass(frozen=True)
class ContextType:
    """One named context: markdown description and structured values."""

    name: str
    description_md: str
    values: Any = None

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise MalformedInput(f"context name must be a non-empty string, got {self.name!r}")
        if not (isinstance(self.description_md, str) and self.description_md.strip()):
            raise MalformedInput(f"context {self.name} needs a non-empty description string")


@dataclass(frozen=True)
class FunctionEntry:
    """One interface function: unique id, display name, and a 2D or 3D
    location in the interface's coordinate system."""

    id: str
    name: str
    location: tuple[float, ...]


# A calculator derives a text answer from the library and the placeholder's
# JSON arguments.
Calculator = Callable[["ContextLibrary", dict], str]


class ContextLibrary:
    """Ordered map of context types. The function_list context's values
    are parsed here, once, and every reader uses that parse.

    Reads never mutate; add_context_type returns a new library so shared
    instances stay safe across concurrent sessions.
    """

    def __init__(self, contexts: Sequence[ContextType] = (),
                 functions: Sequence[FunctionEntry] | None = None):
        """functions, if given, is the caller's parse of the function_list context."""
        self._entries: dict[str, ContextType] = {}
        for ctx in contexts:
            if ctx.name in self._entries:
                raise MalformedInput(f"duplicate context name: {ctx.name!r}")
            self._entries[ctx.name] = ctx
        listing = self._entries.get("function_list")
        if functions is None:
            functions = () if listing is None else parse_function_list(listing.values)
        self._functions = tuple(functions)
        self._function_list_text = _render_function_list(self._functions)
        self._locations = _function_locations(self._functions)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def names(self) -> list[str]:
        return list(self._entries)

    def get(self, name: str) -> ContextType:
        try:
            return self._entries[name]
        except KeyError:
            raise MalformedInput(f"no context named {name!r}") from None

    def filtered(self, keep: Sequence[str]) -> "ContextLibrary":
        """Library restricted to the given context names (order kept). It
        shares this library's parsed and rendered function list and its
        function locations."""
        keep = set(keep)
        lib = ContextLibrary.__new__(ContextLibrary)
        lib._entries = {name: c for name, c in self._entries.items() if name in keep}
        if "function_list" in keep:
            lib._functions, lib._function_list_text = self._functions, self._function_list_text
            lib._locations = self._locations
        else:
            lib._functions, lib._function_list_text, lib._locations = (), "", None
        return lib

    def to_json(self) -> str:
        doc = {
            "contexts": [
                {
                    "name": c.name,
                    "description_md": c.description_md,
                    "values": c.values,
                }
                for c in self._entries.values()
            ]
        }
        return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ContextLibrary":
        try:
            doc = json.loads(text)
            contexts = [
                ContextType(
                    name=entry["name"],
                    description_md=entry["description_md"],
                    values=entry.get("values"),
                )
                for entry in doc["contexts"]
            ]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedInput(f"bad context library JSON: {exc}") from exc
        return cls(contexts)


def add_context_type(lib: ContextLibrary, ctx: ContextType) -> ContextLibrary:
    """New library with ctx appended; name collisions are rejected."""
    if ctx.name in lib:
        raise MalformedInput(f"context {ctx.name!r} already present")
    return ContextLibrary([lib.get(n) for n in lib.names] + [ctx])


def calculate(lib: ContextLibrary, placeholder: str) -> str:
    """Run the calculator a placeholder names and return its text output.
    The placeholder, stripped, must be one whole placeholder as
    _placeholder_spans finds it."""
    text = placeholder.strip()
    span = next(_placeholder_spans(text), None)
    if span is None or span[:2] != (0, len(text)):
        raise CalculatorFailure(f"not a calculation placeholder: {placeholder!r}")
    _, _, calc_id, raw_args = span
    if calc_id not in BUILTIN_CALCULATORS:
        raise CalculatorFailure(f"no calculator registered as {calc_id!r}")
    args: dict = {}
    if raw_args:
        try:
            args = json.loads(raw_args)
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep
            raise CalculatorFailure(
                f"bad calculator args for {calc_id}", diagnostics=str(exc)
            ) from exc
    try:
        return BUILTIN_CALCULATORS[calc_id](lib, args)
    except Exception as exc:  # noqa: BLE001 - diagnostics wrapped for the caller
        raise CalculatorFailure(f"calculator {calc_id} raised", diagnostics=repr(exc)) from exc


def _placeholder_spans(text: str) -> Iterator[tuple[int, int, str, str | None]]:
    """(start, end, calculator id, raw arguments or None) of each
    placeholder in text, left to right, in time linear in len(text).

    Arguments follow the id's colon and are never empty. They end at the
    last "}}" of the first run of "}" that holds a "}}" past their first
    character, so the closing braces of a JSON object stay in them:
    {{CALC:id:{"a": {"b": 1}}}} has the arguments {"a": {"b": 1}}. A
    placeholder fails if a newline comes before that run. The next "}}"
    and the next newline are looked up once and reused while they lie
    ahead, so unclosed openers never rescan the text.
    """
    n = len(text)
    close = newline = -1
    pos = 0
    while opener := _OPENER_RE.search(text, pos):
        pos, args = opener.end(), None
        if opener.group(2) == ":":
            if close <= pos:
                close = text.find("}}", pos + 1) % (n + 1)  # n when absent
            if newline < pos:
                newline = text.find("\n", pos) % (n + 1)
            if not close < min(n, newline):
                continue
            end = _BRACES_RE.match(text, close).end()
            pos, args = end, text[pos : end - 2]
        yield opener.start(), pos, opener.group(1), args


def resolve_placeholders(lib: ContextLibrary, text: str) -> str:
    """Replace every calculation placeholder in text with its output.

    Never raises: a failed calculation becomes an explicit unavailability
    note, and the failure is logged with the calculator's diagnostics.
    """
    parts = []
    done = 0
    for start, end, calc_id, _ in _placeholder_spans(text):
        placeholder = text[start:end]
        parts.append(text[done:start])
        try:
            parts.append(calculate(lib, placeholder))
        except CalculatorFailure as exc:
            logger.warning(
                "placeholder %s failed: %s; diagnostics: %s", placeholder, exc, exc.diagnostics
            )
            parts.append(f"[calculation {calc_id} unavailable]")
        done = end
    parts.append(text[done:])
    return "".join(parts)


def render_library_prompt(lib: ContextLibrary) -> str:
    """Deterministic markdown overview (names + descriptions, no values)
    for embedding in the context agent prompt."""
    lines = ["# Context Library", ""]
    for name in lib.names:
        ctx = lib.get(name)
        lines.append(f"## {name}")
        lines.append(ctx.description_md.strip())
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# --- standard context builders -------------------------------------------

def make_function_list_context(
    interface_name: str, functions: Sequence[FunctionEntry]
) -> ContextType:
    return ContextType(
        name="function_list",
        description_md=(
            "Interface functions the user can trigger. Each entry has a "
            "unique `id`, a human-readable `name`, and a `location` in the "
            "interface coordinate system."
        ),
        values={
            "interface": interface_name,
            "functions": [
                {"id": f.id, "name": f.name, "location": list(f.location)}
                for f in functions
            ],
        },
    )


def make_gaze_context(samples: Sequence[dict]) -> ContextType:
    return ContextType(
        name="gaze",
        description_md=(
            "Recent gaze samples as `{t, x, y[, z]}` records, oldest first. "
            "Use the gaze_target calculator to resolve which function the "
            "user is looking at."
        ),
        values=list(samples),
    )


def make_history_context(events: Sequence[dict]) -> ContextType:
    return ContextType(
        name="history",
        description_md=(
            "The user's recent interactions, oldest first, as "
            "`{t, description}` records."
        ),
        values=list(events),
    )


def make_external_context(notes: Sequence[str]) -> ContextType:
    return ContextType(
        name="external",
        description_md="Information reported by other devices or sensors.",
        values=list(notes),
    )


def parse_function_list(doc: Any) -> list[FunctionEntry]:
    """The functions of a function_list context's values or of a manifest
    task: an object whose "functions" list holds {id, name[, location]}
    entries with unique ids."""
    items = doc.get("functions") if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise MalformedInput("function list must be an object with a 'functions' list")
    entries: dict[str, FunctionEntry] = {}
    for item in items:
        if not (isinstance(item, dict) and "id" in item and "name" in item):
            raise MalformedInput(f"function entry needs an 'id' and a 'name', got {item!r}")
        fid = str(item["id"])
        if fid in entries:
            raise MalformedInput(f"duplicate function id {fid!r}")
        try:
            location = tuple(float(v) for v in item.get("location", ()))
        except (TypeError, ValueError):
            raise MalformedInput(f"function {fid!r} needs a list of numbers as location") from None
        entries[fid] = FunctionEntry(fid, str(item["name"]), location)
    return list(entries.values())


def _render_function_list(functions: Sequence[FunctionEntry]) -> str:
    """One "- id: name (location: x, y)" line per function, for the
    inference prompt."""
    return "\n".join(
        f"- {f.id}: {f.name} (location: {', '.join(f'{v:g}' for v in f.location)})"
        for f in functions
    )


def _function_locations(
    functions: Sequence[FunctionEntry],
) -> tuple[np.ndarray, np.ndarray] | None:
    """The first three coordinates of each function's location as one
    (F, 3) float array, 0 where absent, and the (F, 3) mask of the present
    ones. None when a coordinate is not a float (a caller-built entry), so
    that gaze_target computes with exactly what the entries hold."""
    if not all(isinstance(v, float) for f in functions for v in f.location):
        return None
    coords = np.array([(*f.location, 0.0, 0.0, 0.0)[:3] for f in functions], dtype=float)
    present = np.arange(3) < np.array([len(f.location) for f in functions])[:, None]
    return coords.reshape(len(functions), 3), present


def function_entries(lib: ContextLibrary) -> tuple[FunctionEntry, ...]:
    """The function_list context's entries as the library parsed them;
    empty when the library has no function_list."""
    return lib._functions


def function_list_text(lib: ContextLibrary) -> str:
    """The library's function list as the inference prompt shows it,
    rendered once when the library was built."""
    return lib._function_list_text


# --- built-in calculators --------------------------------------------------

def _recent_gaze(lib: ContextLibrary, args: dict) -> list[dict]:
    samples = lib.get(args.get("context", "gaze")).values or []
    if not samples:
        return []
    window = float(args.get("window", GAZE_WINDOW_SECONDS))
    newest = max(float(s["t"]) for s in samples)
    return [s for s in samples if float(s["t"]) >= newest - window]


def _gaze_target(lib: ContextLibrary, args: dict) -> str:
    """Name of the function nearest the recent-gaze centroid; ties go to
    the lower function id."""
    recent = _recent_gaze(lib, args)
    if not recent:
        return "no gaze data available"
    centroid = [
        float(_mean([float(s["x"]) for s in recent])),
        float(_mean([float(s["y"]) for s in recent])),
        float(_mean([float(s.get("z", 0.0)) for s in recent])),
    ]
    functions = function_entries(lib)
    if not functions:
        raise MalformedInput("gaze_target needs a function_list context")

    # min's rule on the (distance, id) key: a function replaces the best
    # only if its key is strictly smaller, so an exact tie goes to the
    # lower id and a NaN distance neither displaces nor is displaced. The
    # distance keeps ** and sum, whose rounding (compensated from Python
    # 3.12 on) neither numpy nor a hand-written accumulation reproduces,
    # so numpy only screens out the functions that cannot win.
    point = centroid[:3] if any("z" in s for s in recent) else centroid[:2]
    best = best_key = None
    for entry in _gaze_candidates(functions, lib._locations, point):
        key = (math.sqrt(sum([(c - v) ** 2 for c, v in zip(point, entry.location)])), entry.id)
        if best is None or key < best_key:
            best, best_key = entry, key
    return best.name


def _gaze_candidates(functions, locations, point) -> Sequence[FunctionEntry]:
    """The functions, in order, whose squared distance to point, taken
    over the coordinates both have, is within _SCREEN_REL (plus
    _SCREEN_SLACK) of the smallest. All of them when a distance is not
    finite or nears the float limit, so that the exact loop meets the NaN
    or overflow it always met."""
    if locations is None:
        return functions
    coords, present = locations
    dims = len(point)
    with np.errstate(all="ignore"):
        diff = np.subtract(point, coords[:, :dims])
        squared = np.where(present[:, :dims], diff * diff, 0.0).sum(axis=1)
    if not squared.max() < _SCREEN_LIMIT:  # also NaN
        return functions
    keep = np.flatnonzero(squared <= squared.min() * (1.0 + _SCREEN_REL) + _SCREEN_SLACK)
    return [functions[i] for i in keep.tolist()]


def _gaze_trace(lib: ContextLibrary, args: dict) -> str:
    """Raw recent gaze samples as compact JSON."""
    return json.dumps(_recent_gaze(lib, args), ensure_ascii=False)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


BUILTIN_CALCULATORS: dict[str, Calculator] = {
    "gaze_target": _gaze_target,
    "gaze_trace": _gaze_trace,
}
