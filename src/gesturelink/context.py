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

from .errors import CalculatorFailure, MalformedInput, finite_float, parse_finite_json
from .prompts import AgentPromptSet, render_prompt

logger = logging.getLogger(__name__)

# A placeholder up to its arguments' colon, or whole when it has none.
_OPENER_RE = re.compile(r"\{\{CALC:([A-Za-z0-9_\-]+)(:|\}\})")
_BRACES_RE = re.compile(r"\}*")

# Gaze samples within this many seconds of the newest sample count as
# "recent" for the built-in gaze calculators. The window length is an
# artifact choice, not a tuned value.
GAZE_WINDOW_SECONDS = 1.0

# At most this many calculation results are stored on one library (see
# calculate). Once that many are stored, new results are computed and not
# kept; sessions sharing the library at that moment may each add one more.
STORED_RESULTS_LIMIT = 256


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
    are parsed here, once, into `functions`, and every reader uses that
    parse; `function_ids` holds their ids. Both are empty when the library
    has no function_list.

    Reads never change what a library answers: it stores only the results
    of its own calculations, its agents' system prompts and its filtered
    views, and add_context_type returns a new library, so shared instances
    stay safe across concurrent sessions.
    """

    def __init__(self, contexts: Sequence[ContextType] = (),
                 functions: Sequence[FunctionEntry] | None = None):
        """functions, if given, must be parse_function_list's output for function_list."""
        self._entries: dict[str, ContextType] = {}
        for ctx in contexts:
            if ctx.name in self._entries:
                raise MalformedInput(f"duplicate context name: {ctx.name!r}")
            self._entries[ctx.name] = ctx
        listing = self._entries.get("function_list")
        if functions is None:
            functions = () if listing is None else parse_function_list(listing.values)
        self.functions: tuple[FunctionEntry, ...] = tuple(functions)
        self.function_ids = frozenset(f.id for f in self.functions)
        self._results: dict[tuple[Calculator, str | None], str] = {}
        self._system: dict[tuple[str, str], tuple[str, str]] = {}
        self._views: dict[frozenset, ContextLibrary] = {}

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
        """Library restricted to the given context names (this library's
        order kept). It is one view per set of names, in any order, so its
        callers share its stored results and system prompts. It shares
        this library's parsed function list."""
        keep = frozenset(keep)
        if (view := self._views.get(keep)) is not None:
            return view
        view = ContextLibrary([c for name, c in self._entries.items() if name in keep],
                              self.functions if "function_list" in keep else ())
        return self._views.setdefault(keep, view)

    def system_prompts(self, prompts: AgentPromptSet) -> tuple[str, str]:
        """The inference and context agents' system prompts under prompts:
        its inference template with this library's function list, and its
        context template with this library's overview. Rendered at the
        first call for each pair of templates and kept; threads that race
        to render them all return the same texts."""
        key = (prompts.inference_prompt, prompts.context_prompt)
        if (texts := self._system.get(key)) is None:
            texts = self._system.setdefault(key, (
                render_prompt(prompts.inference_prompt,
                              function_list=_render_function_list(self.functions)),
                render_prompt(prompts.context_prompt,
                              library_overview=render_library_prompt(self)),
            ))
        return texts

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
        return json.dumps(doc, ensure_ascii=False, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ContextLibrary":
        doc = parse_finite_json(text)
        try:
            contexts = [
                ContextType(
                    name=entry["name"],
                    description_md=entry["description_md"],
                    values=entry.get("values"),
                )
                for entry in doc["contexts"]
            ]
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad context library JSON: {exc}") from exc
        return cls(contexts)


def add_context_type(lib: ContextLibrary, ctx: ContextType) -> ContextLibrary:
    """New library with ctx appended; name collisions are rejected."""
    if ctx.name in lib:
        raise MalformedInput(f"context {ctx.name!r} already present")
    return ContextLibrary([lib.get(n) for n in lib.names] + [ctx])


def calculate(lib: ContextLibrary, calc_id: str, raw_args: str | None) -> str:
    """Run the calculator calc_id names on raw_args, a placeholder's
    arguments as JSON text (None when it has none), and return its text
    output. The arguments must decode to a JSON object.

    The library stores each output under the calculator function and
    raw_args, and a repeat returns it before decoding the arguments: a
    library's contexts do not change and the calculators are pure, so an
    edit made in place to a context's values afterwards does not reach a
    stored answer. A failure is never stored, so a repeat raises it anew."""
    calculator = BUILTIN_CALCULATORS.get(calc_id)
    if calculator is None:
        raise CalculatorFailure(f"no calculator registered as {calc_id!r}")
    key = (calculator, raw_args)
    if (text := lib._results.get(key)) is not None:
        return text
    try:
        args = {} if raw_args is None else json.loads(raw_args)  # model output, not an input file
        if not isinstance(args, dict):
            raise TypeError(f"arguments must be a JSON object, got {type(args).__name__}")
    except (ValueError, RecursionError, TypeError) as exc:  # also too many digits, too deep
        raise CalculatorFailure(f"bad calculator args for {calc_id}", diagnostics=str(exc)) from exc
    try:
        text = calculator(lib, args)
    except Exception as exc:  # noqa: BLE001 - diagnostics wrapped for the caller
        raise CalculatorFailure(f"calculator {calc_id} raised", diagnostics=repr(exc)) from exc
    if len(lib._results) < STORED_RESULTS_LIMIT:
        lib._results[key] = text
    return text


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
    for start, end, calc_id, raw_args in _placeholder_spans(text):
        parts.append(text[done:start])
        try:
            parts.append(calculate(lib, calc_id, raw_args))
        except CalculatorFailure as exc:
            logger.warning(
                "placeholder %s failed: %s; diagnostics: %s", text[start:end], exc, exc.diagnostics
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
            location = tuple(finite_float(v, f"function {fid!r} location")
                             for v in item.get("location", ()))
        except (TypeError, ValueError, OverflowError):
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


# --- built-in calculators --------------------------------------------------

def _recent_gaze(lib: ContextLibrary, args: dict) -> list:
    """The samples of the context args names (gaze by default) within
    args' window of the newest, oldest first. The window is seconds before
    the newest sample; NaN or below 0 raises. So does a sample t that is
    not a finite number, for the samples would have no order."""
    samples = lib.get(args.get("context", "gaze")).values
    if not samples:
        return []
    window = float(args.get("window", GAZE_WINDOW_SECONDS))
    if not window >= 0.0:  # also NaN
        raise MalformedInput(f"window must be a number of seconds >= 0, got {window!r}")
    times = [finite_float(s["t"], "gaze sample t") for s in samples]
    cutoff = max(times) - window
    return [s for s, t in zip(samples, times) if t >= cutoff]


def _gaze_target(lib: ContextLibrary, args: dict) -> str:
    """Name of the function nearest the recent-gaze centroid; ties go to
    the lower function id. A recent x, y or z that is not a finite number
    raises, x before y before z."""
    recent = _recent_gaze(lib, args)
    if not recent:
        return "no gaze data available"
    centroid = [
        _mean([finite_float(s["x"], "gaze sample x") for s in recent]),
        _mean([finite_float(s["y"], "gaze sample y") for s in recent]),
        _mean([finite_float(s.get("z", 0.0), "gaze sample z") for s in recent]),
    ]
    if not lib.functions:
        raise MalformedInput("gaze_target needs a function_list context")
    point = centroid if any("z" in s for s in recent) else centroid[:2]
    if not all(map(math.isfinite, point)):  # finite samples whose sum overflowed
        raise OverflowError(f"gaze centroid {point} is not finite")

    # min replaces its best only on a strictly smaller (distance, id) key,
    # so an exact tie goes to the lower id and a NaN distance (possible in
    # entries passed as functions=) neither displaces nor is displaced.
    def key(entry: FunctionEntry) -> tuple[float, str]:
        return math.sqrt(sum([(c - v) ** 2 for c, v in zip(point, entry.location)])), entry.id

    return min(lib.functions, key=key).name


def _gaze_trace(lib: ContextLibrary, args: dict) -> str:
    """Raw recent gaze samples as compact JSON."""
    return json.dumps(_recent_gaze(lib, args), ensure_ascii=False, allow_nan=False)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


BUILTIN_CALCULATORS: dict[str, Calculator] = {
    "gaze_target": _gaze_target,
    "gaze_trace": _gaze_trace,
}
