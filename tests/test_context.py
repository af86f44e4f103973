import json
import math
import random
import re
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import smart_home_functions, smart_home_library
from gesturelink.context import (
    BUILTIN_CALCULATORS,
    ContextLibrary,
    ContextType,
    FunctionEntry,
    _gaze_target,
    _placeholder_spans,
    add_context_type,
    calculate,
    function_entries,
    function_list_text,
    make_external_context,
    make_function_list_context,
    make_gaze_context,
    render_library_prompt,
    resolve_placeholders,
)
from gesturelink.errors import CalculatorFailure, MalformedInput


def gaze_at(x, y, z, n=3, t0=10.0):
    return [{"t": t0 + 0.1 * i, "x": x, "y": y, "z": z} for i in range(n)]


# --- add / get -----------------------------------------------------------------

def test_add_context_type_grows_library():
    lib = ContextLibrary([])
    lib2 = add_context_type(lib, make_gaze_context([]))
    assert len(lib) == 0 and len(lib2) == 1
    assert "gaze" in lib2


def test_add_duplicate_name_rejected():
    lib = ContextLibrary([make_gaze_context([])])
    with pytest.raises(MalformedInput, match="context 'gaze' already present"):
        add_context_type(lib, make_gaze_context([]))


def test_external_string_retrievable_verbatim():
    lib = add_context_type(
        ContextLibrary([]), make_external_context(["The doorbell is ringing."])
    )
    assert lib.get("external").values == ["The doorbell is ringing."]


def test_smart_home_fixture_has_18_functions():
    lib = smart_home_library()
    values = lib.get("function_list").values
    assert len(values["functions"]) == 18
    assert len(function_entries(lib)) == 18


def test_retrieve_empty_history():
    assert smart_home_library().get("history").values == []


def test_retrieve_unknown_context():
    with pytest.raises(MalformedInput, match="no context named 'weather'"):
        smart_home_library().get("weather")


def test_add_retrieve_round_trip():
    ctx = ContextType(name="device_state", description_md="states", values={"light": "off"})
    lib = add_context_type(smart_home_library(), ctx)
    assert lib.get("device_state").values == {"light": "off"}


# --- calculate -----------------------------------------------------------------

def brute_force_nearest(functions, centroid):
    best = min(
        functions,
        key=lambda f: (
            math.dist(centroid, f.location[: len(centroid)]),
            f.id,
        ),
    )
    return best.name


def test_gaze_target_resolves_nearest_function():
    light_location = (0.2, 0.4, 1.5)
    lib = smart_home_library(gaze=gaze_at(*light_location))
    result = calculate(lib, "{{CALC:gaze_target}}")
    assert result == brute_force_nearest(smart_home_functions(), light_location)
    assert result.startswith("Light")


def test_gaze_target_tie_breaks_on_lower_id():
    functions = [
        FunctionEntry(id="b_fan", name="Fan", location=(0.75, 0.5)),
        FunctionEntry(id="a_lamp", name="Lamp", location=(0.25, 0.5)),
    ]
    lib = ContextLibrary(
        [
            make_function_list_context("room", functions),
            make_gaze_context([{"t": 0.0, "x": 0.5, "y": 0.5}]),
        ]
    )
    assert calculate(lib, "{{CALC:gaze_target}}") == "Lamp"


def min_formula_gaze_target(lib):
    """The calculator's answer by the min(..., key=(dist, id)) formula it
    used before scanning functions in one loop: the reference the scan
    must match bit for bit, ties and NaN distances included."""
    samples = lib.get("gaze").values
    newest = max(float(s["t"]) for s in samples)
    recent = [s for s in samples if float(s["t"]) >= newest - 1.0]
    centroid = [
        float(sum(float(s[k]) for s in recent) / len(recent)) for k in ("x", "y")
    ] + [float(sum(float(s.get("z", 0.0)) for s in recent) / len(recent))]
    depth_dims = 3 if any("z" in s for s in recent) else 2

    def dist(entry):
        dims = min(len(entry.location), depth_dims)
        return math.sqrt(sum((centroid[i] - entry.location[i]) ** 2 for i in range(dims)))

    return min(function_entries(lib), key=lambda f: (dist(f), f.id)).name


# Few distinct coordinates, so that distances often tie exactly.
_coord = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(
    locations=st.lists(
        st.one_of(st.tuples(_coord, _coord), st.tuples(_coord, _coord, _coord)),
        min_size=1, max_size=8,
    ),
    ids=st.permutations(["a", "b", "c", "d", "e", "f", "g", "h"]),
    samples=st.lists(
        st.fixed_dictionaries(
            {"t": st.sampled_from([0.0, 0.5, 2.0]), "x": _coord, "y": _coord},
            optional={"z": _coord},
        ),
        min_size=1, max_size=4,
    ),
    nan_centroid=st.booleans(),
)
def test_gaze_target_matches_min_formula(locations, ids, samples, nan_centroid):
    if nan_centroid:
        samples[-1]["x"] = math.nan
    functions = [FunctionEntry(fid, f"name-{fid}", loc) for fid, loc in zip(ids, locations)]
    lib = ContextLibrary(
        [make_function_list_context("room", functions), make_gaze_context(samples)]
    )
    assert _gaze_target(lib, {}) == min_formula_gaze_target(lib)


def test_gaze_target_ties_and_nan_follow_min():
    functions = [
        FunctionEntry(id="c", name="C", location=(0.5, 0.0)),
        FunctionEntry(id="a", name="A", location=(0.5, 1.0)),
        FunctionEntry(id="b", name="B", location=(0.0, 0.5, 9.0)),
    ]
    for samples, expected in [
        ([{"t": 0.0, "x": 0.5, "y": 0.5}], "A"),  # three exact ties: lowest id
        ([{"t": 0.0, "x": math.nan, "y": 0.5}], "C"),  # NaN distances: the first function
    ]:
        lib = ContextLibrary(
            [make_function_list_context("room", functions), make_gaze_context(samples)]
        )
        assert _gaze_target(lib, {}) == min_formula_gaze_target(lib) == expected


def _outcome(fn, lib):
    try:
        return fn(lib)
    except OverflowError as exc:
        return type(exc)


def _ulps(x, k):
    """x moved k ulps (k may be negative)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_SPECIALS = (math.nan, math.inf, -math.inf)


@st.composite
def screened_gaze_cases(draw):
    """50-200 functions around one gaze centroid: near-ties a few ulps
    apart, exact ties, 0-4 coordinates, huge coordinates whose squares
    come near or past the float limit, and NaN or infinite values."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    depth = draw(st.booleans())
    samples = [{"t": 0.0, "x": draw(_coord), "y": draw(_coord)}]
    if depth:
        samples[0]["z"] = draw(_coord)
    if draw(st.booleans()):
        samples.append({"t": 0.5, **{k: draw(_coord) for k in samples[0] if k != "t"}})
    centroid = [sum(float(s.get(k, 0.0)) for s in samples) / len(samples) for k in "xyz"]
    huge, special, special_centroid = (rng.random() < 0.1 for _ in range(3))
    if special_centroid:
        samples[0][rng.choice("xy")] = rng.choice(_SPECIALS)
    # Near functions sit one offset from the centroid along one axis, some
    # an ulp further or nearer, some nudged on a second axis by about an
    # ulp of the squared distance, which the square root may round away.
    offset, sign = rng.uniform(0.0, 1.0), rng.choice([1, -1])
    if rng.random() < 0.1:  # squares that underflow to subnormals or to zero
        offset = 10.0 ** -rng.uniform(150.0, 165.0)
    axis, other = rng.sample(range(3 if depth else 2), 2)
    dim_choices = [0, 2, 4] if rng.random() < 0.1 else [2, 4]  # 0 coordinates: distance 0
    locations = []
    for _ in range(draw(st.integers(50, 200))):
        if rng.random() < 0.6:
            loc = list(centroid)
            loc[axis] += sign * _ulps(offset, rng.choice([-1, 0, 0, 0, 1]))
            if rng.random() < 0.5:
                loc[other] += offset * rng.choice([0.75, 1.0, 1.25]) * 2.0**-26
        else:
            loc = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        if huge and rng.random() < 0.1:
            loc[rng.randrange(3)] = rng.choice([1, -1]) * 10.0 ** rng.uniform(145, 200)
        if special and rng.random() < 0.05:
            loc[rng.randrange(3)] = rng.choice(_SPECIALS)
        dims = rng.choice(dim_choices) if rng.random() < 0.2 else 3
        locations.append(tuple((loc + [rng.uniform(-1.0, 1.0)])[:dims]))
    ids = [f"f{i:03d}" for i in range(len(locations))]
    rng.shuffle(ids)
    functions = [FunctionEntry(fid, f"name-{fid}", loc) for fid, loc in zip(ids, locations)]
    return functions, samples


@settings(max_examples=150, deadline=None)
@given(case=screened_gaze_cases())
def test_gaze_target_screen_matches_min_formula(case):
    functions, samples = case
    lib = ContextLibrary(
        [make_function_list_context("room", functions), make_gaze_context(samples)]
    )
    assert _outcome(lambda lib: _gaze_target(lib, {}), lib) == _outcome(min_formula_gaze_target, lib)


def test_gaze_target_overflow_anywhere_is_unavailable():
    functions = [
        FunctionEntry("a", "Near", (0.5, 0.5)),
        FunctionEntry("b", "Far", (0.5, 1e200)),
    ]
    lib = ContextLibrary(
        [make_function_list_context("room", functions),
         make_gaze_context([{"t": 0.0, "x": 0.5, "y": 0.5}])]
    )
    assert _outcome(min_formula_gaze_target, lib) is OverflowError
    assert resolve_placeholders(lib, "{{CALC:gaze_target}}") == "[calculation gaze_target unavailable]"


def test_gaze_target_reads_caller_built_entries_as_they_are():
    # Entries passed as functions= are not parsed, so they may hold ints or
    # Decimals; a Decimal coordinate raises however far its function lies.
    gaze = [make_gaze_context([{"t": 0.0, "x": 2, "y": 1}])]
    ints = [FunctionEntry("b", "B", (1, 2)), FunctionEntry("a", "A", (3, 0)),
            FunctionEntry("c", "C", (2, 1))]
    assert _gaze_target(ContextLibrary(gaze, functions=ints), {}) == "C"
    decimals = [FunctionEntry("a", "A", (2.0, 1.0)), FunctionEntry("b", "B", (Decimal(9), 9.0))]
    with pytest.raises(TypeError):
        _gaze_target(ContextLibrary(gaze, functions=decimals), {})


def test_gaze_target_uses_recent_window_only():
    # Old samples point at the oven; the last second points at the light.
    old = [{"t": 0.0, "x": 2.4, "y": 0.9, "z": 2.2}] * 5
    recent = gaze_at(0.2, 0.4, 1.5, n=3, t0=5.0)
    lib = smart_home_library(gaze=old + recent)
    assert calculate(lib, "{{CALC:gaze_target}}").startswith("Light")


def test_gaze_trace_returns_recent_samples():
    samples = gaze_at(0.3, 0.3, 1.0)
    lib = smart_home_library(gaze=samples)
    assert json.loads(calculate(lib, "{{CALC:gaze_trace}}")) == samples


def test_unknown_calculator():
    with pytest.raises(CalculatorFailure, match="no calculator registered as 'nonexistent'") as exc:
        calculate(smart_home_library(), "{{CALC:nonexistent}}")
    assert exc.value.diagnostics == ""


def test_calculator_args_parsed_as_json():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    wide = calculate(lib, '{{CALC:gaze_trace:{"window": 100.0}}}')
    assert len(json.loads(wide)) == 3
    with pytest.raises(CalculatorFailure):
        calculate(lib, "{{CALC:gaze_trace:not-json}}")


@pytest.mark.parametrize(
    "raw_args",
    ['{"window": ' + "1" * 5000 + "}", "[" * 100_000],
    ids=["too-many-digits", "too-deep"],
)
def test_calculator_args_that_fail_to_decode_raise_calculator_failure(raw_args):
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    placeholder = "{{CALC:gaze_target:" + raw_args + "}}"
    with pytest.raises(CalculatorFailure, match="bad calculator args for gaze_target") as exc:
        calculate(lib, placeholder)
    assert exc.value.diagnostics
    # The whole run of "}" closes the placeholder, an object's own "}" included.
    assert resolve_placeholders(lib, f"at {placeholder}.") == (
        "at [calculation gaze_target unavailable]."
    )


def test_calculate_is_referentially_transparent():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    assert calculate(lib, "{{CALC:gaze_target}}") == calculate(lib, "{{CALC:gaze_target}}")


def test_plugin_exception_wrapped_with_diagnostics():
    lib = smart_home_library(gaze=[{"x": 0.2, "y": 0.4}])  # samples without "t"
    with pytest.raises(CalculatorFailure) as exc:
        calculate(lib, "{{CALC:gaze_target}}")
    assert exc.value.diagnostics == "KeyError('t')"


def test_resolve_placeholders_substitutes_inline():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    text = "The user is looking at {{CALC:gaze_target}} right now."
    resolved = resolve_placeholders(lib, text)
    assert "{{CALC" not in resolved
    assert "Light" in resolved


@pytest.mark.parametrize("args", [
    '{"window": 100.0}',
    '{"window": 100.0, "note": {"nested": {"deeper": [1, 2]}}}',
    '{"context": "gaze", "window": {"not": "a number"}}',
])
def test_object_arguments_resolve_inside_text(args):
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5) + [{"t": 0.0, "x": 2.4, "y": 0.9}])
    placeholder = "{{CALC:gaze_trace:" + args + "}}"
    try:
        expected = calculate(lib, placeholder)
    except CalculatorFailure:
        expected = "[calculation gaze_trace unavailable]"
    assert resolve_placeholders(lib, f"x {placeholder} y") == f"x {expected} y"
    if "100.0" in args:  # the window reaches back to the oldest sample
        assert len(json.loads(expected)) == 4


def test_placeholder_resolves_as_documented():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    text = 'x {{CALC:gaze_trace:{"window": 100.0}}} y'
    assert resolve_placeholders(lib, text) == f"x {calculate(lib, text[2:-2])} y"


# The grammar before arguments could end in a JSON object's own braces; its
# lazy arguments end at the first "}}".
PLACEHOLDER_RE = re.compile(r"\{\{CALC:([A-Za-z0-9_\-]+)(?::(.+?))?\}\}")


def regex_resolve(lib, text):
    """resolve_placeholders as PLACEHOLDER_RE.sub computes it: the
    reference for the linear scan wherever the two grammars agree."""
    def sub(match):
        try:
            return calculate(lib, match.group(0))
        except CalculatorFailure:
            return f"[calculation {match.group(1)} unavailable]"

    return PLACEHOLDER_RE.sub(sub, text)


_PLACEHOLDER_TOKENS = ["{{CALC:", "{{CALC:gaze_trace:", "{{CALC:gaze_target}}", "gaze_target",
                       "x-1", ":", "}", "}}", "}}}", "{", "\n", " ", '"window"', "2",
                       '{"window": 2', '{"a": {"b": 1}']


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PLACEHOLDER_TOKENS), max_size=40).map("".join))
def test_placeholder_scan_matches_the_regex(text):
    """The scan finds PLACEHOLDER_RE's placeholders up to the first whose
    arguments' closing "}}" is followed by a "}"; that one starts where the
    regex's does and runs on to the end of its run of "}"."""
    old = [(m.start(), m.end(), m.group(1), m.group(2)) for m in PLACEHOLDER_RE.finditer(text)]
    new = list(_placeholder_spans(text))
    cut = next((i for i, m in enumerate(old) if m[3] and text.startswith("}", m[1])), len(old))
    assert new[:cut] == old[:cut]
    if cut < len(old):
        start, end, calc_id, args = old[cut]
        run = len(text[end:]) - len(text[end:].lstrip("}"))
        assert new[cut] == (start, end + run, calc_id, args + "}" * run)
    else:
        assert new == old
        lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
        assert resolve_placeholders(lib, text) == regex_resolve(lib, text)


def test_unclosed_placeholders_resolve_in_linear_time():
    text = "{{CALC:x:" * 8000  # 72,000 characters, no "}}"
    lib = smart_home_library()
    start = time.perf_counter()
    assert resolve_placeholders(lib, text) == text
    assert time.perf_counter() - start < 0.5


# --- rendering and serialization ------------------------------------------------

def test_function_list_text_is_rendered_once_and_shared_by_filters():
    lib = smart_home_library()
    text = function_list_text(lib)
    assert text.splitlines()[0] == "- light.power: Light Power (location: 0.2, 0.4, 1.5)"
    assert len(text.splitlines()) == len(function_entries(lib))
    for keep in (["function_list"], ["function_list", "gaze"], lib.names):
        assert function_list_text(lib.filtered(keep)) is text
        assert lib.filtered(keep)._locations is lib._locations
    assert function_list_text(lib.filtered(["gaze"])) == ""
    assert function_list_text(ContextLibrary([])) == ""


def test_render_empty_library_is_fixed_header():
    assert render_library_prompt(ContextLibrary([])) == "# Context Library\n"


GOLDEN_PROMPT = """# Context Library

## function_list
Interface functions the user can trigger. Each entry has a unique `id`, a human-readable `name`, and a `location` in the interface coordinate system.

## gaze
Recent gaze samples as `{t, x, y[, z]}` records, oldest first. Use the gaze_target calculator to resolve which function the user is looking at.

## history
The user's recent interactions, oldest first, as `{t, description}` records.

## external
Information reported by other devices or sensors.
"""


def test_render_four_context_fixture_golden():
    assert render_library_prompt(smart_home_library()) == GOLDEN_PROMPT


def test_render_is_deterministic():
    lib = smart_home_library()
    assert render_library_prompt(lib) == render_library_prompt(lib)


def test_library_serialization_round_trips_byte_exactly():
    lib = smart_home_library(
        gaze=gaze_at(0.1, 0.2, 0.3),
        history=[{"t": 1.0, "description": "opened the oven"}],
        external=["The doorbell is ringing."],
    )
    text = lib.to_json()
    again = ContextLibrary.from_json(text)
    assert again.to_json() == text
    assert again.names == lib.names
    # Keys a library entry may carry beyond name/description_md/values are ignored.
    doc = json.loads(text)
    doc["contexts"][1]["calculator_id"] = "gaze_target"
    assert ContextLibrary.from_json(json.dumps(doc)).to_json() == text


def test_context_type_validation():
    with pytest.raises(MalformedInput):
        ContextType(name="", description_md="x")
    with pytest.raises(MalformedInput):
        ContextType(name="x", description_md="   ")


def test_builtin_calculators_registered_by_default():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    for calc_id in BUILTIN_CALCULATORS:
        assert isinstance(calculate(lib, "{{CALC:" + calc_id + "}}"), str)
