import json
import math

import pytest

from conftest import smart_home_functions, smart_home_library
from gesturelink.context import (
    BUILTIN_CALCULATORS,
    ContextLibrary,
    ContextType,
    add_context_type,
    calculate,
    function_entries,
    make_external_context,
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
    from gesturelink.context import FunctionEntry, make_function_list_context

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


# --- rendering and serialization ------------------------------------------------

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
