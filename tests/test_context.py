import json
import math
import random
import re
import sys
import threading
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import python_calls, smart_home_functions, smart_home_library
from gesturelink.context import (
    BUILTIN_CALCULATORS,
    ContextLibrary,
    ContextType,
    FunctionEntry,
    GAZE_WINDOW_SECONDS,
    STORED_RESULTS_LIMIT,
    _gaze_candidates,
    _gaze_target,
    _mean,
    _placeholder_spans,
    add_context_type,
    calculate,
    logger,
    make_external_context,
    make_function_list_context,
    make_gaze_context,
    parse_function_list,
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
    assert len(lib.functions) == 18


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
    result = calculate(lib, "gaze_target", None)
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
    assert calculate(lib, "gaze_target", None) == "Lamp"


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

    return min(lib.functions, key=lambda f: (dist(f), f.id)).name


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
    if nan_centroid and samples[-1]["t"] >= max(s["t"] for s in samples) - 1.0:
        # A recent NaN x fails; it once made every distance NaN.
        with pytest.raises(MalformedInput, match="gaze sample x must be a finite number"):
            _gaze_target(lib, {})
    else:
        assert _gaze_target(lib, {}) == min_formula_gaze_target(lib)


def test_gaze_target_ties_and_nan_follow_min():
    functions = [
        FunctionEntry(id="c", name="C", location=(0.5, 0.0)),
        FunctionEntry(id="a", name="A", location=(0.5, 1.0)),
        FunctionEntry(id="b", name="B", location=(0.0, 0.5, 9.0)),
    ]
    nan_first = [FunctionEntry("c", "C", (math.nan, 0.0)), *functions[1:]]
    for entries, expected in [
        (functions, "A"),  # three exact ties: lowest id
        (nan_first, "C"),  # a NaN distance, listed first, is never displaced
    ]:
        # Entries passed as functions= are not parsed, so they may hold NaN.
        lib = ContextLibrary([make_gaze_context([{"t": 0.0, "x": 0.5, "y": 0.5}])],
                             functions=entries)
        assert _gaze_target(lib, {}) == min_formula_gaze_target(lib) == expected


def _outcome(fn, lib):
    try:
        return fn(lib)
    except (OverflowError, MalformedInput) as exc:
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
    # Entries passed as functions= are not parsed, so they keep NaN and infinities.
    lib = ContextLibrary([make_gaze_context(samples)], functions=functions)
    expected = _outcome(min_formula_gaze_target, lib)
    if not all(math.isfinite(v) for s in samples for v in s.values()):
        expected = MalformedInput  # every sample is recent, and a non-finite one fails
    assert _outcome(lambda lib: _gaze_target(lib, {}), lib) == expected


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
    # Entries passed as functions= are not parsed, so they may hold ints.
    gaze = [make_gaze_context([{"t": 0.0, "x": 2, "y": 1}])]
    ints = [FunctionEntry("b", "B", (1, 2)), FunctionEntry("a", "A", (3, 0)),
            FunctionEntry("c", "C", (2, 1))]
    assert _gaze_target(ContextLibrary(gaze, functions=ints), {}) == "C"


def test_gaze_target_uses_recent_window_only():
    # Old samples point at the oven; the last second points at the light.
    old = [{"t": 0.0, "x": 2.4, "y": 0.9, "z": 2.2}] * 5
    recent = gaze_at(0.2, 0.4, 1.5, n=3, t0=5.0)
    lib = smart_home_library(gaze=old + recent)
    assert calculate(lib, "gaze_target", None).startswith("Light")


def test_gaze_trace_returns_recent_samples():
    samples = gaze_at(0.3, 0.3, 1.0)
    lib = smart_home_library(gaze=samples)
    assert json.loads(calculate(lib, "gaze_trace", None)) == samples


def test_non_finite_values_are_never_written_as_json():
    lib = smart_home_library(gaze=[{"t": 0.0, "x": math.nan, "y": 0.5}])
    with pytest.raises(ValueError, match="not JSON compliant"):
        lib.to_json()
    assert resolve_placeholders(lib, "{{CALC:gaze_trace}}") == "[calculation gaze_trace unavailable]"


# --- the gaze reading ---------------------------------------------------------

def _prior_recent_gaze(lib, args):
    samples = lib.get(args.get("context", "gaze")).values or []
    if not samples:
        return []
    window = float(args.get("window", GAZE_WINDOW_SECONDS))
    newest = max(float(s["t"]) for s in samples)
    return [s for s in samples if float(s["t"]) >= newest - window]


def _prior_gaze_target(lib, args):
    """The calculator as it was before gaze samples were read once per
    context: every sample converted again on each call."""
    recent = _prior_recent_gaze(lib, args)
    if not recent:
        return "no gaze data available"
    centroid = [
        float(_mean([float(s["x"]) for s in recent])),
        float(_mean([float(s["y"]) for s in recent])),
        float(_mean([float(s.get("z", 0.0)) for s in recent])),
    ]
    functions = lib.functions
    if not functions:
        raise MalformedInput("gaze_target needs a function_list context")
    point = centroid[:3] if any("z" in s for s in recent) else centroid[:2]
    best = best_key = None
    for entry in _gaze_candidates(functions, lib._locations, point):
        key = (math.sqrt(sum([(c - v) ** 2 for c, v in zip(point, entry.location)])), entry.id)
        if best is None or key < best_key:
            best, best_key = entry, key
    return best.name


def _prior_gaze_trace(lib, args):
    return json.dumps(_prior_recent_gaze(lib, args), ensure_ascii=False, allow_nan=False)


_PRIOR_CALCULATORS = {"gaze_target": _prior_gaze_target, "gaze_trace": _prior_gaze_trace}


def _delivered(lib, calc_id, args):
    """calculate's text, or its failure's message and diagnostics."""
    try:
        return calculate(lib, calc_id, json.dumps(args) if args else None)
    except CalculatorFailure as exc:
        return str(exc), exc.diagnostics


def _rejected_window(lib, args):
    """The window _recent_gaze rejects in args, or None: one that converts
    to NaN or a negative number, once args' context exists and holds values."""
    try:
        if not lib.get(args.get("context", "gaze")).values:
            return None
        window = float(args.get("window", GAZE_WINDOW_SECONDS))
    except (MalformedInput, TypeError, ValueError, OverflowError):  # the prior fail so too
        return None
    return None if window >= 0.0 else window


def _non_finite_time(lib, args):
    """The sample time _recent_gaze rejects, or None: the first time that
    is NaN or infinite, once args' context holds values, its window
    converts and no earlier sample's time fails to convert."""
    try:
        values = lib.get(args.get("context", "gaze")).values
        if not values:
            return None
        float(args.get("window", GAZE_WINDOW_SECONDS))
        for s in values:
            t = float(s["t"])
            if not math.isfinite(t):
                return t
    except (MalformedInput, LookupError, TypeError, ValueError, OverflowError):  # the prior too
        return None
    return None


def _non_finite_coordinate(lib, calc_id, args):
    """The (axis, value) of the sample coordinate gaze_target rejects, or
    None: the first NaN or infinite value where the prior gaze_target
    read the recent samples' x, then their y, then their z, unless a value
    before it failed to convert. gaze_trace reads no coordinate."""
    if calc_id != "gaze_target":
        return None
    try:
        recent = _prior_recent_gaze(lib, args)
    except Exception:  # noqa: BLE001 - the prior failed before reading a coordinate
        return None
    for axis in "xyz":
        for s in recent:
            try:
                value = float(s[axis] if axis != "z" else s.get("z", 0.0))
            except (LookupError, TypeError, ValueError, OverflowError):  # the prior too
                return None
            if not math.isfinite(value):
                return axis, value
    return None


_hostile_scalar = st.sampled_from([
    math.nan, math.nan, math.inf, -math.inf, 10**400,  # 10**400: too large for a float
    "1.5", " 2 ", "nan", "1e999", "1_0", "x", "", None, True, False, [1.0], {"v": 1.0},
])
_times = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def _hostile_sample(draw):
    """A well-formed {t, x, y[, z]} sample (six draws in ten), one with a
    key removed or set to a hostile value, or not a dict at all."""
    sample = draw(st.fixed_dictionaries({"t": _times, "x": _coord, "y": _coord},
                                        optional={"z": _coord, "label": st.text(max_size=2)}))
    kind = draw(st.integers(0, 9))
    if kind == 9:
        return draw(st.sampled_from([[], [1.0], "t", "", 3, None, True]))
    if kind >= 6:
        key = draw(st.sampled_from(["t", "x", "y", "z"]))
        if kind == 8:
            sample.pop(key, None)
        else:
            sample[key] = draw(_hostile_scalar)
    return sample


_hostile_values = st.one_of(
    st.lists(_hostile_sample(), max_size=6),
    st.sampled_from([None, 0, 7, True, "gaze", {}, {"t": 1.0}]),
)
_hostile_args = st.fixed_dictionaries({}, optional={
    "window": st.one_of(st.sampled_from([0.0, 0.25, 1.0, 100.0, -1.0]), _hostile_scalar, st.floats()),
    "context": st.sampled_from(["gaze", "gaze", "history", "function_list", "absent"]),
})


# Two functions at the same image point, one deep: a 2D centroid ties them
# (the lower id wins) and a 3D one picks the flat one, so every answer
# shows whether the recent samples had a depth.
_DEPTH_PROBE = [FunctionEntry("a", "Deep", (0.0, 0.0, 10.0)), FunctionEntry("b", "Flat", (0.0, 0.0))]
_FUNCTIONS = {"none": None, "smart_home": smart_home_functions(), "depth_probe": _DEPTH_PROBE}
_TARGET = [("gaze_target", {})]


def _library(values, history, functions):
    """A library of gaze and history contexts holding values and history,
    and the function list _FUNCTIONS names, if any."""
    contexts = [ContextType("gaze", "Gaze samples.", values),
                ContextType("history", "Earlier samples.", history)]
    if _FUNCTIONS[functions] is not None:
        contexts.insert(0, make_function_list_context("room", _FUNCTIONS[functions]))
    return ContextLibrary(contexts)


@settings(max_examples=400, deadline=None)
@given(
    values=_hostile_values,
    history=st.lists(_hostile_sample(), max_size=3),
    functions=st.sampled_from(sorted(_FUNCTIONS)),
    calls=st.lists(st.tuples(st.sampled_from(["gaze_target", "gaze_trace"]), _hostile_args),
                   min_size=1, max_size=4),
)
# Only an old sample has a depth: the centroid is 2D.
@example([{"t": 0.0, "x": 0.0, "y": 0.0, "z": 1.0}, {"t": 2.0, "x": 0.0, "y": 0.0}],
         [], "depth_probe", _TARGET)
# The first recent sample whose x fails decides, before any y; an old
# failing x is never read.
@example([{"t": 0.0, "x": "old", "y": 0.0}, {"t": 2.0, "x": 0.0, "y": "y"},
          {"t": 2.0, "x": "x", "y": 0.0}, {"t": 2.0, "x": None, "y": 0.0}], [], "none", _TARGET)
# A NaN fails the trace only in a recent sample.
@example([{"t": 0.0, "x": math.nan, "y": 0.0}, {"t": 2.0, "x": 0.0, "y": 0.0}], [], "none",
         [("gaze_trace", {}), ("gaze_trace", {"window": 5.0})])
# A NaN or negative window fails where samples exist, and only there.
@example([{"t": 0.0, "x": "x", "y": 0.0}], [], "smart_home",
         [("gaze_target", {"window": math.nan}), ("gaze_trace", {"window": -5}),
          ("gaze_trace", {"window": -math.inf}), ("gaze_target", {"window": 0.0}),
          ("gaze_trace", {"window": math.nan, "context": "history"})])
# A NaN or infinite time fails every calculation on its context, unless
# an earlier sample's time fails to convert or the window is rejected.
@example([{"t": 0.0, "x": 0.0, "y": 0.0}, {"t": "nan", "x": 0.0, "y": 0.0},
          {"t": "x", "x": 0.0, "y": 0.0}], [{"t": None}, {"t": math.inf}], "smart_home",
         [("gaze_target", {}), ("gaze_trace", {"context": "history"}),
          ("gaze_trace", {"window": -1.0})])
# A recent NaN or infinite coordinate fails gaze_target, y before z, while
# an old one is never read, one that fails to convert first decides, and
# the trace returns the samples as they are.
@example([{"t": 0.0, "x": math.nan, "y": 0.0}, {"t": 2.0, "x": 0.0, "y": 0.0, "z": "nan"},
          {"t": 2.0, "x": 0.0, "y": "1e999"}], [{"t": 0.0, "x": "x", "y": 0.0},
                                                {"t": 0.0, "x": "-inf", "y": 0.0}], "smart_home",
         [("gaze_target", {}), ("gaze_trace", {}), ("gaze_target", {"context": "history"})])
def test_gaze_calculators_match_the_per_call_conversions(values, history, functions, calls):
    """The shared reading delivers what converting every sample on each
    call delivered: the same text, or the same failure and diagnostics,
    on the first calculation and on every later one. The exceptions fail
    where the prior calculators selected samples by an order that does
    not exist: a window of NaN or below 0, or a sample time of NaN or an
    infinity, over a context that holds values; and where the prior
    gaze_target averaged a recent x, y or z of NaN or an infinity."""
    lib = _library(values, history, functions)
    for calc_id, args in calls * 2:
        with mock.patch.dict(BUILTIN_CALCULATORS, _PRIOR_CALCULATORS):
            prior = _delivered(lib, calc_id, args)
        window = _rejected_window(lib, args)
        if window is not None:
            reason = MalformedInput(f"window must be a number of seconds >= 0, got {window!r}")
            prior = f"calculator {calc_id} raised", repr(reason)
        elif (t := _non_finite_time(lib, args)) is not None:
            reason = MalformedInput(f"gaze sample t must be a finite number, got {t!r}")
            prior = f"calculator {calc_id} raised", repr(reason)
        elif (bad := _non_finite_coordinate(lib, calc_id, args)) is not None:
            reason = MalformedInput(f"gaze sample {bad[0]} must be a finite number, got {bad[1]!r}")
            prior = f"calculator {calc_id} raised", repr(reason)
        assert _delivered(lib, calc_id, args) == prior


class _CountingSample(dict):
    """A gaze sample that counts the reads of each of its keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


def test_a_gaze_context_is_read_once_and_shared_by_every_library(monkeypatch):
    samples = [_CountingSample(s) for s in gaze_at(0.2, 0.4, 1.5, n=4)]
    samples.append(_CountingSample(t=12.0, x=0.2, y=0.4))  # the only recent one; no z
    dumps = Counter()
    real_dumps = json.dumps

    def counting_dumps(obj, **kwargs):
        dumps[id(obj)] += 1
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    lib = smart_home_library(gaze=samples)
    gaze = lib.get("gaze")
    libs = [lib, lib.filtered(["function_list", "gaze"]), lib.filtered(["gaze", "history"]),
            add_context_type(lib.filtered(["function_list", "gaze"]),
                             make_external_context(["door open"]))]
    wide = '{"window": 100.0}'
    for other in libs * 3:
        assert other.get("gaze") is gaze
        assert json.loads(calculate(other, "gaze_trace", wide)) == samples
        assert calculate(other, "gaze_trace", None) == real_dumps([samples[-1]])
        if "function_list" in other:
            assert calculate(other, "gaze_target", wide).startswith("Light")
    reading = gaze._gaze
    assert all(other.get("gaze")._gaze is reading for other in libs)
    for s in samples:
        assert s.reads == Counter("txyz")
        assert dumps[id(s)] == 1
    # The reading stays out of equality and repr, and in-place edits of the
    # values after the first calculation are not seen.
    assert gaze == ContextType(gaze.name, gaze.description_md, gaze.values)
    assert "_gaze" not in repr(gaze)
    gaze.values.append({"t": 20.0, "x": 9.0, "y": 9.0})
    assert calculate(lib, "gaze_trace", None) == real_dumps([samples[-1]])


def test_unknown_calculator():
    with pytest.raises(CalculatorFailure, match="no calculator registered as 'nonexistent'") as exc:
        calculate(smart_home_library(), "nonexistent", None)
    assert exc.value.diagnostics == ""


def test_calculator_args_parsed_as_json():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    wide = calculate(lib, "gaze_trace", '{"window": 100.0}')
    assert len(json.loads(wide)) == 3
    with pytest.raises(CalculatorFailure):
        calculate(lib, "gaze_trace", "not-json")


@pytest.mark.parametrize(
    "raw_args",
    ['{"window": ' + "1" * 5000 + "}", "[" * 100_000],
    ids=["too-many-digits", "too-deep"],
)
def test_calculator_args_that_fail_to_decode_raise_calculator_failure(raw_args):
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    placeholder = "{{CALC:gaze_target:" + raw_args + "}}"
    with pytest.raises(CalculatorFailure, match="bad calculator args for gaze_target") as exc:
        calculate(lib, "gaze_target", raw_args)
    assert exc.value.diagnostics
    # The whole run of "}" closes the placeholder, an object's own "}" included.
    assert resolve_placeholders(lib, f"at {placeholder}.") == (
        "at [calculation gaze_target unavailable]."
    )


@pytest.mark.parametrize("raw_args", ["null", "[1]", '"abc"', "2"])
def test_calculator_args_must_be_a_json_object(raw_args):
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    with pytest.raises(CalculatorFailure, match="bad calculator args for gaze_trace") as exc:
        calculate(lib, "gaze_trace", raw_args)
    decoded = type(json.loads(raw_args)).__name__
    assert exc.value.diagnostics == f"arguments must be a JSON object, got {decoded}"
    placeholder = "{{CALC:gaze_trace:" + raw_args + "}}"
    with mock.patch.object(logger, "warning") as warn:
        assert resolve_placeholders(lib, f"at {placeholder}.") == (
            "at [calculation gaze_trace unavailable]."
        )
    _, logged, failure, diagnostics = warn.call_args.args
    assert (logged, str(failure)) == (placeholder, str(exc.value))
    assert diagnostics == exc.value.diagnostics


@pytest.mark.parametrize("window", ["NaN", "-5", "-Infinity", "-1e-300", '"nan"'])
@pytest.mark.parametrize("calc_id", ["gaze_target", "gaze_trace"])
def test_a_nan_or_negative_window_fails_the_calculation(calc_id, window):
    """Such a window once selected no sample, so gaze_target answered "no
    gaze data available" and gaze_trace "[]" while samples existed."""
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    placeholder = f'{{{{CALC:{calc_id}:{{"window": {window}}}}}}}'
    with mock.patch.object(logger, "warning") as warn:
        assert resolve_placeholders(lib, placeholder) == f"[calculation {calc_id} unavailable]"
    _, logged, failure, diagnostics = warn.call_args.args
    assert (logged, str(failure)) == (placeholder, f"calculator {calc_id} raised")
    assert diagnostics.startswith("MalformedInput('window must be a number of seconds >= 0, got ")
    # A zero window keeps the newest sample, and without samples the
    # window is not read.
    assert calculate(lib, "gaze_trace", '{"window": 0}') == json.dumps([lib.get("gaze").values[-1]])
    no_samples = {"gaze_target": "no gaze data available", "gaze_trace": "[]"}[calc_id]
    assert calculate(smart_home_library(), calc_id, '{"window": -5}') == no_samples


_LAMP_AND_FAN = [FunctionEntry("lamp", "Lamp", (0.2, 0.2)), FunctionEntry("fan", "Fan", (0.8, 0.8))]


@pytest.mark.parametrize("samples, bad", [
    ([{"t": "nan", "x": 0.2, "y": 0.2}, {"t": 1.0, "x": 0.8, "y": 0.8}], "nan"),
    ([{"t": 1.0, "x": 0.8, "y": 0.8}, {"t": "nan", "x": 0.2, "y": 0.2}], "nan"),
    ([{"t": 0.0, "x": 0.8, "y": 0.8}, {"t": "inf", "x": 0.2, "y": 0.2}], "inf"),
    ([{"t": "-Infinity", "x": 0.8, "y": 0.8}, {"t": 1.0, "x": 0.2, "y": 0.2}], "-inf"),
], ids=["nan-first", "nan-last", "inf", "minus-inf"])
@pytest.mark.parametrize("calc_id", ["gaze_target", "gaze_trace"])
def test_a_non_finite_sample_time_fails_the_calculation(calc_id, samples, bad):
    """Such a time once made the answer depend on the samples' order: a
    leading NaN selected no sample, a later one was dropped, and an
    infinity alone counted as recent."""
    lib = ContextLibrary([make_function_list_context("room", _LAMP_AND_FAN),
                          make_gaze_context(samples)])
    placeholder = f"{{{{CALC:{calc_id}}}}}"
    with mock.patch.object(logger, "warning") as warn:
        assert resolve_placeholders(lib, placeholder) == f"[calculation {calc_id} unavailable]"
    _, logged, failure, diagnostics = warn.call_args.args
    assert (logged, str(failure)) == (placeholder, f"calculator {calc_id} raised")
    assert diagnostics == f"MalformedInput('gaze sample t must be a finite number, got {bad}')"


@pytest.mark.parametrize("samples, axis, bad", [
    ([{"t": 0.0, "x": 0.8, "y": 0.8}, {"t": 0.5, "x": "nan", "y": 0.8}], "x", "nan"),
    ([{"t": 0.0, "x": 0.2, "y": 0.2}, {"t": 0.5, "x": "inf", "y": 0.2}], "x", "inf"),
    ([{"t": 0.0, "x": 0.2, "y": math.nan}], "y", "nan"),
    ([{"t": 0.0, "x": 0.2, "y": 0.2, "z": "-1e999"}], "z", "-inf"),
], ids=["nan-x", "inf-x", "nan-y", "minus-inf-z"])
def test_a_non_finite_recent_coordinate_fails_gaze_target(samples, axis, bad):
    """Such a sample once gave an arbitrary answer: NaN distances kept the
    first function listed, and infinite ones the lower id."""
    lib = ContextLibrary([make_function_list_context("room", _LAMP_AND_FAN),
                          make_gaze_context(samples)])
    with mock.patch.object(logger, "warning") as warn:
        assert resolve_placeholders(lib, "{{CALC:gaze_target}}") == (
            "[calculation gaze_target unavailable]")
    assert warn.call_args.args[-1] == (
        f"MalformedInput('gaze sample {axis} must be a finite number, got {bad}')")


def test_a_gaze_centroid_that_overflows_is_unavailable():
    """Two finite samples whose sum overflows once made every distance
    infinite, so the lower id won."""
    samples = [{"t": 0.0, "x": 1e308, "y": 0.2}, {"t": 0.5, "x": 1e308, "y": 0.2}]
    lib = ContextLibrary([make_function_list_context("room", _LAMP_AND_FAN),
                          make_gaze_context(samples)])
    with pytest.raises(CalculatorFailure) as exc:
        calculate(lib, "gaze_target", None)
    assert exc.value.diagnostics.startswith("OverflowError('gaze centroid [inf, ")


@pytest.mark.parametrize("coordinate, message", [
    ("nan", "function 'fan' location must be a finite number, got nan"),
    ("inf", "function 'fan' location must be a finite number, got inf"),
    ("-Infinity", "function 'fan' location must be a finite number, got -inf"),
    ("1e999", "function 'fan' location must be a finite number, got inf"),
    (10**400, "function 'fan' needs a list of numbers as location"),
], ids=["nan", "inf", "minus-infinity", "1e999", "huge-int"])
def test_a_non_finite_location_is_malformed(coordinate, message):
    """float() accepts "nan" and "inf", so such a location once passed as a
    number; an integer too large for a float raised OverflowError."""
    doc = {"functions": [{"id": "lamp", "name": "Lamp", "location": [0.2, 0.2]},
                         {"id": "fan", "name": "Fan", "location": [coordinate, 0.8]}]}
    with pytest.raises(MalformedInput) as exc:
        parse_function_list(doc)
    assert str(exc.value) == message


def test_calculate_is_referentially_transparent():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    assert calculate(lib, "gaze_target", None) == calculate(lib, "gaze_target", None)


def test_plugin_exception_wrapped_with_diagnostics():
    lib = smart_home_library(gaze=[{"x": 0.2, "y": 0.4}])  # samples without "t"
    with pytest.raises(CalculatorFailure) as exc:
        calculate(lib, "gaze_target", None)
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
        expected = calculate(lib, "gaze_trace", args)
    except CalculatorFailure:
        expected = "[calculation gaze_trace unavailable]"
    assert resolve_placeholders(lib, f"x {placeholder} y") == f"x {expected} y"
    if "100.0" in args:  # the window reaches back to the oldest sample
        assert len(json.loads(expected)) == 4


def test_placeholder_resolves_as_documented():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    text = 'x {{CALC:gaze_trace:{"window": 100.0}}} y'
    expected = calculate(lib, "gaze_trace", '{"window": 100.0}')
    assert resolve_placeholders(lib, text) == f"x {expected} y"


# The grammar before arguments could end in a JSON object's own braces; its
# lazy arguments end at the first "}}".
PLACEHOLDER_RE = re.compile(r"\{\{CALC:([A-Za-z0-9_\-]+)(?::(.+?))?\}\}")


def regex_resolve(lib, text):
    """resolve_placeholders as PLACEHOLDER_RE.sub computes it: the
    reference for the linear scan wherever the two grammars agree."""
    def sub(match):
        try:
            return calculate(lib, match.group(1), match.group(2))
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


def test_each_reply_is_scanned_once(monkeypatch):
    import gesturelink.context

    scans = []
    scan = gesturelink.context._placeholder_spans

    def counting_scan(text):
        scans.append(text)
        return scan(text)

    monkeypatch.setattr(gesturelink.context, "_placeholder_spans", counting_scan)
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    text = 'at {{CALC:gaze_target}}, {{CALC:gaze_trace:{"window": 100.0}}} and {{CALC:nope}}.'
    resolved = resolve_placeholders(lib, text)
    assert scans == [text]
    assert resolved.startswith("at Light") and resolved.endswith("[calculation nope unavailable].")


def _parent_calculate(lib, placeholder: str) -> str:
    """calculate as it was when it took the placeholder's text and
    scanned it again; the reference for the one resolver."""
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
            args = json.loads(raw_args)  # model output, not an input file
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep
            raise CalculatorFailure(
                f"bad calculator args for {calc_id}", diagnostics=str(exc)
            ) from exc
    try:
        return BUILTIN_CALCULATORS[calc_id](lib, args)
    except Exception as exc:  # noqa: BLE001 - diagnostics wrapped for the caller
        raise CalculatorFailure(f"calculator {calc_id} raised", diagnostics=repr(exc)) from exc


def _parent_resolve_placeholders(lib, text: str) -> str:
    """resolve_placeholders as it was, passing each placeholder's text to
    _parent_calculate."""
    parts = []
    done = 0
    for start, end, calc_id, _ in _placeholder_spans(text):
        placeholder = text[start:end]
        parts.append(text[done:start])
        try:
            parts.append(_parent_calculate(lib, placeholder))
        except CalculatorFailure as exc:
            logger.warning(
                "placeholder %s failed: %s; diagnostics: %s", placeholder, exc, exc.diagnostics
            )
            parts.append(f"[calculation {calc_id} unavailable]")
        done = end
    parts.append(text[done:])
    return "".join(parts)


def _resolved_and_logged(resolve, lib, text):
    """resolve's text and the (placeholder, message, diagnostics) it logged."""
    with mock.patch.object(logger, "warning") as warn:
        resolved = resolve(lib, text)
    return resolved, [(p, str(f), d) for _, p, f, d in (c.args for c in warn.call_args_list)]


def _non_object(raw_args):
    """The type name of what raw_args decodes to, when that is not an
    object; None otherwise."""
    try:
        decoded = json.loads(raw_args)
    except (TypeError, ValueError, RecursionError):  # TypeError: no arguments
        return None
    return None if isinstance(decoded, dict) else type(decoded).__name__


_ODD_ARGS = ['{"window": NaN}', '{"window": -5}', '{"window": -Infinity}', '{"window": 0}',
             "NaN", "-1", "null", "[1]", '"abc"']
# The placeholder tokens and odd arguments, half the time as a whole
# placeholder, so that most draws hold one.
_resolver_texts = st.lists(st.one_of(
    st.sampled_from(_PLACEHOLDER_TOKENS + _ODD_ARGS),
    st.builds("{{{{CALC:{}:{}}}}}".format, st.sampled_from(["gaze_target", "gaze_trace", "nope"]),
              st.sampled_from(_ODD_ARGS)),
), max_size=40).map("".join)


@settings(max_examples=500, deadline=None)
@given(_resolver_texts)
@example('at {{CALC:gaze_target:{"window": NaN}}}, {{CALC:gaze_trace:[1]}}, '
         '{{CALC:gaze_trace:"abc"}}, {{CALC:gaze_trace:null}} and {{CALC:nope:2}}.')
def test_one_scan_resolves_as_the_resolver_that_scanned_twice(text):
    """Passing each span's id and arguments to calculate delivers the text
    that passing the placeholder's text did, and logs the same failures,
    except that arguments that decode to something other than an object
    now fail as bad arguments instead of inside the calculator. Both run
    the same calculators, so the window they reject shows in neither;
    test_gaze_calculators_match_the_per_call_conversions covers it."""
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    resolved, logged = _resolved_and_logged(resolve_placeholders, lib, text)
    parent_resolved, parent_logged = _resolved_and_logged(_parent_resolve_placeholders, lib, text)
    assert resolved == parent_resolved
    assert len(logged) == len(parent_logged)
    for (placeholder, message, diagnostics), parent in zip(logged, parent_logged):
        _, _, calc_id, raw_args = next(_placeholder_spans(placeholder))
        decoded = _non_object(raw_args)
        if calc_id in BUILTIN_CALCULATORS and decoded is not None:
            assert (message, diagnostics) == (
                f"bad calculator args for {calc_id}",
                f"arguments must be a JSON object, got {decoded}",
            )
            assert parent[:2] == (placeholder, f"calculator {calc_id} raised")
            assert parent[2].startswith("AttributeError(") and "'get'" in parent[2]
        else:
            assert (placeholder, message, diagnostics) == parent


# --- stored results -------------------------------------------------------------

def _placeholder(calc_id, args):
    return "{{CALC:" + calc_id + (":" + json.dumps(args) if args else "") + "}}"


_replies = st.lists(st.lists(st.one_of(
    st.builds(_placeholder, st.sampled_from(["gaze_target", "gaze_trace", "nope"]), _hostile_args),
    st.sampled_from(_ODD_ARGS).map("{{{{CALC:gaze_target:{}}}}}".format),
), min_size=1, max_size=3).map(" and ".join), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(values=_hostile_values, history=st.lists(_hostile_sample(), max_size=3),
       functions=st.sampled_from(sorted(_FUNCTIONS)),
       keep=st.sampled_from([None, ("function_list", "gaze"), ("history", "gaze"), ("history",)]),
       replies=_replies)
@example([{"t": 0.0, "x": 0.2, "y": 0.4}, {"t": 1.0, "x": "nan", "y": 0.4}], [], "smart_home",
         None, ['{{CALC:gaze_target}} and {{CALC:gaze_trace:{"window": 0.5}}}',
                '{{CALC:gaze_target:{"window": 0.5}}} and {{CALC:gaze_trace:{"window": 0.5}}}'])
def test_stored_results_answer_as_a_fresh_library(values, history, functions, keep, replies):
    """Replies resolved in turn on one library, or on one filtered view,
    deliver the text, and log the failures, that each reply resolved on a
    fresh library delivers and logs."""
    def fresh():
        lib = _library(values, history, functions)
        return lib if keep is None else lib.filtered(keep)

    shared = fresh()
    for text in replies * 2:
        assert (_resolved_and_logged(resolve_placeholders, shared, text)
                == _resolved_and_logged(resolve_placeholders, fresh(), text))


def test_the_store_keeps_at_most_its_limit_and_answers_the_same():
    def library():
        return smart_home_library(gaze=gaze_at(2.4, 0.9, 2.2, t0=0.0) + gaze_at(0.2, 0.4, 1.5))

    lib = library()
    windows = [json.dumps({"window": 0.011 * k}) for k in range(1000)]  # 0 to 11 s
    answers = [calculate(lib, "gaze_target", w) for w in windows]
    assert len(lib._results) == STORED_RESULTS_LIMIT < len(windows)
    assert len(set(answers)) > 1
    assert [calculate(lib, "gaze_target", w) for w in windows] == answers
    assert [calculate(library(), "gaze_target", w) for w in windows] == answers
    assert len(lib._results) == STORED_RESULTS_LIMIT


def test_filtered_hands_out_one_view_per_set_of_names():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    view = lib.filtered(["function_list", "gaze"])
    assert lib.filtered(("gaze", "function_list")) is view
    assert lib.filtered(["gaze", "function_list", "gaze"]) is view
    other = lib.filtered(["function_list", "gaze", "history"])
    assert other is not view and lib.filtered(["gaze"]) is not view
    assert view.names == ["function_list", "gaze"]
    assert other.names == ["function_list", "gaze", "history"]
    assert calculate(view, "gaze_target", None).startswith("Light")
    assert (len(view._results), len(other._results), len(lib._results)) == (1, 0, 0)


def test_threads_share_one_view_and_its_stored_answers():
    """Eight threads, with a short switch interval, filter each of a run of
    libraries at once by shuffled names and resolve replies on the view:
    each set of names yields one view per library, and every reply
    resolves as on a fresh library."""
    def library():
        return smart_home_library(gaze=gaze_at(2.4, 0.9, 2.2, t0=0.0) + gaze_at(0.2, 0.4, 1.5))

    names = [("function_list", "gaze"), ("function_list", "gaze", "history"), ("gaze",)]
    texts = ["at {{CALC:gaze_target:" + json.dumps({"window": 0.5 * k}) + "}} and "
             "{{CALC:gaze_trace:" + json.dumps({"window": 0.5 * k}) + "}}" for k in range(24)]
    expected = {(keep, text): resolve_placeholders(library().filtered(keep), text)
                for keep in names for text in texts}
    libs = [library() for _ in range(300)]
    barrier = threading.Barrier(8, timeout=60)
    seen, errors = [], []

    def work(seed):
        rng = random.Random(seed)
        try:
            for lib in libs:
                keep = rng.choice(names)
                barrier.wait()
                view = lib.filtered(rng.sample(keep, len(keep)))
                text = rng.choice(texts)
                same = resolve_placeholders(view, text) == expected[keep, text]
                seen.append((lib, keep, view, same))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(seen) == 8 * len(libs) and all(same for *_, same in seen)
    assert all(view is lib.filtered(keep) for lib, keep, view, _ in seen)


def test_a_repeat_answers_from_the_store_and_a_patched_calculator_takes_effect():
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))
    answer = calculate(lib, "gaze_target", None)
    calls = []

    def counting(lib, args):
        calls.append(args)
        return "patched"

    with mock.patch.dict(BUILTIN_CALCULATORS, {"gaze_target": counting}):
        assert calculate(lib, "gaze_target", None) == "patched"
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            for _ in range(3):
                assert calculate(lib, "gaze_target", '{"window": 1.0}') == "patched"
        assert loads.call_count == 1  # the first of the three decodes; the repeats do not
    assert calls == [{}, {"window": 1.0}]
    assert calculate(lib, "gaze_target", None) == answer


def test_unclosed_placeholders_resolve_in_linear_time():
    text = "{{CALC:x:" * 8000  # 72,000 characters, no "}}"
    lib = smart_home_library()
    start = time.perf_counter()
    assert resolve_placeholders(lib, text) == text
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("piece", ["{{CALC:x:", "{{CALC:gaze_target}} ", "{{CALC:nope}} "],
                         ids=["unclosed-openers", "closed", "closed-failing"])
def test_placeholder_python_work_grows_linearly_in_reply_length(piece):
    """Doubling a reply made of one placeholder piece at most about doubles
    the Python calls of resolve_placeholders, counted by cProfile."""
    lib = smart_home_library(gaze=gaze_at(0.2, 0.4, 1.5))

    def calls(chars):
        count, result = python_calls(resolve_placeholders, lib, piece * (chars // len(piece)))
        assert isinstance(result, str)
        return count

    assert calls(40_000) / calls(20_000) <= 2.2


def _library_calls(count):
    """Python calls of building a library of count functions on a grid,
    reading its function list and prompt, and resolving gaze_target."""
    functions = [FunctionEntry(f"device{k}.power", f"Device {k} Power",
                               (float(k % 20), float(k // 20), 1.0)) for k in range(count)]

    def work():
        lib = ContextLibrary([make_function_list_context("Grid", functions),
                              make_gaze_context(gaze_at(3.0, 4.0, 1.0))])
        texts = lib.function_list_text, render_library_prompt(lib)
        return texts, resolve_placeholders(lib, "look at {{CALC:gaze_target}}")

    calls, ((listing, _), resolved) = python_calls(work)
    assert len(listing.splitlines()) == count and resolved == "look at Device 83 Power"
    return calls


def test_library_python_work_grows_linearly_in_functions():
    """Doubling the library's functions at most about doubles the Python
    calls of building, rendering and resolving gaze_target over it."""
    assert _library_calls(400) / _library_calls(200) <= 2.2


# --- rendering and serialization ------------------------------------------------

def test_function_list_text_is_rendered_once_and_shared_by_filters():
    lib = smart_home_library()
    text = lib.function_list_text
    assert text.splitlines()[0] == "- light.power: Light Power (location: 0.2, 0.4, 1.5)"
    assert len(text.splitlines()) == len(lib.functions)
    for keep in (["function_list"], ["function_list", "gaze"], lib.names):
        assert lib.filtered(keep).function_list_text is text
        assert lib.filtered(keep)._locations is lib._locations
    assert lib.filtered(["gaze"]).function_list_text == ""
    assert ContextLibrary([]).function_list_text == ""


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
        assert isinstance(calculate(lib, calc_id, None), str)
