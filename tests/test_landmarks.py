import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from gesturelink.errors import GestureLinkError, MalformedInput, parse_json
from gesturelink.landmarks import (
    LANDMARK_NAMES,
    HandLandmarkFrame,
    Handedness,
    LandmarkStream,
    SourceView,
    decode_frame,
    first_bad_frame,
    landmark_index,
    parse_landmark_stream,
)

from conftest import FLAT_HAND_POINTS, parse_frame, stream_json


def test_parse_valid_three_frame_file():
    raw = stream_json([(0.0, FLAT_HAND_POINTS), (0.1, FLAT_HAND_POINTS), (0.2, FLAT_HAND_POINTS)])
    stream = parse_landmark_stream(raw)
    assert len(stream.frames) == 3
    assert all(f.handedness == Handedness.RIGHT for f in stream.frames)
    assert stream.source_view == SourceView.THIRD_PERSON
    assert stream.frames[1].timestamp == 0.1


def test_parse_rejects_wrong_landmark_count():
    doc = json.loads(stream_json([(0.0, FLAT_HAND_POINTS)]))
    doc["frames"][0]["lm"] = doc["frames"][0]["lm"][:20]
    with pytest.raises(MalformedInput, match="has 20 landmarks of shape"):
        parse_landmark_stream(json.dumps(doc))


def test_parse_rejects_non_monotonic_timestamps():
    raw = stream_json([(0.0, FLAT_HAND_POINTS), (0.0, FLAT_HAND_POINTS)])
    with pytest.raises(MalformedInput, match="timestamps not strictly increasing: 0.0 -> 0.0"):
        parse_landmark_stream(raw)


def test_parse_rejects_garbage_bytes():
    with pytest.raises(MalformedInput):
        parse_landmark_stream(b"not json at all {")


def test_parse_rejects_out_of_range_coordinates():
    points = list(FLAT_HAND_POINTS)
    points[3] = (1.6, 0.5, 0.0)
    with pytest.raises(MalformedInput):
        parse_landmark_stream(stream_json([(0.0, points)]))


def test_landmark_rejects_non_finite():
    with pytest.raises(MalformedInput):
        HandLandmarkFrame(0.0, Handedness.RIGHT, [(float("nan"), 0.5, 0.0)] + FLAT_HAND_POINTS[1:])


@pytest.mark.parametrize(
    "row,value,error",
    [(3, (float("nan"), 0.5, 0.0), MalformedInput), (3, (0.5, 0.5, float("inf")), MalformedInput),
     (3, (1.6, 0.5, 0.0), MalformedInput), (3, (0.5, -0.6, 0.0), MalformedInput),
     (None, None, MalformedInput)],
)
def test_direct_frame_construction_validates_like_parsing(row, value, error):
    points = [list(p) for p in FLAT_HAND_POINTS]
    if row is None:
        points = points[:20]
    else:
        points[row] = list(value)
    match = "has 20 landmarks of shape" if row is None else None  # the count's own message
    with pytest.raises(error, match=match):
        HandLandmarkFrame(0.0, Handedness.RIGHT, np.array(points))
    doc = {"frames": [{"t": 0.0, "lm": points}]}
    with pytest.raises(error, match=match):
        parse_landmark_stream(json.dumps(doc))


def test_first_bad_frame_names_the_first_bad_frame_and_its_first_fault():
    coords, times = np.tile(np.array(FLAT_HAND_POINTS), (4, 1, 1)), np.array([0.0, -1.0, 0.2, 0.3])
    coords[2, 3, 0] = np.nan
    assert first_bad_frame(coords[:1], times[:1]) is None
    assert first_bad_frame(coords[:0], times[:0]) is None
    assert first_bad_frame(coords, times) == (1, "bad frame timestamp: -1.0")
    coords[1, 3, 1] = 2.0
    assert first_bad_frame(coords, times) == (
        1, "landmark coordinate outside [-0.5, 1.5] at t=-1.0")
    coords[1, 4, 2] = np.inf
    assert first_bad_frame(coords, times) == (1, "non-finite landmark coordinate at t=-1.0")


def test_direct_frame_construction_words_its_timestamp_as_a_float():
    with pytest.raises(MalformedInput, match=r"^bad frame timestamp: -1\.0$"):
        HandLandmarkFrame(-1, Handedness.RIGHT, FLAT_HAND_POINTS)


def test_frame_coords_are_read_only():
    source = np.array(FLAT_HAND_POINTS)
    frame = HandLandmarkFrame(0.0, Handedness.RIGHT, source)
    assert frame.coords.shape == (21, 3)
    with pytest.raises(ValueError):
        frame.coords[0, 0] = 0.9
    source[0, 0] = 0.9  # the frame holds its own copy
    assert frame.coords[0, 0] == FLAT_HAND_POINTS[0][0]


def test_frame_equality_compares_coordinates():
    a = HandLandmarkFrame(0.0, Handedness.RIGHT, FLAT_HAND_POINTS)
    b = HandLandmarkFrame(0.0, Handedness.RIGHT, np.array(FLAT_HAND_POINTS))
    moved = [list(p) for p in FLAT_HAND_POINTS]
    moved[8][1] += 0.01
    assert a == b
    assert a != HandLandmarkFrame(0.0, Handedness.RIGHT, moved)
    assert a != HandLandmarkFrame(0.0, Handedness.RIGHT, FLAT_HAND_POINTS, has_depth=False)


def test_decode_frame_fills_missing_depth():
    entry = {"t": 0.5, "lm": [[x, y] for x, y, _ in FLAT_HAND_POINTS]}
    coords, times, depth = np.zeros((2, 21, 3)), np.zeros(2), np.ones(2, dtype=bool)
    decode_frame(entry, 1, coords, times, depth)
    assert times.tolist() == [0.0, 0.5] and depth.tolist() == [True, False]
    assert coords[1].tolist() == [[x, y, 0.0] for x, y, _ in FLAT_HAND_POINTS]
    assert not coords[0].any()


def test_two_component_landmarks_mark_stream_flat():
    doc = json.loads(stream_json([(0.0, FLAT_HAND_POINTS)]))
    doc["frames"][0]["lm"] = [[x, y] for x, y, _ in FLAT_HAND_POINTS]
    stream = parse_landmark_stream(json.dumps(doc))
    assert stream.frames[0].has_depth is False
    assert (stream.frames[0].coords[:, 2] == 0.0).all()


def test_left_hand_parses():
    raw = stream_json([(0.0, FLAT_HAND_POINTS)], handedness="left")
    stream = parse_landmark_stream(raw)
    assert stream.frames[0].handedness == Handedness.LEFT


@pytest.mark.parametrize(
    "name,index", [("WRIST", 0), ("THUMB_TIP", 4), ("PINKY_TIP", 20)]
)
def test_landmark_index_schema_constants(name, index):
    assert landmark_index(name) == index


def test_landmark_index_is_a_bijection():
    indices = [landmark_index(n) for n in LANDMARK_NAMES]
    assert sorted(indices) == list(range(21))


def test_landmark_index_unknown_name():
    with pytest.raises(MalformedInput, match="unknown landmark name: 'THUMB_TOP'"):
        landmark_index("THUMB_TOP")


_coord = st.floats(min_value=-0.5, max_value=1.5, allow_nan=False)
_depth = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_frame_points = st.lists(st.tuples(_coord, _coord, _depth), min_size=21, max_size=21)


@st.composite
def _streams(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    gaps = draw(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=n, max_size=n))
    handed = draw(st.sampled_from(["right", "left"]))
    view = draw(st.sampled_from(["first_person", "third_person"]))
    frames = []
    t = 0.0
    for gap in gaps:
        t += gap
        frames.append({"t": t, "lm": [list(p) for p in draw(_frame_points)]})
    return json.dumps(
        {"source_view": view, "handedness": handed, "frames": frames}
    ).encode()


def _write_stream(stream):
    """The stream in the documented format: floats at full repr precision,
    so that parsing the text gives the stream back, and [x, y] rows for
    frames without depth."""
    doc = {
        "source_view": stream.source_view.value,
        "handedness": stream.handedness.value,
        "frames": [
            {"t": t, "lm": (coords if has_depth else coords[:, :2]).tolist()}
            for t, coords, has_depth in zip(
                stream.timestamps.tolist(), stream.coords, stream.depth_flags.tolist())
        ],
    }
    return json.dumps(doc, ensure_ascii=False, allow_nan=False).encode("utf-8")


@given(_streams())
def test_parse_serialize_round_trip(raw):
    stream = parse_landmark_stream(raw)
    again = parse_landmark_stream(_write_stream(stream))
    assert again == stream


def test_frame_mixing_two_and_three_component_rows_rejected():
    doc = json.loads(stream_json([(0.0, FLAT_HAND_POINTS)]))
    doc["frames"][0]["lm"][4] = doc["frames"][0]["lm"][4][:2]
    with pytest.raises(MalformedInput, match="all \\[x, y\\] or all \\[x, y, z\\]"):
        parse_landmark_stream(json.dumps(doc))


# --- array parse against the frame-by-frame parse ----------------------------------

def _frame_by_frame(text):
    """Reference parse: json.loads, every entry through parse_frame, then the time order."""
    doc = json.loads(text)
    try:
        handedness = Handedness(doc.get("handedness", "right"))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    frames = [parse_frame(e, handedness) for e in doc["frames"]]
    for a, b in zip(frames, frames[1:]):
        if b.timestamp <= a.timestamp:
            raise MalformedInput(
                f"timestamps not strictly increasing: {a.timestamp} -> {b.timestamp}"
            )
    return frames


def _outcome(parse, doc):
    try:
        return "ok", parse(doc)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


_ROWS = [list(p) for p in FLAT_HAND_POINTS]
_FLAT_ROWS = [[x, y] for x, y, _ in FLAT_HAND_POINTS]
_NAN_ROWS = [[float("nan"), 0.5, 0.0]] + _ROWS[1:]
_FAR_ROWS = _ROWS[:3] + [[1.6, 0.5, 0.0]] + _ROWS[4:]


def _entries(*pairs):
    return [{"t": t, "lm": lm} for t, lm in pairs]


HOSTILE_FRAMES = {
    "one_row": _entries((0.0, _ROWS), (0.1, [_ROWS[0]])),
    "flat_xyz": _entries((0.0, [0.5, 0.5, 0.0])),
    "scalar_lm": _entries((0.0, _ROWS), (0.1, 0.5)),
    "rows_of_one_number": _entries((0.0, [[0.5]] * 21)),
    "20_rows": _entries((0.0, _ROWS[:20])),
    "22_rows": _entries((0.0, _ROWS + [_ROWS[0]])),
    "string_coordinates": _entries((0.0, [[str(v) for v in row] for row in _ROWS])),
    "bool_coordinates": _entries((0.0, [[True, False, True]] * 21)),
    "bool_timestamp": _entries((True, _ROWS)),
    "string_timestamp": _entries(("0.5", _ROWS), ("x", _ROWS)),
    "huge_int_timestamp": _entries((0.0, _ROWS), (10 ** 400, _ROWS)),
    "negative_timestamp": _entries((-1.0, _ROWS)),
    "nan_coordinate": _entries((0.0, _ROWS), (0.1, _NAN_ROWS)),
    "out_of_range": _entries((0.0, _FAR_ROWS)),
    "non_monotonic": _entries((0.0, _ROWS), (0.2, _ROWS), (0.1, _ROWS)),
    "non_dict_frames": [_entries((0.0, _ROWS))[0], [0.1, _ROWS]],
    "string_frame": ["frame"],
    "null_frame": [None],
    "missing_lm": [{"t": 0.0}],
    "mixed_rows": _entries((0.0, _ROWS[:4] + [_ROWS[4][:2]] + _ROWS[5:])),
    "empty": [],
    "mixed_2d_3d": _entries((0.0, _ROWS), (0.1, _FLAT_ROWS), (0.2, _ROWS)),
    # An earlier bad frame wins over a later entry the arrays cannot take,
    # and a later unreadable entry wins over a time-order fault before it.
    "nan_then_one_row": _entries((0.0, _NAN_ROWS), (0.1, [_ROWS[0]])),
    "far_then_non_dict": _entries((0.0, _ROWS), (0.1, _FAR_ROWS)) + ["frame"],
    "non_monotonic_then_20_rows": _entries((0.2, _ROWS), (0.1, _ROWS), (0.3, _ROWS[:20])),
    "non_monotonic_then_nan": _entries((0.2, _ROWS), (0.1, _ROWS), (0.3, _NAN_ROWS)),
    # "lm" keys that are not a frame's own: the decoder converts them too.
    "frame_in_lm": [{"t": 0.0, "lm": {"t": 0.0, "lm": _ROWS}}],
    "frame_in_lm_row": _entries((0.0, [{"t": 0.0, "lm": _ROWS}] * 21)),
    "frame_in_t": [{"t": {"t": 0.0, "lm": _ROWS}, "lm": _ROWS}],
    "extra_keys_with_lm": [dict(e, extra={"lm": _ROWS}, bad={"lm": "x"}, deep={"lm": {"lm": 1}})
                           for e in _entries((0.0, _ROWS), (0.1, _FLAT_ROWS))],
    "null_lm": _entries((0.0, _ROWS), (0.1, None)),
    # Shapes the message words as the per-frame parse did, [x, y] rows padded first.
    "20_flat_rows": _entries((0.0, _FLAT_ROWS[:20])),
    "rows_of_four": _entries((0.0, [row + [0.0] for row in _ROWS])),
    "empty_lm": _entries((0.0, [])),
    "lm_of_two_numbers": _entries((0.0, [0.5, 0.5])),
    # Within a frame: non-finite, then out of range, then the timestamp.
    "nan_and_far": _entries((0.0, _NAN_ROWS[:3] + _FAR_ROWS[3:])),
    "nan_and_negative_t": _entries((-1.0, _NAN_ROWS)),
    "far_and_negative_t": _entries((-1.0, _FAR_ROWS)),
    "negative_t_then_nan": _entries((-1.0, _ROWS), (0.1, _NAN_ROWS)),
    "infinite_t": _entries((0.0, _ROWS), (float("inf"), _ROWS)),
    # Values a packer of well-formed frames must decline, or take as np.array does.
    "string_rows": _entries((0.0, ["123"] * 21)),
    "flat_string_rows": _entries((0.0, ["12"] * 21)),
    "ragged_rows_of_63_numbers": _entries((0.0, _ROWS[:3] + [_ROWS[3] + [0.0], _ROWS[4][:2]]
                                                + _ROWS[5:])),
    "object_rows": _entries((0.0, [{"x": 0.5, "y": 0.5, "z": 0.0}] * 21)),
    "true_timestamp_then_more": _entries((True, _ROWS), (2.0, _FLAT_ROWS)),
    "numeric_string_timestamp": _entries(("0.5", _ROWS), (0.6, _ROWS)),
    "int_timestamps": _entries((0, _ROWS), (1, _FLAT_ROWS), (2, _ROWS)),
    "int_coordinates": _entries((0.0, [[0, 1, 0]] * 21), (0.1, [[1, 0]] * 21)),
    "bool_flat_coordinates": _entries((0.0, [[True, False]] * 21)),
    "null_coordinate": _entries((0.0, _ROWS[:3] + [[0.5, None, 0.0]] + _ROWS[4:])),
    "huge_int_coordinate": _entries((0.0, _ROWS[:3] + [[0.5, 10 ** 400, 0.0]] + _ROWS[4:])),
    "negative_zero_coordinates": _entries((0.0, [[-0.0, 0.5, -0.0]] * 21),
                                          (0.1, [[0.5, -0.0]] * 21)),
    "extra_frame_keys": [dict(e, id=k, note="x", score=None)
                         for k, e in enumerate(_entries((0.0, _ROWS), (0.1, _FLAT_ROWS)))],
    "frame_in_extra_key": [dict(e, extra={"t": 0.0, "lm": _ROWS})
                           for e in _entries((0.0, _ROWS), (0.1, _FLAT_ROWS))],
    "flat_frame_in_t": [{"t": {"t": 0.0, "lm": _FLAT_ROWS}, "lm": _ROWS}],
}
# An earlier frame's bad value wins over each later structural fault.
_STRUCTURAL_FAULTS = {
    "list_entry": [0.2, _ROWS],
    "missing_t": {"lm": _ROWS},
    "bad_t": {"t": "x", "lm": _ROWS},
    "bad_lm": {"t": 0.2, "lm": [["x", 0.5, 0.0]] * 21},
    "20_rows": {"t": 0.2, "lm": _ROWS[:20]},
}
for _value, _bad in {"nan": (0.1, _NAN_ROWS), "far": (0.1, _FAR_ROWS),
                     "negative_t": (-0.1, _ROWS)}.items():
    for _fault, _entry in _STRUCTURAL_FAULTS.items():
        HOSTILE_FRAMES[f"{_value}_then_{_fault}"] = _entries((0.0, _ROWS), _bad) + [_entry]

# Whole documents, as text so that a key can repeat; HAND is the handedness.
_FRAME = json.dumps({"t": 0.0, "lm": _ROWS})
HOSTILE_DOCUMENTS = {
    "top_level_lm": f'{{"lm": {json.dumps(_ROWS)}, "handedness": "HAND", "frames": [{_FRAME}]}}',
    "handedness_object": f'{{"handedness": {{"lm": {json.dumps(_ROWS)}}}, "frames": [{_FRAME}]}}',
    "lm_twice_last_wins": f'{{"handedness": "HAND", "frames": [{{"t": 0.0, "lm": [[0.5]], '
                          f'"lm": {json.dumps(_FLAT_ROWS)}}}]}}',
    "lm_twice_last_bad": f'{{"handedness": "HAND", "frames": [{{"t": 0.0, "lm": '
                         f'{json.dumps(_ROWS)}, "lm": [[0.5]]}}]}}',
    "handedness_frame": f'{{"handedness": {_FRAME}, "frames": [{_FRAME}]}}',
}

# The message prints a value holding an "lm", which the parse shows as an array.
_ARRAY_IN_MESSAGE = {"frame_in_t", "flat_frame_in_t", "handedness_object", "handedness_frame"}


def _hostile_text(name, handedness):
    if name in HOSTILE_DOCUMENTS:
        return HOSTILE_DOCUMENTS[name].replace("HAND", handedness)
    return json.dumps({"handedness": handedness, "frames": HOSTILE_FRAMES[name]})


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES) + sorted(HOSTILE_DOCUMENTS))
@pytest.mark.parametrize("handedness", ["right", "left"])
def test_array_parse_matches_frame_by_frame_parse(name, handedness):
    text = _hostile_text(name, handedness)
    got = _outcome(parse_landmark_stream, text)
    want = _outcome(_frame_by_frame, text)
    if want[0] != "ok":
        assert got[0] == want[0]
        assert issubclass(got[0], GestureLinkError)
        assert (got[1] == want[1]) is (name not in _ARRAY_IN_MESSAGE)
    else:
        assert got[0] == "ok" and list(got[1].frames) == want[1]
        assert got[1].handedness == Handedness(handedness)


def test_messages_print_an_lm_inside_a_shown_value_as_an_array():
    lm = np.array(_ROWS)
    for name, message in [
        ("frame_in_t", f"bad timestamp: {{'t': 0.0, 'lm': {lm!r}}}"),
        ("handedness_object", f"{{'lm': {lm!r}}} is not a valid Handedness"),
    ]:
        with pytest.raises(MalformedInput) as err:
            parse_landmark_stream(_hostile_text(name, "right"))
        assert str(err.value) == message


def test_parse_peak_memory_stays_within_three_times_the_text():
    # The row lists of json.loads' document took 6.5 times the text: each
    # frame's "lm" must become an array as it is decoded.
    coords = np.random.default_rng(0).uniform(0.0, 1.0, (3000, 21, 3)).round(6)
    stream = LandmarkStream(coords, np.arange(3000) / 30, np.ones(3000, dtype=bool))
    text = _write_stream(stream)
    tracemalloc.start()
    try:
        parsed = parse_landmark_stream(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == stream
    assert peak <= 3 * len(text)


# --- packed parse against the prior parse -----------------------------------------

def _prior_lm_as_array(obj: dict) -> dict:
    """The parse's object_hook before it packed frames, verbatim."""
    if "lm" in obj:
        try:
            obj["lm"] = np.array(obj["lm"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def _prior_parse(raw):
    """The parse before it packed frames, verbatim: every "lm" becomes an
    array as it is decoded, then decode_frame copies each entry."""
    doc = parse_json(raw, object_hook=_prior_lm_as_array)
    if not isinstance(doc, dict):
        raise MalformedInput("stream document must be a JSON object")

    try:
        handedness = Handedness(doc.get("handedness", "right"))
        source_view = SourceView(doc.get("source_view", "third_person"))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc

    raw_frames = doc.get("frames")
    if not isinstance(raw_frames, list):
        raise MalformedInput('missing or non-list "frames"')

    n = len(raw_frames)
    coords, times, depth = np.zeros((n, 21, 3)), np.empty(n), np.empty(n, dtype=bool)
    for i, entry in enumerate(raw_frames):
        try:
            decode_frame(entry, i, coords, times, depth)
        except MalformedInput:
            if bad := first_bad_frame(coords[:i], times[:i]):  # the first bad frame wins
                raise MalformedInput(bad[1]) from None
            raise
    return LandmarkStream(coords, times, depth, handedness, source_view)


def _exact_outcome(parse, text):
    """The stream's array bits, handedness and view, or the error's class and
    message. The bits are hashed, so a failure prints no long byte strings."""
    try:
        s = parse(text)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    arrays = [(a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
              for a in (s.coords, s.timestamps, s.depth_flags)]
    return "ok", arrays, s.handedness, s.source_view


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES) + sorted(HOSTILE_DOCUMENTS))
def test_packed_parse_matches_the_prior_parse_bit_for_bit(name):
    text = _hostile_text(name, "left")
    assert _exact_outcome(parse_landmark_stream, text) == _exact_outcome(_prior_parse, text)


_HOSTILE_VALUES = ["123", "0.5", None, True, False, 1, 0, 10 ** 400, -0.0, float("nan"),
                   float("inf"), 2.0, [0.5], {"x": 0.5}]
_HOSTILE_ROWS = ["123", "12", {"x": 0.5, "y": 0.5, "z": 0.0}, [0.5], [0.5, 0.5], [0.5, 0.5, 0.5],
                 [0.5, 0.5, 0.5, 0.5], [], None, 0.5]
_HOSTILE_TIMES = [True, False, "0.5", "x", 3, 0, None, -1.0, 10 ** 400, float("nan"), [0.1],
                  {"t": 0.0, "lm": _ROWS}, {"t": 0.0, "lm": _FLAT_ROWS}, {"lm": _ROWS}]
_NESTED = [{"t": 0.0, "lm": _ROWS}, {"t": 0.0, "lm": _FLAT_ROWS}, {"lm": _ROWS},
           {"t": 0.0, "lm": "x"}, 5]


def _mutate(doc, kind, value, k, r, c):
    """doc with one change of the given kind at frame k, row r, column c."""
    frames = doc["frames"]
    frame = frames[k]
    if kind == "coordinate":
        row = frame["lm"][r]
        row[c % len(row)] = value
    elif kind == "row":
        frame["lm"][r] = value
    elif kind == "row_count":
        frame["lm"] = frame["lm"][:r] + frame["lm"][r + 1:] if c else frame["lm"] + [[0.5] * 3]
    elif kind == "t":
        frame["t"] = value
    elif kind == "extra_key":
        frame["extra"] = value
    elif kind == "missing_key":
        del frame["t" if c else "lm"]
    elif kind == "entry":
        frames[k] = value
    elif kind == "handedness":
        doc["handedness"] = value
    elif kind == "top_level_lm":
        doc["lm"] = frame["lm"]
    elif kind == "swap_times":
        frame["t"], frames[-1]["t"] = frames[-1]["t"], frame["t"]
    return doc


@st.composite
def _mutated_documents(draw):
    """A valid 3D, 2D or mixed document, then one mutation of it."""
    mode = draw(st.sampled_from(["3d", "2d", "mixed"]))
    n = draw(st.integers(min_value=1, max_value=4))
    frames = []
    for i in range(n):
        width = 3 if mode == "3d" or (mode == "mixed" and draw(st.booleans())) else 2
        rows = draw(_frame_points)
        frames.append({"t": i / 30, "lm": [list(p[:width]) for p in rows]})
    doc = {"source_view": draw(st.sampled_from(["first_person", "third_person"])),
           "handedness": draw(st.sampled_from(["right", "left"])), "frames": frames}
    kind, values = draw(st.sampled_from([
        ("none", [None]), ("coordinate", _HOSTILE_VALUES), ("row", _HOSTILE_ROWS),
        ("row_count", [None]), ("t", _HOSTILE_TIMES), ("extra_key", _NESTED),
        ("missing_key", [None]), ("entry", ["frame", None, [0.1, _ROWS], _NESTED[0]]),
        ("handedness", _NESTED + ["up"]), ("top_level_lm", [None]), ("swap_times", [None]),
    ]))
    value = draw(st.sampled_from(values))
    k, r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, 20)), draw(st.integers(0, 2))
    return json.dumps(_mutate(doc, kind, value, k, r, c))


# No shrink phase: shrinking these documents ran for minutes on a failure.
@settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_mutated_documents())
# A numeric string keeps the second 2D frame from packing, so the first
# frame's packed bytes are restored as its 21 x 2 array.
@example(json.dumps({"frames": _entries((0.0, _FLAT_ROWS),
                                        (1 / 30, [["0.53", 0.5]] + _FLAT_ROWS[1:]))}))
def test_packed_parse_matches_the_prior_parse_on_mutated_documents(text):
    assert _exact_outcome(parse_landmark_stream, text) == _exact_outcome(_prior_parse, text)


@pytest.mark.parametrize("frames", [
    _entries((0.0, _ROWS), (0.1, _ROWS)), _entries((0.0, _FLAT_ROWS), (0.1, _FLAT_ROWS)),
    HOSTILE_FRAMES["mixed_2d_3d"], _entries((0.0, _ROWS)),
], ids=["3d", "2d", "mixed", "one_frame"])
def test_parsed_coords_are_one_read_only_contiguous_float_block(frames):
    # rules._take reads coords.reshape(N, 63), which must stay a view.
    stream = parse_landmark_stream(json.dumps({"frames": frames}))
    coords = stream.coords
    assert coords.dtype == np.float64 and coords.flags.c_contiguous
    assert not coords.flags.writeable
    with pytest.raises(ValueError):
        coords[0, 0, 0] = 0.5
    assert np.shares_memory(coords.reshape(len(coords), 63), coords)
    for frame in stream.frames:
        assert np.shares_memory(frame.coords, coords) and frame.coords.flags.c_contiguous


@pytest.mark.parametrize(
    "raw", [b'{"frames": []}\xff', "\ufeff{}".encode("utf-16"), b"[" * 100_000, b"1" * 5000],
    ids=["not-utf-8", "utf-16", "nested-too-deep", "integer-too-long"],
)
def test_undecodable_documents_raise_malformed_input(raw):
    with pytest.raises(MalformedInput, match="not valid JSON"):
        parse_landmark_stream(raw)


def test_broadcastable_landmarks_rejected():
    for name in ("one_row", "flat_xyz", "scalar_lm", "rows_of_one_number"):
        with pytest.raises(MalformedInput, match="expected 21 of shape"):
            parse_landmark_stream(json.dumps({"frames": HOSTILE_FRAMES[name]}))


def test_mixed_2d_3d_stream_keeps_per_frame_depth():
    stream = parse_landmark_stream(json.dumps({"frames": HOSTILE_FRAMES["mixed_2d_3d"]}))
    assert stream.coords.shape == (3, 21, 3)
    assert stream.depth_flags.tolist() == [True, False, True]
    assert [f.has_depth for f in stream.frames] == [True, False, True]
    assert (stream.coords[1, :, 2] == 0.0).all()
    again = parse_landmark_stream(_write_stream(stream))
    assert again == stream
    assert json.loads(_write_stream(stream))["frames"][1]["lm"] == _FLAT_ROWS


def test_stream_arrays_are_read_only_and_frames_are_views():
    stream = parse_landmark_stream(stream_json([(0.0, FLAT_HAND_POINTS), (0.1, FLAT_HAND_POINTS)]))
    for array in (stream.coords, stream.timestamps, stream.depth_flags):
        with pytest.raises(ValueError):
            array[0] = 0
    frame = stream.frames[1]
    assert frame == HandLandmarkFrame(0.1, Handedness.RIGHT, FLAT_HAND_POINTS)
    assert np.shares_memory(frame.coords, stream.coords)
    assert len(stream[1:]) == 1 and stream[1:].timestamps.tolist() == [0.1]
    with pytest.raises(IndexError):
        stream.frames[2]


@pytest.mark.parametrize("index", [slice(20, 80), slice(None), slice(3, 90, 7), slice(95, 200),
                                   slice(50, 10), slice(-30, None, 2)])
def test_stream_slice_is_an_unchecked_view_equal_to_a_fresh_stream(monkeypatch, index):
    from gesturelink import landmarks

    gen = np.random.default_rng(7)
    coords = gen.uniform(0.0, 1.0, (100, 21, 3))
    times, depth = np.arange(100) / 30, gen.random(100) < 0.7
    stream = LandmarkStream(coords, times, depth, Handedness.LEFT, SourceView.FIRST_PERSON)
    fresh = LandmarkStream(coords[index], times[index], depth[index], Handedness.LEFT,
                           SourceView.FIRST_PERSON)
    checks = []
    monkeypatch.setattr(landmarks, "first_bad_frame", lambda *a: checks.append(a))
    part = stream[index]
    assert checks == []
    assert type(part) is LandmarkStream and part == fresh and len(part) == len(fresh)
    for name in ("coords", "timestamps", "depth_flags"):
        array = getattr(part, name)
        assert not array.flags.writeable
        assert len(array) == 0 or np.shares_memory(array, getattr(stream, name))
    assert [f == g for f, g in zip(part, fresh)] == [True] * len(fresh)


def test_reversed_stream_slice_still_raises():
    stream = parse_landmark_stream(stream_json([(0.0, FLAT_HAND_POINTS), (0.1, FLAT_HAND_POINTS)]))
    with pytest.raises(MalformedInput, match=r"timestamps not strictly increasing: 0.1 -> 0.0"):
        stream[::-1]
    assert stream[1::-2].timestamps.tolist() == [0.1]


@pytest.mark.parametrize(
    "coords,times,match",
    [(np.zeros((2, 20, 3)), [0.0, 0.1], r"shapes \(2, 20, 3\), \(2,\) and \(2,\)"),
     (np.full((2, 21, 3), 0.5), [0.0], r"shapes \(2, 21, 3\), \(1,\) and \(2,\)"),
     (np.full((2, 21, 3), 2.0), [0.0, 0.1], "landmark coordinate outside"),
     (np.full((2, 21, 3), 0.5), [0.1, 0.1], "timestamps not strictly increasing")],
    ids=["20-landmarks", "fewer-timestamps", "out-of-range", "repeated-timestamp"],
)
def test_direct_stream_construction_validates(coords, times, match):
    with pytest.raises(MalformedInput, match=match):
        LandmarkStream(coords, times, [True] * len(coords))
