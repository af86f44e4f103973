import json
import math
import random

import numpy as np
import pytest

from conftest import (
    FLAT_HAND_POINTS,
    hand_at,
    make_frame,
    make_stream,
    random_points,
    trajectory_stream,
    translate,
)
from gesturelink.encoder import (
    GestureStateMatrix,
    GestureWindow,
    SegmentationConfig,
    build_state_matrix,
    detect_gesture_window,
    encode_stream,
    matrix_from_json,
    matrix_to_json,
    sample_window,
    serialize_matrix,
    serialize_movement,
    validate_state_matrix,
)
from gesturelink.errors import MalformedInput
from gesturelink.landmarks import Handedness, LandmarkStream, parse_landmark_stream
from gesturelink.rules import (
    POSE_ROW_LABELS,
    RuleThresholds,
    encode_pose_vector,
    hand_center,
    hand_centers,
)

TH = RuleThresholds()
CFG = SegmentationConfig()

# --- window detection ---------------------------------------------------------

def test_no_raise_gives_no_windows():
    stream = trajectory_stream([0.8] * 20)
    assert detect_gesture_window(stream, CFG) == []


def test_single_raise_gives_one_window():
    # Below until t=1.0, above during [1.0, 3.0], below after.
    profile = [0.8] * 10 + [0.4] * 21 + [0.8] * 10
    stream = trajectory_stream(profile)
    windows = detect_gesture_window(stream, CFG)
    assert len(windows) == 1
    assert windows[0].start_time == pytest.approx(1.0)
    assert windows[0].end_time == pytest.approx(3.0)


def test_two_raises_give_two_windows():
    profile = [0.8] * 10 + [0.4] * 11 + [0.8] * 20 + [0.4] * 11 + [0.8] * 10
    stream = trajectory_stream(profile)
    windows = detect_gesture_window(stream, CFG)
    assert len(windows) == 2
    # Replay the predicate frame by frame as an independent check.
    above = [hand_center(f).y <= CFG.chest_line for f in stream.frames]
    for w in windows:
        idx = [i for i, f in enumerate(stream.frames) if f.timestamp == w.start_time][0]
        assert all(above[idx : idx + CFG.trigger_frames])
    assert windows[0].end_time < windows[1].start_time


def test_short_dip_does_not_split_window():
    # 0.2 s below the line, shorter than the 0.6 s end hold.
    profile = [0.8] * 5 + [0.4] * 10 + [0.8] * 2 + [0.4] * 10 + [0.8] * 10
    windows = detect_gesture_window(trajectory_stream(profile), CFG)
    assert len(windows) == 1


def test_window_open_at_stream_end_closes():
    profile = [0.8] * 5 + [0.4] * 10
    windows = detect_gesture_window(trajectory_stream(profile), CFG)
    assert len(windows) == 1
    assert windows[0].end_time == pytest.approx(1.4)


def test_left_hand_stream_rejected():
    stream = trajectory_stream([0.4] * 10, handedness=Handedness.LEFT)
    with pytest.raises(MalformedInput, match="right-hand streams only"):
        detect_gesture_window(stream, CFG)


def test_empty_stream_rejected():
    with pytest.raises(MalformedInput, match="cannot segment an empty stream"):
        detect_gesture_window(make_stream([]), CFG)


# --- sampling -------------------------------------------------------------------

def test_sample_count_for_one_second_window():
    profile = [0.8] * 5 + [0.4] * 11 + [0.8] * 10  # above [0.5, 1.5]
    windows = detect_gesture_window(trajectory_stream(profile), CFG)
    assert windows[0].duration == pytest.approx(1.0)
    assert len(sample_window(windows[0])) == 6  # floor(1.0 / 0.2) + 1


def test_tiny_window_yields_single_sample():
    frames = [(0.0, hand_at(0.4)), (0.05, hand_at(0.4))]
    stream = make_stream(frames)
    windows = detect_gesture_window(stream, SegmentationConfig(trigger_frames=2))
    assert len(windows) == 1
    samples = sample_window(windows[0])
    assert len(samples) == 1
    assert samples[0].timestamp == 0.0


@pytest.mark.parametrize(
    "kwargs, message",
    [({"chest_line": math.nan}, "chest_line must be finite, got nan"),
     ({"chest_line": -math.inf}, "chest_line must be finite, got -inf"),
     ({"end_hold": math.nan}, "end_hold must be finite and >= 0, got nan"),
     ({"end_hold": math.inf}, "end_hold must be finite and >= 0, got inf"),
     ({"end_hold": -0.1}, "end_hold must be finite and >= 0, got -0.1"),
     ({"trigger_frames": 0}, "trigger_frames must be >= 1")],
    ids=["nan-chest-line", "infinite-chest-line", "nan-end-hold", "infinite-end-hold",
         "negative-end-hold", "zero-trigger-frames"],
)
def test_segmentation_config_rejects_bad_values(kwargs, message):
    with pytest.raises(MalformedInput) as err:
        SegmentationConfig(**kwargs)
    assert str(err.value) == message


def test_30fps_sampling_is_nearest_neighbor():
    frames = [(k / 30, hand_at(0.4 if 1.0 <= k / 30 <= 3.0 else 0.8)) for k in range(120)]
    stream = make_stream(frames)
    windows = detect_gesture_window(stream, CFG)
    assert len(windows) == 1
    w = windows[0]
    assert w.duration == pytest.approx(2.0)
    samples = sample_window(w)
    assert len(samples) == 11
    times = [f.timestamp for f in w.stream]
    for k, s in enumerate(samples):
        target = w.start_time + 0.2 * k
        best = min(abs(t - target) for t in times)
        assert abs(s.timestamp - target) == pytest.approx(best, abs=1e-9)
        assert abs(s.timestamp - target) <= 0.017


def test_sampling_tie_goes_to_earlier_frame():
    frames = [(0.0, hand_at(0.4)), (0.1, hand_at(0.4)), (0.3, hand_at(0.4)), (0.4, hand_at(0.4))]
    stream = make_stream(frames)
    w = detect_gesture_window(stream, CFG)[0]
    samples = sample_window(w)
    # Target 0.2 is equidistant from frames at 0.1 and 0.3.
    assert samples[1].timestamp == 0.1


def _scan_sample_window(window):
    """Reference: for each target, scan every frame from the first; a later
    frame wins only if its error is smaller by more than 1e-9."""
    times = [f.timestamp for f in window.stream]
    k_max = int(math.floor(window.duration / 0.2 + 1e-9))
    samples = []
    for k in range(k_max + 1):
        target = window.start_time + 0.2 * k
        best_idx, best_err = 0, abs(times[0] - target)
        for idx in range(1, len(times)):
            err = abs(times[idx] - target)
            if err < best_err - 1e-9:
                best_idx, best_err = idx, err
        samples.append(window.stream[best_idx])
    return samples


def _window_at(times):
    frames = make_stream([(t, FLAT_HAND_POINTS) for t in times])
    return GestureWindow(start_time=times[0], end_time=times[-1] + 0.05, stream=frames)


def _assert_matches_scan(times):
    w = _window_at(times)
    got = sample_window(w)
    want = _scan_sample_window(w)
    assert [f.timestamp for f in got] == [f.timestamp for f in want]
    assert got == want


@pytest.mark.parametrize("seed", range(8))
def test_sampling_matches_full_scan_on_irregular_timestamps(seed):
    local = random.Random(seed)
    times = [local.uniform(0.0, 3.0)]
    for _ in range(local.randint(1, 120)):
        times.append(times[-1] + local.choice([0.001, 0.0333, 0.1, 0.35, local.uniform(0, 0.6)]))
    _assert_matches_scan(times)


def test_sampling_matches_full_scan_halfway_between_frames():
    # Frames straddle each 0.2 s target by the same offset.
    for start in (0.0, 0.1, 1.7, 12.3):
        for d in (0.05, 0.1, 0.0333, 1e-9, 5e-10):
            times = sorted({start} | {start + 0.2 * k + s * d for k in range(1, 12) for s in (-1, 1)})
            _assert_matches_scan(times)


@pytest.mark.parametrize("seed", range(8))
def test_sampling_matches_full_scan_on_sub_eps_spacing(seed):
    local = random.Random(seed)
    start = local.choice([0.0, 0.5, 41.7, 1234.5])
    times = [start]
    for k in range(1, 10):
        centre = start + 0.2 * k + local.choice([-0.1, -1e-9, 0.0, 1e-9, 0.1, local.uniform(-0.1, 0.1)])
        spacing = local.choice([1e-10, 3e-10, 5e-10, 1e-9, 2e-9, 0.0])
        first = max(centre - spacing * local.randint(0, 6), times[-1])
        times.extend(first + spacing * j for j in range(local.randint(1, 12)))
    _assert_matches_scan(sorted(set(times)))  # a stream's timestamps strictly increase


def test_window_rejects_frames_out_of_time_order():
    with pytest.raises(MalformedInput):
        _window_at([0.0, 0.4, 0.2])


# --- matrix assembly --------------------------------------------------------------

def test_single_sample_matrix_is_the_pose_vector(flat_hand):
    m = build_state_matrix([flat_hand], TH)
    assert m.T == 1
    assert m.channel1[:, 0].tolist() == encode_pose_vector(flat_hand, TH).tolist()
    validate_state_matrix(m)


def test_rightward_translation_shows_in_channel2():
    samples = [make_frame(hand_at(0.4, center_x_shift=0.05 * j), t=0.2 * j) for j in range(4)]
    m = build_state_matrix(samples, TH)
    xs = m.channel2[0]
    steps = np.diff(xs)
    assert np.allclose(steps, 0.05, atol=1e-12)


def test_vertical_channel_is_up_positive():
    # Hand rising: y decreases, channel2 row 1 must increase.
    samples = [make_frame(hand_at(0.6 - 0.1 * j), t=0.2 * j) for j in range(3)]
    m = build_state_matrix(samples, TH)
    ups = m.channel2[1]
    assert ups[0] < ups[1] < ups[2]
    centers = [hand_center(f) for f in samples]
    assert np.allclose(ups, [1.0 - c.y for c in centers])


def test_movement_of_one_hand_width():
    # A width-sized step per sample reads as one hand width of motion.
    from conftest import scale_about

    base_width = hand_center(make_frame(FLAT_HAND_POINTS)).hand_width
    narrow = scale_about(FLAT_HAND_POINTS, 0.05 / base_width)
    samples = [make_frame(narrow, t=0.0), make_frame(translate(narrow, dx=0.05), t=0.2)]
    m = build_state_matrix(samples, TH)
    dx = m.channel2[0, 1] - m.channel2[0, 0]
    assert dx == pytest.approx(0.05, abs=1e-12)
    assert m.hand_width == pytest.approx(0.05, abs=1e-12)
    assert dx / m.hand_width == pytest.approx(1.0, abs=1e-9)


def test_2d_samples_give_two_channel2_rows(flat_hand):
    flat_2d = make_frame(FLAT_HAND_POINTS, has_depth=False)
    assert build_state_matrix([flat_2d], TH).channel2.shape[0] == 2
    assert build_state_matrix([flat_hand], TH).channel2.shape[0] == 3


def test_mixed_depth_stream_windows_keep_their_channel2_rows():
    # Two raises. The first holds a 2-D frame between samples, the second
    # one on a sample instant, so only the second matrix drops its z row.
    ys = [0.8] * 5 + [0.4] * 11 + [0.8] * 10 + [0.4] * 11 + [0.8] * 10
    entries = [{"t": round(0.1 * i, 6), "lm": [list(p) for p in hand_at(y)]}
               for i, y in enumerate(ys)]
    for i in (6, 28):
        entries[i]["lm"] = [row[:2] for row in entries[i]["lm"]]
    stream = parse_landmark_stream(json.dumps({"frames": entries}))
    rows = []
    for w in detect_gesture_window(stream, CFG):
        samples = sample_window(w)
        m = build_state_matrix(samples, TH)
        assert m.channel2.shape[0] == (3 if all(f.has_depth for f in samples) else 2)
        rows.append(m.channel2.shape[0])
    assert rows == [3, 2]


def test_batched_hand_centers_equal_per_frame_readings_bit_for_bit():
    gen = np.random.default_rng(20240817)
    n = 12_000
    coords = np.concatenate(
        [gen.uniform(-0.5, 1.5, (n, 21, 2)), gen.uniform(-0.3, 0.3, (n, 21, 1))], axis=2)
    flat = gen.random(n) < 0.25
    coords[flat, :, 2] = 0.0
    pinched = gen.random(n) < 0.1  # pinky MCP on index MCP: zero width
    coords[pinched, 17] = coords[pinched, 5]
    collapsed = gen.random(n) < 0.02  # every joint on the wrist
    coords[collapsed] = coords[collapsed, :1]
    times = np.arange(n) * 0.01
    half = n // 2
    streams = [LandmarkStream(coords[:half], times[:half], ~flat[:half], Handedness.RIGHT),
               LandmarkStream(coords[half:], times[half:], ~flat[half:], Handedness.LEFT)]
    for stream in streams:
        centers, widths = hand_centers(stream.coords)
        readings = [hand_center(f) for f in stream.frames]
        # The per-frame formulas the encoder used before the batched kernel.
        formula = np.array([f.coords.mean(axis=0) for f in stream.frames])
        formula_widths = np.array([np.linalg.norm(f.coords[5, :2] - f.coords[17, :2])
                                   for f in stream.frames])
        per_frame = np.array([[c.x, c.y, c.z] for c in readings])
        for batched, reference in ((centers, per_frame), (centers, formula),
                                   (widths, np.array([c.hand_width for c in readings])),
                                   (widths, formula_widths)):
            assert batched.tobytes() == reference.tobytes()
        above = centers[:, 1] <= CFG.chest_line
        assert above.tolist() == [c.y <= CFG.chest_line for c in readings]
        assert [c.has_depth for c in readings] == stream.depth_flags.tolist()


def test_build_requires_samples():
    with pytest.raises(MalformedInput, match="from zero samples"):
        build_state_matrix([], TH)


# --- serialization -----------------------------------------------------------------

GOLDEN_MATRIX = GestureStateMatrix(
    channel1=np.array(
        [[1], [1], [1], [1], [1], [-1], [-1], [-1], [-1], [-1], [-1], [-1], [1],
         [0], [0], [0], [0], [0], [1]],
        dtype=int,
    ),
    channel2=np.array([[0.5], [0.25]]),
    hand_width=0.05,
)

GOLDEN_TEXT = """gesture-state-matrix v1
T=1 interval=0.200 hand_width=0.050
flexion_thumb           1
flexion_index           1
flexion_middle          1
flexion_ring            1
flexion_pinky           1
proximity_index_middle -1
proximity_middle_ring  -1
proximity_ring_pinky   -1
contact_thumb_index    -1
contact_thumb_middle   -1
contact_thumb_ring     -1
contact_thumb_pinky    -1
thumb_direction         1
palm_left               0
palm_right              0
palm_down               0
palm_up                 0
palm_inward             0
palm_outward            1
center_x               0.500
center_y_up            0.250
"""


def test_serialize_matches_golden_text():
    assert serialize_matrix(GOLDEN_MATRIX) == GOLDEN_TEXT


def per_cell_matrix_text(m):
    """serialize_matrix as it formatted every cell with an f-string: the
    reference for its table of state cells."""
    labels = POSE_ROW_LABELS + ("center_x", "center_y_up", "center_z")
    label_w = max(len(s) for s in labels)
    lines = [
        "gesture-state-matrix v1",
        f"T={m.T} interval={m.sample_interval:.3f} hand_width={m.hand_width:.3f}",
    ]
    for label, row in zip(POSE_ROW_LABELS, m.channel1.tolist()):
        lines.append(f"{label:<{label_w}} " + " ".join(f"{int(v):>2d}" for v in row))
    for label, row in zip(labels[len(POSE_ROW_LABELS):], m.channel2.tolist()):
        lines.append(f"{label:<{label_w}} " + " ".join(f"{v:.3f}" for v in row))
    return "\n".join(lines) + "\n"


def test_serialize_matches_per_cell_formatting(rng):
    matrices = [GOLDEN_MATRIX]
    for t_count in (1, 3, 12, 40):
        frames = [make_frame(random_points(rng), t=0.2 * j) for j in range(t_count)]
        matrices.append(build_state_matrix(frames, TH))
    assert {v for m in matrices for v in m.channel1.flat} == {-1, 0, 1}
    # Built by hand, so never validated: states outside {-1, 0, 1}, and floats.
    states = np.array([2, -3, 10, -10, 0, 1, -1] * 19).reshape(19, 7)
    for channel1 in (states, states / 2.0, -0.0 * states):
        matrices.append(GestureStateMatrix(channel1, np.zeros((3, 7)), hand_width=0.1))
    for m in matrices:
        assert serialize_matrix(m) == per_cell_matrix_text(m)


def test_serialize_is_deterministic(flat_hand):
    m = build_state_matrix([flat_hand], TH)
    assert serialize_matrix(m) == serialize_matrix(m)


def test_json_round_trip_is_exact(flat_hand):
    m = build_state_matrix([flat_hand, make_frame(hand_at(0.4), t=0.2)], TH)
    again = matrix_from_json(matrix_to_json(m))
    assert again == m


def test_bad_matrix_json_rejected():
    with pytest.raises(MalformedInput):
        matrix_from_json('{"channel1": [[1]], "hand_width": 1}')


@pytest.mark.parametrize(
    "change",
    [
        {"channel1": GOLDEN_MATRIX.channel1 * 2},
        {"channel1": GOLDEN_MATRIX.channel1.astype(float)},
        {"channel2": np.array([[0.5], [2.0]])},
        {"hand_width": 0.0},
    ],
)
def test_validate_state_matrix_raises_malformed_input(change):
    fields = dict(
        channel1=GOLDEN_MATRIX.channel1, channel2=GOLDEN_MATRIX.channel2, hand_width=0.05
    )
    with pytest.raises(MalformedInput):
        validate_state_matrix(GestureStateMatrix(**{**fields, **change}))


def test_movement_slice_full_span_equals_whole_channel():
    samples = [make_frame(hand_at(0.4, 0.01 * j), t=0.2 * j) for j in range(5)]
    m = build_state_matrix(samples, TH)
    full = serialize_movement(m, 0, m.T - 1)
    for r in range(m.channel2.shape[0]):
        for v in m.channel2[r]:
            assert f"{v:.3f}" in full
    single = serialize_movement(m, 2, 2)
    assert single.count("center_x") == 1
    assert len(single.splitlines()[1].split()) == 2  # label + one cell


def test_movement_slice_bounds_checked():
    m = build_state_matrix([make_frame(hand_at(0.4))], TH)
    with pytest.raises(MalformedInput):
        serialize_movement(m, 0, 5)


# --- pipeline determinism and invariants ---------------------------------------

def test_encode_stream_deterministic():
    profile = [0.8] * 5 + [0.4] * 15 + [0.8] * 10
    stream = trajectory_stream(profile)
    first = encode_stream(stream, TH, CFG)
    second = encode_stream(stream, TH, CFG)
    assert len(first) == len(second) == 1
    assert serialize_matrix(first[0]) == serialize_matrix(second[0])
    assert matrix_to_json(first[0]) == matrix_to_json(second[0])


def test_fuzz_streams_respect_matrix_invariants(rng):
    for _ in range(30):
        n = rng.randint(10, 60)
        dt = rng.choice([0.05, 0.1, 0.15])
        y = 0.8
        profile = []
        for _ in range(n):
            y = min(1.0, max(0.1, y + rng.uniform(-0.15, 0.15)))
            profile.append(y)
        stream = trajectory_stream(profile, dt=dt)
        for w, m in zip(detect_gesture_window(stream, CFG), encode_stream(stream, TH, CFG)):
            validate_state_matrix(m)
            assert m.T == math.floor(w.duration / 0.2 + 1e-9) + 1


@pytest.mark.parametrize("columns", [11, 1, 2.0, "2", True, None])
def test_matrix_json_with_wrong_T_rejected(flat_hand, columns):
    m = build_state_matrix([flat_hand, make_frame(hand_at(0.4), t=0.2)], TH)
    doc = json.loads(matrix_to_json(m))
    doc["T"] = columns
    with pytest.raises(MalformedInput, match='"T" must be the column count 2'):
        matrix_from_json(json.dumps(doc))


def test_matrix_json_without_T_rejected(flat_hand):
    doc = json.loads(matrix_to_json(build_state_matrix([flat_hand], TH)))
    del doc["T"]
    with pytest.raises(MalformedInput):
        matrix_from_json(json.dumps(doc))


def test_build_rejects_zero_hand_width():
    points = list(FLAT_HAND_POINTS)
    points[17] = points[5]  # pinky MCP on the index MCP
    with pytest.raises(MalformedInput, match="hand_width must be positive"):
        build_state_matrix([make_frame(points)], TH)
