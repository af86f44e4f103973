import cProfile
import itertools
import json
import logging
import math
import pstats
import random
import re
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import (
    FLAT_HAND_POINTS,
    hand_at,
    make_frame,
    make_stream,
    python_calls,
    random_points,
    stream_json,
    trajectory_stream,
    translate,
)
from gesturelink.encoder import (
    GestureStateMatrix,
    GestureWindow,
    SegmentationConfig,
    _build_groups,
    build_state_matrix,
    detect_gesture_window,
    encode_stream,
    encode_streams,
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
    pose_readings,
    pose_vectors,
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


def _frame_loop_windows(stream, cfg):
    """Reference: the per-frame state machine the run rules replaced,
    verbatim but for its debug log."""
    above = (hand_centers(stream.coords)[0][:, 1] <= cfg.chest_line).tolist()
    times = stream.timestamps.tolist()
    windows: list[GestureWindow] = []

    run_start: int | None = None  # first frame of the current above-run (pre-trigger)
    open_start: int | None = None  # first frame of the open window
    last_above: int | None = None
    below_since: float | None = None

    def close_window(start_idx: int, end_idx: int) -> None:
        if times[end_idx] <= times[start_idx]:
            return
        windows.append(
            GestureWindow(times[start_idx], times[end_idx], stream[start_idx : end_idx + 1])
        )

    for i, t in enumerate(times):
        if open_start is None:
            if above[i]:
                if run_start is None:
                    run_start = i
                if i - run_start + 1 >= cfg.trigger_frames:
                    open_start = run_start
                    last_above = i
                    below_since = None
            else:
                run_start = None
        else:
            if above[i]:
                last_above = i
                below_since = None
            else:
                if below_since is None:
                    below_since = t
                if t - below_since >= cfg.end_hold:
                    close_window(open_start, last_above)
                    open_start = None
                    run_start = None
                    below_since = None

    if open_start is not None:
        close_window(open_start, last_above)
    return windows


def _random_segmentation_case(local):
    """A stream of runs at three heights, with regular, irregular or
    sub-frame spacing, and a config whose chest line may be exactly one
    height's center and whose end_hold may be exactly one frame spacing or
    exactly the span of a lowered run."""
    ys = []
    while len(ys) < 40:
        ys += [local.choice([0.4, 0.55, 0.7])] * local.randint(1, 6)
    ys = ys[: local.randint(1, 40)]
    spacing = local.choice([1 / 30, 0.1, "irregular", "sub-frame"])
    times = [local.uniform(0.0, 2.0)]
    for _ in ys[1:]:
        step = {"irregular": local.uniform(0.001, 0.5),
                "sub-frame": local.choice([1e-6, 1e-3, 0.004])}.get(spacing, spacing)
        times.append(times[-1] + step)
    base = np.array(FLAT_HAND_POINTS)
    coords = np.stack([base + [0.0, y - 0.5, 0.0] for y in ys])
    stream = LandmarkStream(coords, times, [True] * len(ys))
    centers_y = hand_centers(stream.coords)[0][:, 1]
    chest_line = local.choice([0.55, float(local.choice(centers_y))])
    lowered = (centers_y > chest_line).tolist()
    runs, first = [], 0
    for i in range(1, len(ys) + 1):
        if i == len(ys) or lowered[i] != lowered[first]:
            if lowered[first]:
                runs.append(times[i - 1] - times[first])
            first = i
    holds = [0.0, 0.6, local.uniform(0.0, 1.0)]
    holds += [times[1] - times[0]] if len(ys) > 1 else []
    holds += [local.choice(runs)] * 2 if runs else []
    cfg = SegmentationConfig(chest_line=chest_line, trigger_frames=local.randint(1, 5),
                             end_hold=local.choice(holds))
    return stream, cfg


@pytest.mark.parametrize("seed", range(4))
def test_run_rules_match_the_frame_loop(seed):
    """500 random streams per seed, 2,000 in all: the windows from runs of
    raised and lowered frames equal the per-frame state machine's."""
    local = random.Random(seed)
    windows = 0
    for _ in range(500):
        stream, cfg = _random_segmentation_case(local)
        got, want = detect_gesture_window(stream, cfg), _frame_loop_windows(stream, cfg)
        assert [(w.start_time, w.end_time) for w in got] == [
            (w.start_time, w.end_time) for w in want]
        assert all(g.stream == w.stream for g, w in zip(got, want))
        windows += len(got)
    assert windows > 250


def _hand_centers_windows(stream, cfg):
    """Reference: detect_gesture_window as it read the chest line from
    hand_centers, verbatim but for its debug log."""
    raised = np.append(hand_centers(stream.coords)[0][:, 1] <= cfg.chest_line, False)
    edges = [0, *(np.flatnonzero(raised[1:] != raised[:-1]) + 1).tolist(), len(raised)]
    times = stream.timestamps.tolist()
    windows, start = [], None
    for first, stop in zip(edges, edges[1:]):
        if raised[first]:
            if start is None and stop - first >= cfg.trigger_frames:
                start = first
        elif start is not None and (
                stop > len(times) or times[stop - 1] - times[first] >= cfg.end_hold):
            if times[first - 1] > times[start]:  # first - 1 is the last raised frame
                windows.append(GestureWindow(times[start], times[first - 1], stream[start:first]))
            start = None
    return windows


@pytest.mark.parametrize("seed", range(4))
def test_windows_match_the_hand_centers_chest_line(seed):
    """On the 2,000 streams of the run-rule test, each also copied into
    Fortran order and into every other row of a larger array, the windows
    equal those of the chest line read from hand_centers."""
    local = random.Random(seed)
    windows = 0
    for _ in range(500):
        stream, cfg = _random_segmentation_case(local)
        for coords in (stream.coords, np.asfortranarray(stream.coords),
                       np.repeat(stream.coords, 2, axis=0)[::2]):
            copy = LandmarkStream(coords, stream.timestamps, stream.depth_flags)
            got, want = detect_gesture_window(copy, cfg), _hand_centers_windows(copy, cfg)
            assert [(w.start_time, w.end_time, w.stream) for w in got] == [
                (w.start_time, w.end_time, w.stream) for w in want]
        windows += len(got)
    assert windows > 250


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


def test_window_rejects_an_empty_stream():
    empty = LandmarkStream(np.empty((0, 21, 3)), [], [])
    with pytest.raises(MalformedInput, match="window holds no frames"):
        GestureWindow(start_time=0.0, end_time=1.0, stream=empty)


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


_STATE_CELLS = {-1: "-1", 0: " 0", 1: " 1"}
_CHANNEL2_LABELS = ("center_x", "center_y_up", "center_z")


def _cell_by_cell_serialize_matrix(m):
    """Reference: serialize_matrix as it rendered cell by cell, verbatim."""
    lines = [
        "gesture-state-matrix v1",
        f"T={m.T} interval={m.sample_interval:.3f} hand_width={m.hand_width:.3f}",
    ]
    label_w = max(len(s) for s in POSE_ROW_LABELS + _CHANNEL2_LABELS)
    state_cell = _STATE_CELLS.get
    for label, row in zip(POSE_ROW_LABELS, m.channel1.tolist()):
        cells = " ".join([state_cell(v) or f"{int(v):>2d}" for v in row])
        lines.append(f"{label:<{label_w}} {cells}")
    for label, row in zip(_CHANNEL2_LABELS, m.channel2.tolist()):
        cells = " ".join([f"{v:.3f}" for v in row])
        lines.append(f"{label:<{label_w}} {cells}")
    return "\n".join(lines) + "\n"


def _cell_by_cell_serialize_movement(m, start, end):
    """Reference: serialize_movement as it rendered cell by cell, verbatim."""
    if not (0 <= start <= end < m.T):
        raise MalformedInput(f"bad movement span [{start}, {end}] for T={m.T}")
    lines = [
        f"span={start}..{end} interval={m.sample_interval:.3f} hand_width={m.hand_width:.3f}",
    ]
    for label, row in zip(_CHANNEL2_LABELS, m.channel2[:, start : end + 1].tolist()):
        cells = " ".join([f"{v:.3f}" for v in row])
        lines.append(f"{label} {cells}")
    return "\n".join(lines) + "\n"


def _random_rendering_matrix(gen, t_count):
    """A matrix of t_count columns as a caller may hand it over: states in
    any integer dtype or layout, hand-built cells (integers outside
    {-1, 0, 1}, floats, -0.0), and 2 or 3 channel-2 rows of reals near
    the 3-decimal rounding points, signed zeros and large values."""
    kind = gen.choice(["states", "states", "int8", "view", "fortran", "integers", "floats"])
    states = gen.integers(-1, 2, (19, t_count))
    if kind == "int8":
        channel1 = states.astype(np.int8)
    elif kind == "view":
        channel1 = np.concatenate([states, states], axis=1)[:, t_count // 2 : t_count // 2 + t_count]
    elif kind == "fortran":
        channel1 = np.asfortranarray(states)
    elif kind == "integers":
        channel1 = states * gen.choice([1, 2, 3, 10, 100], (19, t_count))
    elif kind == "floats":
        channel1 = gen.choice([-1.0, 0.0, 1.0, -0.0, 0.5, -0.5, 1.5, 2.0, -10.0], (19, t_count))
    else:
        channel1 = states
    rows = int(gen.choice([2, 3]))
    channel2 = gen.uniform(-0.5, 1.5, (rows, t_count))
    special = gen.random((rows, t_count)) < 0.3
    channel2[special] = gen.choice(
        [0.0005, 0.0015, -0.0005, -0.0001, 0.0, -0.0, 1.2345, 0.0625, 1e6, -1e-9, 1.5, -0.5],
        special.sum())
    return GestureStateMatrix(channel1, channel2, hand_width=float(gen.uniform(0.0, 0.5)))


def test_rendering_matches_the_cell_by_cell_text():
    """2,000 matrices, T from 1 to 600: 400 built from random windows and
    1,600 handed over as GestureStateMatrix, render as the cell-by-cell
    serializers did; so does every movement span of those with T <= 8."""
    gen = np.random.default_rng(20241019)
    built = []
    while len(built) < 400:
        sample_lists = [_random_window(gen, 2.0 * j) for j in range(8)]
        sample_lists.append([make_frame(np.array(FLAT_HAND_POINTS) + gen.normal(0, 0.02, (21, 3)),
                                        t=0.2 * k) for k in range(int(gen.integers(9, 120)))])
        built += [m for m in _build_each(sample_lists) if not isinstance(m, MalformedInput)]
    matrices = built[:400] + [
        _random_rendering_matrix(gen, int(gen.choice([gen.integers(1, 21), gen.integers(21, 601)],
                                                     p=[0.7, 0.3])))
        for _ in range(1600)]
    assert max(m.T for m in matrices) > 500 and min(m.T for m in matrices) == 1
    spans = 0
    for m in matrices:
        assert serialize_matrix(m) == _cell_by_cell_serialize_matrix(m)
        pairs = ([(a, b) for b in range(m.T) for a in range(b + 1)] if m.T <= 8
                 else [tuple(sorted(gen.integers(0, m.T, 2).tolist())), (0, m.T - 1)])
        for a, b in pairs:
            assert serialize_movement(m, a, b) == _cell_by_cell_serialize_movement(m, a, b)
        spans += len(pairs)
    assert spans > 10_000


def _serialize_calls(t_count):
    m = GestureStateMatrix(np.zeros((19, t_count), dtype=int), np.full((3, t_count), 0.25), 0.1)
    return python_calls(lambda: (serialize_matrix(m), serialize_movement(m, 0, t_count - 1)))[0]


def test_rendering_python_work_does_not_grow_with_columns():
    """Rendering costs Python calls per row, not per cell: ten times the
    columns make the same calls, counted by cProfile."""
    assert _serialize_calls(500) / _serialize_calls(50) <= 1.1


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


def _encode_calls(ys):
    """(Python calls, matrices) of encoding a 30 fps stream whose hand
    center y follows ys, from its document bytes."""
    raw = stream_json([(k / 30, hand_at(y)) for k, y in enumerate(ys)])
    profile = cProfile.Profile()
    profile.enable()
    matrices = encode_stream(parse_landmark_stream(raw))
    profile.disable()
    return pstats.Stats(profile).total_calls, matrices


@pytest.mark.parametrize("ys, windows", [([0.8] * 30 + [0.4] * 30, 25), ([0.4] * 60, 1)],
                         ids=["many-short-windows", "one-window"])
def test_encode_python_work_grows_linearly_in_frames(ys, windows):
    """Doubling the frames at most about doubles the Python calls of parse
    and encode, counted by cProfile, so the bound does not depend on the
    host's speed. With one window spanning the stream this bounds the
    sampling and the build in the window's length. Numpy's internal loops
    are not counted, but they are linear anyway."""
    (calls, matrices), (calls2, matrices2) = _encode_calls(ys * 25), _encode_calls(ys * 50)
    assert calls2 / calls <= 2.2
    assert len(matrices) == windows
    assert sum(m.T for m in matrices2) / sum(m.T for m in matrices) > 1.9


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


# --- batched build -------------------------------------------------------------------

def _build_each(sample_lists):
    """Each list's matrix, or the MalformedInput that rejects it, from one
    _build_groups call with a group of one list per list."""
    return [m if isinstance(m, MalformedInput) else m[0]
            for m in _build_groups([[frames] for frames in sample_lists], TH)]


def _reference_build_state_matrix(samples, th):
    """The per-window build_state_matrix that the batched build replaced,
    verbatim, logging through the encoder's logger."""
    logger = logging.getLogger("gesturelink.encoder")
    if not samples:
        raise MalformedInput("cannot build a matrix from zero samples")
    coords, depth = np.stack([f.coords for f in samples]), np.array([f.has_depth for f in samples])
    readings = pose_readings(coords, depth,
                             np.array([f.handedness == Handedness.LEFT for f in samples]))
    n = len(samples)
    found = [f"{name} in {bad.sum()} of {n} samples from t={samples[bad.argmax()].timestamp}"
             for name, bad in readings.degenerate.items() if bad.any()]
    if found:
        logger.warning("rules unsure on degenerate geometry: %s", "; ".join(found))
    channel1 = pose_vectors(readings, th)
    centers, widths = hand_centers(coords)
    channel2 = centers.T.copy()
    channel2[1] = 1.0 - channel2[1]  # up-positive vertical
    if not depth.all():
        channel2 = channel2[:2]
    width = float(np.mean(widths))
    m = GestureStateMatrix(channel1=channel1, channel2=channel2, hand_width=width)
    validate_state_matrix(m)
    return m


def _reference_outcomes(sample_lists, caplog, stop_early=False):
    """(matrix or error message, per list) and the log records of building
    each list on its own, in order; with stop_early, the lists after the
    first one that fails are left unbuilt."""
    caplog.clear()
    outcomes = []
    for samples in sample_lists:
        try:
            outcomes.append(_reference_build_state_matrix(samples, TH))
        except MalformedInput as exc:
            outcomes.append(str(exc))
            if stop_early:
                break
    return outcomes, _records(caplog)


def _records(caplog):
    return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def _random_window(gen, t0):
    """Sampled frames of one window: 0-8 frames (most often 1), mixing 2-D
    and 3-D frames and both hands, with zero-length bones, collapsed hands,
    pinched hands (hand width 0) and overflowing depths."""
    n = int(gen.choice([0, 1, 1, 2, 3, 5, 8], p=[0.03, 0.3, 0.07, 0.15, 0.15, 0.15, 0.15]))
    pinch = gen.choice([0.0, 0.5, 1.0], p=[0.6, 0.2, 0.2])
    frames = []
    for k in range(n):
        if gen.random() < 0.5:
            coords = np.array(FLAT_HAND_POINTS) + gen.normal(0, 0.03, (21, 3))
        else:
            coords = np.concatenate([gen.uniform(-0.5, 1.5, (21, 2)),
                                     gen.uniform(-0.3, 0.3, (21, 1))], axis=1)
        coords[:, :2] = coords[:, :2].clip(-0.5, 1.5)
        if gen.random() < pinch:
            coords[17] = coords[5]
        if gen.random() < 0.1:
            joint = gen.integers(1, 21)
            coords[joint] = coords[joint - 1]
        if gen.random() < 0.03:
            coords[:] = coords[0]
        if gen.random() < 0.05:
            coords[:, 2] *= gen.choice([1e300, 1e308, -1e308])
        has_depth = bool(gen.random() < 0.7)
        if not has_depth:
            coords[:, 2] = 0.0
        hand = Handedness.LEFT if gen.random() < 0.3 else Handedness.RIGHT
        frames.append(make_frame(coords, t=round(t0 + 0.2 * k, 6), handedness=hand,
                                 has_depth=has_depth))
    return frames


def test_batched_build_matches_the_per_window_build(caplog):
    """A batched build of random window lists gives each list's matrix,
    error message and warnings exactly as building it alone."""
    gen = np.random.default_rng(20240817)
    caplog.set_level(logging.WARNING, logger="gesturelink.encoder")
    lists = errors = warned = 0
    for _ in range(2000):
        sample_lists = [_random_window(gen, 2.0 * j) for j in range(int(gen.integers(1, 4)))]
        expected, expected_records = _reference_outcomes(sample_lists, caplog)
        caplog.clear()
        built = _build_each(sample_lists)
        assert _records(caplog) == expected_records
        assert len(built) == len(expected)
        for got, want in zip(built, expected):
            if isinstance(want, str):
                assert isinstance(got, MalformedInput) and str(got) == want
            else:
                assert got == want and got.channel1.dtype == want.channel1.dtype
                assert matrix_to_json(got) == matrix_to_json(want)
        lists += len(sample_lists)
        errors += sum(isinstance(want, str) for want in expected)
        warned += bool(expected_records)
    # Every kind of outcome shows up often enough to count.
    assert lists > 3500 and 500 < errors < lists - 2000 and warned > 500


def test_build_state_matrix_raises_what_the_batched_build_returns():
    pinched = list(FLAT_HAND_POINTS)
    pinched[17] = pinched[5]
    built = _build_each([[make_frame(FLAT_HAND_POINTS)], [make_frame(pinched)], []])
    assert build_state_matrix([make_frame(FLAT_HAND_POINTS)], TH) == built[0]
    for samples, error in (([make_frame(pinched)], built[1]), ([], built[2])):
        with pytest.raises(MalformedInput, match=re.escape(str(error))):
            build_state_matrix(samples, TH)


def _warn_stream(raises, degenerate=(), pinched=()):
    """A right-hand stream with one 1 s window per raise in raises; raise k
    has a zero-length index bone if k is in degenerate (a warning), and
    hand width 0 if k is in pinched (a failing window)."""
    frames, t = [], 0.0
    for k in range(raises):
        for y in [0.8] * 5 + [0.4] * 11 + [0.8] * 10:
            points = hand_at(y)
            if y < 0.5 and k in degenerate:
                points[6] = points[5]
            if y < 0.5 and k in pinched:
                points[17] = points[5]
            frames.append((round(t, 6), points))
            t += 0.1
    return make_stream(frames)


def test_encode_streams_logs_as_the_window_by_window_encode(caplog):
    """Each stream logs its windows' warnings up to and including its first
    failing window, none after it; an unsegmentable stream fails alone."""
    streams = [
        _warn_stream(3, degenerate=(0, 1, 2), pinched=(1,)),
        trajectory_stream([0.8] * 5 + [0.4] * 11, handedness=Handedness.LEFT),
        _warn_stream(2, degenerate=(1,)),
        trajectory_stream([0.8] * 10),
    ]
    caplog.set_level(logging.WARNING, logger="gesturelink.encoder")
    expected, records = [], []
    for stream in streams:
        try:
            windows = detect_gesture_window(stream, CFG)
        except MalformedInput as exc:
            expected.append(str(exc))
            continue
        outcomes, window_records = _reference_outcomes(
            [sample_window(w) for w in windows], caplog, stop_early=True)
        expected.append(outcomes[-1] if outcomes and isinstance(outcomes[-1], str) else outcomes)
        records += window_records
    caplog.clear()
    results = encode_streams(streams, TH, CFG)
    assert _records(caplog) == records
    assert len(records) == 3  # windows 0 and 1 of the first stream, 1 of the third
    assert [str(r) if isinstance(r, MalformedInput) else r for r in results] == expected
    assert isinstance(results[1], MalformedInput) and results[3] == []
    with pytest.raises(MalformedInput, match="hand_width must be positive"):
        encode_stream(streams[0], TH, CFG)


def test_encode_streams_calls_each_verdict_once_per_sample_and_row(monkeypatch):
    """The benchmark's tracer (perfbench/spans.py, Instrumented) counts the
    rules' decided verdicts by patching a counting wrapper into every
    package module attribute that holds a verdict function. encode_streams
    must call each one through that attribute, once per sample and pose
    row: a verdict bound at import, say as a module alias or a default
    argument, escapes the wrapper and fails here."""
    rules_mod = sys.modules["gesturelink.rules"]
    package = [m for name, m in sys.modules.items() if name.partition(".")[0] == "gesturelink"]
    calls = Counter()
    for name in ("flexion", "proximity", "contact", "thumb_pointing", "palm_orientation"):
        original = getattr(rules_mod, name)

        def counted(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)

        for mod in package:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    streams = [_warn_stream(3, degenerate=(1,)), trajectory_stream([0.8] * 10),
               _warn_stream(2, degenerate=(0,))]
    results = encode_streams(streams, TH, CFG)
    n = sum(m.channel1.shape[1] for ms in results if isinstance(ms, list) for m in ms)
    assert n == 30  # five 1.1 s windows of six samples
    assert calls == {"flexion": 5 * n, "proximity": 3 * n, "contact": 4 * n,
                     "thumb_pointing": n, "palm_orientation": n}


def _window_frames(kind, t0):
    """Sampled frames of a 1 s window: plain, with a zero-length index bone
    (a warning), pinched to hand width 0 (failing on hand_width) or with
    depths near the float maximum (a warning, and failing on channel2)."""
    frames = []
    for k in range(6):
        points = np.array(hand_at(0.4))
        if kind == "degenerate":
            points[6] = points[5]
        elif kind == "pinched":
            points[17] = points[5]
        elif kind == "deep":
            points[:, 2] = 1e308
        frames.append(make_frame(points, t=round(t0 + 0.2 * k, 6)))
    return frames


@pytest.mark.parametrize("failing", ["pinched", "deep"])
@pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
def test_batch_check_keeps_each_failing_lists_error_and_warnings(caplog, failing, position):
    """A failing list first, in the middle or last, beside lists that warn:
    in one group (as one stream's windows), in a group each (as separate
    streams) and in mixed groups, each group gets what building its lists
    alone gave, up to its first failing list, and logs the same records."""
    caplog.set_level(logging.WARNING, logger="gesturelink.encoder")
    kinds = ["degenerate", "plain", "degenerate", "plain", "degenerate"]
    kinds[position] = failing
    lists = [_window_frames(kind, 2.0 * j) for j, kind in enumerate(kinds)]
    for sizes in ([5], [1] * 5, [2, 1, 2]):
        groups = [lists[a:b] for a, b in itertools.pairwise(itertools.accumulate(sizes, initial=0))]
        expected, records = [], []
        for group in groups:
            outcomes, group_records = _reference_outcomes(group, caplog, stop_early=True)
            expected.append(outcomes[-1] if isinstance(outcomes[-1], str) else outcomes)
            records += group_records
        caplog.clear()
        results = _build_groups(groups, TH)
        assert _records(caplog) == records
        assert [str(r) if isinstance(r, MalformedInput) else r for r in results] == expected
        assert sum(isinstance(r, MalformedInput) for r in results) == 1
