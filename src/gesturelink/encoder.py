"""Gesture windowing and the two-channel gesture state matrix.

Segmentation splits the stream into runs of raised frames (mean landmark
height, hand_centers' y, at or above the chest line) and lowered ones. A
gesture window opens at the first frame of a raised run at least
trigger_frames long, and closes at the last raised frame before a lowered
run spanning end_hold seconds, or at the stream's end. A window holds a
slice of the stream's arrays.
Frames inside a window are sampled every 0.2 s; each sample, a frame
view, contributes one pose-vector column and one hand-center column. The
windows of many streams are built from one batched reading of them all.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GestureLinkError, MalformedInput, parse_json
from .landmarks import HandLandmarkFrame, Handedness, LandmarkStream
from .rules import (
    POSE_ROW_LABELS,
    RuleThresholds,
    center_heights,
    hand_centers,
    pose_readings,
    pose_vectors,
    validate_pose_vector,
)

logger = logging.getLogger(__name__)

SAMPLE_INTERVAL = 0.2
# Absorbs float error so e.g. a 1.0 s window yields exactly 6 samples.
_TIME_EPS = 1e-9

_CHANNEL2_LABELS = ("center_x", "center_y_up", "center_z")
_MATRIX_HEADER = "gesture-state-matrix v1"
_LABEL_WIDTH = max(map(len, POSE_ROW_LABELS + _CHANNEL2_LABELS))
_POSE_PADDED = [f"{label:<{_LABEL_WIDTH}} " for label in POSE_ROW_LABELS]
_CHANNEL2_PADDED = [f"{label:<{_LABEL_WIDTH}} " for label in _CHANNEL2_LABELS]
# Cell text of the states -1, 0 and 1, each followed by a space.
_STATE_TEXT = np.array([b"-1 ", b" 0 ", b" 1 "])
_LEFT = Handedness.LEFT  # read once per sample, cheaper as a module global


@dataclass(frozen=True)
class SegmentationConfig:
    """Chest-line trigger parameters, in normalized image units / seconds.

    chest_line is a y-down threshold: the hand is "raised" when its
    center y is at or above (<=) this line. The end rule and trigger run
    length are artifact configuration, not tuned values.
    """

    chest_line: float = 0.55
    trigger_frames: int = 2
    end_hold: float = 0.6

    def __post_init__(self):
        if self.trigger_frames < 1:
            raise MalformedInput("trigger_frames must be >= 1")
        if not math.isfinite(self.chest_line):
            raise MalformedInput(f"chest_line must be finite, got {self.chest_line}")
        if not (math.isfinite(self.end_hold) and self.end_hold >= 0):
            raise MalformedInput(f"end_hold must be finite and >= 0, got {self.end_hold}")


@dataclass(frozen=True)
class GestureWindow:
    """[start_time, end_time] and the slice of the stream inside it."""

    start_time: float
    end_time: float
    stream: LandmarkStream

    def __post_init__(self):
        if not self.start_time < self.end_time:
            raise MalformedInput("window start must precede end")
        times = self.stream.timestamps
        if not len(times):
            raise MalformedInput("window holds no frames")
        if not self.start_time <= times[0] <= times[-1] <= self.end_time:
            raise MalformedInput("window frame outside [start, end]")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def detect_gesture_window(
    stream: LandmarkStream, cfg: SegmentationConfig | None = None
) -> list[GestureWindow]:
    """Non-overlapping gesture windows, in time order, from the stream's
    runs of raised frames, whose mean landmark height (center_heights,
    hand_centers' y) is at or above (<=) the chest line, and lowered ones.
    A raised run of at least trigger_frames frames opens a window at its
    first frame unless one is open. A lowered run spanning at least
    end_hold seconds, first frame to last, closes it at the last raised
    frame before that run, as does the stream's end. Zero-duration windows
    are dropped. Only right-hand streams are segmented; left hands parse
    fine but are rejected here."""
    cfg = cfg or SegmentationConfig()
    if not stream:
        raise MalformedInput("cannot segment an empty stream")
    if stream.handedness != Handedness.RIGHT:
        raise MalformedInput("encoder handles right-hand streams only")

    # A lowered frame past the last one makes the stream's end a lowered
    # run, which closes an open window whatever its span.
    raised = np.append(center_heights(stream.coords) <= cfg.chest_line, False)
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
            else:
                logger.debug("dropping zero-duration window at t=%s", times[start])
            start = None
    return windows


def sample_window(window: GestureWindow) -> list[HandLandmarkFrame]:
    """Frames nearest to the 0.2 s sample instants; ties go to the
    earlier frame. Produces floor(duration / 0.2) + 1 samples.

    A later frame replaces the best so far only if its error is smaller
    by more than _TIME_EPS, as in a scan from the first frame. The scan
    starts at the last frame at or before the target that displaces every
    earlier frame and stops at the first frame past the target that
    cannot win, so a sample costs a bisection plus a few frames.
    """
    times = window.stream.timestamps.tolist()
    k_max = int(math.floor(window.duration / SAMPLE_INTERVAL + _TIME_EPS))
    samples = []
    for k in range(k_max + 1):
        target = window.start_time + SAMPLE_INTERVAL * k
        best_idx = max(bisect.bisect_right(times, target) - 1, 0)
        while best_idx > 0 and not (
            abs(times[best_idx] - target) < abs(times[best_idx - 1] - target) - _TIME_EPS
        ):
            best_idx -= 1
        best_err = abs(times[best_idx] - target)
        for idx in range(best_idx + 1, len(times)):
            err = abs(times[idx] - target)
            if err < best_err - _TIME_EPS:
                best_err = err
                best_idx = idx
            elif times[idx] > target:
                break
        samples.append(window.stream[best_idx])
    return samples


@dataclass(eq=False)
class GestureStateMatrix:
    """channel1: 19 x T pose states; channel2: 2 x T (3 x T with depth)
    hand-center trajectory with the vertical row re-expressed up-positive
    (0 bottom .. 1 top). hand_width gauges movement magnitude."""

    channel1: np.ndarray
    channel2: np.ndarray
    hand_width: float
    sample_interval: float = SAMPLE_INTERVAL

    @property
    def T(self) -> int:
        return int(self.channel1.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GestureStateMatrix):
            return NotImplemented
        return (
            np.array_equal(self.channel1, other.channel1)
            and np.array_equal(self.channel2, other.channel2)
            and self.hand_width == other.hand_width
            and self.sample_interval == other.sample_interval
        )


def _check_channels(c1: np.ndarray, c2: np.ndarray) -> None:
    """Raise MalformedInput unless every column of channel 1 is a pose
    vector and channel 2 is finite, with x and y within [-0.5, 1.5]."""
    validate_pose_vector(c1)
    if not (np.isfinite(c2).all() and (c2[:2] >= -0.5).all() and (c2[:2] <= 1.5).all()):
        raise MalformedInput("channel2 must be finite, with x and y within [-0.5, 1.5]")


def validate_state_matrix(m: GestureStateMatrix) -> None:
    """Raise MalformedInput unless the matrix satisfies its invariants."""
    c1, c2 = m.channel1, m.channel2
    if not (c1.ndim == c2.ndim == 2 and c2.shape[0] in (2, 3) and c1.shape[1] == c2.shape[1] >= 1):
        raise MalformedInput(f"channels must be 19 x T and 2-3 x T, T >= 1: {c1.shape}, {c2.shape}")
    _check_channels(c1, c2)
    if not 0 < m.hand_width < math.inf:
        raise MalformedInput(f"hand_width must be positive and finite, got {m.hand_width}")
    if not 0 < m.sample_interval < math.inf:
        raise MalformedInput(f"interval must be positive and finite, got {m.sample_interval}")


def _build_groups(groups: list[list[list[HandLandmarkFrame]]], th: RuleThresholds) -> list:
    """Per group of sample lists, one batched reading of all their samples,
    then a matrix per list, or the group's first MalformedInput (a list
    without samples, or a matrix failing validate_state_matrix): lists
    after it are not built. Each list built logs one warning naming each
    reading that hit degenerate geometry, with its count of samples and
    the first one's time. The batch is checked once, and each matrix alone
    only if that check or its hand width fails."""
    lists = [frames for group in groups for frames in group]
    samples = [f for frames in lists for f in frames]
    bounds = list(itertools.accumulate(map(len, lists), initial=0))
    coords = np.array([f.coords for f in samples]).reshape(-1, 21, 3)
    depth = np.array([f.has_depth for f in samples], dtype=bool)
    readings = pose_readings(
        coords, depth, np.array([f.handedness == _LEFT for f in samples], dtype=bool))
    degenerate = np.array(list(readings.degenerate.values()))
    channel1 = pose_vectors(readings, th)
    centers, widths = hand_centers(coords)
    channel2 = centers.T.copy()
    channel2[1] = 1.0 - channel2[1]  # up-positive vertical
    try:  # every column at once; each matrix alone only if this fails
        _check_channels(channel1, channel2)
        checked = True
    except MalformedInput:
        checked = False
    unsure = degenerate.any()

    def build(a: int, b: int) -> GestureStateMatrix:
        if a == b:
            raise MalformedInput("cannot build a matrix from zero samples")
        if unsure and (bad := degenerate[:, a:b]).any():
            found = [f"{name} in {hit.sum()} of {b - a} samples from "
                     f"t={samples[a + hit.argmax()].timestamp}"
                     for name, hit in zip(readings.degenerate, bad) if hit.any()]
            logger.warning("rules unsure on degenerate geometry: %s", "; ".join(found))
        m = GestureStateMatrix(channel1=channel1[:, a:b],
                               channel2=channel2[: 3 if depth[a:b].all() else 2, a:b],
                               hand_width=float(np.mean(widths[a:b])))
        if not (checked and 0 < m.hand_width < math.inf):
            validate_state_matrix(m)
        return m

    results, spans = [], iter(zip(bounds, bounds[1:]))
    for group in groups:
        group_spans = [next(spans) for _ in group]
        try:
            results.append([build(a, b) for a, b in group_spans])
        except MalformedInput as exc:
            results.append(exc)
    return results


def build_state_matrix(samples: list[HandLandmarkFrame], th: RuleThresholds) -> GestureStateMatrix:
    """The matrix of one list of sampled frames (see _build_groups)."""
    (m,) = _build_groups([[samples]], th)
    if isinstance(m, MalformedInput):
        raise m
    return m[0]


def _state_rows(channel1: np.ndarray) -> list[str]:
    """Each channel-1 row's cells as text: one lookup in the table of states
    for a block of states, else cell by cell."""
    if (channel1.ndim == 2 and channel1.dtype.kind in "iu" and channel1.size
            and -1 <= channel1.min() and channel1.max() <= 1):
        text, width = _STATE_TEXT.take(channel1 + 1).tobytes().decode(), 3 * channel1.shape[1]
        return [text[i : i + width - 1] for i in range(0, len(text), width)]
    return [" ".join([f"{int(v):>2d}" for v in row]) for row in channel1.tolist()]


def _real_rows(channel2: np.ndarray) -> list[str]:
    """Each channel-2 row's cells as 3-decimal text, one format call a row."""
    row_format = " ".join(["{:.3f}"] * channel2.shape[-1])
    return [row_format.format(*row) for row in channel2.tolist()]


def serialize_matrix(m: GestureStateMatrix) -> str:
    """Deterministic text rendering for prompt embedding.

    Labeled integer rows for channel1, 3-decimal reals for channel2, and a
    header carrying T, the sample interval, and the hand width. A channel-1
    cell prints as f"{int(v):>2d}": a state as "-1", " 0" or " 1", and a
    cell built by hand as its integer part (-10 as "-10", -0.0 as " 0").
    """
    lines = [_MATRIX_HEADER,
             f"T={m.T} interval={m.sample_interval:.3f} hand_width={m.hand_width:.3f}",
             *[label + cells for label, cells in zip(_POSE_PADDED, _state_rows(m.channel1))],
             *[label + cells for label, cells in zip(_CHANNEL2_PADDED, _real_rows(m.channel2))]]
    return "\n".join(lines) + "\n"


def serialize_movement(m: GestureStateMatrix, start: int, end: int) -> str:
    """Channel-2 columns for span [start, end] inclusive, in the same
    text style, for the movement-description prompt."""
    if not (0 <= start <= end < m.T):
        raise MalformedInput(f"bad movement span [{start}, {end}] for T={m.T}")
    rows = _real_rows(m.channel2[:, start : end + 1])
    lines = [f"span={start}..{end} interval={m.sample_interval:.3f} hand_width={m.hand_width:.3f}",
             *[f"{label} {cells}" for label, cells in zip(_CHANNEL2_LABELS, rows)]]
    return "\n".join(lines) + "\n"


def matrix_to_json(m: GestureStateMatrix) -> str:
    """Full-precision JSON export; exact round-trip with matrix_from_json."""
    doc = {
        "channel1": m.channel1.tolist(),
        "channel2": m.channel2.tolist(),
        "hand_width": m.hand_width,
        "T": m.T,
        "interval": m.sample_interval,
    }
    return json.dumps(doc, ensure_ascii=False, allow_nan=False) + "\n"


def matrix_from_json(text: str | bytes) -> GestureStateMatrix:
    """Inverse of matrix_to_json; MalformedInput unless the document holds
    a matrix that validate_state_matrix accepts and an integer "T" equal
    to its column count."""
    doc = parse_json(text)
    try:
        m = GestureStateMatrix(
            channel1=np.array(doc["channel1"]),
            channel2=np.array(doc["channel2"], dtype=float),
            hand_width=float(doc["hand_width"]),
            sample_interval=float(doc["interval"]),
        )
        columns = doc["T"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad matrix JSON: {exc}") from exc
    validate_state_matrix(m)
    if type(columns) is not int or columns != m.T:
        raise MalformedInput(f'"T" must be the column count {m.T}, got {columns!r}')
    return m


def encode_streams(streams: list[LandmarkStream], th: RuleThresholds | None = None,
                   cfg: SegmentationConfig | None = None
                   ) -> list[list[GestureStateMatrix] | GestureLinkError]:
    """detect -> sample for each stream, then one batched build of all their
    windows. Each stream gets its matrices, or its first error in window
    order; as in a window-by-window encode, its windows after a failing
    one are not built and log nothing."""
    th = th or RuleThresholds()
    sampled: list = []
    for stream in streams:
        try:
            sampled.append([sample_window(w) for w in detect_gesture_window(stream, cfg)])
        except GestureLinkError as exc:
            sampled.append(exc)
    built = iter(_build_groups([ws for ws in sampled if isinstance(ws, list)], th))
    return [next(built) if isinstance(ws, list) else ws for ws in sampled]


def encode_stream(stream: LandmarkStream, th: RuleThresholds | None = None,
                  cfg: SegmentationConfig | None = None) -> list[GestureStateMatrix]:
    """encode_streams for one stream, raising its error."""
    result = encode_streams([stream], th, cfg)[0]
    if isinstance(result, GestureLinkError):
        raise result
    return result
