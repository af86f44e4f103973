"""Gesture windowing and the two-channel gesture state matrix.

A gesture window opens when the hand center stays at or above the chest
line for a run of frames, and closes once the hand stays below it long
enough (or the stream ends). Segmentation reads the hand centers of the
whole stream from its coordinate array, and a window holds a slice of
the stream's arrays. Frames inside a window are sampled every 0.2 s;
each sample, a frame view, contributes one pose-vector column and one
hand-center column.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInput, parse_json
from .landmarks import HandLandmarkFrame, Handedness, LandmarkStream
from .rules import (
    POSE_ROW_LABELS,
    RuleThresholds,
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
# Channel-1 cell text of each valid state; serialize_matrix formats any
# other value (possible in a matrix built by hand) with f"{int(v):>2d}".
_STATE_CELLS = {-1: "-1", 0: " 0", 1: " 1"}


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
        if len(times) and not self.start_time <= times[0] <= times[-1] <= self.end_time:
            raise MalformedInput("window frame outside [start, end]")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def detect_gesture_window(
    stream: LandmarkStream, cfg: SegmentationConfig | None = None
) -> list[GestureWindow]:
    """Non-overlapping gesture windows, in time order.

    Only right-hand streams are segmented; left hands parse fine but are
    rejected here.
    """
    cfg = cfg or SegmentationConfig()
    if not stream:
        raise MalformedInput("cannot segment an empty stream")
    if stream.handedness != Handedness.RIGHT:
        raise MalformedInput("encoder handles right-hand streams only")

    above = (hand_centers(stream.coords)[0][:, 1] <= cfg.chest_line).tolist()
    times = stream.timestamps.tolist()
    windows: list[GestureWindow] = []

    run_start: int | None = None  # first frame of the current above-run (pre-trigger)
    open_start: int | None = None  # first frame of the open window
    last_above: int | None = None
    below_since: float | None = None

    def close_window(start_idx: int, end_idx: int) -> None:
        if times[end_idx] <= times[start_idx]:
            logger.debug("dropping zero-duration window at t=%s", times[start_idx])
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

    @property
    def has_depth(self) -> bool:
        return self.channel2.shape[0] == 3

    def __eq__(self, other) -> bool:
        if not isinstance(other, GestureStateMatrix):
            return NotImplemented
        return (
            np.array_equal(self.channel1, other.channel1)
            and np.array_equal(self.channel2, other.channel2)
            and self.hand_width == other.hand_width
            and self.sample_interval == other.sample_interval
        )


def validate_state_matrix(m: GestureStateMatrix) -> None:
    """Raise MalformedInput unless the matrix satisfies its invariants."""
    c1, c2 = m.channel1, m.channel2
    if not (c1.ndim == c2.ndim == 2 and c2.shape[0] in (2, 3) and c1.shape[1] == c2.shape[1] >= 1):
        raise MalformedInput(f"channels must be 19 x T and 2-3 x T, T >= 1: {c1.shape}, {c2.shape}")
    validate_pose_vector(c1)
    if not (np.isfinite(c2).all() and (c2[:2] >= -0.5).all() and (c2[:2] <= 1.5).all()):
        raise MalformedInput("channel2 must be finite, with x and y within [-0.5, 1.5]")
    if not 0 < m.hand_width < math.inf:
        raise MalformedInput(f"hand_width must be positive and finite, got {m.hand_width}")
    if not 0 < m.sample_interval < math.inf:
        raise MalformedInput(f"interval must be positive and finite, got {m.sample_interval}")


def build_state_matrix(
    samples: list[HandLandmarkFrame], th: RuleThresholds
) -> GestureStateMatrix:
    """Assemble the matrix from sampled frames (>= 1 required), reading
    every rule of all samples at once; MalformedInput unless it satisfies
    validate_state_matrix. One warning names each reading that hit
    degenerate geometry, with its count of samples and the first one's time."""
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


def serialize_matrix(m: GestureStateMatrix) -> str:
    """Deterministic text rendering for prompt embedding.

    Labeled integer rows for channel1, 3-decimal reals for channel2,
    and a header carrying T, the sample interval, and the hand width.
    """
    lines = [
        _MATRIX_HEADER,
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


def serialize_movement(m: GestureStateMatrix, start: int, end: int) -> str:
    """Channel-2 columns for span [start, end] inclusive, in the same
    text style, for the movement-description prompt."""
    if not (0 <= start <= end < m.T):
        raise MalformedInput(f"bad movement span [{start}, {end}] for T={m.T}")
    lines = [
        f"span={start}..{end} interval={m.sample_interval:.3f} hand_width={m.hand_width:.3f}",
    ]
    for label, row in zip(_CHANNEL2_LABELS, m.channel2[:, start : end + 1].tolist()):
        cells = " ".join([f"{v:.3f}" for v in row])
        lines.append(f"{label} {cells}")
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
    return json.dumps(doc, ensure_ascii=False) + "\n"


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


def encode_stream(
    stream: LandmarkStream,
    th: RuleThresholds | None = None,
    cfg: SegmentationConfig | None = None,
) -> list[GestureStateMatrix]:
    """detect -> sample -> build for every window in the stream."""
    th = th or RuleThresholds()
    return [
        build_state_matrix(sample_window(w), th)
        for w in detect_gesture_window(stream, cfg)
    ]
