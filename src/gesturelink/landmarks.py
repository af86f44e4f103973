"""Parsing, validation, and indexing of 21-point hand-landmark streams.

A stream stores its recording as arrays: one (N, 21, 3) coordinate
array, the N timestamps and the N per-frame depth flags. HandLandmarkFrame
is the per-frame API; a stream hands out frames as views over its arrays.

Coordinate convention (fixed artifact-wide): x grows rightward, y grows
downward, z is relative depth with more negative values closer to the
camera. Streams recorded in other conventions must be normalized by the
producer before they reach this module.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MalformedInput, parse_json

LANDMARK_NAMES = (
    "WRIST",
    "THUMB_CMC", "THUMB_MCP", "THUMB_IP", "THUMB_TIP",
    "INDEX_FINGER_MCP", "INDEX_FINGER_PIP", "INDEX_FINGER_DIP", "INDEX_FINGER_TIP",
    "MIDDLE_FINGER_MCP", "MIDDLE_FINGER_PIP", "MIDDLE_FINGER_DIP", "MIDDLE_FINGER_TIP",
    "RING_FINGER_MCP", "RING_FINGER_PIP", "RING_FINGER_DIP", "RING_FINGER_TIP",
    "PINKY_MCP", "PINKY_PIP", "PINKY_DIP", "PINKY_TIP",
)

_NAME_TO_INDEX = {name: i for i, name in enumerate(LANDMARK_NAMES)}

# Joint indices per finger, proximal to tip. The thumb row is
# (CMC, MCP, IP, TIP); other fingers are (MCP, PIP, DIP, TIP).
FINGER_JOINTS = {
    "thumb": (1, 2, 3, 4),
    "index": (5, 6, 7, 8),
    "middle": (9, 10, 11, 12),
    "ring": (13, 14, 15, 16),
    "pinky": (17, 18, 19, 20),
}

# Widest x/y excursion tolerated for off-frame landmarks.
_COORD_MIN = -0.5
_COORD_MAX = 1.5


def landmark_index(name: str) -> int:
    """Index 0..20 of a canonical landmark name."""
    try:
        return _NAME_TO_INDEX[name]
    except KeyError:
        raise MalformedInput(f"unknown landmark name: {name!r}") from None


class Handedness(str, Enum):
    RIGHT = "right"
    LEFT = "left"


class SourceView(str, Enum):
    FIRST_PERSON = "first_person"
    THIRD_PERSON = "third_person"


@dataclass(frozen=True, eq=False)
class HandLandmarkFrame:
    """One timestamped set of 21 landmarks for one hand.

    coords is a read-only (21, 3) float array of (x, y, z) rows in
    landmark-index order; x/y may slightly leave [0, 1]. has_depth
    records whether the source stream carried a z component; 2D streams
    get z=0 substituted and has_depth=False.
    """

    timestamp: float
    handedness: Handedness
    coords: np.ndarray
    has_depth: bool = True

    def __post_init__(self):
        try:
            coords = np.array(self.coords, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"bad landmark coordinates at t={self.timestamp}: {exc}") from exc
        if coords.shape != (21, 3):
            raise _shape_error(self.timestamp, coords.shape)
        if bad := first_bad_frame(coords[None], np.array([self.timestamp], dtype=float)):
            raise MalformedInput(bad[1])
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if not isinstance(other, HandLandmarkFrame):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.handedness == other.handedness
            and self.has_depth == other.has_depth
            and np.array_equal(self.coords, other.coords)
        )


def _shape_error(t, shape: tuple) -> MalformedInput:
    return MalformedInput(f"frame at t={t} has {shape[0] if shape else 0} landmarks "
                          f"of shape {shape[1:]}, expected 21 of shape (3,)")


def first_bad_frame(coords: np.ndarray, times: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first of N stacked frames with a bad value,
    or None. Shapes must already be (N, 21, 3) and (N,). A frame's checks
    run in this order: a non-finite coordinate, an x or y outside
    [_COORD_MIN, _COORD_MAX], then a negative or non-finite timestamp."""
    xy = coords[:, :, :2]
    nonfinite = ~np.isfinite(coords).all(axis=(1, 2))
    far = ((xy < _COORD_MIN) | (xy > _COORD_MAX)).any(axis=(1, 2))
    bad = nonfinite | far | ~(np.isfinite(times) & (times >= 0))
    if not bad.any():
        return None
    i = int(bad.argmax())
    t = float(times[i])
    if nonfinite[i]:
        return i, f"non-finite landmark coordinate at t={t}"
    if far[i]:
        return i, f"landmark coordinate outside [{_COORD_MIN}, {_COORD_MAX}] at t={t}"
    return i, f"bad frame timestamp: {t!r}"


@dataclass(frozen=True, eq=False)
class LandmarkStream(Sequence):
    """One capture as arrays, made read-only in place: coords (N, 21, 3)
    holds each frame's HandLandmarkFrame.coords, timestamps the strictly
    increasing frame times and depth_flags each frame's has_depth (2D and
    3D frames may mix). As a sequence, the stream yields HandLandmarkFrame
    views of these arrays, built on access without a copy or a re-check.
    """

    coords: np.ndarray
    timestamps: np.ndarray
    depth_flags: np.ndarray
    handedness: Handedness = Handedness.RIGHT
    source_view: SourceView = SourceView.THIRD_PERSON

    def __post_init__(self):
        coords, times, depth = (np.asarray(a, dtype=d) for a, d in (
            (self.coords, float), (self.timestamps, float), (self.depth_flags, bool)))
        n = len(times)
        if coords.shape != (n, 21, 3) or times.shape != depth.shape or times.ndim != 1:
            raise MalformedInput(f"stream arrays of shapes {coords.shape}, {times.shape} "
                                 f"and {depth.shape}, expected (N, 21, 3), (N,) and (N,)")
        if bad := first_bad_frame(coords, times):
            raise MalformedInput(bad[1])
        later = np.flatnonzero(np.diff(times) <= 0)
        if later.size:
            earlier, after = times[later[0] : later[0] + 2].tolist()
            raise MalformedInput(f"timestamps not strictly increasing: {earlier} -> {after}")
        for name, array in (("coords", coords), ("timestamps", times), ("depth_flags", depth)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        """The frame view at index i, or for a slice the stream of its frames."""
        if isinstance(i, slice):
            view = object.__new__(LandmarkStream)
            vars(view).update(vars(self), coords=self.coords[i], timestamps=self.timestamps[i],
                              depth_flags=self.depth_flags[i])
            if (i.step or 1) < 0:  # only a reversed slice can break an invariant
                view.__post_init__()
            return view
        frame = object.__new__(HandLandmarkFrame)
        vars(frame).update(timestamp=float(self.timestamps[i]), handedness=self.handedness,
                           coords=self.coords[i], has_depth=bool(self.depth_flags[i]))
        return frame

    @property
    def frames(self) -> LandmarkStream:
        """The stream itself, as the sequence of its frames."""
        return self

    def __eq__(self, other):
        if not isinstance(other, LandmarkStream):
            return NotImplemented
        same_arrays = all(np.array_equal(getattr(self, n), getattr(other, n))
                          for n in ("timestamps", "depth_flags", "coords"))
        return same_arrays and (self.handedness, self.source_view) == (
            other.handedness, other.source_view)


def decode_frame(entry, i: int, coords: np.ndarray, times: np.ndarray,
                 depth: np.ndarray) -> None:
    """Decode one {"t": seconds, "lm": [[x, y, z] or [x, y]] * 21} frame
    entry into row i of zeroed (N, 21, 3) coords and of (N,) times and
    depth, or raise MalformedInput on its structure. The rows of one frame
    are all [x, y, z] or all [x, y]; two-component rows keep z=0 and mark
    the frame has_depth=False. first_bad_frame checks the values."""
    if not isinstance(entry, dict) or "t" not in entry or "lm" not in entry:
        raise MalformedInput('each frame needs "t" and "lm"')
    try:
        t = float(entry["t"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad timestamp: {entry['t']!r}") from exc
    try:
        lm = np.asarray(entry["lm"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(
            f"bad landmarks at t={t}: rows must be all [x, y] or all [x, y, z] numbers ({exc})"
        ) from exc
    # Two-component rows count as padded to three in the message.
    shape = (len(lm), 3) if lm.shape[1:] == (2,) else lm.shape
    if shape != (21, 3):
        raise _shape_error(t, shape)
    times[i], coords[i, :, : lm.shape[1]], depth[i] = t, lm, lm.shape[1] == 3


def _lm_as_array(obj: dict) -> dict:
    """json.loads object_hook: an object's "lm" value becomes a float array
    as the decoder builds the object, so no row list outlives its frame. A
    value the conversion rejects stays as decoded; decode_frame reports it."""
    if "lm" in obj:
        try:
            obj["lm"] = np.array(obj["lm"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def parse_landmark_stream(raw: bytes | str) -> LandmarkStream:
    """Parse the documented JSON stream format into a validated stream.

    Schema: {"source_view": "...", "handedness": "right"|"left",
    "frames": [{"t": seconds, "lm": [[x, y, z] or [x, y]] * 21}, ...]}.
    Bytes must be UTF-8. The decoder turns each "lm" into an array as it
    builds its object, so the row lists never pile up; the frames are then
    copied into preallocated arrays and checked all at once. A value shown
    in an error message prints any "lm" inside it as an array.
    """
    doc = parse_json(raw, object_hook=_lm_as_array)  # its decoded text is freed on return
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


def serialize_landmark_stream(stream: LandmarkStream) -> bytes:
    """Inverse of parse_landmark_stream; exact value round-trip.

    Floats are emitted at full repr precision so parse(serialize(s)) == s.
    Frames without depth serialize landmarks as [x, y].
    """
    doc = {
        "source_view": stream.source_view.value,
        "handedness": stream.handedness.value,
        "frames": [
            {"t": t, "lm": (coords if has_depth else coords[:, :2]).tolist()}
            for t, coords, has_depth in zip(
                stream.timestamps.tolist(), stream.coords, stream.depth_flags.tolist()
            )
        ],
    }
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")
