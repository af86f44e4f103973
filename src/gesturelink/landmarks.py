"""Parsing, validation, and indexing of 21-point hand-landmark streams.

Coordinate convention (fixed artifact-wide): x grows rightward, y grows
downward, z is relative depth with more negative values closer to the
camera. Streams recorded in other conventions must be normalized by the
producer before they reach this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BadLandmarkCount,
    MalformedInput,
    NonMonotonicTimestamps,
    UnknownLandmarkName,
)

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
        raise UnknownLandmarkName(f"unknown landmark name: {name!r}") from None


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
            raise BadLandmarkCount(
                f"frame at t={self.timestamp} has {len(coords) if coords.ndim else 0} landmarks "
                f"of shape {coords.shape[1:]}, expected 21 of shape (3,)"
            )
        if not np.isfinite(coords).all():
            raise MalformedInput(f"non-finite landmark coordinate at t={self.timestamp}")
        xy = coords[:, :2]
        if xy.min() < _COORD_MIN or xy.max() > _COORD_MAX:
            raise MalformedInput(
                f"landmark coordinate outside [{_COORD_MIN}, {_COORD_MAX}] at t={self.timestamp}"
            )
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise MalformedInput(f"bad frame timestamp: {self.timestamp!r}")
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


@dataclass(frozen=True)
class LandmarkStream:
    """Ordered frames from one capture; immutable after parse."""

    frames: tuple[HandLandmarkFrame, ...]
    source_view: SourceView = SourceView.THIRD_PERSON

    def __post_init__(self):
        times = [f.timestamp for f in self.frames]
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise NonMonotonicTimestamps(
                    f"timestamps not strictly increasing: {earlier} -> {later}"
                )

    @property
    def has_depth(self) -> bool:
        return all(f.has_depth for f in self.frames)


def parse_frame(entry, handedness: Handedness) -> HandLandmarkFrame:
    """One {"t": seconds, "lm": [[x, y, z] or [x, y]] * 21} frame entry.

    The rows of one frame are all [x, y, z] or all [x, y]; two-component
    rows get z=0 and mark the frame has_depth=False. HandLandmarkFrame
    checks the coordinates.
    """
    if not isinstance(entry, dict) or "t" not in entry or "lm" not in entry:
        raise MalformedInput('each frame needs "t" and "lm"')
    try:
        t = float(entry["t"])
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"bad timestamp: {entry['t']!r}") from exc
    try:
        coords = np.array(entry["lm"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(
            f"bad landmarks at t={t}: rows must be all [x, y] or all [x, y, z] numbers ({exc})"
        ) from exc
    has_depth = coords.shape[1:] != (2,)
    if not has_depth:
        coords = np.hstack([coords, np.zeros((len(coords), 1))])
    return HandLandmarkFrame(t, handedness, coords, has_depth)


def parse_landmark_stream(raw: bytes | str) -> LandmarkStream:
    """Parse the documented JSON stream format into a validated stream.

    Schema: {"source_view": "...", "handedness": "right"|"left",
    "frames": [{"t": seconds, "lm": [[x, y, z] or [x, y]] * 21}, ...]}.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="strict")
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from exc
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

    frames = tuple(parse_frame(entry, handedness) for entry in raw_frames)
    return LandmarkStream(frames=frames, source_view=source_view)


def serialize_landmark_stream(stream: LandmarkStream) -> bytes:
    """Inverse of parse_landmark_stream; exact value round-trip.

    Floats are emitted at full repr precision so parse(serialize(s)) == s.
    Streams without depth serialize landmarks as [x, y].
    """
    handedness = stream.frames[0].handedness.value if stream.frames else "right"
    doc = {
        "source_view": stream.source_view.value,
        "handedness": handedness,
        "frames": [
            {
                "t": f.timestamp,
                "lm": (f.coords if f.has_depth else f.coords[:, :2]).tolist(),
            }
            for f in stream.frames
        ],
    }
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")
