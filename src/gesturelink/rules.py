"""Six tunable geometric rules over hand frames, with three-way outputs.

Readings come from frames: pose_readings maps N frames' coordinates,
depth flags and handedness to every rule's reading with one batched numpy
call per kind of reading, and the tuner reads its labels through the same
reading functions. Verdicts come from readings: each rule's verdict is a
three-way or single-threshold comparison of one frame's reading, called
once per frame and pose row. A reading is NaN wherever the rule can never
decide (coincident joints, vanishing palm normal, inward/outward without
depth, an overflowing depth), so such frames yield unsure or unknown and
never poison a stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, MalformedInput, parse_json
from .landmarks import FINGER_JOINTS, HandLandmarkFrame, Handedness, landmark_index


class ThreeWay(IntEnum):
    """Signed verdict. The positive/negative reading depends on the rule:
    flexion +1 straight / -1 bent; proximity +1 pressed together / -1 apart;
    contact +1 touching / -1 not touching."""

    POSITIVE = 1
    UNSURE = 0
    NEGATIVE = -1


class ThumbDirection(IntEnum):
    UP = 1
    UNSURE = 0
    DOWN = -1


class PalmOrientation(Enum):
    LEFT = "left"
    RIGHT = "right"
    DOWN = "down"
    UP = "up"
    INWARD = "inward"
    OUTWARD = "outward"
    UNKNOWN = "unknown"


# The members each verdict returns, bound once: a module global reads in
# about a tenth of the time of a member lookup such as ThreeWay.POSITIVE.
_POSITIVE, _UNSURE, _NEGATIVE = ThreeWay.POSITIVE, ThreeWay.UNSURE, ThreeWay.NEGATIVE
_THUMB_UNSURE, _PALM_UNKNOWN = ThumbDirection.UNSURE, PalmOrientation.UNKNOWN

# One-hot order of pose-vector rows 14-19.
PALM_ONE_HOT_ORDER = (PalmOrientation.LEFT, PalmOrientation.RIGHT, PalmOrientation.DOWN,
                      PalmOrientation.UP, PalmOrientation.INWARD, PalmOrientation.OUTWARD)

FINGERS = tuple(FINGER_JOINTS)
PROXIMITY_PAIRS = ("index_middle", "middle_ring", "ring_pinky")
CONTACT_FINGERS = ("index", "middle", "ring", "pinky")

# y grows downward in the image, so "up" is -y; "outward" is toward the
# camera, -z. Each direction is a signed unit axis, one row per state in
# scan order; ties go to the first state reached at the minimal angle.
_PALM_AXES = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1]])
_PALM_STATES = (PalmOrientation.RIGHT, PalmOrientation.LEFT, PalmOrientation.DOWN,
                PalmOrientation.UP, PalmOrientation.OUTWARD, PalmOrientation.INWARD)
_THUMB_AXES, _THUMB_STATES = _PALM_AXES[2:4], (ThumbDirection.DOWN, ThumbDirection.UP)

_EPS, _NORMAL_EPS = 1e-12, 1e-9  # zero-length vectors; a vanishing palm normal

_THUMB_MCP = landmark_index("THUMB_MCP")
_THUMB_TIP = landmark_index("THUMB_TIP")
_INDEX_MCP = landmark_index("INDEX_FINGER_MCP")
_PINKY_MCP = landmark_index("PINKY_MCP")


def _take_index(rows, cols: int = 3) -> np.ndarray:
    """Flat indices that make coords.take(index) read coords[rows, :cols]
    of a (21, 3) coordinate array, for landmark rows of any shape."""
    return np.asarray(rows)[..., None] * 3 + np.arange(cols)


def _curl_ends(chain) -> np.ndarray:
    """Take index (head/tail, operand, dot, xyz) of the bone pairs a curl
    dots: each bone with itself, then the two bones of each joint."""
    bones = list(zip(chain[1:], chain[:-1]))
    pairs = [(b, b) for b in bones] + list(zip(bones, bones[1:]))
    return _take_index(np.array(pairs).transpose(2, 1, 0))


def _pair_ends(pair: str) -> np.ndarray:
    """Take index (point/start/end, level, 4, xy) that pits each finger's
    PIP, DIP and TIP against both distal segments of the other finger."""
    f1, f2 = (FINGER_JOINTS[f][1:] for f in pair.split("_"))
    rows = [[(p[i], q[s], q[s + 1]) for p, q in ((f1, f2), (f2, f1)) for s in (0, 1)]
            for i in range(3)]
    return _take_index(np.array(rows).transpose(2, 0, 1), cols=2)


# Take indices per target, and under the tuple of all targets (FINGERS,
# PROXIMITY_PAIRS, CONTACT_FINGERS) their stack along a target axis. Curls:
# each finger's four joints, the thumb's CMC to TIP. Contacts: the thumb's
# tip, the finger's tip.
_CURL_ENDS = {f: _curl_ends(j) for f, j in FINGER_JOINTS.items()}
_CURL_ENDS[FINGERS] = np.stack(list(_CURL_ENDS.values()), axis=2)
_CURL_THUMB = {target: np.array(target) == "thumb" for target in _CURL_ENDS}
_PAIR_ENDS = {pair: _pair_ends(pair) for pair in PROXIMITY_PAIRS}
_PAIR_ENDS[PROXIMITY_PAIRS] = np.stack(list(_PAIR_ENDS.values()), axis=1)
_CONTACT_ENDS = {f: _take_index([_THUMB_TIP, FINGER_JOINTS[f][3]], cols=2)
                 for f in CONTACT_FINGERS}
_CONTACT_ENDS[CONTACT_FINGERS] = np.stack(list(_CONTACT_ENDS.values()), axis=1)
# Heads and tails of v1 (pinky MCP -> index MCP) and v2 (wrist -> middle MCP).
_PALM_ENDS = _take_index([[_INDEX_MCP, landmark_index("MIDDLE_FINGER_MCP")],
                          [_PINKY_MCP, landmark_index("WRIST")]])


@dataclass(frozen=True)
class RuleThresholds:
    """All tunable rule parameters. Defaults are the tuned values that
    ship with the package (degrees for angles, normalized image units
    for distances; proximity and contact are measured in the image plane).
    """

    flexion_thumb: tuple[float, float] = (16.0, 38.0)
    flexion_finger: tuple[float, float] = (57.0, 74.0)
    proximity: tuple[float, float] = (0.024, 0.029)
    contact: tuple[float, float] = (0.046, 0.055)
    thumb_dir_angle_threshold: float = 40.0
    palm_angle_threshold: float = 41.0

    def __post_init__(self):
        for f in fields(self):
            if isinstance(f.default, tuple):
                low, high = getattr(self, f.name)
                if not (0 < low < high < math.inf):
                    raise MalformedInput(f"{f.name} thresholds must satisfy 0 < low < high < inf")
            elif not 0 < getattr(self, f.name) < math.inf:
                raise MalformedInput(f"{f.name} must be > 0 and finite")

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["distance_mode"] = "xy"  # a fixed key of the file format
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "RuleThresholds":
        """Any subset of the fields (the rest keep their defaults), plus
        an optional "distance_mode": "xy"; any other key is rejected."""
        doc = parse_json(text, parse_int=float)  # too large an integer reads as inf
        if not isinstance(doc, dict):
            raise MalformedInput("thresholds file must hold a JSON object")
        unknown = sorted(doc.keys() - {f.name for f in fields(cls)} - {"distance_mode"})
        if unknown:
            raise MalformedInput(f"unknown thresholds keys: {', '.join(unknown)}")
        if doc.get("distance_mode", "xy") != "xy":
            raise MalformedInput(f'distance_mode must be "xy", got {doc["distance_mode"]!r}')
        kwargs = {}
        for f in fields(cls):
            if f.name not in doc:
                continue
            value, pair = doc[f.name], isinstance(f.default, tuple)
            numbers = value if pair else [value]
            if not (isinstance(numbers, list) and len(numbers) == (2 if pair else 1)
                    and all(type(v) is float for v in numbers)):
                shape = "a [low, high] pair of numbers" if pair else "a number"
                raise MalformedInput(f"{f.name} must be {shape}, got {value!r}")
            kwargs[f.name] = tuple(value) if pair else value
        return cls(**kwargs)


@dataclass(frozen=True)
class HandCenter:
    """Geometric hand center plus the per-frame hand width
    (image-plane distance from index MCP to pinky MCP)."""

    x: float
    y: float
    z: float
    hand_width: float
    has_depth: bool = True


def three_way_verdict(measurement: float, low: float, high: float) -> ThreeWay:
    """Shared comparison: <= low positive, >= high negative, else unsure.

    Boundary values resolve away from unsure, so the unsure band is open.
    """
    if measurement <= low:
        return _POSITIVE
    if measurement >= high:
        return _NEGATIVE
    return _UNSURE


def threshold_verdict(measurement: float, candidate, threshold: float, unsure):
    """Single-threshold comparison: the candidate state when the measurement
    is within the threshold, else unsure. NaN is never within."""
    return candidate if measurement <= threshold else unsure


# Verdicts: each maps one frame's reading of one rule to that rule's state.

def flexion(curl_deg: float, finger: str, th: RuleThresholds) -> ThreeWay:
    """Straight (+1) / bent (-1) / unsure (0) state of one finger."""
    if finger not in FINGER_JOINTS:
        raise ValueError(f"unknown finger: {finger!r}")
    low, high = th.flexion_thumb if finger == "thumb" else th.flexion_finger
    return three_way_verdict(curl_deg, low, high)


def proximity(distance: float, th: RuleThresholds) -> ThreeWay:
    """Pressed together (+1) / apart (-1) / unsure (0) for adjacent fingers."""
    return three_way_verdict(distance, *th.proximity)


def contact(distance: float, th: RuleThresholds) -> ThreeWay:
    """Fingertip contact (+1) / no contact (-1) / unsure (0) with the thumb."""
    return three_way_verdict(distance, *th.contact)


def thumb_pointing(reading: tuple, thumb_flexion: ThreeWay, th: RuleThresholds) -> ThumbDirection:
    """Up (+1) / down (-1) / unsure (0) from the (angle, direction) thumb
    reading. Only a straight thumb points."""
    if thumb_flexion != _POSITIVE:
        return _THUMB_UNSURE
    return threshold_verdict(*reading, th.thumb_dir_angle_threshold, _THUMB_UNSURE)


def palm_orientation(reading: tuple, th: RuleThresholds) -> PalmOrientation:
    """Facing direction of the palm from its (angle, orientation) reading,
    or UNKNOWN outside the angle threshold."""
    return threshold_verdict(*reading, th.palm_angle_threshold, _PALM_UNKNOWN)


# Readings: each maps an (N, 21, 3) coordinate array to one rule's readings
# of the N frames, with numpy calls over a leading frame axis. Degenerate
# rows are computed, then masked, and a coordinate near the float limit
# overflows to inf and NaN, so each reading function runs under np.errstate.
#
# Dots and arccos stay in numpy, and their rounding is part of the readings:
# OpenBLAS's dot uses FMA, so a Python mul-add rounds differently on a third
# of random 3-vectors, and math.acos differs from numpy's vectorized arccos
# on 9% of cosines.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, with the same rounding as np.dot."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _take(coords: np.ndarray, index: np.ndarray) -> np.ndarray:
    """coords[n].take(index) for every frame n of an (N, 21, 3) array."""
    return coords.reshape(len(coords), 63)[:, index]


def _degrees(cosines: np.ndarray) -> np.ndarray:
    """Degrees of the arccos of each cosine, clipped to [-1, 1] (NaN kept)."""
    return np.degrees(np.arccos(np.minimum(np.maximum(cosines, -1.0), 1.0)))


# The three readings below take one target, giving (N,) arrays, or the
# tuple of all targets, giving (N, targets) arrays.

@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def curl_readings(coords: np.ndarray, finger) -> tuple[np.ndarray, np.ndarray]:
    """(curls, degenerate): the finger's total bending angle in degrees (3D)
    in each frame, NaN where a bone it bends has zero length, and that mask.
    Thumb: the IP joint angle (MCP->IP vs IP->TIP); other fingers: the sum
    of the PIP and DIP joint angles."""
    ends = _take(coords, _CURL_ENDS[finger])
    bones = ends[:, 0] - ends[:, 1]
    dots = _rowdot(bones[:, 0], bones[:, 1])
    lengths = np.sqrt(dots[..., :3])  # three squared bone lengths, then two joint dots
    angles = _degrees(dots[..., 3:] / (lengths[..., :-1] * lengths[..., 1:]))
    thumb = _CURL_THUMB[finger]  # its CMC->MCP bone bends no joint of its curl
    curl = np.where(thumb, angles[..., 1], angles[..., 0] + angles[..., 1])
    degenerate = np.where(thumb, lengths[..., 1:].min(axis=-1), lengths.min(axis=-1)) < _EPS
    return np.where(degenerate, np.nan, curl), degenerate


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def proximity_distances(coords: np.ndarray, pair) -> np.ndarray:
    """Mean over joint levels (PIP, DIP, TIP) of the smaller image-plane
    distance from either finger's joint to the other finger's distal
    polyline, per frame. A zero-length segment degrades to the distance to
    its start."""
    if pair not in _PAIR_ENDS:
        raise ValueError(f"unknown finger pair: {pair!r}")
    ends = _take(coords, _PAIR_ENDS[pair])
    spans = ends[:, ::2] - ends[:, 1:2]  # point - start, end - start
    dots = _rowdot(spans, spans[:, 1:2])
    t = dots[:, 0] / np.where(dots[:, 1] >= _EPS, dots[:, 1], np.inf)
    gap = ends[:, 0] - (ends[:, 1] + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * spans[:, 1])
    # sqrt is monotonic, so it commutes with the min over the four pairs.
    return np.sqrt(_rowdot(gap, gap).min(axis=-1)).sum(axis=-1) / 3  # np.mean's sum and division


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def contact_distances(coords: np.ndarray, finger) -> np.ndarray:
    """Image-plane distance between the thumb tip and the finger's tip, per frame."""
    if finger not in _CONTACT_ENDS:
        raise ValueError(f"contact is defined against the thumb; got {finger!r}")
    ends = _take(coords, _CONTACT_ENDS[finger])
    gap = ends[:, 0] - ends[:, 1]
    return np.sqrt(_rowdot(gap, gap))


def _closest_axes(v: np.ndarray, axes: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(angles, axis indices) of the signed unit axis closest in angle to
    each row of v, with NaN and index len(axes) where |v| < eps. Against a
    signed unit axis all products but one are exact zeros, so v @ axes.T
    gives each np.dot exactly. argmin keeps the first of equal angles; a
    row's angles are all NaN or none (an infinite component makes every
    axis product 0 * inf), and an all-NaN row gets the first axis."""
    norm = np.sqrt(_rowdot(v, v))
    angles = _degrees((v @ axes.T) / norm[:, None])
    k = angles.argmin(axis=1)
    degenerate = norm < eps
    return (np.where(degenerate, np.nan, angles[np.arange(len(v)), k]),
            np.where(degenerate, len(axes), k))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def thumb_direction_readings(coords: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """(angles, directions, degenerate): per frame, the angle of the thumb
    MCP->TIP vector to the closer of down/up and that direction, (NaN,
    UNSURE) where the vector vanishes, and that mask."""
    angles, k = _closest_axes(coords[:, _THUMB_TIP] - coords[:, _THUMB_MCP], _THUMB_AXES, _EPS)
    states = (*_THUMB_STATES, _THUMB_UNSURE)
    return angles, [states[i] for i in k.tolist()], k == 2


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def palm_readings(coords: np.ndarray, depth: np.ndarray,
                  left: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """(angles, orientations, degenerate): per frame, the angle of the palm
    normal to the closest reference and that reference, and where the normal
    (nearly) vanishes. depth and left are each frame's has_depth and whether
    its hand is the left one. (NaN, UNKNOWN) where no threshold can decide:
    a vanishing normal, or inward/outward without depth, where the normal
    degenerates to the +-z axis.

    The normal crosses v1 (pinky MCP -> index MCP) and v2 (wrist -> middle
    MCP): v2 x v1 for right hands, v1 x v2 for left ones, each component
    one product difference as in np.cross."""
    ends = _take(coords, _PALM_ENDS)
    v1, v2 = (ends[:, 0] - ends[:, 1]).transpose(1, 2, 0)
    (ax, ay, az), (bx, by, bz) = np.where(left, (v1, v2), (v2, v1))
    normal = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)
    angles, k = _closest_axes(normal, _PALM_AXES, _NORMAL_EPS)
    flat = ~depth & (k >= 4) & (k < 6)  # inward/outward without depth
    states = (*_PALM_STATES, _PALM_UNKNOWN)
    return (np.where(flat, np.nan, angles), [states[i] for i in np.where(flat, 6, k).tolist()],
            k == 6)


class PoseReadings(NamedTuple):
    """Every pose reading of N frames, NaN wherever a rule can never decide.
    degenerate names each reading that can hit degenerate geometry and maps
    it to its (N,) mask."""

    curl: np.ndarray  # (5, N) degrees, thumb..pinky
    proximity: np.ndarray  # (3, N), in PROXIMITY_PAIRS order
    contact: np.ndarray  # (4, N), in CONTACT_FINGERS order
    thumb: tuple[np.ndarray, list]  # (angles, directions)
    palm: tuple[np.ndarray, list]  # (angles, orientations)
    degenerate: dict[str, np.ndarray]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def pose_readings(coords: np.ndarray, depth: np.ndarray, left: np.ndarray) -> PoseReadings:
    """All readings of N frames from their (N, 21, 3) coordinates and (N,)
    has_depth and left-hand flags, one batched call per kind of reading.
    Each runs undecorated (__wrapped__), under this function's errstate."""
    curls, bad = curl_readings.__wrapped__(coords, FINGERS)
    degenerate = {f"{f}_curl": b for f, b in zip(FINGERS, bad.T)}
    *thumb, degenerate["thumb_direction"] = thumb_direction_readings.__wrapped__(coords)
    *palm, degenerate["palm_normal"] = palm_readings.__wrapped__(coords, depth, left)
    return PoseReadings(curl=curls.T,
                        proximity=proximity_distances.__wrapped__(coords, PROXIMITY_PAIRS).T,
                        contact=contact_distances.__wrapped__(coords, CONTACT_FINGERS).T,
                        thumb=tuple(thumb), palm=tuple(palm), degenerate=degenerate)


def pose_vectors(r: PoseReadings, th: RuleThresholds) -> np.ndarray:
    """19 x N integer pose vectors from N frames' readings, one verdict call
    per frame and row. Rows 1-5 flexion (thumb..pinky), 6-8 proximity, 9-12
    thumb contact (index..pinky), 13 thumb direction, 14-19 palm one-hot
    (all zero for UNKNOWN). Degenerate sub-results land as zeros."""
    flex = [[flexion(c, finger, th) for c in curls]
            for finger, curls in zip(FINGER_JOINTS, r.curl.tolist())]
    thumb = zip(r.thumb[0].tolist(), r.thumb[1])
    rows = [*flex, *([proximity(d, th) for d in ds] for ds in r.proximity.tolist()),
            *([contact(d, th) for d in ds] for ds in r.contact.tolist()),
            [thumb_pointing(t, f, th) for t, f in zip(thumb, flex[0])]]
    palms = [palm_orientation(p, th) for p in zip(r.palm[0].tolist(), r.palm[1])]
    rows += [[palm is state for palm in palms] for state in PALM_ONE_HOT_ORDER]
    return np.fromiter(chain.from_iterable(rows), dtype=int, count=19 * len(palms)).reshape(19, -1)


def encode_pose_vector(frame: HandLandmarkFrame, th: RuleThresholds) -> np.ndarray:
    """19-entry integer pose vector for one frame (see pose_vectors)."""
    left = np.array([frame.handedness == Handedness.LEFT])
    return pose_vectors(pose_readings(frame.coords[None], np.array([frame.has_depth]), left),
                        th)[:, 0]


# One frame's reading, raising DegenerateGeometry where the geometry is
# degenerate; a reading that is NaN for any other reason is returned.

def finger_curl_deg(frame: HandLandmarkFrame, finger: str) -> float:
    """The finger's curl in degrees (see curl_readings); DegenerateGeometry
    on a zero-length bone."""
    curl, degenerate = curl_readings(frame.coords[None], finger)
    if degenerate[0]:
        raise DegenerateGeometry("zero-length vector in angle computation")
    return float(curl[0])


def thumb_direction_measurement(frame: HandLandmarkFrame) -> tuple[float, ThumbDirection]:
    """(angle to the closer of down/up, that direction) for the thumb
    MCP->TIP vector; DegenerateGeometry if the vector vanishes."""
    angles, directions, degenerate = thumb_direction_readings(frame.coords[None])
    if degenerate[0]:
        raise DegenerateGeometry("zero-length vector in angle computation")
    return float(angles[0]), directions[0]


def palm_orientation_measurement(frame: HandLandmarkFrame) -> tuple[float, PalmOrientation]:
    """(angle to the closest reference, that reference) for the palm normal,
    inward/outward included without depth; DegenerateGeometry when the
    normal (nearly) vanishes."""
    left = np.array([frame.handedness == Handedness.LEFT])
    angles, orientations, degenerate = palm_readings(frame.coords[None], np.array([True]), left)
    if degenerate[0]:
        raise DegenerateGeometry("palm normal vanishes")
    return float(angles[0]), orientations[0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def hand_centers(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) component-wise means of all 21 landmarks and (N,) hand widths
    of an (N, 21, 3) coordinate array."""
    across = coords[:, _INDEX_MCP, :2] - coords[:, _PINKY_MCP, :2]
    return coords.mean(axis=1), np.sqrt(_rowdot(across, across))


def center_heights(coords: np.ndarray) -> np.ndarray:
    """(N,) mean landmark heights of an (N, 21, 3) array, bit for bit
    hand_centers(coords)[0][:, 1]: numpy's mean adds the heights from 0.0,
    one at a time in landmark order, unless the landmark axis runs backwards
    or innermost in memory, where those layouts take hand_centers' mean."""
    if not coords.strides[1] > abs(coords.strides[2]):
        return hand_centers(coords)[0][:, 1]
    total = coords[:, 0, 1] + 0.0  # so -0.0 heights sum to 0.0, as in numpy's mean
    for k in range(1, 21):
        total += coords[:, k, 1]
    return total / 21


def hand_center(frame: HandLandmarkFrame) -> HandCenter:
    """Component-wise mean of all 21 landmarks plus the hand width."""
    centers, widths = hand_centers(frame.coords[None])
    cx, cy, cz = centers[0].tolist()
    return HandCenter(x=cx, y=cy, z=cz, hand_width=float(widths[0]), has_depth=frame.has_depth)


# Row labels of the 19-entry pose vector, in storage order.
POSE_ROW_LABELS = (
    "flexion_thumb", "flexion_index", "flexion_middle", "flexion_ring", "flexion_pinky",
    "proximity_index_middle", "proximity_middle_ring", "proximity_ring_pinky",
    "contact_thumb_index", "contact_thumb_middle", "contact_thumb_ring", "contact_thumb_pinky",
    "thumb_direction",
    "palm_left", "palm_right", "palm_down", "palm_up", "palm_inward", "palm_outward",
)


def validate_pose_vector(vec: np.ndarray) -> None:
    """Raise MalformedInput unless vec, one pose vector (19,) or a 19 x T
    block of them, holds integer states within the pose-vector ranges."""
    if vec.shape[:1] != (19,) or vec.ndim > 2:
        raise MalformedInput(f"pose vectors need 19 rows, got shape {vec.shape}")
    if vec.dtype.kind not in "iu":
        raise MalformedInput(f"pose states must be integers, got {vec.dtype}")
    if (np.abs(vec[:13]) > 1).any():
        raise MalformedInput("rows 1-13 must be -1, 0 or 1")
    palm = vec[13:]
    if (palm < 0).any() or (palm.sum(axis=0) > 1).any():
        raise MalformedInput("palm rows must be one-hot or all zero")
