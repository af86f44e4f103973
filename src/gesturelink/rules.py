"""Six tunable geometric rules over one hand frame, with three-way outputs.

Every calculator is a pure function of (frame, thresholds): a three-way or
single-threshold verdict over the rule's reading, which the tuner scores
too. A reading is NaN wherever the rule can never decide (coincident
joints, vanishing palm normal, inward/outward without depth), so such
frames yield unsure or unknown and never poison a stream.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum

import numpy as np

from .errors import DegenerateGeometry, MalformedInput
from .landmarks import FINGER_JOINTS, HandLandmarkFrame, Handedness, landmark_index

logger = logging.getLogger(__name__)


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


# One-hot order of pose-vector rows 14-19.
PALM_ONE_HOT_ORDER = (PalmOrientation.LEFT, PalmOrientation.RIGHT, PalmOrientation.DOWN,
                      PalmOrientation.UP, PalmOrientation.INWARD, PalmOrientation.OUTWARD)

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


# Thumb MCP, IP, TIP; other fingers MCP to TIP.
_CURL_ENDS = {f: _curl_ends(j[1:] if f == "thumb" else j) for f, j in FINGER_JOINTS.items()}
_PAIR_ENDS = {pair: _pair_ends(pair) for pair in PROXIMITY_PAIRS}
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
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "RuleThresholds":
        """Any subset of the fields (the rest keep their defaults), plus
        an optional "distance_mode": "xy"; any other key is rejected."""
        try:
            doc = json.loads(text, parse_int=float)  # too large an integer reads as inf
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"bad thresholds JSON: {exc}") from exc
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
        return ThreeWay.POSITIVE
    if measurement >= high:
        return ThreeWay.NEGATIVE
    return ThreeWay.UNSURE


def threshold_verdict(measurement: float, candidate, threshold: float, unsure):
    """Single-threshold comparison: the candidate state when the measurement
    is within the threshold, else unsure. NaN is never within."""
    return candidate if measurement <= threshold else unsure


def _reading(measure, frame: HandLandmarkFrame, *args, degenerate=math.nan):
    """measure(frame, *args), or a NaN reading where the geometry is degenerate."""
    try:
        return measure(frame, *args)
    except DegenerateGeometry as exc:
        logger.warning("%s at t=%s: %s; rule unsure", measure.__name__, frame.timestamp, exc)
        return degenerate


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, with the same rounding as np.dot.

    Dots and arccos stay in numpy: OpenBLAS's dot uses FMA, so a Python
    mul-add rounds differently on a third of random 3-vectors, and math.acos
    differs from numpy's vectorized arccos on 9% of cosines. One multiply,
    divide, sqrt or min/max rounds alike in Python, and costs far less there.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _angles_deg(cosines: list[float]) -> list[float]:
    """Degrees of the arccos of each cosine, clipped to [-1, 1] (NaN kept)."""
    return np.degrees(np.arccos([min(max(c, -1.0), 1.0) for c in cosines])).tolist()


def _closest_axis(v: np.ndarray, axes: np.ndarray, states, eps: float, degenerate: str):
    """(angle, state) of the signed unit axis closest in angle to v, the
    first of equal angles; DegenerateGeometry(degenerate) if |v| < eps.
    Against a signed unit axis all products in np.dot but one are exact
    zeros, so one matrix product gives each axis's np.dot exactly."""
    norm = math.sqrt(np.dot(v, v))
    if norm < eps:
        raise DegenerateGeometry(degenerate)
    angles = _angles_deg((np.dot(axes, v) / norm).tolist())
    k = min(range(len(angles)), key=angles.__getitem__)
    return angles[k], states[k]


def finger_curl_deg(frame: HandLandmarkFrame, finger: str) -> float:
    """Total bending angle of the finger in degrees (3D).

    Thumb: the IP joint angle (MCP->IP vs IP->TIP). Other fingers: sum of
    the PIP and DIP joint angles. Raises DegenerateGeometry on a
    zero-length bone.
    """
    ends = frame.coords.take(_CURL_ENDS[finger])
    bones = ends[0] - ends[1]
    dots = _rowdot(bones[0], bones[1]).tolist()
    k = (len(dots) + 1) // 2  # k squared bone lengths, then k - 1 joint dots
    lengths = [math.sqrt(d) for d in dots[:k]]
    if min(lengths) < _EPS:
        raise DegenerateGeometry("zero-length vector in angle computation")
    angles = _angles_deg([d / (a * b) for d, a, b in zip(dots[k:], lengths, lengths[1:])])
    return angles[0] + angles[1] if len(angles) == 2 else angles[0]


def curl_reading(frame: HandLandmarkFrame, finger: str) -> float:
    """finger_curl_deg, or NaN on a zero-length bone."""
    return _reading(finger_curl_deg, frame, finger)


def flexion(frame: HandLandmarkFrame, finger: str, th: RuleThresholds) -> ThreeWay:
    """Straight (+1) / bent (-1) / unsure (0) state of one finger."""
    if finger not in FINGER_JOINTS:
        raise ValueError(f"unknown finger: {finger!r}")
    low, high = th.flexion_thumb if finger == "thumb" else th.flexion_finger
    return three_way_verdict(curl_reading(frame, finger), low, high)


def proximity_distance(frame: HandLandmarkFrame, pair: str) -> float:
    """Mean over joint levels (PIP, DIP, TIP) of the smaller image-plane
    distance from either finger's joint to the other finger's distal
    polyline. A zero-length segment degrades to the distance to its start."""
    if pair not in _PAIR_ENDS:
        raise ValueError(f"unknown finger pair: {pair!r}")
    ends = frame.coords.take(_PAIR_ENDS[pair])
    spans = ends[::2] - ends[1]  # point - start, end - start
    num, denom = _rowdot(spans, spans[1])
    t = num / np.where(denom >= _EPS, denom, np.inf)
    gap = ends[0] - (ends[1] + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * spans[1])
    # sqrt is monotonic, so it commutes with the min over the four pairs.
    nearest = np.sqrt(_rowdot(gap, gap).min(axis=1))
    return float(nearest.sum() / 3)  # np.mean's own sum and division


def proximity(frame: HandLandmarkFrame, pair: str, th: RuleThresholds) -> ThreeWay:
    """Pressed together (+1) / apart (-1) / unsure (0) for adjacent fingers."""
    return three_way_verdict(proximity_distance(frame, pair), *th.proximity)


def contact_distance(frame: HandLandmarkFrame, finger: str) -> float:
    """Image-plane distance between the thumb tip and the given finger's tip."""
    if finger not in CONTACT_FINGERS:
        raise ValueError(f"contact is defined against the thumb; got {finger!r}")
    gap = frame.coords[_THUMB_TIP, :2] - frame.coords[FINGER_JOINTS[finger][3], :2]
    return math.sqrt(np.dot(gap, gap))


def contact(frame: HandLandmarkFrame, finger: str, th: RuleThresholds) -> ThreeWay:
    """Fingertip contact (+1) / no contact (-1) / unsure (0) with the thumb."""
    return three_way_verdict(contact_distance(frame, finger), *th.contact)


def thumb_direction_measurement(frame: HandLandmarkFrame) -> tuple[float, ThumbDirection]:
    """(angle to the closer of down/up, that direction) for the thumb
    MCP->TIP vector. Raises DegenerateGeometry if the vector vanishes."""
    v = frame.coords[_THUMB_TIP] - frame.coords[_THUMB_MCP]
    return _closest_axis(v, _THUMB_AXES, _THUMB_STATES, _EPS,
                         "zero-length vector in angle computation")


def thumb_direction_reading(frame: HandLandmarkFrame) -> tuple[float, ThumbDirection]:
    """thumb_direction_measurement, or (NaN, UNSURE) if the vector vanishes."""
    unsure = (math.nan, ThumbDirection.UNSURE)
    return _reading(thumb_direction_measurement, frame, degenerate=unsure)


def thumb_pointing(
    frame: HandLandmarkFrame, thumb_flexion: ThreeWay, th: RuleThresholds
) -> ThumbDirection:
    """Up (+1) / down (-1) / unsure (0). Only a straight thumb points."""
    if thumb_flexion != ThreeWay.POSITIVE:
        return ThumbDirection.UNSURE
    angle, direction = thumb_direction_reading(frame)
    return threshold_verdict(angle, direction, th.thumb_dir_angle_threshold, ThumbDirection.UNSURE)


def palm_normal(frame: HandLandmarkFrame) -> np.ndarray:
    """Palm-plane normal: v1 spans pinky MCP -> index MCP, v2 spans
    wrist -> middle MCP; right hands use v2 x v1, left hands v1 x v2."""
    ends = frame.coords.take(_PALM_ENDS)
    v1, v2 = (ends[0] - ends[1]).tolist()
    (ax, ay, az), (bx, by, bz) = (v1, v2) if frame.handedness == Handedness.LEFT else (v2, v1)
    # np.cross's own products and differences, each rounded once.
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def palm_orientation_measurement(frame: HandLandmarkFrame) -> tuple[float, PalmOrientation]:
    """(angle to the closest reference, that reference) for the palm normal.
    Raises DegenerateGeometry when the normal (nearly) vanishes."""
    return _closest_axis(palm_normal(frame), _PALM_AXES, _PALM_STATES, _NORMAL_EPS,
                         "palm normal vanishes")


def palm_reading(frame: HandLandmarkFrame) -> tuple[float, PalmOrientation]:
    """palm_orientation_measurement, or (NaN, UNKNOWN) where no threshold
    can decide: a vanishing normal, or inward/outward on a frame without
    depth, whose normal degenerates to the +-z axis."""
    unknown = (math.nan, PalmOrientation.UNKNOWN)
    angle, orientation = _reading(palm_orientation_measurement, frame, degenerate=unknown)
    if not frame.has_depth and orientation in (PalmOrientation.INWARD, PalmOrientation.OUTWARD):
        return unknown
    return angle, orientation


def palm_orientation(frame: HandLandmarkFrame, th: RuleThresholds) -> PalmOrientation:
    """Facing direction of the palm, or UNKNOWN outside the angle threshold."""
    angle, orientation = palm_reading(frame)
    return threshold_verdict(angle, orientation, th.palm_angle_threshold, PalmOrientation.UNKNOWN)


# Batched readings: each maps an (N, 21, 3) coordinate array to the N
# readings the per-frame functions above give, bit for bit, with the same
# numpy calls over a leading frame axis. Degenerate rows are computed, then
# masked, so their divides run under np.errstate.

def _take(coords: np.ndarray, index: np.ndarray) -> np.ndarray:
    """coords[n].take(index) for every frame n of an (N, 21, 3) array."""
    return coords.reshape(len(coords), 63)[:, index]


def _degrees(cosines: np.ndarray) -> np.ndarray:
    """_angles_deg over an array: degrees of the arccos of each clipped cosine."""
    return np.degrees(np.arccos(np.minimum(np.maximum(cosines, -1.0), 1.0)))


def curl_readings(coords: np.ndarray, finger: str) -> np.ndarray:
    """curl_reading of each frame: NaN where a bone has zero length."""
    ends = _take(coords, _CURL_ENDS[finger])
    bones = ends[:, 0] - ends[:, 1]
    dots = _rowdot(bones[:, 0], bones[:, 1])
    k = (dots.shape[1] + 1) // 2
    lengths = np.sqrt(dots[:, :k])
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = _degrees(dots[:, k:] / (lengths[:, :-1] * lengths[:, 1:]))
    curl = angles[:, 0] + angles[:, 1] if angles.shape[1] == 2 else angles[:, 0]
    return np.where(lengths.min(axis=1) < _EPS, np.nan, curl)


def proximity_distances(coords: np.ndarray, pair: str) -> np.ndarray:
    """proximity_distance of each frame."""
    ends = _take(coords, _PAIR_ENDS[pair])
    spans = ends[:, ::2] - ends[:, 1:2]
    dots = _rowdot(spans, spans[:, 1:2])
    t = dots[:, 0] / np.where(dots[:, 1] >= _EPS, dots[:, 1], np.inf)
    gap = ends[:, 0] - (ends[:, 1] + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * spans[:, 1])
    return np.sqrt(_rowdot(gap, gap).min(axis=2)).sum(axis=1) / 3


def contact_distances(coords: np.ndarray, finger: str) -> np.ndarray:
    """contact_distance of each frame."""
    gap = coords[:, _THUMB_TIP, :2] - coords[:, FINGER_JOINTS[finger][3], :2]
    return np.sqrt(_rowdot(gap, gap))


def _closest_axes(v: np.ndarray, axes: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """_closest_axis of each row of v: (angles, axis indices), with NaN and
    index len(axes) where |v| < eps. argmin keeps the first of equal angles,
    as min() does; a row's angles are all NaN or none (an infinite
    component makes every axis product 0 * inf), and an all-NaN row gets
    the first axis from both."""
    norm = np.sqrt(_rowdot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = _degrees((v @ axes.T) / norm[:, None])
    k = angles.argmin(axis=1)
    degenerate = norm < eps
    return (np.where(degenerate, np.nan, angles[np.arange(len(v)), k]),
            np.where(degenerate, len(axes), k))


def thumb_direction_readings(coords: np.ndarray) -> tuple[np.ndarray, list]:
    """thumb_direction_reading of each frame, as (angles, directions)."""
    angles, k = _closest_axes(coords[:, _THUMB_TIP] - coords[:, _THUMB_MCP], _THUMB_AXES, _EPS)
    return angles, [(*_THUMB_STATES, ThumbDirection.UNSURE)[i] for i in k.tolist()]


def palm_readings(coords: np.ndarray, depth: np.ndarray,
                  left: np.ndarray) -> tuple[np.ndarray, list]:
    """palm_reading of each frame, as (angles, orientations); depth and left
    are each frame's has_depth and whether its hand is the left one."""
    ends = _take(coords, _PALM_ENDS)
    v1, v2 = (ends[:, 0] - ends[:, 1]).transpose(1, 2, 0)
    (ax, ay, az), (bx, by, bz) = np.where(left, (v1, v2), (v2, v1))
    normal = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)
    angles, k = _closest_axes(normal, _PALM_AXES, _NORMAL_EPS)
    flat = ~depth & (k >= 4) & (k < 6)  # inward/outward without depth
    states = (*_PALM_STATES, PalmOrientation.UNKNOWN)
    return np.where(flat, np.nan, angles), [states[i] for i in np.where(flat, 6, k).tolist()]


def hand_centers(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) component-wise means of all 21 landmarks and (N,) hand widths
    of an (N, 21, 3) coordinate array."""
    across = coords[:, _INDEX_MCP, :2] - coords[:, _PINKY_MCP, :2]
    return coords.mean(axis=1), np.sqrt(_rowdot(across, across))


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


def encode_pose_vector(frame: HandLandmarkFrame, th: RuleThresholds) -> np.ndarray:
    """19-entry integer pose vector for one frame.

    Rows 1-5 flexion (thumb..pinky), 6-8 proximity, 9-12 thumb contact
    (index..pinky), 13 thumb direction, 14-19 palm one-hot (all zero for
    UNKNOWN). Degenerate sub-results land as zeros.
    """
    flex = [flexion(frame, finger, th) for finger in FINGER_JOINTS]  # thumb..pinky
    rows = [*flex, *(proximity(frame, pair, th) for pair in PROXIMITY_PAIRS),
            *(contact(frame, finger, th) for finger in CONTACT_FINGERS),
            thumb_pointing(frame, flex[0], th)]
    orientation = palm_orientation(frame, th)
    return np.array(rows + [int(orientation == o) for o in PALM_ONE_HOT_ORDER], dtype=int)


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
