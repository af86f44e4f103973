import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import FLAT_HAND_POINTS, make_frame, random_points, scale_about, translate
from gesturelink.errors import DegenerateGeometry, MalformedInput
from gesturelink.landmarks import FINGER_JOINTS, Handedness
from gesturelink.rules import (
    CONTACT_FINGERS,
    PALM_ONE_HOT_ORDER,
    PROXIMITY_PAIRS,
    PalmOrientation,
    RuleThresholds,
    ThreeWay,
    ThumbDirection,
    contact,
    contact_distance,
    contact_distances,
    curl_reading,
    curl_readings,
    encode_pose_vector,
    finger_curl_deg,
    flexion,
    hand_center,
    palm_normal,
    palm_orientation,
    palm_reading,
    palm_readings,
    proximity,
    proximity_distance,
    proximity_distances,
    three_way_verdict,
    threshold_verdict,
    thumb_direction_reading,
    thumb_direction_readings,
    thumb_pointing,
    validate_pose_vector,
)

TH = RuleThresholds()


def with_points(overrides: dict[int, tuple], base=FLAT_HAND_POINTS, **kwargs):
    points = list(base)
    for idx, p in overrides.items():
        points[idx] = p
    return make_frame(points, **kwargs)


# --- flexion -----------------------------------------------------------------

def test_flexion_collinear_index_is_straight(flat_hand):
    assert flexion(flat_hand, "index", TH) == ThreeWay.POSITIVE


def test_flexion_two_right_angles_is_bent():
    frame = with_points({
        5: (0.30, 0.70, 0.0),   # MCP
        6: (0.30, 0.60, 0.0),   # PIP, bone up
        7: (0.40, 0.60, 0.0),   # DIP, 90 degree turn
        8: (0.40, 0.70, 0.0),   # TIP, another 90
    })
    assert flexion(frame, "index", TH) == ThreeWay.NEGATIVE


def test_flexion_thumb_in_unsure_band():
    # 25 degree IP bend sits inside the (16, 38) thumb band.
    s, c = math.sin(math.radians(25)), math.cos(math.radians(25))
    frame = with_points({
        2: (0.50, 0.50, 0.0),
        3: (0.50, 0.40, 0.0),
        4: (0.50 + 0.1 * s, 0.40 - 0.1 * c, 0.0),
    })
    curl = oracles.oracle_curl(frame.coords.tolist(), "thumb")
    assert curl == pytest.approx(25.0, abs=1e-9)
    assert flexion(frame, "thumb", TH) == ThreeWay.UNSURE


def test_flexion_degenerate_bone_is_unsure():
    frame = with_points({5: (0.4, 0.6, 0.0), 6: (0.4, 0.6, 0.0)})
    assert flexion(frame, "index", TH) == ThreeWay.UNSURE


# --- proximity ---------------------------------------------------------------

def _parallel_fingers(offset: float):
    """Index and middle as vertical chains `offset` apart, joints aligned."""
    return with_points({
        6: (0.40, 0.62, 0.0), 7: (0.40, 0.56, 0.0), 8: (0.40, 0.50, 0.0),
        10: (0.40 + offset, 0.62, 0.0),
        11: (0.40 + offset, 0.56, 0.0),
        12: (0.40 + offset, 0.50, 0.0),
    })


def test_proximity_pressed_together():
    assert proximity(_parallel_fingers(0.02), "index_middle", TH) == ThreeWay.POSITIVE


def test_proximity_apart():
    assert proximity(_parallel_fingers(0.10), "index_middle", TH) == ThreeWay.NEGATIVE


def test_proximity_unsure_band_verified_by_oracle():
    frame = _parallel_fingers(0.026)
    points = frame.coords.tolist()
    d = oracles.oracle_proximity_distance(points, "index", "middle", "xy")
    assert d == pytest.approx(0.026, abs=1e-12)
    assert TH.proximity[0] < d < TH.proximity[1]
    assert proximity(frame, "index_middle", TH) == ThreeWay.UNSURE


def test_proximity_symmetric_under_finger_swap(rng):
    for _ in range(50):
        points = random_points(rng)
        frame = make_frame(points)
        swapped = list(points)
        for a, b in zip(range(5, 9), range(9, 13)):  # swap index and middle
            swapped[a], swapped[b] = points[b], points[a]
        assert proximity_distance(frame, "index_middle") == pytest.approx(
            proximity_distance(make_frame(swapped), "index_middle"), abs=1e-12
        )


def test_proximity_rejects_non_adjacent_pair():
    with pytest.raises(ValueError):
        proximity_distance(make_frame(FLAT_HAND_POINTS), "index_ring")


# --- contact -----------------------------------------------------------------

def test_contact_identical_fingertips():
    frame = with_points({4: (0.42, 0.50, 0.0)})  # thumb tip == index tip
    assert contact(frame, "index", TH) == ThreeWay.POSITIVE


def test_contact_unsure_band():
    frame = with_points({4: (0.50, 0.50, 0.0), 8: (0.55, 0.50, 0.0)})
    assert contact_distance(frame, "index") == pytest.approx(0.05)
    assert contact(frame, "index", TH) == ThreeWay.UNSURE


def test_contact_far_apart():
    frame = with_points({4: (0.50, 0.50, 0.0), 8: (0.70, 0.50, 0.0)})
    assert contact(frame, "index", TH) == ThreeWay.NEGATIVE


# --- thumb direction ---------------------------------------------------------

def _straight_thumb(tip_delta):
    """Thumb with MCP->IP->TIP collinear along tip_delta."""
    mcp = (0.50, 0.80, 0.0)
    half = tuple(d / 2 for d in tip_delta)
    return with_points({
        2: mcp,
        3: (mcp[0] + half[0], mcp[1] + half[1], mcp[2] + half[2]),
        4: (mcp[0] + tip_delta[0], mcp[1] + tip_delta[1], mcp[2] + tip_delta[2]),
    })


def test_thumb_pointing_up():
    frame = _straight_thumb((0.0, -0.2, 0.0))
    assert thumb_pointing(frame, ThreeWay.POSITIVE, TH) == ThumbDirection.UP


def test_thumb_pointing_down():
    frame = _straight_thumb((0.0, 0.2, 0.0))
    assert thumb_pointing(frame, ThreeWay.POSITIVE, TH) == ThumbDirection.DOWN


def test_bent_thumb_never_points():
    frame = _straight_thumb((0.0, -0.2, 0.0))
    assert thumb_pointing(frame, ThreeWay.NEGATIVE, TH) == ThumbDirection.UNSURE
    assert thumb_pointing(frame, ThreeWay.UNSURE, TH) == ThumbDirection.UNSURE


def test_thumb_diagonal_is_unsure():
    # 45 degrees from both references, above the 40 degree threshold.
    frame = _straight_thumb((0.1, -0.1, 0.0))
    assert thumb_pointing(frame, ThreeWay.POSITIVE, TH) == ThumbDirection.UNSURE


# --- palm orientation ----------------------------------------------------------

PALM_EXAMPLE = {
    0: (0.5, 0.9, 0.0),   # wrist
    9: (0.5, 0.6, 0.0),   # middle MCP
    17: (0.6, 0.7, 0.0),  # pinky MCP
    5: (0.4, 0.7, 0.0),   # index MCP
}


def test_palm_outward_right_hand():
    frame = with_points(PALM_EXAMPLE)
    points = frame.coords.tolist()
    n = oracles.oracle_palm_normal(points, is_left=False)
    assert n == pytest.approx((0.0, 0.0, -0.06))
    assert palm_orientation(frame, TH) == PalmOrientation.OUTWARD


def test_palm_outward_mirrored_left_hand():
    mirrored = {i: (1.0 - x, y, z) for i, (x, y, z) in PALM_EXAMPLE.items()}
    frame = with_points(mirrored, handedness=Handedness.LEFT)
    points = frame.coords.tolist()
    assert oracles.oracle_palm_orientation(points, is_left=True, threshold=41) == "outward"
    assert palm_orientation(frame, TH) == PalmOrientation.OUTWARD


def test_palm_diagonal_normal_is_unknown():
    # Normal along (-1, 0, 1): 45 degrees from the nearest references.
    frame = with_points({
        0: (0.4, 0.7, 0.0),
        9: (0.5, 0.7, 0.1),
        17: (0.5, 0.5, 0.0),
        5: (0.5, 0.6, 0.0),
    })
    points = frame.coords.tolist()
    n = oracles.oracle_palm_normal(points, is_left=False)
    angles = [oracles.angle_deg(n, ref) for _, ref in oracles.PALM_REFS]
    assert min(angles) > TH.palm_angle_threshold
    assert palm_orientation(frame, TH) == PalmOrientation.UNKNOWN


def test_palm_degenerate_normal_is_unknown():
    # Collinear wrist / MCPs produce a vanishing cross product.
    frame = with_points({
        0: (0.5, 0.9, 0.0), 9: (0.5, 0.7, 0.0), 17: (0.5, 0.6, 0.0), 5: (0.5, 0.8, 0.0),
    })
    assert palm_orientation(frame, TH) == PalmOrientation.UNKNOWN


def test_palm_without_depth_hides_inward_outward(flat_hand):
    assert palm_orientation(flat_hand, TH) == PalmOrientation.OUTWARD
    flat_2d = make_frame(FLAT_HAND_POINTS, has_depth=False)
    assert palm_orientation(flat_2d, TH) == PalmOrientation.UNKNOWN


# --- measurements against the scalar oracles ---------------------------------------
# Measurement-level agreement, not just verdicts: the rules index the frame's
# coordinate array directly and measure proximity with one broadcast
# point-to-polyline pass, while the oracles loop in plain Python.

MEASURE_TOL = 1e-12


def _measured_hands(rng, n=200):
    """Random hands; every third one has a finger whose DIP sits on its
    PIP, so one distal segment has zero length."""
    for i in range(n):
        points = random_points(rng)
        if i % 3 == 0:
            joints = oracles.FINGER_IDX[rng.choice(["index", "middle", "ring", "pinky"])]
            points[joints[2]] = points[joints[1]]
        yield make_frame(points)


# The oracles also cover depth-inclusive distances; the rules measure in the
# image plane only, the oracles' "xy" mode.
@pytest.mark.parametrize("mode", ["xy"])
def test_proximity_distance_matches_oracle(rng, mode):
    for frame in _measured_hands(rng):
        points = frame.coords.tolist()
        for pair in PROXIMITY_PAIRS:
            f1, f2 = pair.split("_")
            expected = oracles.oracle_proximity_distance(points, f1, f2, mode)
            assert proximity_distance(frame, pair) == pytest.approx(expected, abs=MEASURE_TOL)


def test_proximity_distance_zero_length_segment_is_point_distance():
    # Index PIP = DIP = TIP: both of its distal segments have zero length.
    frame = with_points({6: (0.42, 0.62, 0.0), 7: (0.42, 0.62, 0.0), 8: (0.42, 0.62, 0.0)})
    points = frame.coords.tolist()
    expected = oracles.oracle_proximity_distance(points, "index", "middle", "xy")
    assert proximity_distance(frame, "index_middle") == pytest.approx(expected, abs=MEASURE_TOL)


@pytest.mark.parametrize("mode", ["xy"])
def test_contact_distance_matches_oracle(rng, mode):
    for frame in _measured_hands(rng):
        points = frame.coords.tolist()
        for finger in ("index", "middle", "ring", "pinky"):
            expected = oracles.oracle_contact_distance(points, finger, mode)
            assert contact_distance(frame, finger) == pytest.approx(expected, abs=MEASURE_TOL)


def test_finger_curl_matches_oracle(rng):
    checked = 0
    for frame in _measured_hands(rng):
        points = frame.coords.tolist()
        for finger in ("thumb", "index", "middle", "ring", "pinky"):
            try:
                curl = finger_curl_deg(frame, finger)
            except DegenerateGeometry:
                continue
            assert curl == pytest.approx(oracles.oracle_curl(points, finger), abs=MEASURE_TOL)
            checked += 1
    assert checked > 900


# --- hand center ---------------------------------------------------------------

def test_hand_center_of_identical_points():
    frame = make_frame([(0.5, 0.5, 0.0)] * 21)
    c = hand_center(frame)
    assert (c.x, c.y, c.z) == (0.5, 0.5, 0.0)


def test_hand_center_matches_brute_force(rng):
    for _ in range(100):
        frame = make_frame(random_points(rng))
        c = hand_center(frame)
        ox, oy, oz = oracles.oracle_hand_center(frame.coords.tolist())
        assert abs(c.x - ox) < 1e-12 and abs(c.y - oy) < 1e-12 and abs(c.z - oz) < 1e-12


def test_hand_width_is_mcp_span(flat_hand):
    c = hand_center(flat_hand)
    assert c.hand_width == pytest.approx(math.hypot(0.66 - 0.42, 0.74 - 0.72))


# --- pose vector -----------------------------------------------------------------

def test_flat_hand_pose_vector(flat_hand):
    vec = encode_pose_vector(flat_hand, TH)
    expected = [1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, 1, 0, 0, 0, 0, 0, 1]
    assert vec.tolist() == expected
    validate_pose_vector(vec)


def test_palm_unknown_gives_zero_palm_rows():
    frame = with_points({
        0: (0.4, 0.7, 0.0), 9: (0.5, 0.7, 0.1), 17: (0.5, 0.5, 0.0), 5: (0.5, 0.6, 0.0),
    })
    vec = encode_pose_vector(frame, TH)
    assert vec[13:].tolist() == [0] * 6


def test_all_unsure_rules_give_zero_vector(monkeypatch, flat_hand):
    import gesturelink.rules as rules_mod

    monkeypatch.setattr(rules_mod, "flexion", lambda *a: ThreeWay.UNSURE)
    monkeypatch.setattr(rules_mod, "proximity", lambda *a: ThreeWay.UNSURE)
    monkeypatch.setattr(rules_mod, "contact", lambda *a: ThreeWay.UNSURE)
    monkeypatch.setattr(rules_mod, "thumb_pointing", lambda *a: ThumbDirection.UNSURE)
    monkeypatch.setattr(rules_mod, "palm_orientation", lambda *a: PalmOrientation.UNKNOWN)
    vec = rules_mod.encode_pose_vector(flat_hand, TH)
    assert vec.tolist() == [0] * 19


def test_pose_vector_calls_each_rule_once_per_row(monkeypatch, flat_hand):
    # The benchmark's tracer (perfbench/spans.py WRAPPED) wraps these module
    # functions and counts one call per pose row and frame; rules batched
    # across frames wait until ROADMAP item 2 moves it to per-sample spans.
    import gesturelink.rules as rules_mod

    calls = Counter()
    for name in ("flexion", "proximity", "contact", "thumb_pointing", "palm_orientation"):
        def counted(*args, _fn=getattr(rules_mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(rules_mod, name, counted)
    left_hand = make_frame(random_points(random.Random(7)), handedness=Handedness.LEFT)
    for frame in (flat_hand, left_hand):
        calls.clear()
        rules_mod.encode_pose_vector(frame, TH)
        assert calls == {"flexion": 5, "proximity": 3, "contact": 4, "thumb_pointing": 1,
                         "palm_orientation": 1}


def test_pose_vector_invariants_fuzz(rng):
    for _ in range(300):
        vec = encode_pose_vector(make_frame(random_points(rng)), TH)
        validate_pose_vector(vec)


# --- oracle agreement ------------------------------------------------------------

def test_rules_agree_with_oracles_on_random_frames(rng):
    for _ in range(200):
        points = random_points(rng)
        frame = make_frame(points)
        for finger in ("thumb", "index", "middle", "ring", "pinky"):
            low, high = TH.flexion_thumb if finger == "thumb" else TH.flexion_finger
            assert int(flexion(frame, finger, TH)) == oracles.oracle_flexion(
                points, finger, low, high
            )
        for pair in PROXIMITY_PAIRS:
            f1, f2 = pair.split("_")
            assert int(proximity(frame, pair, TH)) == oracles.oracle_proximity(
                points, f1, f2, *TH.proximity
            )
        for finger in ("index", "middle", "ring", "pinky"):
            assert int(contact(frame, finger, TH)) == oracles.oracle_contact(
                points, finger, *TH.contact
            )
        thumb_state = flexion(frame, "thumb", TH)
        assert int(thumb_pointing(frame, thumb_state, TH)) == oracles.oracle_thumb_direction(
            points, thumb_state == ThreeWay.POSITIVE, TH.thumb_dir_angle_threshold
        )
        assert palm_orientation(frame, TH).value == oracles.oracle_palm_orientation(
            points, is_left=False, threshold=TH.palm_angle_threshold
        )


# --- properties --------------------------------------------------------------

@given(
    m=st.floats(0, 200, allow_nan=False),
    low=st.floats(1, 99, allow_nan=False),
    hi_gap=st.floats(0.1, 100, allow_nan=False),
    raise_by=st.floats(0, 50, allow_nan=False),
)
def test_raising_low_threshold_never_flips_positive_to_negative(m, low, hi_gap, raise_by):
    high = low + hi_gap
    new_low = min(low + raise_by, high - 1e-9)
    old = three_way_verdict(m, low, high)
    new = three_way_verdict(m, new_low, high)
    assert new == old or (old == ThreeWay.UNSURE and new == ThreeWay.POSITIVE)


@given(
    m=st.floats(0, 200, allow_nan=False),
    low=st.floats(1, 99, allow_nan=False),
    hi_gap=st.floats(0.1, 100, allow_nan=False),
    lower_by=st.floats(0, 50, allow_nan=False),
)
def test_lowering_high_threshold_never_flips_negative_to_positive(m, low, hi_gap, lower_by):
    high = low + hi_gap
    new_high = max(high - lower_by, low + 1e-9)
    old = three_way_verdict(m, low, high)
    new = three_way_verdict(m, low, new_high)
    assert new == old or (old == ThreeWay.UNSURE and new == ThreeWay.NEGATIVE)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    factor=st.floats(0.5, 1.5),
    dx=st.floats(-0.2, 0.2),
    dy=st.floats(-0.2, 0.2),
)
def test_scale_translation_invariance(seed, factor, dx, dy):
    local = random.Random(seed)
    base = [
        (local.uniform(0.3, 0.7), local.uniform(0.3, 0.7), local.uniform(-0.2, 0.2))
        for _ in range(21)
    ]
    moved = translate(scale_about(base, factor), dx, dy)
    f0, f1 = make_frame(base), make_frame(moved)
    for finger in ("thumb", "index", "middle", "ring", "pinky"):
        assert flexion(f0, finger, TH) == flexion(f1, finger, TH)
    thumb_state = flexion(f0, "thumb", TH)
    assert thumb_pointing(f0, thumb_state, TH) == thumb_pointing(f1, thumb_state, TH)
    assert palm_orientation(f0, TH) == palm_orientation(f1, TH)
    # Distances are translation-invariant but scale with the factor.
    translated_only = make_frame(translate(base, dx, dy))
    for pair in PROXIMITY_PAIRS:
        assert proximity_distance(f0, pair) == pytest.approx(
            proximity_distance(translated_only, pair), abs=1e-12
        )
    for finger in ("index", "middle", "ring", "pinky"):
        assert contact_distance(f0, finger) == pytest.approx(
            contact_distance(translated_only, finger), abs=1e-12
        )
        assert contact_distance(f1, finger) == pytest.approx(
            factor * contact_distance(make_frame(translate(base, dx, dy)), finger),
            abs=1e-9,
        )


# --- thresholds --------------------------------------------------------------

def test_thresholds_json_round_trip():
    th = RuleThresholds(flexion_thumb=(10, 20))
    again = RuleThresholds.from_json(th.to_json())
    assert again == th


def test_shipped_defaults_match_documented_values():
    from importlib import resources

    shipped = RuleThresholds.from_json(
        resources.files("gesturelink").joinpath("assets/thresholds.json").read_text()
    )
    assert shipped == RuleThresholds()
    assert shipped.flexion_thumb == (16.0, 38.0)
    assert shipped.flexion_finger == (57.0, 74.0)
    assert shipped.proximity == (0.024, 0.029)
    assert shipped.contact == (0.046, 0.055)
    assert shipped.thumb_dir_angle_threshold == 40.0
    assert shipped.palm_angle_threshold == 41.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"flexion_thumb": (38, 16)},
        {"proximity": (0.029, 0.024)},
        {"contact": (-0.01, 0.05)},
        {"palm_angle_threshold": 0},
        {"thumb_dir_angle_threshold": float("inf")},
    ],
)
def test_bad_thresholds_rejected(kwargs):
    with pytest.raises(MalformedInput):
        RuleThresholds(**kwargs)


# --- bit-identity of the reading kernels --------------------------------------------
# The readings as first written, one small numpy call at a time: np.dot per
# vector pair, np.linalg.norm, np.clip, np.cross, a closest-reference scan
# and one polyline pass per direction. The kernels must match them bit for
# bit: OpenBLAS's dot uses FMA and numpy's arccos is vectorized, so a dot or
# an arccos taken any other way rounds differently.

def _ref_angle(v1, v2):
    n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
    if n1 < 1e-12 or n2 < 1e-12:
        return math.nan
    return float(np.degrees(np.arccos(np.clip(np.dot(v1, v2) / (n1 * n2), -1.0, 1.0))))


def _ref_curl(c, finger):
    if finger == "thumb":
        _, mcp, ip, tip = c[list(FINGER_JOINTS["thumb"])]
        return _ref_angle(ip - mcp, tip - ip)
    mcp, pip_, dip, tip = c[list(FINGER_JOINTS[finger])]
    return _ref_angle(pip_ - mcp, dip - pip_) + _ref_angle(dip - pip_, tip - dip)


def _ref_rowdot(a, b):
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _ref_polyline(points, polyline):
    a = polyline[:-1]
    ab = polyline[1:] - a
    denom = _ref_rowdot(ab, ab)
    num = _ref_rowdot(points[:, None, :] - a, ab)
    t = np.divide(num, denom, out=np.zeros_like(num), where=denom >= 1e-12)
    gap = points[:, None, :] - (a + np.clip(t, 0.0, 1.0)[..., None] * ab)
    return np.sqrt(_ref_rowdot(gap, gap)).min(axis=1)


def _ref_proximity(c, pair):
    pts1, pts2 = (c[list(FINGER_JOINTS[f][1:]), :2] for f in pair.split("_"))
    return float(np.mean(np.minimum(_ref_polyline(pts1, pts2), _ref_polyline(pts2, pts1))))


_REF_THUMB = ((ThumbDirection.DOWN, np.array([0.0, 1.0, 0.0])),
              (ThumbDirection.UP, np.array([0.0, -1.0, 0.0])))
_REF_PALM = tuple(zip(
    (PalmOrientation.RIGHT, PalmOrientation.LEFT, PalmOrientation.DOWN,
     PalmOrientation.UP, PalmOrientation.OUTWARD, PalmOrientation.INWARD),
    np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1]]),
))


def _ref_closest(v, references):
    return min(((_ref_angle(v, ref), state) for state, ref in references), key=lambda p: p[0])


def _ref_thumb(c):
    v = c[4] - c[2]
    if np.linalg.norm(v) < 1e-12:
        return math.nan, ThumbDirection.UNSURE
    return _ref_closest(v, _REF_THUMB)


def _ref_normal(c, handedness):
    v1, v2 = c[5] - c[17], c[9] - c[0]
    return np.cross(v1, v2) if handedness == Handedness.LEFT else np.cross(v2, v1)


def _ref_palm(n, has_depth):
    if float(np.linalg.norm(n)) < 1e-9:
        return math.nan, PalmOrientation.UNKNOWN
    angle, state = _ref_closest(n, _REF_PALM)
    if not has_depth and state in (PalmOrientation.INWARD, PalmOrientation.OUTWARD):
        return math.nan, PalmOrientation.UNKNOWN
    return angle, state


def _ref_pose_vector(curls, proximities, contacts, thumb, palm):
    flex = [three_way_verdict(v, *(TH.flexion_thumb if i == 0 else TH.flexion_finger))
            for i, v in enumerate(curls)]
    rows = flex + [three_way_verdict(v, *TH.proximity) for v in proximities]
    rows += [three_way_verdict(v, *TH.contact) for v in contacts]
    rows.append(threshold_verdict(*thumb, TH.thumb_dir_angle_threshold, ThumbDirection.UNSURE)
                if flex[0] == ThreeWay.POSITIVE else ThumbDirection.UNSURE)
    orientation = threshold_verdict(*palm, TH.palm_angle_threshold, PalmOrientation.UNKNOWN)
    rows += [int(orientation == o) for o in PALM_ONE_HOT_ORDER]
    return rows


def _hostile_frames(n, seed=20240817):
    """Random hands of both handednesses; a quarter without depth, a third
    rounded to 0.1 (axis-aligned vectors, exact ties), and some with a DIP
    on its PIP, a whole distal chain on one point, the thumb MCP on its
    TIP, or a collapsed palm (index MCP on pinky MCP, wrist on middle MCP)."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, (n, 21, 3))
    coords[:, :, 2] -= 0.5
    coords[::3] = np.round(coords[::3], 1)
    for i, c in enumerate(coords):
        finger = FINGER_JOINTS[("index", "middle", "ring", "pinky")[i % 4]]
        draw = rng.uniform(size=4)
        if draw[0] < 0.1:
            c[finger[2]] = c[finger[1]]
        if draw[1] < 0.05:
            c[list(finger[2:])] = c[finger[1]]
        if draw[2] < 0.1:
            c[4] = c[2]
        if draw[3] < 0.1:
            c[5], c[0] = c[17], c[9]
        has_depth = i % 4 != 0
        if not has_depth:
            c[:, 2] = 0.0
        hand = (Handedness.RIGHT, Handedness.LEFT)[(i // 2) % 2]
        yield make_frame(c, handedness=hand, has_depth=has_depth)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _batched_readings(frames):
    """Per frame, each reading of the batched functions, all frames in one call."""
    coords = np.stack([frame.coords for frame in frames])
    depth = np.array([frame.has_depth for frame in frames])
    left = np.array([frame.handedness == Handedness.LEFT for frame in frames])
    columns = {
        "curl": np.stack([curl_readings(coords, f) for f in FINGER_JOINTS], axis=1).tolist(),
        "proximity": np.stack([proximity_distances(coords, p) for p in PROXIMITY_PAIRS],
                              axis=1).tolist(),
        "contact": np.stack([contact_distances(coords, f) for f in CONTACT_FINGERS],
                            axis=1).tolist(),
    }
    for name, (angles, states) in (("thumb", thumb_direction_readings(coords)),
                                   ("palm", palm_readings(coords, depth, left))):
        columns[name] = list(zip(angles.tolist(), states))
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def test_reading_kernels_match_the_per_call_formulas_bit_for_bit():
    """The per-frame readings, and the batched ones over all frames at
    once, equal a copy of the per-call formulas they replaced."""
    seen, mismatches = Counter(), Counter()
    frames = list(_hostile_frames(12_000))
    for frame, batched in zip(frames, _batched_readings(frames)):
        c = frame.coords
        curls = [_ref_curl(c, f) for f in FINGER_JOINTS]
        proximities = [_ref_proximity(c, p) for p in PROXIMITY_PAIRS]
        contacts = [float(np.linalg.norm(c[4, :2] - c[FINGER_JOINTS[f][3], :2]))
                    for f in CONTACT_FINGERS]
        normal = _ref_normal(c, frame.handedness)
        thumb, palm = _ref_thumb(c), _ref_palm(normal, frame.has_depth)
        readings = {
            "curl": (curls, [curl_reading(frame, f) for f in FINGER_JOINTS]),
            "proximity": (proximities, [proximity_distance(frame, p) for p in PROXIMITY_PAIRS]),
            "contact": (contacts, [contact_distance(frame, f) for f in CONTACT_FINGERS]),
            "thumb": (thumb, thumb_direction_reading(frame)),
            "palm": (palm, palm_reading(frame)),
            "palm_normal": (normal, palm_normal(frame)),
            "pose_vector": (_ref_pose_vector(curls, proximities, contacts, thumb, palm),
                            encode_pose_vector(frame, TH).tolist()),
            "batched_curl": (curls, batched["curl"]),
            "batched_proximity": (proximities, batched["proximity"]),
            "batched_contact": (contacts, batched["contact"]),
            "batched_thumb": (thumb, batched["thumb"]),
            "batched_palm": (palm, batched["palm"]),
        }
        for name, (ref, kernel) in readings.items():
            if name.endswith(("thumb", "palm")):  # (angle, state)
                same = _bits(ref[0]) == _bits(kernel[0]) and ref[1] == kernel[1]
            else:
                same = _bits(ref) == _bits(kernel)
            mismatches[name] += not same
        seen["2d"] += not frame.has_depth
        seen["degenerate_curl"] += any(math.isnan(v) for v in curls)
        seen["degenerate_thumb"] += math.isnan(thumb[0])
        seen["vanishing_normal"] += np.linalg.norm(normal) < 1e-9
    assert sum(mismatches.values()) == 0, f"frames off by a bit, per reading: {dict(mismatches)}"
    # The hostile cases occur often enough to count.
    assert seen["2d"] >= 3_000 and min(seen.values()) >= 500, f"{dict(seen)}"



def test_batched_readings_match_the_per_frame_ones_where_depth_overflows():
    """Depth is unbounded, so bones, dots and palm normals can overflow to
    inf and NaN; the batched readings still equal the per-frame ones."""
    rng = np.random.default_rng(7)
    frames = []
    for i in range(400):
        c = rng.uniform(0.0, 1.0, (21, 3))
        c[:, 2] = rng.choice([0.3, -1e150, 1e200, -1e300, 0.85e308, -1.7e308], 21)
        frames.append(make_frame(c, handedness=(Handedness.RIGHT, Handedness.LEFT)[i % 2],
                                 has_depth=i % 3 != 0))
    with np.errstate(all="ignore"):  # the per-frame dots overflow too
        for frame, batched in zip(frames, _batched_readings(frames)):
            per_frame = {
                "curl": [curl_reading(frame, f) for f in FINGER_JOINTS],
                "proximity": [proximity_distance(frame, p) for p in PROXIMITY_PAIRS],
                "contact": [contact_distance(frame, f) for f in CONTACT_FINGERS],
                "thumb": thumb_direction_reading(frame),
                "palm": palm_reading(frame),
            }
            for name, value in per_frame.items():
                if name in ("thumb", "palm"):
                    assert _bits(value[0]) == _bits(batched[name][0]), name
                    assert value[1] is batched[name][1], name
                else:
                    assert _bits(value) == _bits(batched[name]), name
