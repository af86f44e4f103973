import math
import random
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gesturelink.rules as rules_mod
import oracles
from conftest import (
    FLAT_HAND_POINTS,
    frame_readings,
    make_frame,
    random_points,
    scale_about,
    translate,
)
from gesturelink.encoder import build_state_matrix
from gesturelink.errors import DegenerateGeometry, MalformedInput
from gesturelink.landmarks import FINGER_JOINTS, Handedness
from gesturelink.rules import (
    CONTACT_FINGERS,
    FINGERS,
    PALM_ONE_HOT_ORDER,
    PROXIMITY_PAIRS,
    PalmOrientation,
    PoseReadings,
    RuleThresholds,
    ThreeWay,
    ThumbDirection,
    center_heights,
    contact,
    contact_distances,
    curl_readings,
    encode_pose_vector,
    finger_curl_deg,
    flexion,
    hand_center,
    hand_centers,
    palm_orientation,
    palm_orientation_measurement,
    palm_readings,
    pose_readings,
    pose_vectors,
    proximity,
    proximity_distances,
    three_way_verdict,
    threshold_verdict,
    thumb_direction_measurement,
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


def flex(frame, finger):
    """The flexion verdict on the frame's curl reading of the finger."""
    return flexion(frame_readings(frame).curl[finger], finger, TH)


def proximity_distance(frame, pair):
    return float(proximity_distances(frame.coords[None], pair)[0])


def contact_distance(frame, finger):
    return float(contact_distances(frame.coords[None], finger)[0])


# --- flexion -----------------------------------------------------------------

def test_flexion_collinear_index_is_straight(flat_hand):
    assert flex(flat_hand, "index") == ThreeWay.POSITIVE


def test_flexion_two_right_angles_is_bent():
    frame = with_points({
        5: (0.30, 0.70, 0.0),   # MCP
        6: (0.30, 0.60, 0.0),   # PIP, bone up
        7: (0.40, 0.60, 0.0),   # DIP, 90 degree turn
        8: (0.40, 0.70, 0.0),   # TIP, another 90
    })
    assert flex(frame, "index") == ThreeWay.NEGATIVE


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
    assert flex(frame, "thumb") == ThreeWay.UNSURE


def test_flexion_degenerate_bone_is_unsure():
    frame = with_points({5: (0.4, 0.6, 0.0), 6: (0.4, 0.6, 0.0)})
    assert math.isnan(frame_readings(frame).curl["index"])
    assert flex(frame, "index") == ThreeWay.UNSURE


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
    assert proximity(proximity_distance(_parallel_fingers(0.02), "index_middle"),
                     TH) == ThreeWay.POSITIVE


def test_proximity_apart():
    assert proximity(proximity_distance(_parallel_fingers(0.10), "index_middle"),
                     TH) == ThreeWay.NEGATIVE


def test_proximity_unsure_band_verified_by_oracle():
    frame = _parallel_fingers(0.026)
    points = frame.coords.tolist()
    d = oracles.oracle_proximity_distance(points, "index", "middle", "xy")
    assert d == pytest.approx(0.026, abs=1e-12)
    assert TH.proximity[0] < d < TH.proximity[1]
    assert proximity(frame_readings(frame).proximity["index_middle"], TH) == ThreeWay.UNSURE


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
    assert contact(contact_distance(frame, "index"), TH) == ThreeWay.POSITIVE


def test_contact_unsure_band():
    frame = with_points({4: (0.50, 0.50, 0.0), 8: (0.55, 0.50, 0.0)})
    assert contact_distance(frame, "index") == pytest.approx(0.05)
    assert contact(contact_distance(frame, "index"), TH) == ThreeWay.UNSURE


def test_contact_far_apart():
    frame = with_points({4: (0.50, 0.50, 0.0), 8: (0.70, 0.50, 0.0)})
    assert contact(contact_distance(frame, "index"), TH) == ThreeWay.NEGATIVE


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
    thumb = frame_readings(_straight_thumb((0.0, -0.2, 0.0))).thumb
    assert thumb_pointing(thumb, ThreeWay.POSITIVE, TH) == ThumbDirection.UP


def test_thumb_pointing_down():
    thumb = frame_readings(_straight_thumb((0.0, 0.2, 0.0))).thumb
    assert thumb_pointing(thumb, ThreeWay.POSITIVE, TH) == ThumbDirection.DOWN


def test_bent_thumb_never_points():
    thumb = frame_readings(_straight_thumb((0.0, -0.2, 0.0))).thumb
    assert thumb[1] == ThumbDirection.UP
    assert thumb_pointing(thumb, ThreeWay.NEGATIVE, TH) == ThumbDirection.UNSURE
    assert thumb_pointing(thumb, ThreeWay.UNSURE, TH) == ThumbDirection.UNSURE


def test_thumb_diagonal_is_unsure():
    # 45 degrees from both references, above the 40 degree threshold.
    thumb = frame_readings(_straight_thumb((0.1, -0.1, 0.0))).thumb
    assert thumb[0] == pytest.approx(45.0)
    assert thumb_pointing(thumb, ThreeWay.POSITIVE, TH) == ThumbDirection.UNSURE


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
    assert palm_orientation(frame_readings(frame).palm, TH) == PalmOrientation.OUTWARD


def test_palm_outward_mirrored_left_hand():
    mirrored = {i: (1.0 - x, y, z) for i, (x, y, z) in PALM_EXAMPLE.items()}
    frame = with_points(mirrored, handedness=Handedness.LEFT)
    points = frame.coords.tolist()
    assert oracles.oracle_palm_orientation(points, is_left=True, threshold=41) == "outward"
    assert palm_orientation(frame_readings(frame).palm, TH) == PalmOrientation.OUTWARD


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
    assert palm_orientation(frame_readings(frame).palm, TH) == PalmOrientation.UNKNOWN


def test_palm_degenerate_normal_is_unknown():
    # Collinear wrist / MCPs produce a vanishing cross product.
    frame = with_points({
        0: (0.5, 0.9, 0.0), 9: (0.5, 0.7, 0.0), 17: (0.5, 0.6, 0.0), 5: (0.5, 0.8, 0.0),
    })
    assert palm_orientation(frame_readings(frame).palm, TH) == PalmOrientation.UNKNOWN
    with pytest.raises(DegenerateGeometry):
        palm_orientation_measurement(frame)


def test_palm_without_depth_hides_inward_outward(flat_hand):
    assert palm_orientation(frame_readings(flat_hand).palm, TH) == PalmOrientation.OUTWARD
    flat_2d = make_frame(FLAT_HAND_POINTS, has_depth=False)
    assert palm_orientation(frame_readings(flat_2d).palm, TH) == PalmOrientation.UNKNOWN
    # The measurement itself ignores depth: only the reading hides the state.
    assert palm_orientation_measurement(flat_2d)[1] == PalmOrientation.OUTWARD


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


def _coordinate_layout(base, layout):
    """base, an (N, 21, 3) array, copied into the given memory layout."""
    if layout == "C":
        return base.copy()
    if layout == "F":
        return np.asfortranarray(base)
    if layout == "every other frame":
        return np.repeat(base, 2, axis=0)[::2]
    if layout == "frames reversed":
        return np.ascontiguousarray(base[::-1])[::-1]
    if layout == "landmarks innermost":  # (N, 3, 21) in memory
        return np.ascontiguousarray(base.transpose(0, 2, 1)).transpose(0, 2, 1)
    if layout == "frames innermost":  # (21, 3, N) in memory
        return np.ascontiguousarray(base.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert layout == "landmarks reversed"
    return np.ascontiguousarray(base[:, ::-1])[:, ::-1]


def test_center_heights_equal_hand_centers_heights_bit_for_bit():
    """2,100 coordinate arrays of 1 to 5,000 frames, in seven memory
    layouts, with heights at the -0.5 and 1.5 edges, signed zeros and
    2D frames (z = 0): the mean landmark heights equal hand_centers' y."""
    gen = np.random.default_rng(20241019)
    layouts = ("C", "F", "every other frame", "frames reversed", "landmarks innermost",
               "frames innermost", "landmarks reversed")
    sizes = [1, 2, 3, 7, 8, 9, 20, 21, 22, 64, 500, 5000]
    for case in range(2100):
        n = sizes[case % len(sizes)] if case < 600 else int(gen.integers(1, 200))
        base = np.concatenate([gen.uniform(-0.5, 1.5, (n, 21, 2)),
                               gen.uniform(-0.3, 0.3, (n, 21, 1))], axis=2)
        edges = gen.random((n, 21, 2)) < gen.choice([0.0, 0.3, 1.0])
        base[:, :, :2][edges] = gen.choice([-0.5, 1.5, 0.0, -0.0], edges.sum())
        if case % 5 == 0:
            base[:, :, 2] = 0.0
        if case % 11 == 0:
            base[gen.random(n) < 0.5, :, 1] = -0.0
        coords = _coordinate_layout(base, layouts[case % len(layouts)])
        assert np.array_equal(coords, base)
        assert center_heights(coords).tobytes() == hand_centers(coords)[0][:, 1].tobytes()


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
    # functions and counts their verdicts, one call per pose row and sample.
    # The readings are batched over a window; the verdicts stay per sample.
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
    window = list(_hostile_frames(31))
    for samples in (window[:1], window[1:]):
        calls.clear()
        build_state_matrix(samples, TH)
        t = len(samples)
        assert calls == {"flexion": 5 * t, "proximity": 3 * t, "contact": 4 * t,
                         "thumb_pointing": t, "palm_orientation": t}


def test_build_warns_once_per_matrix_on_degenerate_geometry(caplog, flat_hand):
    def at(t, overrides=(), **kwargs):
        return with_points(dict(overrides), t=t, **kwargs)

    bone = {10: FLAT_HAND_POINTS[9]}  # middle PIP on its MCP
    palm = {5: FLAT_HAND_POINTS[17], 0: FLAT_HAND_POINTS[9]}  # collapsed palm
    thumb = {4: FLAT_HAND_POINTS[2]}  # thumb TIP on its MCP
    samples = [at(0.0), at(0.2, bone), at(0.4, {**bone, **palm}), at(0.6, thumb), at(0.8, bone)]
    with caplog.at_level("WARNING", logger="gesturelink"):
        build_state_matrix(samples, TH)
    assert [r.getMessage() for r in caplog.records] == [
        "rules unsure on degenerate geometry: middle_curl in 3 of 5 samples from t=0.2; "
        "thumb_direction in 1 of 5 samples from t=0.6; palm_normal in 1 of 5 samples from t=0.4"
    ]
    caplog.clear()
    # Clean windows, and an outward palm that a 2-D frame cannot show, log nothing.
    flat_2d = make_frame(FLAT_HAND_POINTS, t=0.2, has_depth=False)
    with caplog.at_level("WARNING", logger="gesturelink"):
        build_state_matrix([flat_hand], TH)
        m = build_state_matrix([flat_hand, flat_2d], TH)
    assert m.channel1[13:, 1].tolist() == [0] * 6
    assert caplog.records == []


def test_pose_vector_invariants_fuzz(rng):
    for _ in range(300):
        vec = encode_pose_vector(make_frame(random_points(rng)), TH)
        validate_pose_vector(vec)


# --- oracle agreement ------------------------------------------------------------

def test_rules_agree_with_oracles_on_random_frames(rng):
    for _ in range(200):
        points = random_points(rng)
        r = frame_readings(make_frame(points))
        for finger in ("thumb", "index", "middle", "ring", "pinky"):
            low, high = TH.flexion_thumb if finger == "thumb" else TH.flexion_finger
            assert int(flexion(r.curl[finger], finger, TH)) == oracles.oracle_flexion(
                points, finger, low, high
            )
        for pair in PROXIMITY_PAIRS:
            f1, f2 = pair.split("_")
            assert int(proximity(r.proximity[pair], TH)) == oracles.oracle_proximity(
                points, f1, f2, *TH.proximity
            )
        for finger in ("index", "middle", "ring", "pinky"):
            assert int(contact(r.contact[finger], TH)) == oracles.oracle_contact(
                points, finger, *TH.contact
            )
        thumb_state = flexion(r.curl["thumb"], "thumb", TH)
        assert int(thumb_pointing(r.thumb, thumb_state, TH)) == oracles.oracle_thumb_direction(
            points, thumb_state == ThreeWay.POSITIVE, TH.thumb_dir_angle_threshold
        )
        assert palm_orientation(r.palm, TH).value == oracles.oracle_palm_orientation(
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
    r0, r1 = frame_readings(f0), frame_readings(f1)
    for finger in ("thumb", "index", "middle", "ring", "pinky"):
        assert flexion(r0.curl[finger], finger, TH) == flexion(r1.curl[finger], finger, TH)
    thumb_state = flexion(r0.curl["thumb"], "thumb", TH)
    assert thumb_pointing(r0.thumb, thumb_state, TH) == thumb_pointing(r1.thumb, thumb_state, TH)
    assert palm_orientation(r0.palm, TH) == palm_orientation(r1.palm, TH)
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


def _arrays(frames):
    """The (coords, depth, left) arrays of a list of frames."""
    return (np.stack([frame.coords for frame in frames]),
            np.array([frame.has_depth for frame in frames]),
            np.array([frame.handedness == Handedness.LEFT for frame in frames]))


def _batched_readings(frames):
    """Per frame, each reading of pose_readings, all frames in one call."""
    r = pose_readings(*_arrays(frames))
    columns = {"curl": r.curl.T.tolist(), "proximity": r.proximity.T.tolist(),
               "contact": r.contact.T.tolist(),
               "thumb": list(zip(r.thumb[0].tolist(), r.thumb[1])),
               "palm": list(zip(r.palm[0].tolist(), r.palm[1]))}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _single_readings(frame):
    """Each reading of pose_readings over the frame alone."""
    r = frame_readings(frame)
    return {"curl": list(r.curl.values()), "proximity": list(r.proximity.values()),
            "contact": list(r.contact.values()), "thumb": r.thumb, "palm": r.palm}


def _view(measure, *args):
    """measure(*args), or None where it raises DegenerateGeometry."""
    try:
        return measure(*args)
    except DegenerateGeometry:
        return None


def test_reading_kernels_match_the_per_call_formulas_bit_for_bit():
    """The readings of each frame alone, and of all frames at once, equal a
    copy of the per-call formulas they replaced; so do the pose vectors, and
    the one-frame views, checked on every fifth frame, raise exactly where
    the geometry is degenerate."""
    seen, mismatches = Counter(), Counter()
    frames = list(_hostile_frames(12_000))
    for i, (frame, batched) in enumerate(zip(frames, _batched_readings(frames))):
        c = frame.coords
        curls = [_ref_curl(c, f) for f in FINGER_JOINTS]
        proximities = [_ref_proximity(c, p) for p in PROXIMITY_PAIRS]
        contacts = [float(np.linalg.norm(c[4, :2] - c[FINGER_JOINTS[f][3], :2]))
                    for f in CONTACT_FINGERS]
        normal = _ref_normal(c, frame.handedness)
        thumb, palm = _ref_thumb(c), _ref_palm(normal, frame.has_depth)
        single = _single_readings(frame)
        vanishes = np.linalg.norm(normal) < 1e-9
        readings = {"pose_vector": (_ref_pose_vector(curls, proximities, contacts, thumb, palm),
                                    encode_pose_vector(frame, TH).tolist())}
        if i % 5 == 0:
            readings.update(
                curl_view=([None if math.isnan(v) else v for v in curls],
                           [_view(finger_curl_deg, frame, f) for f in FINGER_JOINTS]),
                thumb_view=(None if math.isnan(thumb[0]) else thumb,
                            _view(thumb_direction_measurement, frame)),
                palm_view=(None if vanishes else _ref_palm(normal, True),
                           _view(palm_orientation_measurement, frame)))
        for name, ref in (("curl", curls), ("proximity", proximities), ("contact", contacts),
                          ("thumb", thumb), ("palm", palm)):
            readings[name], readings[f"batched_{name}"] = (ref, single[name]), (ref, batched[name])
        for name, (ref, kernel) in readings.items():
            if name.endswith("view"):
                same = repr(ref) == repr(kernel)
            elif name.endswith(("thumb", "palm")):  # (angle, state)
                same = _bits(ref[0]) == _bits(kernel[0]) and ref[1] == kernel[1]
            else:
                same = _bits(ref) == _bits(kernel)
            mismatches[name] += not same
        seen["2d"] += not frame.has_depth
        seen["degenerate_curl"] += any(math.isnan(v) for v in curls)
        seen["degenerate_thumb"] += math.isnan(thumb[0])
        seen["vanishing_normal"] += vanishes
    assert sum(mismatches.values()) == 0, f"frames off by a bit, per reading: {dict(mismatches)}"
    # The hostile cases occur often enough to count.
    assert seen["2d"] >= 3_000 and min(seen.values()) >= 500, f"{dict(seen)}"


def test_window_pose_vectors_match_the_per_frame_formulas_bit_for_bit():
    """build_state_matrix over windows of 1 to 64 hostile samples, with both
    hands, mixed depth and coincident joints: channel 1 is the stacked
    reference pose vectors."""
    rng = random.Random(19)
    frames = list(_hostile_frames(4_000, seed=4242))
    refs = []
    for frame in frames:
        c = frame.coords
        refs.append(_ref_pose_vector(
            [_ref_curl(c, f) for f in FINGER_JOINTS],
            [_ref_proximity(c, p) for p in PROXIMITY_PAIRS],
            [float(np.linalg.norm(c[4, :2] - c[FINGER_JOINTS[f][3], :2])) for f in CONTACT_FINGERS],
            _ref_thumb(c), _ref_palm(_ref_normal(c, frame.handedness), frame.has_depth)))
    start, lengths = 0, Counter()
    while start < len(frames):
        t = rng.randint(1, 64)
        window = frames[start : start + t]
        expected = np.array(refs[start : start + t]).T
        if all(np.linalg.norm(f.coords[5, :2] - f.coords[17, :2]) == 0 for f in window):
            with pytest.raises(MalformedInput, match="hand_width"):  # no width to gauge
                build_state_matrix(window, TH)
        else:
            assert build_state_matrix(window, TH).channel1.tolist() == expected.tolist()
            lengths[min(len(window), 2)] += 1
        start += t
    assert lengths[1] >= 1 and lengths[2] >= 50, dict(lengths)


# The per-frame readings as the rules computed them before they were
# batched, one frame and one small numpy call at a time: the reference
# wherever depth overflows.

def _old_angles_deg(cosines):
    return np.degrees(np.arccos([min(max(c, -1.0), 1.0) for c in cosines])).tolist()


def _old_closest_axis(v, references, eps, degenerate):
    states, axes = zip(*references)
    norm = math.sqrt(np.dot(v, v))
    if norm < eps:
        return degenerate
    angles = _old_angles_deg((np.dot(np.array(axes), v) / norm).tolist())
    k = min(range(len(angles)), key=angles.__getitem__)
    return angles[k], states[k]


def _old_curl(c, finger):
    chain = list(FINGER_JOINTS[finger][1:] if finger == "thumb" else FINGER_JOINTS[finger])
    bones = c[chain[1:]] - c[chain[:-1]]
    k = len(bones)
    dots = _ref_rowdot(np.concatenate([bones, bones[:-1]]),
                       np.concatenate([bones, bones[1:]])).tolist()
    lengths = [math.sqrt(d) for d in dots[:k]]
    if min(lengths) < 1e-12:
        return math.nan
    angles = _old_angles_deg([d / (a * b) for d, a, b in zip(dots[k:], lengths, lengths[1:])])
    return angles[0] + angles[1] if len(angles) == 2 else angles[0]


def _old_proximity(c, pair):
    f1, f2 = (FINGER_JOINTS[f][1:] for f in pair.split("_"))
    rows = [[(p[i], q[s], q[s + 1]) for p, q in ((f1, f2), (f2, f1)) for s in (0, 1)]
            for i in range(3)]
    ends = c[np.array(rows).transpose(2, 0, 1), :2]  # (point/start/end, level, 4, xy)
    spans = ends[::2] - ends[1]
    num, denom = _ref_rowdot(spans, spans[1])
    t = num / np.where(denom >= 1e-12, denom, np.inf)
    gap = ends[0] - (ends[1] + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * spans[1])
    return float(np.sqrt(_ref_rowdot(gap, gap).min(axis=1)).sum() / 3)


def _old_palm(frame):
    c = frame.coords
    v1, v2 = (c[5] - c[17]).tolist(), (c[9] - c[0]).tolist()
    (ax, ay, az), (bx, by, bz) = (v1, v2) if frame.handedness == Handedness.LEFT else (v2, v1)
    normal = np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
    unknown = (math.nan, PalmOrientation.UNKNOWN)
    angle, orientation = _old_closest_axis(normal, _REF_PALM, 1e-9, unknown)
    if not frame.has_depth and orientation in (PalmOrientation.INWARD, PalmOrientation.OUTWARD):
        return unknown
    return angle, orientation


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
            c = frame.coords
            per_frame = {
                "curl": [_old_curl(c, f) for f in FINGER_JOINTS],
                "proximity": [_old_proximity(c, p) for p in PROXIMITY_PAIRS],
                "contact": [math.sqrt(np.dot(gap, gap)) for gap in
                            (c[4, :2] - c[FINGER_JOINTS[f][3], :2] for f in CONTACT_FINGERS)],
                "thumb": _old_closest_axis(c[4] - c[2], _REF_THUMB, 1e-12,
                                           (math.nan, ThumbDirection.UNSURE)),
                "palm": _old_palm(frame),
            }
            for name, value in per_frame.items():
                if name in ("thumb", "palm"):
                    assert _bits(value[0]) == _bits(batched[name][0]), name
                    assert value[1] is batched[name][1], name
                else:
                    assert _bits(value) == _bits(batched[name]), name
            # A NaN reading is no degenerate geometry: the one-frame views return it.
            curls = [finger_curl_deg(frame, f) for f in FINGER_JOINTS]
            assert _bits(curls) == _bits(per_frame["curl"])
            angle, direction = thumb_direction_measurement(frame)
            assert _bits(angle) == _bits(per_frame["thumb"][0])
            assert direction is per_frame["thumb"][1]
            palm_orientation_measurement(frame)


# The pose kernel as it stood before the one-pass curl and the fromiter
# block, verbatim but for its names: the thumb curled over its three-joint
# chain (MCP, IP, TIP) in a call of its own and the other four fingers in a
# second call, the verdicts looked their members up on the enum classes,
# and pose_vectors built its block with np.array over lists of members.

_PRIOR_CURL_ENDS = {f: rules_mod._curl_ends(j[1:] if f == "thumb" else j)
                    for f, j in FINGER_JOINTS.items()}
_PRIOR_CURL_ENDS[CONTACT_FINGERS] = np.stack([_PRIOR_CURL_ENDS[f] for f in CONTACT_FINGERS],
                                             axis=2)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _prior_curl_readings(coords, finger):
    ends = rules_mod._take(coords, _PRIOR_CURL_ENDS[finger])
    bones = ends[:, 0] - ends[:, 1]
    dots = rules_mod._rowdot(bones[:, 0], bones[:, 1])
    k = (dots.shape[-1] + 1) // 2  # k squared bone lengths, then k - 1 joint dots
    lengths = np.sqrt(dots[..., :k])
    angles = rules_mod._degrees(dots[..., k:] / (lengths[..., :-1] * lengths[..., 1:]))
    curl = angles[..., 0] + angles[..., 1] if angles.shape[-1] == 2 else angles[..., 0]
    degenerate = lengths.min(axis=-1) < rules_mod._EPS
    return np.where(degenerate, np.nan, curl), degenerate


def _prior_pose_readings(coords, depth, left):
    thumb_curl, thumb_bad = _prior_curl_readings(coords, "thumb")
    curls, bad = _prior_curl_readings(coords, CONTACT_FINGERS)
    degenerate = {f"{f}_curl": b for f, b in zip(FINGER_JOINTS, (thumb_bad, *bad.T))}
    *thumb, degenerate["thumb_direction"] = thumb_direction_readings(coords)
    *palm, degenerate["palm_normal"] = palm_readings(coords, depth, left)
    return PoseReadings(curl=np.vstack((thumb_curl, curls.T)),
                        proximity=proximity_distances(coords, PROXIMITY_PAIRS).T,
                        contact=contact_distances(coords, CONTACT_FINGERS).T,
                        thumb=tuple(thumb), palm=tuple(palm), degenerate=degenerate)


def _prior_three_way_verdict(measurement, low, high):
    if measurement <= low:
        return ThreeWay.POSITIVE
    if measurement >= high:
        return ThreeWay.NEGATIVE
    return ThreeWay.UNSURE


def _prior_flexion(curl_deg, finger, th):
    if finger not in FINGER_JOINTS:
        raise ValueError(f"unknown finger: {finger!r}")
    low, high = th.flexion_thumb if finger == "thumb" else th.flexion_finger
    return _prior_three_way_verdict(curl_deg, low, high)


def _prior_proximity(distance, th):
    return _prior_three_way_verdict(distance, *th.proximity)


def _prior_contact(distance, th):
    return _prior_three_way_verdict(distance, *th.contact)


def _prior_thumb_pointing(reading, thumb_flexion, th):
    if thumb_flexion != ThreeWay.POSITIVE:
        return ThumbDirection.UNSURE
    return threshold_verdict(*reading, th.thumb_dir_angle_threshold, ThumbDirection.UNSURE)


def _prior_palm_orientation(reading, th):
    return threshold_verdict(*reading, th.palm_angle_threshold, PalmOrientation.UNKNOWN)


def _prior_pose_vectors(r, th):
    flex = [[_prior_flexion(c, finger, th) for c in curls]
            for finger, curls in zip(FINGER_JOINTS, r.curl.tolist())]
    thumb = zip(r.thumb[0].tolist(), r.thumb[1])
    rows = [*flex, *([_prior_proximity(d, th) for d in ds] for ds in r.proximity.tolist()),
            *([_prior_contact(d, th) for d in ds] for ds in r.contact.tolist()),
            [_prior_thumb_pointing(t, f, th) for t, f in zip(thumb, flex[0])]]
    palms = [_prior_palm_orientation(p, th) for p in zip(r.palm[0].tolist(), r.palm[1])]
    rows += [[palm is state for palm in palms] for state in PALM_ONE_HOT_ORDER]
    return np.array(rows, dtype=int)


def _kernel_frames(n, seed):
    """(coords, depth, left) of n hostile frames: random hands, and flat
    hands upright or upside down (straight thumbs that point); a third
    rounded to 0.1 (axis-aligned bones, exact ties); scaled by 1e-13 to
    1e3; zero-length bones in any finger, the thumb's CMC->MCP bone
    included; collapsed palms; a quarter without depth; and inf, -inf, NaN
    or float-limit coordinates. Both hands."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, (n, 21, 3))
    coords[:, :, 2] -= 0.5
    flat = rng.uniform(size=n) < 0.3
    coords[flat] = np.array(FLAT_HAND_POINTS) + rng.normal(0.0, 0.004, (flat.sum(), 21, 3))
    coords[flat & (rng.uniform(size=n) < 0.5), :, 1] *= -1.0
    coords[::3] = np.round(coords[::3], 1)
    coords *= 10.0 ** rng.uniform(-13, 3, (n, 1, 1))
    for c in coords:
        draw = rng.uniform(size=6)
        chain = FINGER_JOINTS[FINGERS[rng.integers(5)]]
        if draw[0] < 0.3:  # one bone of any finger
            b = rng.integers(3)
            c[chain[b + 1]] = c[chain[b]]
        if draw[1] < 0.1:  # the thumb's CMC->MCP bone, which bends no joint of its curl
            c[2] = c[1]
        if draw[2] < 0.05:
            c[list(chain[1:])] = c[chain[0]]
        if draw[3] < 0.05:
            c[5], c[0] = c[17], c[9]
        if draw[4] < 0.1:
            c[rng.integers(21), rng.integers(3)] = rng.choice([np.inf, -np.inf, np.nan])
        if draw[5] < 0.05:
            c[:, 2] = rng.choice([1e200, -1e300, 1.7e308], 21)
    depth = rng.uniform(size=n) >= 0.25
    coords[~depth, :, 2] = 0.0
    return coords, depth, rng.uniform(size=n) < 0.5


def _same_bits(a, b):
    """Equal bit for bit, but for the sign of a NaN: numpy's loops give one
    frame's NaN curl either sign, depending on the shape of the batch it
    sits in, in the prior kernel too (its one-finger and four-finger calls
    differ so on these frames). No verdict or output can tell them apart."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def test_pose_kernel_matches_the_prior_kernel_bit_for_bit():
    """On 12,000 hostile frames, whole and in windows of 1 to 64: the
    one-pass curls and their masks equal the prior two-call ones bit for
    bit, so does each finger's tuner reading, the pose blocks are equal in
    values and dtype, and each verdict returns the prior one's member."""
    coords, depth, left = _kernel_frames(12_000, seed=2718)
    with np.errstate(all="ignore"):
        seen = Counter(non_finite=(~np.isfinite(coords)).any(axis=(1, 2)).sum(),
                       thumb_cmc_bone=(coords[:, 1] == coords[:, 2]).all(axis=1).sum())
    local, start, windows = random.Random(2718), 0, [(0, len(coords))]
    while start < len(coords):
        windows.append((start, start + local.choice([1, local.randint(1, 64)])))
        start = windows[-1][1]
    for a, b in windows:
        prior = _prior_pose_readings(coords[a:b], depth[a:b], left[a:b])
        got = pose_readings(coords[a:b], depth[a:b], left[a:b])
        assert _same_bits(got.curl, prior.curl)
        assert list(got.degenerate) == list(prior.degenerate)
        for name, mask in prior.degenerate.items():
            assert np.array_equal(got.degenerate[name], mask), name
        curls, bad = curl_readings(coords[a:b], FINGERS)
        assert _same_bits(curls.T, prior.curl)
        assert np.array_equal(bad.T, np.array([prior.degenerate[f"{f}_curl"] for f in FINGERS]))
        for finger in FINGERS:  # the tuner's one-finger call
            one, one_bad = curl_readings(coords[a:b], finger)
            prior_one, prior_bad = _prior_curl_readings(coords[a:b], finger)
            assert _same_bits(one, prior_one) and np.array_equal(one_bad, prior_bad)
        block, prior_block = pose_vectors(got, TH), _prior_pose_vectors(prior, TH)
        assert block.dtype == prior_block.dtype and block.shape == prior_block.shape
        assert np.array_equal(block, prior_block)
    r = pose_readings(coords, depth, left)
    members = defaultdict(set)
    for finger, curls in zip(FINGERS, r.curl.tolist()):
        for c in curls:
            assert (v := flexion(c, finger, TH)) is _prior_flexion(c, finger, TH)
            members[flexion].add(v)
    for distances, verdict, prior_verdict in ((r.proximity, proximity, _prior_proximity),
                                              (r.contact, contact, _prior_contact)):
        for d in distances.ravel().tolist():
            assert (v := verdict(d, TH)) is prior_verdict(d, TH)
            members[verdict].add(v)
    thumb_flexion = [_prior_flexion(c, "thumb", TH) for c in r.curl[0].tolist()]
    for reading, f in zip(zip(r.thumb[0].tolist(), r.thumb[1]), thumb_flexion):
        assert (v := thumb_pointing(reading, f, TH)) is _prior_thumb_pointing(reading, f, TH)
        members[thumb_pointing].add(v)
    for reading in zip(r.palm[0].tolist(), r.palm[1]):
        assert (v := palm_orientation(reading, TH)) is _prior_palm_orientation(reading, TH)
        members[palm_orientation].add(v)
    seen.update(degenerate_thumb=r.degenerate["thumb_curl"].sum(),
                degenerate_finger=r.degenerate["index_curl"].sum(), no_depth=(~depth).sum(),
                left=left.sum(), tiny=(np.abs(coords).max(axis=(1, 2)) < 1e-9).sum())
    # Each verdict returns every member of its enum, and each hostile case occurs.
    assert members == {flexion: {*ThreeWay}, proximity: {*ThreeWay}, contact: {*ThreeWay},
                       thumb_pointing: {*ThumbDirection}, palm_orientation: {*PalmOrientation}}
    assert min(seen.values()) >= 100, dict(seen)
