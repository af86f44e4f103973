from __future__ import annotations

import json
import math
import random
import re
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from gesturelink.errors import MalformedInput
from gesturelink.landmarks import FINGER_JOINTS, HandLandmarkFrame, Handedness, LandmarkStream
from gesturelink.rules import CONTACT_FINGERS, PROXIMITY_PAIRS, pose_readings

# --- acceptance summary ---------------------------------------------------------
# One PASS/FAIL line per acceptance criterion at the end of the run.

ACCEPTANCE_TITLES = {
    1: "rule-oracle equivalence (1000 random hands per rule, exact match, < 5 s)",
    2: "three-way loss and tuner (planted recovery, band-widening property, < 30 s)",
    3: "matrix invariants (10k frames + 200 streams, zero violations)",
    4: "random-guess baselines match the documented closed-form values",
    5: "deterministic end-to-end replay (3 identical runs, < 60 s)",
    6: "protocol conformance (20 adversarial fixtures, documented exit codes)",
    7: "full-study accuracy caveat (non-gating; optional landmark-dump check)",
    8: "cost accounting (rounds = questions + 1; token sums exact)",
}

_acceptance_outcomes: dict[int, list[str]] = defaultdict(list)
_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    criterion = int(match.group(1))
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _acceptance_outcomes[criterion].append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(ACCEPTANCE_TITLES):
        outcomes = _acceptance_outcomes.get(criterion)
        if not outcomes:
            continue
        if any(o == "failed" for o in outcomes):
            verdict = "FAIL"
        elif all(o == "skipped" for o in outcomes):
            verdict = "SKIP (non-gating)"
        else:
            verdict = "PASS"
        terminalreporter.write_line(
            f"criterion {criterion}: {verdict} - {ACCEPTANCE_TITLES[criterion]}"
        )


# Flat open right hand facing the camera: all fingers straight and
# vertical, thumb angled up-left, palm normal toward -z (outward).
FLAT_HAND_POINTS = [
    (0.50, 0.90, 0.0),  # wrist
    (0.38, 0.82, 0.0), (0.34, 0.76, 0.0), (0.31, 0.71, 0.0), (0.28, 0.66, 0.0),  # thumb
    (0.42, 0.72, 0.0), (0.42, 0.62, 0.0), (0.42, 0.56, 0.0), (0.42, 0.50, 0.0),  # index
    (0.50, 0.70, 0.0), (0.50, 0.60, 0.0), (0.50, 0.53, 0.0), (0.50, 0.46, 0.0),  # middle
    (0.58, 0.72, 0.0), (0.58, 0.62, 0.0), (0.58, 0.56, 0.0), (0.58, 0.50, 0.0),  # ring
    (0.66, 0.74, 0.0), (0.66, 0.66, 0.0), (0.66, 0.61, 0.0), (0.66, 0.56, 0.0),  # pinky
]


def make_frame(points, t=0.0, handedness=Handedness.RIGHT, has_depth=True):
    return HandLandmarkFrame(
        timestamp=t,
        handedness=handedness,
        coords=points,
        has_depth=has_depth,
    )


def parse_frame(entry, handedness: Handedness) -> HandLandmarkFrame:
    """Reference parse of one {"t": seconds, "lm": [[x, y, z] or [x, y]] * 21}
    frame entry, checked on its own: the package's former per-frame parse,
    with the checks HandLandmarkFrame then ran written out in their order.
    The array parse shares none of this code, so the tests compare it with
    an independent reading of each frame.

    The rows of one frame are all [x, y, z] or all [x, y]; two-component
    rows get z=0 and mark the frame has_depth=False.
    """
    if not isinstance(entry, dict) or "t" not in entry or "lm" not in entry:
        raise MalformedInput('each frame needs "t" and "lm"')
    try:
        t = float(entry["t"])
    except (TypeError, ValueError, OverflowError) as exc:
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
    if coords.shape != (21, 3):
        raise MalformedInput(
            f"frame at t={t} has {len(coords) if coords.ndim else 0} landmarks "
            f"of shape {coords.shape[1:]}, expected 21 of shape (3,)"
        )
    if not np.isfinite(coords).all():
        raise MalformedInput(f"non-finite landmark coordinate at t={t}")
    xy = coords[:, :2]
    if xy.min() < -0.5 or xy.max() > 1.5:
        raise MalformedInput(f"landmark coordinate outside [-0.5, 1.5] at t={t}")
    if not (math.isfinite(t) and t >= 0):
        raise MalformedInput(f"bad frame timestamp: {t!r}")
    return HandLandmarkFrame(t, handedness, coords, has_depth)


def frame_readings(frame):
    """One frame's pose readings (rules.pose_readings of a one-frame batch)
    as Python scalars: curl, proximity and contact keyed by finger or pair,
    thumb and palm as (angle, state)."""
    r = pose_readings(frame.coords[None], np.array([frame.has_depth]),
                      np.array([frame.handedness == Handedness.LEFT]))
    return SimpleNamespace(
        curl=dict(zip(FINGER_JOINTS, r.curl[:, 0].tolist())),
        proximity=dict(zip(PROXIMITY_PAIRS, r.proximity[:, 0].tolist())),
        contact=dict(zip(CONTACT_FINGERS, r.contact[:, 0].tolist())),
        thumb=(float(r.thumb[0][0]), r.thumb[1][0]),
        palm=(float(r.palm[0][0]), r.palm[1][0]),
    )


def random_points(rng: random.Random, z_range=(-0.3, 0.3)):
    return [
        (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(*z_range))
        for _ in range(21)
    ]


def translate(points, dx=0.0, dy=0.0, dz=0.0):
    return [(x + dx, y + dy, z + dz) for x, y, z in points]


def scale_about(points, factor, origin=(0.5, 0.5, 0.0)):
    ox, oy, oz = origin
    return [
        (ox + factor * (x - ox), oy + factor * (y - oy), oz + factor * (z - oz))
        for x, y, z in points
    ]


def stream_json(frames, handedness="right", source_view="third_person"):
    """Stream document bytes from [(t, points), ...]."""
    doc = {
        "source_view": source_view,
        "handedness": handedness,
        "frames": [
            {"t": t, "lm": [[x, y, z] for x, y, z in points]} for t, points in frames
        ],
    }
    return json.dumps(doc).encode()


def make_stream(frames, handedness=Handedness.RIGHT):
    """Stream of [(t, points), ...] with depth on every frame."""
    coords = np.array([points for _, points in frames], dtype=float).reshape(-1, 21, 3)
    return LandmarkStream(coords, [t for t, _ in frames], [True] * len(frames), handedness)


@pytest.fixture
def flat_hand():
    return make_frame(FLAT_HAND_POINTS)


@pytest.fixture
def rng():
    return random.Random(20240817)


# --- synthetic gesture trajectories --------------------------------------------

FLAT_CENTER_Y = sum(p[1] for p in FLAT_HAND_POINTS) / 21


def hand_at(center_y: float, center_x_shift: float = 0.0):
    """Flat hand translated so its center sits at the given y."""
    return translate(FLAT_HAND_POINTS, dx=center_x_shift, dy=center_y - FLAT_CENTER_Y)


def trajectory_stream(profile, dt=0.1, handedness=Handedness.RIGHT):
    """Stream whose hand-center y follows profile(t)."""
    frames = []
    t = 0.0
    for y in profile:
        frames.append((round(t, 6), hand_at(y)))
        t += dt
    return make_stream(frames, handedness=handedness)


def single_gesture_stream():
    """Below the chest line, a 1 s raise, then lowered again."""
    return trajectory_stream([0.8] * 5 + [0.4] * 11 + [0.8] * 10)


def flat_width_stream_json():
    """Stream document bytes for a single raise of a hand whose pinky MCP
    sits on its index MCP, so every sample measures hand_width 0."""
    frames = []
    for i, y in enumerate([0.8] * 3 + [0.4] * 8 + [0.8] * 8):
        points = hand_at(y)
        points[17] = points[5]
        frames.append((round(0.1 * i, 6), points))
    return stream_json(frames)


def index_curl_points(theta_deg: float):
    """Flat hand with the index finger bent theta degrees at the PIP
    (straight DIP), so its measured curl equals theta exactly."""
    import math as _math

    rad = _math.radians(theta_deg)
    mcp, pip_ = (0.42, 0.80, 0.0), (0.42, 0.70, 0.0)
    step = (0.1 * _math.sin(rad), -0.1 * _math.cos(rad), 0.0)
    dip = (pip_[0] + step[0], pip_[1] + step[1], 0.0)
    tip = (dip[0] + step[0], dip[1] + step[1], 0.0)
    points = list(FLAT_HAND_POINTS)
    points[5], points[6], points[7], points[8] = mcp, pip_, dip, tip
    return points


# --- smart-home scenario fixture ---------------------------------------------
# Five devices, 18 functions total, locations in headset world coordinates.

SMART_HOME_DEVICES = {
    "Light": ((0.2, 0.4, 1.5), ["Power", "Brightness Control", "Mode Switch"]),
    "Smart Cabinet": ((1.0, 0.8, 2.0), ["Child Lock", "Temperature Control", "Humidity Control"]),
    "Smart Screen": (
        (1.8, 0.5, 1.2),
        ["Power", "Switch Recipes", "Switch Input Source", "Phone Call", "Timer"],
    ),
    "Oven": ((2.4, 0.9, 2.2), ["Power", "Temperature Control", "Self Cleaning", "Mode Switch"]),
    "Air Cleaner": ((0.6, 1.2, 2.8), ["Power", "Airflow Speed", "Mode Switch"]),
}


def smart_home_functions():
    from gesturelink.context import FunctionEntry

    entries = []
    for device, (location, functions) in SMART_HOME_DEVICES.items():
        slug = device.lower().replace(" ", "_")
        for fn in functions:
            entries.append(
                FunctionEntry(
                    id=f"{slug}.{fn.lower().replace(' ', '_')}",
                    name=f"{device} {fn}",
                    location=location,
                )
            )
    return entries


def smart_home_library(gaze=(), history=(), external=()):
    from gesturelink.context import (
        ContextLibrary,
        make_external_context,
        make_function_list_context,
        make_gaze_context,
        make_history_context,
    )

    return ContextLibrary(
        [
            make_function_list_context("Smart Home", smart_home_functions()),
            make_gaze_context(list(gaze)),
            make_history_context(list(history)),
            make_external_context(list(external)),
        ]
    )


# --- scripted model replies -------------------------------------------------

def pose_reply(gestures="open palm facing the camera", span=(0, 0)):
    return json.dumps({"candidate_gestures": gestures, "time_span": list(span)})


def movement_reply(text="The hand stays essentially still."):
    return json.dumps({"movement": text})


def question_reply(question, thought="need context"):
    return json.dumps({"thought": thought, "question": question})


def conclusion_reply(ids, thought="confident now"):
    return json.dumps({"thought": thought, "conclusion": list(ids)})


def context_reply(answer, thought="consulted the library"):
    return json.dumps({"thought": thought, "answer": answer})


def seq_fixtures(*responses):
    return [{"match": "sequence", "response": r} for r in responses]
