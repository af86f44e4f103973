"""Seeded input generators for the four benchmark workloads.

Nothing here imports gesturelink: the program under test only ever sees
the files these functions write. Each generator returns the planted
structure (window boundaries, class gaps, scripted rankings) that the
correctness gate checks the program's outputs against.

Sizes and proportions are fixed; the seed only shuffles and perturbs
them, so every seed costs about the same to process.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

FPS = 30.0
# Hand-center heights (y-down) around the default chest line at 0.55.
REST_Y = 0.80
RAISED_Y = 0.40
RAMP_UP = (0.72, 0.63, 0.47)  # no ramp value sits within jitter of the line
JITTER = 0.002

# Flat open right hand facing the camera (palm normal -z); wrist first.
FLAT_HAND = np.array([
    (0.50, 0.90, 0.0),
    (0.38, 0.82, 0.0), (0.34, 0.76, 0.0), (0.31, 0.71, 0.0), (0.28, 0.66, 0.0),
    (0.42, 0.72, 0.0), (0.42, 0.62, 0.0), (0.42, 0.56, 0.0), (0.42, 0.50, 0.0),
    (0.50, 0.70, 0.0), (0.50, 0.60, 0.0), (0.50, 0.53, 0.0), (0.50, 0.46, 0.0),
    (0.58, 0.72, 0.0), (0.58, 0.62, 0.0), (0.58, 0.56, 0.0), (0.58, 0.50, 0.0),
    (0.66, 0.74, 0.0), (0.66, 0.66, 0.0), (0.66, 0.61, 0.0), (0.66, 0.56, 0.0),
])
FINGER_JOINTS = {
    "thumb": (1, 2, 3, 4), "index": (5, 6, 7, 8), "middle": (9, 10, 11, 12),
    "ring": (13, 14, 15, 16), "pinky": (17, 18, 19, 20),
}
_BONE = 0.07
_AXES = {
    "right": (1.0, 0.0, 0.0), "left": (-1.0, 0.0, 0.0), "down": (0.0, 1.0, 0.0),
    "up": (0.0, -1.0, 0.0), "outward": (0.0, 0.0, -1.0), "inward": (0.0, 0.0, 1.0),
}


# --- hand geometry ------------------------------------------------------------

def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _rotation(a, b) -> np.ndarray:
    """Proper rotation taking unit vector a onto unit vector b."""
    a, b = _unit(a), _unit(b)
    axis = np.cross(a, b)
    s, c = np.linalg.norm(axis), float(np.dot(a, b))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        perp = _unit(np.cross(a, (1.0, 0.0, 0.0) if abs(a[0]) < 0.9 else (0.0, 1.0, 0.0)))
        return 2.0 * np.outer(perp, perp) - np.eye(3)
    k = axis / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + s * kx + (1 - c) * (kx @ kx)


def _euler(yaw, pitch, roll) -> np.ndarray:
    cy, sy, cp, sp, cr, sr = (math.cos(yaw), math.sin(yaw), math.cos(pitch),
                              math.sin(pitch), math.cos(roll), math.sin(roll))
    rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    return rz @ ry @ rx


def _bend(direction, toward, angle_deg):
    """Rotate unit `direction` by angle_deg inside its plane with `toward`."""
    d = _unit(direction)
    t = np.asarray(toward, dtype=float)
    t = _unit(t - np.dot(t, d) * d)
    r = math.radians(angle_deg)
    return math.cos(r) * d + math.sin(r) * t


def pose_points(curls, thumb_bend=0.0, thumb_angle=35.0, spread=0.0) -> np.ndarray:
    """(21, 3) hand in its own frame: fingers up (-y), palm facing -z.

    curls maps index..pinky to total bend degrees (split 60/40 between
    PIP and DIP); thumb_bend is the IP angle; thumb_angle tilts the
    thumb from up toward -x; spread fans the fingers apart, in degrees.
    """
    pts = FLAT_HAND.copy()
    toward = (0.0, 0.0, -1.0)
    for k, finger in enumerate(("index", "middle", "ring", "pinky")):
        mcp, pip_, dip, tip = FINGER_JOINTS[finger]
        fan = math.radians(spread * (k - 1.5))
        d0 = np.array([math.sin(fan), -math.cos(fan), 0.0])
        curl = curls.get(finger, 0.0)
        d1 = _bend(d0, toward, 0.6 * curl)
        d2 = _bend(d0, toward, curl)
        pts[pip_] = pts[mcp] + 1.4 * _BONE * d0
        pts[dip] = pts[pip_] + _BONE * d1
        pts[tip] = pts[dip] + _BONE * d2
    _, mcp, ip, tip = FINGER_JOINTS["thumb"]
    a = math.radians(thumb_angle)
    d0 = np.array([-math.sin(a), -math.cos(a), 0.0])
    pts[ip] = pts[mcp] + _BONE * d0
    pts[tip] = pts[ip] + _BONE * _bend(d0, toward, thumb_bend)
    return pts


def place(pts, rotation=None, center=(0.5, 0.5, 0.0), scale=1.0) -> np.ndarray:
    """Rotate about the centroid, scale, and move the centroid to center."""
    rel = pts - pts.mean(axis=0)
    if rotation is not None:
        rel = rel @ rotation.T
    return scale * rel + np.asarray(center, dtype=float)


def _frame_doc(t, pts) -> dict:
    return {"t": t, "lm": np.round(pts, 6).tolist()}


def _random_pose(rng: random.Random) -> np.ndarray:
    curls = {f: rng.choice((rng.uniform(0, 40), rng.uniform(60, 80), rng.uniform(100, 170)))
             for f in ("index", "middle", "ring", "pinky")}
    pts = pose_points(curls, thumb_bend=rng.uniform(0, 60),
                      thumb_angle=rng.uniform(-60, 200), spread=rng.uniform(0, 12))
    rot = _euler(rng.uniform(-1.2, 1.2), rng.uniform(-0.9, 0.9), rng.uniform(-1.6, 1.6))
    return place(pts, rot, scale=rng.uniform(0.8, 1.2))


def _degenerate(pts, rng: random.Random) -> np.ndarray:
    """Coincident joints: a zero-length index bone, or a vanishing thumb
    MCP->TIP vector."""
    pts = pts.copy()
    if rng.random() < 0.5:
        pts[6] = pts[5]
    else:
        pts[4] = pts[2]
    return pts


def _centered(pts, y, x=0.5) -> np.ndarray:
    return pts - pts.mean(axis=0) + np.array([x, y, 0.0])


def _stratified(rng: random.Random, n: int, low: float, high: float) -> list[float]:
    """n values spread evenly over [low, high], jittered within their
    strata and shuffled, so every seed has the same distribution."""
    width = (high - low) / n
    values = [low + width * (k + rng.random()) for k in range(n)]
    rng.shuffle(values)
    return values


# --- stream_encode ------------------------------------------------------------

class _StreamWriter:
    """Writes the stream document frame by frame and records planted
    gesture windows as (first raised frame, last raised frame)."""

    def __init__(self, fh, rng: random.Random, nprng: np.random.Generator):
        self.fh, self.rng, self.nprng = fh, rng, nprng
        self.count = 0
        self.windows: list[tuple[int, int]] = []
        fh.write('{"source_view": "third_person", "handedness": "right", "frames": [')

    def frame(self, pts, y, x=0.5, degenerate=False):
        pts = _centered(pts, y, x) + self.nprng.normal(0.0, JITTER, pts.shape)
        if degenerate:  # after the jitter, so the joints stay coincident
            pts = _degenerate(pts, self.rng)
        t = round(self.count / FPS, 6)
        self.fh.write(("" if self.count == 0 else ",") + json.dumps(_frame_doc(t, pts)))
        self.count += 1

    def rest(self, seconds):
        pose = _random_pose(self.rng)
        for _ in range(int(round(seconds * FPS))):
            self.frame(pose, REST_Y)

    def gesture(self, seconds, degenerate_share=0.02):
        """Ramp up, hold above the chest line while the pose morphs, ramp
        down. Window bounds are the first and last frame above the line."""
        # A new pose every half second, so per-window cost averages over poses.
        poses = [_random_pose(self.rng) for _ in range(max(2, int(seconds / 0.5) + 1))]
        n = int(round(seconds * FPS))
        for y in RAMP_UP[:-1]:
            self.frame(poses[0], y)
        first = self.count
        self.frame(poses[0], RAMP_UP[-1])
        drift = self.rng.uniform(-0.1, 0.1)
        for i in range(n):
            u = i / max(1, n - 1) * (len(poses) - 1)
            k = min(int(u), len(poses) - 2)
            pts = (1 - (u - k)) * poses[k] + (u - k) * poses[k + 1]
            self.frame(pts, RAISED_Y, x=0.5 + drift * i / n,
                       degenerate=self.rng.random() < degenerate_share)
        self.frame(poses[-1], RAMP_UP[-1])
        self.windows.append((first, self.count - 1))
        for y in reversed(RAMP_UP[:-1]):
            self.frame(poses[-1], y)

    def close(self):
        self.fh.write("]}")


SHORT_GESTURES = 100  # enough that ten windows lie beyond each pass's p90
HOLD_SECONDS = (65.0, 115.0)


def gen_stream_encode(seed: int, out: Path) -> dict:
    """One long right-hand recording: 100 short gestures (1-4 s) between
    1-2 s rests, plus holds of 65 s and 115 s."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    shorts = _stratified(rng, SHORT_GESTURES, 1.0, 4.0)
    rests = _stratified(rng, SHORT_GESTURES + 3, 1.0, 2.0)
    # Fixed lengths: sample_window's cost and memory grow faster than
    # linearly with a window's length, so drawn lengths would make seeds
    # differ in cost.
    holds = list(HOLD_SECONDS)
    plan = [("short", d) for d in shorts] + [("hold", d) for d in holds]
    rng.shuffle(plan)
    path = out / "recording.stream.json"
    with open(path, "w") as fh:
        w = _StreamWriter(fh, rng, nprng)
        w.rest(rests[0])
        for k, (_, seconds) in enumerate(plan):
            w.gesture(seconds)
            w.rest(rests[k + 1])
        w.close()
    return {"stream": path.name, "windows": w.windows}


# --- tune_grid ------------------------------------------------------------------

# Planted class boundaries per rule: positives (or correct candidates)
# measure at or below `low`, negatives (or wrong candidates) at or above
# `high`; only ambiguous labels fall in between.
PLANTED = {
    "flexion_thumb": (15.0, 40.0),
    "flexion_finger": (55.0, 75.0),
    "proximity": (0.022, 0.032),
    "contact": (0.044, 0.058),
    "thumb_direction": (35.0, 50.0),
    "palm_orientation": (30.0, 45.0),
}
# Labels per rule target: different n per rule, as on real datasets.
TUNE_COUNTS = {
    "flexion_thumb": {None: 120},
    "flexion_finger": {f: 60 for f in ("index", "middle", "ring", "pinky")},
    "proximity": {p: 50 for p in ("index_middle", "middle_ring", "ring_pinky")},
    "contact": {f: 45 for f in ("index", "middle", "ring", "pinky")},
    "thumb_direction": {None: 100},
    "palm_orientation": {None: 110},
}
AMBIGUOUS_SHARE = 0.1
_CORNERS = [np.array(c) for c in
            ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
             (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1))]


def _min_axis_angle(u) -> float:
    u = _unit(u)
    return min(math.degrees(math.acos(max(-1.0, min(1.0, float(np.dot(u, a))))))
               for a in map(np.array, _AXES.values()))


def _label_frame(rule: str, target, value: float, rng: random.Random):
    """Frame whose named measurement equals `value`, plus the candidate
    state for single-threshold rules."""
    spread_rot = _euler(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 0.0)
    if rule == "flexion_thumb":
        return place(pose_points({}, thumb_bend=value), spread_rot), None
    if rule == "flexion_finger":
        return place(pose_points({target: value}), spread_rot), None
    if rule == "proximity":
        # Two straight vertical fingers side by side: every joint level
        # measures exactly the lateral offset.
        pts = place(pose_points({}, spread=30.0))
        f1, f2 = target.split("_")
        mcp = pts[FINGER_JOINTS[f1][0]]
        distal = np.array([mcp + (0.0, -0.05 * k, 0.0) for k in (1, 2, 3)])
        pts[list(FINGER_JOINTS[f1][1:])] = distal
        pts[list(FINGER_JOINTS[f2][1:])] = distal + np.array([value, 0.0, 0.02])
        return pts, None
    if rule == "contact":
        pts = place(pose_points({}, spread=8.0), spread_rot)
        a = rng.uniform(0, 2 * math.pi)
        tip = pts[FINGER_JOINTS[target][3]]
        pts[4] = tip + np.array([value * math.cos(a), value * math.sin(a), rng.uniform(-0.02, 0.02)])
        return pts, None
    if rule == "thumb_direction":
        pointing_up = rng.random() < 0.5
        tilt = value if pointing_up else 180.0 - value
        tilt = tilt if rng.random() < 0.5 else -tilt
        pts = place(pose_points({f: 150.0 for f in ("index", "middle", "ring", "pinky")},
                                thumb_angle=tilt))
        return pts, 1 if pointing_up else -1
    if rule == "palm_orientation":
        if value is None:  # wrong-candidate sample: normal near a cube corner
            while True:
                u = _unit(rng.choice(_CORNERS) + np.array([rng.uniform(-0.15, 0.15) for _ in range(3)]))
                if _min_axis_angle(u) >= PLANTED[rule][1] + 0.5:
                    break
            name = None
        else:
            name = rng.choice(sorted(_AXES))
            ref = np.array(_AXES[name])
            perp = _unit(np.cross(ref, _unit([rng.uniform(-1, 1) for _ in range(3)])))
            r = math.radians(value)
            u = math.cos(r) * ref + math.sin(r) * perp
        return place(FLAT_HAND, _rotation((0.0, 0.0, -1.0), u)), name
    raise ValueError(rule)


def gen_tune_grid(seed: int, out: Path) -> dict:
    """Labels JSONL with inline frames for all six rules. Returns, per
    rule, the largest positive and the smallest negative measurement
    planted, which the tuned thresholds must lie between."""
    rng = random.Random(seed)
    lines, gaps = [], {}
    for rule, targets in TUNE_COUNTS.items():
        low, high = PLANTED[rule]
        top = 170.0 if rule.startswith("flexion") else (0.1 if rule in ("proximity", "contact") else 88.0)
        bottom = {"proximity": 0.004, "contact": 0.004}.get(rule, 2.0)
        pos_max, neg_min = -math.inf, math.inf
        for target, n in targets.items():
            for k in range(n):
                positive = k % 2 == 0
                if rule == "palm_orientation" and not positive:
                    value = None
                else:
                    value = (rng.uniform(bottom, low - 0.02 * (low - bottom)) if positive
                             else rng.uniform(high + 0.02 * (top - high), top))
                pts, candidate = _label_frame(rule, target, value, rng)
                if rule == "palm_orientation":
                    states = [candidate] if positive else ["unknown"]
                    measured = value if positive else PLANTED[rule][1]
                elif rule == "thumb_direction":
                    states = [candidate] if positive else [0]
                    measured = value
                else:
                    states = [1] if positive else [-1]
                    measured = value
                if positive:
                    pos_max = max(pos_max, measured)
                else:
                    neg_min = min(neg_min, measured)
                entry = {"rule": rule, "acceptable_states": states,
                         "frame": _frame_doc(0.0, pts)}
                if target is not None:
                    entry["target"] = target
                lines.append(entry)
                if rng.random() < AMBIGUOUS_SHARE:
                    amb = dict(entry, acceptable_states=(["up", "unknown"] if rule == "palm_orientation" else [1, -1]))
                    lines.append(amb)
        gaps[rule] = (pos_max, neg_min)
    rng.shuffle(lines)
    path = out / "labels.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in lines))
    return {"labels": path.name, "count": len(lines), "gaps": gaps}


# --- ground_sessions and eval_protocol: scripted dialogues --------------------

DEVICES = ("Light", "Oven", "Smart Screen", "Air Cleaner", "Smart Cabinet", "Speaker",
           "Thermostat", "Door Lock", "Curtain", "Fan", "Television", "Robot Vacuum")
ACTIONS = ("Power", "Mode Switch", "Timer", "Brightness Control", "Volume Up",
           "Volume Down", "Temperature Control", "Child Lock", "Self Cleaning")
WORDS = ("palm", "finger", "raised", "toward", "camera", "device", "user", "likely",
         "gesture", "pointing", "open", "closed", "swipe", "hold", "press", "turn",
         "gaze", "history", "recent", "evening", "screen", "light", "context", "steady")
STYLES = ("plain", "fenced", "prose", "stray_brace")
MAX_ROUNDS = 10  # SessionConfig default


def _functions(rng: random.Random, n: int) -> list[dict]:
    funcs = []
    for k in range(n):
        device = DEVICES[k % len(DEVICES)]
        action = ACTIONS[(k // len(DEVICES)) % len(ACTIONS)]
        slug = f"{device.lower().replace(' ', '_')}.{action.lower().replace(' ', '_')}_{k}"
        funcs.append({"id": slug, "name": f"{device} {action}",
                      "location": [round(rng.uniform(0, 3), 3) for _ in range(3)]})
    return funcs


def _library_doc(interface, functions, gaze, history, external) -> dict:
    return {"contexts": [
        {"name": "function_list", "calculator_id": None,
         "description_md": "Interface functions the user can trigger.",
         "values": {"interface": interface, "functions": functions}},
        {"name": "gaze", "calculator_id": "gaze_target",
         "description_md": "Recent gaze samples, oldest first.", "values": gaze},
        {"name": "history", "calculator_id": None,
         "description_md": "The user's recent interactions, oldest first.", "values": history},
        {"name": "external", "calculator_id": None,
         "description_md": "Information reported by other devices.", "values": external},
    ]}


def _contexts(rng: random.Random, functions):
    target = rng.choice(functions)["location"]
    gaze = [{"t": round(0.1 * k, 2), "x": round(target[0] + rng.uniform(-0.05, 0.05), 4),
             "y": round(target[1] + rng.uniform(-0.05, 0.05), 4),
             "z": round(target[2] + rng.uniform(-0.05, 0.05), 4)} for k in range(20)]
    history = [{"t": k, "description": f"used {rng.choice(functions)['name']}"} for k in range(6)]
    external = [f"{rng.choice(DEVICES)} reports {rng.choice(WORDS)} status" for _ in range(3)]
    return gaze, history, external


def _sentence(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n)).capitalize() + "."


def _styled(obj: dict, style: str) -> str:
    text = json.dumps(obj)
    if style == "plain":
        return text
    if style == "fenced":
        return "```json\n" + json.dumps(obj, indent=2) + "\n```"
    if style == "prose":
        return "Here is my reply.\n" + text + "\nLet me know if you need more."
    # Unbalanced braces ahead of the object make the lenient scanner
    # re-scan the rest of the reply from each of them.
    return ("Weighing the {gaze cue, the {history and the {external notes: "
            "these {options remain open. " + text)


MALFORMED = ("I believe the user wants to toggle the device.", '{"thought": ""}',
             '{"thought": "unsure", "question": "a", "conclusion": ["b"]}')


class _Script:
    """Reply list for one scripted session plus its exact expectations."""

    def __init__(self, rng: random.Random, style: str):
        self.rng, self.style = rng, style
        self.replies: list[str] = []
        self.style_of: dict[str, str] = {}

    def malformed(self):
        text = self.rng.choice(MALFORMED)
        self.style_of[text] = "malformed"
        self.replies.append(text)

    def reply(self, obj: dict, repair=False):
        if repair:
            self.malformed()
        text = _styled(obj, self.style)
        self.style_of[text] = self.style
        self.replies.append(text)


def script_session(rng: random.Random, functions, *, questions: int, outcome: str,
                   rank, T: int, style: str, repair_share: float, placeholders: list[str],
                   truth: str | None = None) -> dict:
    """Scripted dialogue in one reply style: pose, movement, `questions`
    question/answer rounds, then the outcome ("conclusion", "invalid_ids",
    "forced_question" or "unparseable"). rank is the 1-based position of
    the truth in the conclusion, or None when the truth is left out."""
    s = _Script(rng, style)
    span = sorted(rng.randrange(-1, T + 1) for _ in range(2))
    s.reply({"candidate_gestures": _sentence(rng, 8) + "\n" + _sentence(rng, 6),
             "time_span": span}, repair=rng.random() < repair_share)
    s.reply({"movement": _sentence(rng, 10)})
    asked = questions if outcome != "forced_question" else MAX_ROUNDS
    for q in range(asked):
        s.reply({"thought": _sentence(rng, 12), "question": _sentence(rng, 9)[:-1] + "?"},
                repair=rng.random() < repair_share)
        if q + 1 < MAX_ROUNDS:  # the last allowed question gets the forced-conclusion prompt instead
            hole = placeholders[q % len(placeholders)] if placeholders else ""
            s.reply({"thought": _sentence(rng, 6),
                     "answer": _sentence(rng, 10) + (f" Target: {hole}." if hole else "")},
                    repair=rng.random() < repair_share)
    ids = [f["id"] for f in functions]
    truth = truth or rng.choice(ids)
    expected = None
    if outcome == "conclusion":
        others = rng.sample([i for i in ids if i != truth], 4)
        ranking = others[:]
        if rank is not None:
            ranking.insert(rank - 1, truth)
        ranking = ranking[: rng.randint(max(1, rank or 1), 5)]
        s.reply({"thought": _sentence(rng, 10), "conclusion": ranking},
                repair=rng.random() < repair_share)
        expected = ranking
    elif outcome == "invalid_ids":
        s.reply({"thought": _sentence(rng, 8), "conclusion": ["no.such_function"]})
    elif outcome == "forced_question":
        s.reply({"thought": _sentence(rng, 8), "question": "One more question?"})
    elif outcome == "unparseable":
        s.malformed()
        s.malformed()
    return {"replies": s.replies, "style_of": s.style_of, "truth": truth,
            "expected": expected}


def _matrix_doc(rng: random.Random, T: int) -> dict:
    rows = [[rng.choice((-1, 0, 1)) for _ in range(T)] for _ in range(13)]
    palm = [[0] * T for _ in range(6)]
    for j in range(T):
        k = rng.randrange(7)
        if k < 6:
            palm[k][j] = 1
    ch2 = [[round(rng.uniform(0.2, 0.8), 6) for _ in range(T)] for _ in range(3)]
    return {"channel1": rows + palm, "channel2": ch2, "hand_width": round(rng.uniform(0.08, 0.2), 6),
            "T": T, "interval": 0.2}


# Session mix per pool. Dialogue length, outcome, reply style, library and
# placeholders follow the session index, so every seed has the same mix
# and only the texts, matrices and rankings change with the seed.
GROUND_SESSIONS = 120
_OUTCOMES = (["conclusion"] * 16 + ["invalid_ids", "forced_question", "unparseable"]
             + ["forced_conclusion"])
_PLACEHOLDERS = (["{{CALC:gaze_target}}"], ["{{CALC:gaze_trace}}", "{{CALC:missing_calc}}"],
                 [], ["{{CALC:gaze_target}}", ""])


def gen_ground_sessions(seed: int, out: Path) -> dict:
    """Library of 100 functions plus gaze/history/external contexts, 120
    synthetic state matrices and one scripted dialogue per session."""
    rng = random.Random(seed)
    functions = _functions(rng, 100)
    gaze, history, external = _contexts(rng, functions)
    (out / "library.json").write_text(json.dumps(
        _library_doc("Smart Home", functions, gaze, history, external), indent=2))
    sessions, matrices = [], []
    for k in range(GROUND_SESSIONS):
        T = 5 + (k * 7) % 17
        matrices.append(_matrix_doc(rng, T))
        outcome, questions = _OUTCOMES[k % len(_OUTCOMES)], k % MAX_ROUNDS
        if outcome == "forced_conclusion":
            outcome, questions = "conclusion", MAX_ROUNDS
        script = script_session(rng, functions, questions=questions, outcome=outcome,
                                rank=rng.choice((1, 1, 2, 3, 5, None)), T=T,
                                style=STYLES[(k // 5) % len(STYLES)], repair_share=0.05,
                                placeholders=_PLACEHOLDERS[k % len(_PLACEHOLDERS)])
        script["library"] = "full" if k % 3 else "no_gaze"
        sessions.append(script)
    (out / "matrices.jsonl").write_text("".join(json.dumps(m) + "\n" for m in matrices))
    (out / "fixtures.json").write_text(json.dumps(
        [[{"match": "sequence", "response": r} for r in s["replies"]] for s in sessions]))
    style_of = {text: style for s in sessions for text, style in s["style_of"].items()}
    return {"sessions": sessions, "style_of": style_of}


# --- eval_protocol ----------------------------------------------------------

EVAL_TASKS = 8
EVAL_REPETITIONS = 2
SETTINGS = ("baseline", "only_gaze", "only_history_external", "all")


def _task_stream(rng: random.Random, nprng, path: Path, rest: float, gesture: float) -> None:
    with open(path, "w") as fh:
        w = _StreamWriter(fh, rng, nprng)
        w.rest(rest)
        w.gesture(gesture, degenerate_share=0.0)
        w.rest(0.9)
        w.close()


def gen_eval_protocol(seed: int, out: Path) -> dict:
    """Manifest of short single-gesture streams. Each (task, setting) has
    its own script, whose planted rank is better when the setting
    exposes more context."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    tasks, fixtures, planted, style_of = [], {}, {}, {}
    rests = _stratified(rng, EVAL_TASKS, 0.5, 1.0)
    gestures = _stratified(rng, EVAL_TASKS, 1.0, 2.0)
    for k in range(EVAL_TASKS):
        functions = _functions(rng, 18 + (k * 5) % 13)
        gaze, history, external = _contexts(rng, functions)
        sid = f"task{k:02d}"
        _task_stream(rng, nprng, out / f"{sid}.stream.json", rests[k], gestures[k])
        truth = rng.choice(functions)["id"]
        for i, setting in enumerate(SETTINGS):
            outcome = "unparseable" if (k + i) % 7 == 0 else "conclusion"
            rank = rng.choice((1, 2, 3, 4, 5, None)) if setting == "baseline" else rng.choice((1, 1, 2, 3))
            script = script_session(rng, functions, questions=(k + i) % 4, outcome=outcome,
                                    rank=rank, T=5, style=STYLES[(k + i) % len(STYLES)],
                                    repair_share=0.05,
                                    placeholders=["{{CALC:gaze_target}}"], truth=truth)
            fixtures[f"{setting}/{sid}"] = [{"match": "sequence", "response": r}
                                             for r in script["replies"]]
            planted[f"{setting}/{sid}"] = _rank_of(script["expected"], truth)
            style_of.update(script["style_of"])
        tasks.append({"scenario_id": sid, "stream": f"{sid}.stream.json", "interface": "Home",
                      "functions": functions, "gaze": gaze, "history": history,
                      "external": external, "truth": truth})
    (out / "manifest.json").write_text(json.dumps({"tasks": tasks}, indent=2))
    (out / "eval_fixtures.json").write_text(json.dumps(fixtures))
    return {"planted_ranks": planted, "repetitions": EVAL_REPETITIONS, "style_of": style_of}


def _rank_of(expected, truth):
    if expected is None or truth not in expected:
        return None
    return expected.index(truth) + 1


GENERATORS = {
    "stream_encode": gen_stream_encode,
    "tune_grid": gen_tune_grid,
    "ground_sessions": gen_ground_sessions,
    "eval_protocol": gen_eval_protocol,
}
