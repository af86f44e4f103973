"""Acceptance suite: one test (or parametrized group) per criterion.

The conftest terminal hook prints one PASS/FAIL line per criterion at
the end of the run.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

import oracles
from conftest import (
    conclusion_reply,
    context_reply,
    frame_readings,
    hand_at,
    index_curl_points,
    make_frame,
    movement_reply,
    pose_reply,
    question_reply,
    random_points,
    seq_fixtures,
    smart_home_functions,
    smart_home_library,
    stream_json,
    trajectory_stream,
)
from gesturelink.agents import run_inference_session
from gesturelink.cli import main
from gesturelink.context import FunctionEntry
from gesturelink.encoder import SegmentationConfig, detect_gesture_window, encode_stream, validate_state_matrix
from gesturelink.evaluation import random_guess_baseline
from gesturelink.prompts import load_prompt_set
from gesturelink.rules import (
    CONTACT_FINGERS,
    PROXIMITY_PAIRS,
    RuleThresholds,
    ThreeWay,
    contact,
    encode_pose_vector,
    flexion,
    palm_orientation,
    proximity,
    thumb_pointing,
    validate_pose_vector,
)
from gesturelink.transport import ScriptedBackend
from gesturelink.tuning import (
    THREE_WAY_SPACE,
    Assessment,
    GridSpec,
    GroundTruthLabel,
    MeasuredSample,
    assess,
    grid_search,
    predictions_for_cell,
    rule_measurement,
)

TH = RuleThresholds()
PROMPTS = load_prompt_set()


# =============================================================================
# Criterion 1: rule-oracle equivalence on 1000 random hands per rule, < 5 s.
# =============================================================================

def test_criterion_1_rule_oracle_equivalence():
    rng = random.Random(101)
    frames = [make_frame(random_points(rng)) for _ in range(1000)]
    started = time.perf_counter()
    mismatches = 0
    for frame in frames:
        points = frame.coords.tolist()
        r = frame_readings(frame)
        for finger in ("thumb", "index", "middle", "ring", "pinky"):
            low, high = TH.flexion_thumb if finger == "thumb" else TH.flexion_finger
            if int(flexion(r.curl[finger], finger, TH)) != oracles.oracle_flexion(points, finger, low, high):
                mismatches += 1
        for pair in PROXIMITY_PAIRS:
            f1, f2 = pair.split("_")
            if int(proximity(r.proximity[pair], TH)) != oracles.oracle_proximity(points, f1, f2, *TH.proximity):
                mismatches += 1
        for finger in CONTACT_FINGERS:
            if int(contact(r.contact[finger], TH)) != oracles.oracle_contact(points, finger, *TH.contact):
                mismatches += 1
        thumb_state = flexion(r.curl["thumb"], "thumb", TH)
        if int(thumb_pointing(r.thumb, thumb_state, TH)) != oracles.oracle_thumb_direction(
            points, thumb_state == ThreeWay.POSITIVE, TH.thumb_dir_angle_threshold
        ):
            mismatches += 1
        if palm_orientation(r.palm, TH).value != oracles.oracle_palm_orientation(
            points, is_left=False, threshold=TH.palm_angle_threshold
        ):
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f} s"


# =============================================================================
# Criterion 2: tuner recovers planted thresholds; widening the unsure band
# never increases the error count (100 random grids); < 30 s.
# =============================================================================

def test_criterion_2_tuner_planted_recovery_and_band_property():
    started = time.perf_counter()

    # 500 noiseless samples around planted distance thresholds (0.030, 0.032),
    # anchored exactly at the boundaries so the zero-loss region is tight.
    rng = random.Random(202)
    planted_low, planted_high = 0.030, 0.032
    step = 0.001
    samples = [
        MeasuredSample(measurement=planted_low, label=GroundTruthLabel(frozenset({1}))),
        MeasuredSample(measurement=planted_high, label=GroundTruthLabel(frozenset({-1}))),
    ]
    while len(samples) < 500:
        samples.append(
            MeasuredSample(
                measurement=rng.uniform(0.0, planted_low),
                label=GroundTruthLabel(frozenset({1})),
            )
        )
        samples.append(
            MeasuredSample(
                measurement=rng.uniform(planted_high, 0.2),
                label=GroundTruthLabel(frozenset({-1})),
            )
        )
    grid = GridSpec.from_ranges((0.0, 0.2, step), (0.0, 0.2, step))
    (low, high), loss = grid_search(samples[:500], grid)
    assert loss == 0.0
    assert abs(low - planted_low) <= step + 1e-12
    assert abs(high - planted_high) <= step + 1e-12

    # Property: widening the unsure band never increases the error count.
    def error_count(dataset, lo, hi):
        preds = predictions_for_cell(dataset, True, (lo, hi))
        return sum(
            assess(p, s.label, THREE_WAY_SPACE) == Assessment.ERROR
            for p, s in zip(preds, dataset)
        )

    for trial in range(100):
        local = random.Random(trial)
        dataset = [
            MeasuredSample(
                measurement=local.uniform(0, 100),
                label=GroundTruthLabel(frozenset({local.choice([1, -1])})),
            )
            for _ in range(60)
        ]
        lo = local.uniform(10, 45)
        hi = local.uniform(55, 90)
        wider_lo = lo - local.uniform(0, 10)
        wider_hi = hi + local.uniform(0, 10)
        assert error_count(dataset, wider_lo, wider_hi) <= error_count(dataset, lo, hi)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"tuner criterion took {elapsed:.2f} s"


# =============================================================================
# Criterion 3: matrix invariants over 10,000 random frames and 200 streams.
# =============================================================================

def test_criterion_3_pose_vector_fuzz_10k_frames():
    rng = random.Random(303)
    for _ in range(10_000):
        vec = encode_pose_vector(make_frame(random_points(rng)), TH)
        validate_pose_vector(vec)


def test_criterion_3_full_encoder_fuzz_200_streams():
    rng = random.Random(304)
    cfg = SegmentationConfig()
    windows_seen = 0
    for _ in range(200):
        n = rng.randint(12, 50)
        dt = rng.choice([0.05, 0.1, 0.15])
        y = rng.uniform(0.3, 0.8)
        profile = []
        for _ in range(n):
            y = min(0.95, max(0.15, y + rng.uniform(-0.2, 0.2)))
            profile.append(y)
        stream = trajectory_stream(profile, dt=dt)
        windows = detect_gesture_window(stream, cfg)
        matrices = encode_stream(stream, TH, cfg)
        assert len(windows) == len(matrices)
        for window, matrix in zip(windows, matrices):
            windows_seen += 1
            validate_state_matrix(matrix)
            assert matrix.T == math.floor(window.duration / 0.2 + 1e-9) + 1
    assert windows_seen > 100, "fuzz should actually exercise the encoder"


# =============================================================================
# Criterion 4: random-guess baselines match the published closed-form values,
# cross-checked against a Monte-Carlo oracle at 1e6 draws.
# =============================================================================

def _monte_carlo_uniform_guess(counts, draws=1_000_000, seed=42):
    """Uniform ranked guessing: the truth's rank is uniform on 1..N."""
    gen = np.random.default_rng(seed)
    ns = np.array(counts)[gen.integers(0, len(counts), size=draws)]
    ranks = gen.integers(1, ns + 1)
    return {k: float(np.mean(ranks <= k)) for k in (1, 3, 5)}


def test_criterion_4_random_guess_baselines():
    home = random_guess_baseline([18] * 8)
    assert home.top1.mean == pytest.approx(1 / 18, abs=1e-12)
    assert f"{home.top1.mean:.2%}" == "5.56%"
    assert f"{home.top3.mean:.2%}" == "16.67%"
    assert f"{home.top5.mean:.2%}" == "27.78%"
    assert f"{home.negative.mean:.2%}" == "72.22%"

    video = random_guess_baseline([66] * 5 + [17] * 3)
    assert abs(video.top1.mean * 100 - 3.15) <= 0.01  # published value, 0.01 pp
    assert f"{video.top3.mean:.2%}" == "9.46%"
    assert f"{video.top5.mean:.2%}" == "15.76%"
    assert f"{video.negative.mean:.2%}" == "84.24%"

    for counts, metrics in (([18] * 8, home), ([66] * 5 + [17] * 3, video)):
        mc = _monte_carlo_uniform_guess(counts)
        for k, value in ((1, metrics.top1), (3, metrics.top3), (5, metrics.top5)):
            assert abs(mc[k] - value.mean) * 100 < 0.5, f"MC check failed at k={k}"


# =============================================================================
# Criterion 5: deterministic end-to-end replay (encode -> describe -> ground
# -> eval) over a 2-scenario smoke dataset; 3 identical runs in < 60 s.
# =============================================================================

VIDEO_FUNCTION_NAMES = [
    "VideoProgressBarUpdate", "PlayPauseButton", "NextButton", "SeekTimeUpdate",
    "ToggleDanmakuDisplay", "DanmakuToggle", "DanmuEtiquetteHint", "SendMessageButton",
    "VideoQualitySelection", "SelectEpisode", "ChangePlaybackSpeed", "SubtitleControl",
    "VolumeControl", "VideoSettingsMenu", "PictureInPictureToggle", "ToggleFullscreen",
    "VideoPlayArea",
]


def video_functions():
    return [
        FunctionEntry(id=str(i), name=name, location=(0.05 * i, 0.9))
        for i, name in enumerate(VIDEO_FUNCTION_NAMES)
    ]


def _write_smoke_dataset(tmp_path):
    profile = [0.8] * 3 + [0.4] * 8 + [0.8] * 8
    for stem in ("home", "video"):
        frames = [(round(0.1 * i, 6), hand_at(y)) for i, y in enumerate(profile)]
        (tmp_path / f"{stem}.stream.json").write_bytes(stream_json(frames))
    home_functions = [
        {"id": f.id, "name": f.name, "location": list(f.location)}
        for f in smart_home_functions()
    ]
    video_fns = [
        {"id": f.id, "name": f.name, "location": list(f.location)}
        for f in video_functions()
    ]
    manifest = {
        "tasks": [
            {
                "scenario_id": "home_1",
                "stream": "home.stream.json",
                "interface": "Smart Home",
                "functions": home_functions,
                "gaze": [{"t": 0.9, "x": 0.2, "y": 0.4, "z": 1.5}],
                "history": [{"t": 0.0, "description": "turned on the light"}],
                "external": ["It is 7:05 PM now."],
                "truth": "light.power",
            },
            {
                "scenario_id": "video_1",
                "stream": "video.stream.json",
                "interface": "Video Streaming",
                "functions": video_fns,
                "gaze": [{"t": 0.9, "x": 0.05, "y": 0.9}],
                "history": [{"t": 0.0, "description": "entered fullscreen"}],
                "external": ["The user's phone is ringing."],
                "truth": "1",
            },
        ]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    # One reply sequence serves both tasks: the conclusion mixes ids from
    # both function lists, and per-task validation drops the foreign one.
    replies = [
        pose_reply("open palm, possibly a stop or pause gesture", (0, 2)),
        movement_reply("The hand stays essentially still."),
        question_reply("where is the user looking?"),
        context_reply("the user looks at {{CALC:gaze_target}}"),
        conclusion_reply(["light.power", "1", "oven.power", "15"]),
    ]
    (tmp_path / "fixtures.json").write_text(json.dumps(seq_fixtures(*replies)))


def test_criterion_5_deterministic_end_to_end_replay(tmp_path):
    _write_smoke_dataset(tmp_path)
    library = smart_home_library(gaze=[{"t": 0.9, "x": 0.2, "y": 0.4, "z": 1.5}])
    (tmp_path / "library.json").write_text(library.to_json())

    started = time.perf_counter()
    artifacts = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        assert main([
            "encode", str(tmp_path / "home.stream.json"), "--out-dir", str(out / "enc"),
        ]) == 0
        assert main([
            "ground", str(out / "enc" / "home.stream_w00.matrix.json"),
            "--library", str(tmp_path / "library.json"),
            "--backend", f"scripted:{tmp_path / 'fixtures.json'}",
            "--out-dir", str(out / "ground"),
        ]) == 0
        assert main([
            "eval", str(tmp_path / "manifest.json"),
            "--backend", f"scripted:{tmp_path / 'fixtures.json'}",
            "--repetitions", "3", "--out-dir", str(out / "eval"),
        ]) == 0
        artifacts.append((
            (out / "enc" / "home.stream_w00.matrix.json").read_bytes(),
            (out / "enc" / "home.stream_w00.matrix.txt").read_bytes(),
            (out / "ground" / "transcript.jsonl").read_bytes(),
            (out / "ground" / "conclusion.json").read_bytes(),
            (out / "eval" / "report.json").read_bytes(),
            (out / "eval" / "report.csv").read_bytes(),
        ))
    elapsed = time.perf_counter() - started
    assert artifacts[0] == artifacts[1] == artifacts[2]
    assert elapsed < 60.0, f"three full replays took {elapsed:.2f} s"

    # Both scenarios ground to rank 1, in every setting, with zero std.
    report = json.loads(artifacts[0][4])
    for setting in ("baseline", "only_gaze", "only_history_external", "all"):
        metrics = report["settings"][setting]["metrics"]
        assert metrics["top1"]["mean"] == 1.0
        assert metrics["top1"]["std"] == 0.0


# =============================================================================
# Criterion 6: protocol conformance over 20 adversarial scripted fixtures,
# with the documented exit codes (0 ok, 3 negative, 4 transport).
# =============================================================================

GOOD_TAIL = [
    question_reply("what is the user looking at?"),
    context_reply("the {{CALC:gaze_target}}"),
    conclusion_reply(["light.power"]),
]

FENCED_POSE = "```json\n" + pose_reply("fist", (0, 0)) + "\n```"
PROSE_POSE = "Here is my analysis:\n" + pose_reply("fist", (0, 0))
FENCED_CONCLUSION = "```json\n" + conclusion_reply(["light.power"]) + "\n```"

ADVERSARIAL_CASES = [
    # (name, fixtures, expected exit code, check)
    ("fenced_pose_json", [FENCED_POSE, movement_reply()] + GOOD_TAIL, 0, None),
    ("prose_prefixed_pose", [PROSE_POSE, movement_reply()] + GOOD_TAIL, 0, None),
    ("fenced_conclusion", [pose_reply(), movement_reply(), FENCED_CONCLUSION], 0, None),
    (
        "missing_thought_repaired",
        [pose_reply(), movement_reply(), '{"question": "gaze?"}',
         question_reply("gaze?"), context_reply("light"), conclusion_reply(["light.power"])],
        0,
        None,
    ),
    (
        "missing_thought_twice",
        [pose_reply(), movement_reply(), '{"question": "gaze?"}', '{"question": "gaze?"}'],
        3,
        None,
    ),
    (
        "duplicate_ids_deduped",
        [pose_reply(), movement_reply(),
         conclusion_reply(["light.power", "light.power", "oven.power"])],
        0,
        lambda out: json.loads((out / "conclusion.json").read_text())["ranked_functions"]
        == ["light.power", "oven.power"],
    ),
    (
        "unknown_ids_dropped",
        [pose_reply(), movement_reply(),
         conclusion_reply(["ghost.a", "light.power", "ghost.b"])],
        0,
        lambda out: json.loads((out / "conclusion.json").read_text())["ranked_functions"]
        == ["light.power"],
    ),
    (
        "all_unknown_ids_negative",
        [pose_reply(), movement_reply(), conclusion_reply(["ghost.a", "ghost.b"])],
        3,
        None,
    ),
    (
        "never_concluding_negative",
        [pose_reply(), movement_reply(),
         question_reply("q1?"), context_reply("a1"),
         question_reply("q2?"), context_reply("a2"),
         question_reply("q3?"),  # round cap hit here (max_rounds=3)
         question_reply("still asking")],  # forced turn also refuses
        3,
        None,
    ),
    (
        "concludes_on_forced_turn",
        [pose_reply(), movement_reply(),
         question_reply("q1?"), context_reply("a1"),
         question_reply("q2?"), context_reply("a2"),
         question_reply("q3?"),
         conclusion_reply(["light.power"])],  # reply to the forced instruction
        0,
        None,
    ),
    (
        "malformed_context_raw_fallback",
        [pose_reply(), movement_reply(), question_reply("gaze?"),
         "the light, I think", "really not json", conclusion_reply(["light.power"])],
        0,
        None,
    ),
    (
        "empty_question_repaired",
        [pose_reply(), movement_reply(), '{"thought": "t", "question": ""}',
         conclusion_reply(["light.power"])],
        0,
        None,
    ),
    (
        "conclusion_not_a_list_repaired",
        [pose_reply(), movement_reply(), '{"thought": "t", "conclusion": "light.power"}',
         conclusion_reply(["light.power"])],
        0,
        None,
    ),
    (
        "pose_span_clamped",
        [pose_reply("fist", (3, 99)), movement_reply()] + GOOD_TAIL,
        0,
        None,
    ),
    (
        "pose_span_reversed_repaired",
        [pose_reply("fist", (2, 0)), pose_reply("fist", (0, 2)), movement_reply()] + GOOD_TAIL,
        0,
        None,
    ),
    ("pose_malformed_twice", ["junk", "junk"], 3, None),
    (
        "movement_malformed_twice",
        [pose_reply(), "junk", "junk"],
        3,
        None,
    ),
    (
        "fixtures_exhausted_mid_session",
        [pose_reply(), movement_reply(), question_reply("gaze?")],
        4,
        None,
    ),
    (
        "conclusion_truncated_to_five",
        [pose_reply(), movement_reply(),
         conclusion_reply([
             "light.power", "light.brightness_control", "light.mode_switch",
             "oven.power", "oven.temperature_control", "air_cleaner.power",
             "smart_screen.power",
         ])],
        0,
        lambda out: len(json.loads((out / "conclusion.json").read_text())["ranked_functions"]) == 5,
    ),
    (
        "unknown_placeholder_resolved_to_note",
        [pose_reply(), movement_reply(), question_reply("battery?"),
         context_reply("it is {{CALC:battery_level}}"), conclusion_reply(["light.power"])],
        0,
        lambda out: all(
            "{{CALC" not in rec["parsed"].get("delivered", "")
            and "unavailable" in rec["parsed"]["delivered"]
            for rec in map(json.loads, (out / "transcript.jsonl").read_text().splitlines())
            if rec["role"] == "context"
        ),
    ),
]


@pytest.mark.parametrize("name,fixtures,expected,check", ADVERSARIAL_CASES,
                         ids=[c[0] for c in ADVERSARIAL_CASES])
def test_criterion_6_protocol_conformance(name, fixtures, expected, check, tmp_path, flat_hand):
    from gesturelink.encoder import build_state_matrix, matrix_to_json

    assert len(ADVERSARIAL_CASES) == 20
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(
        matrix_to_json(build_state_matrix([flat_hand, flat_hand, flat_hand], TH))
    )
    library_path = tmp_path / "lib.json"
    library_path.write_text(
        smart_home_library(gaze=[{"t": 0.0, "x": 0.2, "y": 0.4, "z": 1.5}]).to_json()
    )
    fixtures_path = tmp_path / "fx.json"
    fixtures_path.write_text(json.dumps(seq_fixtures(*fixtures)))
    out = tmp_path / "out"
    code = main([
        "ground", str(matrix_path), "--library", str(library_path),
        "--backend", f"scripted:{fixtures_path}", "--out-dir", str(out),
        "--max-rounds", "3",
    ])
    assert code == expected, f"case {name}: exit {code}, expected {expected}"
    if check is not None:
        assert check(out), f"case {name}: artifact check failed"


# =============================================================================
# Criterion 7: full-study grounding accuracies require live GPT-4-class
# completions and the original participant recordings; they are replaced by
# criteria 1-6. If landmark dumps are supplied, the shipped thresholds must
# keep the overall rule error rate at or below 5% (non-gating).
# =============================================================================

@pytest.mark.skipif(
    not os.environ.get("GESTURELINK_HAGRID_DIR"),
    reason=(
        "non-gating: full-study grounding accuracies depend on live LLM "
        "completions and participant recordings; set GESTURELINK_HAGRID_DIR to "
        "a directory with labels.jsonl landmark dumps to run the rule-error check"
    ),
)
def test_criterion_7_landmark_dump_rule_error():
    from pathlib import Path

    from gesturelink.landmarks import parse_landmark_stream
    from gesturelink.rules import three_way_verdict, threshold_verdict
    from gesturelink.tuning import TUNABLE_RULES

    labels_path = Path(os.environ["GESTURELINK_HAGRID_DIR"]) / "labels.jsonl"
    assessments = []
    for line in labels_path.read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        rule_id = entry["rule"]
        space = TUNABLE_RULES[rule_id].space
        if rule_id == "palm_orientation":
            from gesturelink.rules import PalmOrientation

            states = frozenset(PalmOrientation(s) for s in entry["acceptable_states"])
        else:
            states = frozenset(int(s) for s in entry["acceptable_states"])
        label = GroundTruthLabel(acceptable_states=states)
        if label.is_ambiguous:
            continue
        doc = {"handedness": "right", "frames": [entry["frame"]]}
        frame = parse_landmark_stream(json.dumps(doc)).frames[0]
        measurement, candidate = rule_measurement(frame, rule_id, entry.get("target"))
        if rule_id in ("flexion_thumb", "flexion_finger"):
            pred = three_way_verdict(measurement, *(
                TH.flexion_thumb if rule_id == "flexion_thumb" else TH.flexion_finger
            ))
        elif rule_id == "proximity":
            pred = three_way_verdict(measurement, *TH.proximity)
        elif rule_id == "contact":
            pred = three_way_verdict(measurement, *TH.contact)
        elif rule_id == "thumb_direction":
            pred = threshold_verdict(measurement, candidate, TH.thumb_dir_angle_threshold, 0)
        else:
            pred = threshold_verdict(
                measurement, candidate, TH.palm_angle_threshold, space.unsure
            )
        assessments.append(assess(pred, label, space))
    error_rate = sum(a == Assessment.ERROR for a in assessments) / len(assessments)
    assert error_rate <= 0.05, f"rule error rate {error_rate:.3f} exceeds 5%"


# =============================================================================
# Criterion 8: cost accounting with the scripted backend: rounds equal the
# fixture's question count + 1, and token sums equal per-turn sums exactly.
# =============================================================================

@pytest.mark.parametrize("questions", [0, 1, 3, 6])
def test_criterion_8_cost_accounting(questions):
    replies = []
    for i in range(questions):
        replies.append(question_reply(f"question {i}?"))
        replies.append(context_reply(f"answer {i}"))
    replies.append(conclusion_reply(["light.power"]))
    backend = ScriptedBackend(seq_fixtures(*replies))
    lib = smart_home_library(gaze=[{"t": 0.0, "x": 0.2, "y": 0.4, "z": 1.5}])
    conclusion, transcript = run_inference_session("- open palm", lib, PROMPTS, backend)
    assert conclusion is not None
    assert transcript.rounds == questions + 1
    per_turn_in = sum(t.usage.input_tokens for t in transcript.turns if t.usage)
    per_turn_out = sum(t.usage.output_tokens for t in transcript.turns if t.usage)
    assert transcript.total_input_tokens == per_turn_in
    assert transcript.total_output_tokens == per_turn_out
    # The scripted approximation is ceil(chars / 4) per message.
    expected_out = sum(math.ceil(len(r) / 4) for r in replies)
    assert per_turn_out == expected_out
