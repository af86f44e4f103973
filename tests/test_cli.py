import json
import logging
import math
import random

import numpy as np
import pytest

from conftest import (
    FLAT_HAND_POINTS,
    conclusion_reply,
    context_reply,
    flat_width_stream_json,
    frame_readings,
    hand_at,
    index_curl_points,
    movement_reply,
    parse_frame,
    pose_reply,
    python_calls,
    question_reply,
    random_points,
    seq_fixtures,
    smart_home_functions,
    smart_home_library,
    stream_json,
)
import gesturelink.cli
from gesturelink import errors
from gesturelink.cli import main
from gesturelink.encoder import matrix_to_json
from gesturelink.landmarks import Handedness, parse_landmark_stream
from gesturelink.rules import RuleThresholds
from gesturelink.tuning import TUNABLE_RULES, MeasuredSample, parse_label, rule_measurement


def write_stream(path, profile, handedness="right", dt=0.1):
    frames = [(round(dt * i, 6), hand_at(y)) for i, y in enumerate(profile)]
    path.write_bytes(stream_json(frames, handedness=handedness))


def write_grounding_fixtures(path, replies):
    path.write_text(json.dumps(seq_fixtures(*replies)))


GROUND_REPLIES = [
    pose_reply("open palm", (0, 2)),
    movement_reply("The hand stays essentially still."),
    question_reply("what is the user looking at?"),
    context_reply("the {{CALC:gaze_target}}"),
    conclusion_reply(["light.power", "oven.power"]),
]


@pytest.fixture
def matrix_file(tmp_path, flat_hand):
    from gesturelink.encoder import build_state_matrix

    path = tmp_path / "gesture.matrix.json"
    matrix = build_state_matrix([flat_hand], RuleThresholds())
    path.write_text(matrix_to_json(matrix))
    return path


@pytest.fixture
def library_file(tmp_path):
    lib = smart_home_library(
        gaze=[{"t": 1.0, "x": 0.2, "y": 0.4, "z": 1.5}],
        history=[{"t": 0.0, "description": "turned on the light"}],
        external=["It is 7:05 PM now."],
    )
    path = tmp_path / "library.json"
    path.write_text(lib.to_json())
    return path


# --- help ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["encode", "--help"],
        ["tune", "--help"],
        ["ground", "--help"],
        ["eval", "--help"],
        ["context", "--help"],
        ["context", "add", "--help"],
        ["context", "show", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# --- encode ---------------------------------------------------------------------

def test_encode_single_raise(tmp_path, capsys):
    stream = tmp_path / "s.json"
    write_stream(stream, [0.8] * 5 + [0.4] * 11 + [0.8] * 10)
    code = main(["encode", str(stream), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "1 windows" in capsys.readouterr().out
    assert (tmp_path / "out" / "s_w00.matrix.json").exists()
    assert (tmp_path / "out" / "s_w00.matrix.txt").exists()


def test_encode_left_hand_exits_2(tmp_path, capsys):
    stream = tmp_path / "s.json"
    write_stream(stream, [0.4] * 10, handedness="left")
    code = main(["encode", str(stream), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"error: {stream}: encoder handles right-hand streams only" in capsys.readouterr().err


def test_encode_empty_stream_exits_2_naming_the_file(tmp_path, capsys):
    stream = tmp_path / "s.json"
    stream.write_text('{"frames": []}')
    assert main(["encode", str(stream), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: {stream}: cannot segment an empty stream" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_encode_no_raise_exits_0_with_zero_windows(tmp_path, capsys):
    stream = tmp_path / "s.json"
    write_stream(stream, [0.9] * 10)
    code = main(["encode", str(stream), "--out-dir", str(tmp_path)])
    assert code == 0
    assert "0 windows" in capsys.readouterr().out


def test_encode_bad_stream_exits_2(tmp_path, capsys):
    stream = tmp_path / "s.json"
    stream.write_text("{broken")
    assert main(["encode", str(stream), "--out-dir", str(tmp_path)]) == 2


def test_encode_stream_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys):
    stream = tmp_path / "s.json"
    stream.write_text("{not json")
    assert main(["encode", str(stream), "--out-dir", str(tmp_path)]) == 2
    assert f"error: {stream}: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--chest-line", "--end-hold"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_encode_non_finite_segmentation_setting_exits_2(tmp_path, capsys, option, value):
    stream = tmp_path / "s.json"
    write_stream(stream, [0.8] * 5 + [0.4] * 11 + [0.8] * 10)
    out_dir = tmp_path / "out"
    assert main(["encode", str(stream), "--out-dir", str(out_dir), option, value]) == 2
    assert f"{option[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_encode_stream_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    stream = tmp_path / "s.json"
    stream.write_bytes(b'{"frames": []}\xff')
    assert main(["encode", str(stream), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: {stream}: not valid JSON: 'utf-8' codec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '"flexion_thumb"',
        '{"palm_angle_threshold": null}',
        '{"flexion_thumb": ["a", 2]}',
        '{"flexion_thum": [16, 38]}',
        '{"distance_mode": "xyz"}',
        '{"palm_angle_threshold": NaN}',
        *(pytest.param('{"palm_angle_threshold": 40}'.encode(encoding), id=encoding)
          for encoding in ("utf-16", "utf-32", "utf-8-sig")),
    ],
)
def test_encode_malformed_thresholds_exits_2_naming_the_file(tmp_path, capsys, text):
    stream = tmp_path / "s.json"
    write_stream(stream, [0.8] * 5 + [0.4] * 11 + [0.8] * 10)
    th = tmp_path / "th.json"
    th.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(["encode", str(stream), "--thresholds", str(th), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"error: {th}: " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.matrix.json"))


# --- tune -----------------------------------------------------------------------

def tuning_line(theta, states):
    points = index_curl_points(theta)
    return json.dumps(
        {
            "rule": "flexion_finger",
            "target": "index",
            "acceptable_states": states,
            "frame": {"t": 0.0, "lm": [list(p) for p in points]},
        }
    )


def test_tune_recovers_planted_thresholds(tmp_path, capsys):
    # Straight curls end at 29.9, bent start at 35.1: the unique zero-loss
    # cell on a step-5 grid is (30, 35).
    lines = [tuning_line(t, [1]) for t in (5, 12, 20, 29.9)]
    lines += [tuning_line(t, [-1]) for t in (35.1, 60, 90, 120)]
    lines.append(tuning_line(33, [1, -1]))  # ambiguous, must be filtered
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"flexion_finger": {"low": [0, 90, 5], "high": [5, 180, 5]}}))
    out = tmp_path / "tuned.json"
    rep = tmp_path / "report.json"
    code = main([
        "tune", str(dataset), "--grid", str(grid), "--out", str(out), "--report", str(rep),
    ])
    assert code == 0
    tuned = json.loads(out.read_text())
    assert tuned["flexion_finger"] == [30.0, 35.0]
    report = json.loads(rep.read_text())
    entry = report["flexion_finger"]
    assert entry["loss"] == 0.0
    assert set(entry["rates"]) == {"error", "unsure", "correct"}
    assert entry["rates"]["correct"] == 1.0
    assert entry["samples"] == 8  # ambiguous line excluded
    err = capsys.readouterr().err
    assert "filtered 1 ambiguous" in err


def test_tune_integer_grid_writes_integers(tmp_path, capsys):
    # Default flexion grid (1..180 step 1): the first zero-loss cell is (53, 54).
    lines = [tuning_line(t, [1]) for t in (10, 30, 52.5)]
    lines += [tuning_line(t, [-1]) for t in (55.5, 90, 140)]
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "tuned.json"
    rep = tmp_path / "report.json"
    assert main(["tune", str(dataset), "--out", str(out), "--report", str(rep)]) == 0
    tuned = json.loads(out.read_text())
    assert tuned["flexion_finger"] == [53, 54]
    assert all(type(v) is int for v in tuned["flexion_finger"])
    assert "53.0" not in out.read_text() and "53.0" not in rep.read_text()
    assert "flexion_finger: params=[53, 54] loss=0.0000" in capsys.readouterr().out


def test_tune_all_ambiguous_exits_2(tmp_path):
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text(tuning_line(20, [1, -1]) + "\n")
    assert main(["tune", str(dataset), "--out", str(tmp_path / "o.json"),
                 "--report", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("index", [5, -1, "x"])
def test_tune_bad_frame_index_exits_2(tmp_path, capsys, index):
    write_stream(tmp_path / "two.json", [0.8, 0.8])
    entry = {"rule": "flexion_finger", "target": "index", "acceptable_states": [1],
             "stream": "two.json", "frame_index": index}
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text(json.dumps(entry) + "\n")
    assert main(["tune", str(dataset), "--out", str(tmp_path / "o.json"),
                 "--report", str(tmp_path / "r.json")]) == 2
    assert f"{dataset}:1: frame_index" in capsys.readouterr().err


def test_tune_stream_frame_index_selects_frame(tmp_path):
    write_stream(tmp_path / "two.json", [0.8, 0.8])
    lines = [json.dumps({"rule": "flexion_finger", "target": "index", "acceptable_states": [1],
                         "stream": "two.json", "frame_index": i}) for i in (0, 1)]
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    rep = tmp_path / "r.json"
    assert main(["tune", str(dataset), "--out", str(tmp_path / "o.json"),
                 "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["flexion_finger"]["samples"] == 2


def run_tune(tmp_path, lines, *extra):
    dataset = tmp_path / "labels.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    out, rep = tmp_path / "o.json", tmp_path / "r.json"
    code = main(["tune", str(dataset), "--out", str(out), "--report", str(rep), *extra])
    return code, dataset, out, rep


@pytest.mark.parametrize(
    "rule_id, target", [("proximity", "bogus"), ("proximity", None), ("contact", "thumb")]
)
def test_tune_unknown_target_exits_2_with_location(tmp_path, capsys, rule_id, target):
    entry = {"rule": rule_id, "target": target, "acceptable_states": [1],
             "frame": {"t": 0.0, "lm": [list(p) for p in index_curl_points(0)]}}
    code, dataset, out, _ = run_tune(tmp_path, [json.dumps(entry)])
    assert code == 2
    assert f"{dataset}:1: {rule_id} needs a target" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["[1]", '{"rule": "flexion_finger", "acceptable_states": 5, "frame": {}}']
)
def test_tune_line_of_wrong_shape_exits_2_with_location(tmp_path, capsys, line):
    code, dataset, _, _ = run_tune(tmp_path, [line])
    assert code == 2
    assert f"{dataset}:1: bad dataset line" in capsys.readouterr().err


def test_tune_bad_inline_frame_exits_2_with_location(tmp_path, capsys):
    entry = json.loads(tuning_line(10, [1]))
    entry["frame"]["lm"] = entry["frame"]["lm"][:20]
    code, dataset, _, _ = run_tune(tmp_path, [json.dumps(entry)])
    assert code == 2
    assert f"{dataset}:1: frame at t=0.0 has 20 landmarks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid_text",
    [
        "{not json",
        json.dumps({"flexion_finger": {"high": [5, 180, 5]}}),
        json.dumps({"flexion_finger": {"threshold": [5, 180, 5]}}),
        json.dumps({"flexion_finger": {"low": [0, 90], "high": [5, 180, 5]}}),
        json.dumps({"flexion_finger": {"low": ["0", 90, 5], "high": [5, 180, 5]}}),
        json.dumps({"flexion_finger": {"low": [0, 90, 0], "high": [5, 180, 5]}}),
        '{"flexion_finger": {"low": [0, NaN, 5], "high": [5, 180, 5]}}',
        json.dumps({"thumb_direction": {"threshold": 40}}),
        json.dumps(["flexion_finger"]),
        pytest.param(
            json.dumps({"flexion_finger": {"low": [0, 10 ** 400, 5], "high": [5, 180, 5]}}),
            id="integer_beyond_any_float",
        ),
        pytest.param(
            json.dumps({"flexion_finger": {"low": [0, 1e308, 1e-308], "high": [5, 180, 5]}}),
            id="infinite_value_count",
        ),
        pytest.param(
            json.dumps({"flexion_finger": {"low": [0.001, 0.2, 1e-12], "high": [5, 180, 5]}}),
            id="huge_value_count",
        ),
        pytest.param(
            json.dumps({"flexion_finger": {"low": [-10 ** 308, 10 ** 308, 1], "high": [5, 180, 5]}}),
            id="integer_span_beyond_any_float",
        ),
        pytest.param(
            json.dumps({"flexion_finger": {"low": [0, 180, 0.02], "high": [0, 180, 0.02]}}),
            id="too_many_pairs",
        ),
        pytest.param(json.dumps({"no_such_rule": 5}), id="unknown_rule"),
        pytest.param(json.dumps({"flexion_thumb": {"low": "nonsense"}}), id="unlabelled_rule"),
        *(pytest.param("{}".encode(encoding), id=encoding) for encoding in ("utf-16", "utf-8-sig")),
    ],
)
def test_tune_bad_grid_exits_2_naming_the_file(tmp_path, capsys, grid_text):
    grid = tmp_path / "grid.json"
    grid.write_bytes(grid_text if isinstance(grid_text, bytes) else grid_text.encode())
    lines = [tuning_line(10, [1]), tuning_line(90, [-1])]
    lines.append(json.dumps({"rule": "thumb_direction", "acceptable_states": [1],
                             "frame": json.loads(lines[0])["frame"]}))
    code, _, out, rep = run_tune(tmp_path, lines, "--grid", str(grid))
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {grid}: " in err
    named = [key for key in ("no_such_rule", "flexion_thumb") if key in str(grid_text)]
    assert all(key in err for key in named)
    assert not out.exists() and not rep.exists()


def test_tune_default_grid_writes_thresholds_encode_accepts(tmp_path):
    # A straight index finger curls 0 degrees; the default grid starts at 1.
    code, _, out, _ = run_tune(tmp_path, [tuning_line(0, [1])])
    assert code == 0
    assert json.loads(out.read_text())["flexion_finger"] == [1, 2]
    stream = tmp_path / "s.json"
    write_stream(stream, [0.8] * 5)
    assert main(["encode", str(stream), "--thresholds", str(out),
                 "--out-dir", str(tmp_path)]) == 0


def test_tune_invalid_optimum_exits_2_before_writing(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"flexion_finger": {"low": [0, 10, 5], "high": [5, 180, 5]}}))
    code, _, out, rep = run_tune(tmp_path, [tuning_line(0, [1])], "--grid", str(grid))
    assert code == 2
    assert "flexion_finger thresholds must satisfy 0 < low < high" in capsys.readouterr().err
    assert not out.exists() and not rep.exists()


def test_tune_degenerate_frame_label_scores_unsure(tmp_path, capsys):
    # Index MCP on its PIP: a zero-length bone, which encode reads as unsure.
    degenerate = json.loads(tuning_line(10, [1]))
    degenerate["frame"]["lm"][5] = degenerate["frame"]["lm"][6]
    code, _, _, rep = run_tune(tmp_path, [tuning_line(10, [1]), json.dumps(degenerate)])
    assert code == 0
    entry = json.loads(rep.read_text())["flexion_finger"]
    assert entry["rates"] == {"error": 0.0, "unsure": 0.5, "correct": 0.5}
    assert entry["loss"] == pytest.approx(0.1)


def test_tune_2d_inward_palm_label_scores_unsure(tmp_path):
    # Without depth the palm normal lies on the z axis: encode reports unknown.
    frame = {"t": 0.0, "lm": [[x, y] for x, y, _ in FLAT_HAND_POINTS]}
    entry = {"rule": "palm_orientation", "acceptable_states": ["inward"], "frame": frame}
    code, _, _, rep = run_tune(tmp_path, [json.dumps(entry)])
    assert code == 0
    entry = json.loads(rep.read_text())["palm_orientation"]
    assert entry["rates"] == {"error": 0.0, "unsure": 1.0, "correct": 0.0}
    assert entry["loss"] == pytest.approx(0.2)


def test_tune_stream_that_is_not_a_file_name_exits_2_with_location(tmp_path, capsys):
    entry = {"rule": "flexion_finger", "target": "index", "acceptable_states": [1], "stream": 5}
    code, dataset, out, _ = run_tune(tmp_path, [json.dumps(entry)])
    assert code == 2
    assert f"{dataset}:1: stream must be a file name" in capsys.readouterr().err
    assert not out.exists()


def test_tune_missing_stream_file_exits_2_with_location(tmp_path, capsys):
    entry = {"rule": "flexion_finger", "target": "index", "acceptable_states": [1],
             "stream": "missing.json"}
    code, dataset, out, _ = run_tune(tmp_path, [tuning_line(10, [1]), json.dumps(entry)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{dataset}:2: " in err and "missing.json" in err
    assert not out.exists()


def test_tune_stream_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "bad.json").write_bytes(b'{"frames": []}\xff')
    entry = {"rule": "flexion_finger", "target": "index", "acceptable_states": [1],
             "stream": "bad.json"}
    code, dataset, out, _ = run_tune(tmp_path, [tuning_line(10, [1]), json.dumps(entry)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {dataset}:2: {tmp_path / 'bad.json'}: not valid JSON: 'utf-8' codec" in err
    assert not out.exists()


def test_tune_dataset_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    dataset = tmp_path / "labels.jsonl"
    dataset.write_bytes(tuning_line(10, [1]).encode() + b"\n\xff\n")
    out = tmp_path / "o.json"
    assert main(["tune", str(dataset), "--out", str(out), "--report", str(tmp_path / "r.json")]) == 2
    assert f"error: {dataset}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rule_id", ["flexion_thumb", "thumb_direction", "palm_orientation"])
def test_tune_target_on_a_rule_without_targets_exits_2_with_location(tmp_path, capsys, rule_id):
    entry = {"rule": rule_id, "target": "bogus", "acceptable_states": [1],
             "frame": {"t": 0.0, "lm": [list(p) for p in FLAT_HAND_POINTS]}}
    if rule_id == "palm_orientation":
        entry["acceptable_states"] = ["up"]
    code, dataset, out, _ = run_tune(tmp_path, [json.dumps(entry)])
    assert code == 2
    assert f"{dataset}:1: {rule_id} takes no target, got 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rule_id, states", [("flexion_finger", [5]), ("thumb_direction", [1, -2])]
)
def test_tune_label_state_outside_the_rule_exits_2_with_location(
    tmp_path, capsys, rule_id, states
):
    entry = json.loads(tuning_line(10, states))
    entry["rule"] = rule_id
    lines = [tuning_line(10, [1]), json.dumps(entry)]
    code, dataset, out, _ = run_tune(tmp_path, lines)
    assert code == 2
    assert f"{dataset}:2: {rule_id} label states outside" in capsys.readouterr().err
    assert not out.exists()


def test_tune_line_nested_too_deep_exits_2_with_location(tmp_path, capsys):
    code, dataset, out, _ = run_tune(tmp_path, [tuning_line(10, [1]), "[" * 100_000 + "]" * 100_000])
    assert code == 2
    assert f"{dataset}:2: bad dataset line: maximum recursion depth" in capsys.readouterr().err
    assert not out.exists()


def _tune_calls(tmp_path, labels):
    """Python calls of a tune command on labels index-curl labels, straight
    below 30 degrees and bent from 35, with a small fixed grid."""
    thetas = [(k * 37) % 120 + 0.5 for k in range(labels)]
    lines = [tuning_line(t, [1] if t < 30 else [-1]) for t in thetas if not 30 <= t < 35]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"flexion_finger": {"low": [0, 90, 15], "high": [15, 180, 15]}}),
                    encoding="utf-8")
    calls, (code, *_) = python_calls(run_tune, tmp_path, lines, "--grid", str(grid))
    assert code == 0
    return calls


def test_tune_python_work_grows_linearly_in_labels(tmp_path):
    """Doubling the labels at most about doubles the Python calls of the
    tune command (load, readings, grid search, report), counted by
    cProfile, so the bound does not depend on the host's speed."""
    (tmp_path / "n").mkdir()
    (tmp_path / "2n").mkdir()
    assert _tune_calls(tmp_path / "2n", 2000) / _tune_calls(tmp_path / "n", 1000) <= 2.2


# Each rule's reading of one frame, read as encode reads it, from the
# encoder's readings of that frame alone (conftest.frame_readings).
_PER_FRAME_READ = {
    "flexion_thumb": lambda r, target: (r.curl["thumb"], None),
    "flexion_finger": lambda r, target: (r.curl[target], None),
    "proximity": lambda r, target: (r.proximity[target], None),
    "contact": lambda r, target: (r.contact[target], None),
    "thumb_direction": lambda r, target: r.thumb,
    "palm_orientation": lambda r, target: r.palm,
}


def per_label_dataset(path):
    """The dataset read one label, one frame and one reading at a time: the
    reference for the batched loader. rule_measurement agrees with it."""
    per_rule = {}
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        rule_id, target = entry["rule"], entry.get("target")
        label = parse_label(rule_id, entry["acceptable_states"])
        if label.is_ambiguous:
            continue
        if "frame" in entry:
            frame = parse_frame(entry["frame"], Handedness.RIGHT)
        else:
            stream = parse_landmark_stream((path.parent / entry["stream"]).read_bytes())
            frame = stream[entry["frame_index"]]
        measurement, state = _PER_FRAME_READ[rule_id](frame_readings(frame), target)
        batched, batched_state = rule_measurement(frame, rule_id, target)
        assert (np.float64(batched).tobytes(), batched_state) == (
            np.float64(measurement).tobytes(), state)
        per_rule.setdefault(rule_id, []).append(MeasuredSample(measurement, label, state))
    return per_rule


def mixed_tuning_lines(tmp_path):
    """Labels of every rule and target, each on inline 3-D and 2-D frames,
    degenerate frames and frames of a left-hand stream, shuffled."""
    rng = random.Random(11)
    hands = [FLAT_HAND_POINTS, index_curl_points(40), index_curl_points(100)]
    hands += [random_points(rng, z_range=(-0.1, 0.1)) for _ in range(4)]
    hands = [[list(p) for p in points] for points in hands]
    degenerate = []
    for joint, onto in ((6, 5), (10, 9), (14, 13), (18, 17), (3, 2), (4, 2), (5, 17), (0, 9)):
        points = [list(p) for p in hands[0]]
        points[joint] = list(points[onto])  # a zero-length bone, thumb or palm axis
        degenerate.append(points)
    stream = [(0.1 * i, [tuple(p) for p in points]) for i, points in enumerate(hands + degenerate)]
    (tmp_path / "left.json").write_bytes(stream_json(stream, handedness="left"))
    frames = [{"frame": {"t": 0.0, "lm": points}} for points in hands + degenerate]
    frames += [{"frame": {"t": 0.0, "lm": [p[:2] for p in points]}} for points in hands]
    frames += [{"stream": "left.json", "frame_index": i} for i in range(len(stream))]
    lines = []
    for rule_id, rule in sorted(TUNABLE_RULES.items()):
        states = sorted(s.value if rule_id == "palm_orientation" else s for s in rule.space.states)
        for target in rule.targets or (None,):
            for source in frames:
                entry = {"rule": rule_id, "target": target, **source,
                         "acceptable_states": rng.sample(states, rng.choice((1, 1, 1, 2)))}
                lines.append(json.dumps(entry))
    rng.shuffle(lines)
    return lines


def test_tune_batched_reading_writes_what_a_per_label_reading_writes(
    tmp_path, capsys, monkeypatch
):
    lines = mixed_tuning_lines(tmp_path)
    code, dataset, out, rep = run_tune(tmp_path, lines)
    assert code == 0
    written = out.read_bytes(), rep.read_bytes(), capsys.readouterr().out
    reference = per_label_dataset(dataset)
    assert sorted(reference) == sorted(TUNABLE_RULES)
    for rule_id in ("flexion_thumb", "flexion_finger", "thumb_direction", "palm_orientation"):
        assert any(math.isnan(s.measurement) for s in reference[rule_id]), rule_id
    monkeypatch.setattr(gesturelink.cli, "_load_tuning_dataset", per_label_dataset)
    out2, rep2 = tmp_path / "o2.json", tmp_path / "r2.json"
    assert main(["tune", str(dataset), "--out", str(out2), "--report", str(rep2)]) == 0
    assert (out2.read_bytes(), rep2.read_bytes(), capsys.readouterr().out) == written


def test_tune_warns_once_per_rule_naming_the_first_unread_line(tmp_path, caplog):
    degenerate = json.loads(tuning_line(10, [1]))
    degenerate["frame"]["lm"][5] = degenerate["frame"]["lm"][6]  # index MCP on its PIP
    lines = [tuning_line(10, [1]), json.dumps(degenerate), tuning_line(90, [-1]),
             json.dumps(degenerate)]
    with caplog.at_level(logging.WARNING, logger="gesturelink"):
        code, dataset, _, _ = run_tune(tmp_path, lines)
    assert code == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "flexion_finger: 2 labels have no reading (degenerate geometry, or an inward/outward "
        f"palm without depth), the first at {dataset}:2; they score unsure"
    ]


def _bad_frame_line(fault: str) -> str:
    entry = json.loads(tuning_line(10, [1]))
    if fault == "non-finite":
        entry["frame"]["lm"][3][0] = float("nan")
    elif fault == "out-of-range":
        entry["frame"]["lm"][3][1] = 2.0
    else:
        entry["frame"]["t"] = -1.0
    return json.dumps(entry)


_FRAME_ERRORS = {
    "non-finite": "non-finite landmark coordinate at t=0.0",
    "out-of-range": "landmark coordinate outside [-0.5, 1.5] at t=0.0",
    "negative-time": "bad frame timestamp: -1.0",
}
_LATER_LINE_FAULTS = {
    "bad-target": json.dumps({"rule": "proximity", "target": "bogus", "acceptable_states": [1],
                              "frame": {"t": 0.0, "lm": [list(p) for p in FLAT_HAND_POINTS]}}),
    "bad-json": "{not json",
    "bad-state": tuning_line(10, [7]),
    "missing-stream": json.dumps({"rule": "flexion_finger", "target": "index",
                                  "acceptable_states": [1], "stream": "missing.json"}),
    "bad-frame-shape": json.dumps({"rule": "flexion_thumb", "acceptable_states": [1],
                                   "frame": {"t": 0.0, "lm": [[0.5, 0.5]] * 20}}),
    **{f"bad-frame-{name}": json.dumps({"rule": "flexion_thumb", "acceptable_states": [1],
                                        "frame": frame})
       for name, frame in (("not-an-object", [0.0, FLAT_HAND_POINTS]),
                           ("missing-lm", {"t": 0.0}),
                           ("bad-timestamp", {"t": "x", "lm": FLAT_HAND_POINTS}),
                           ("bad-landmarks", {"t": 0.0, "lm": [["x", 0.5, 0.0]] * 21}),
                           ("rows-of-four", {"t": 0.0, "lm": [[0.5] * 4] * 21}))},
}


@pytest.mark.parametrize("later", sorted(_LATER_LINE_FAULTS))
@pytest.mark.parametrize("fault", sorted(_FRAME_ERRORS))
def test_tune_bad_frame_wins_over_a_later_bad_line(tmp_path, capsys, fault, later):
    lines = [tuning_line(20, [1]), _bad_frame_line(fault), _LATER_LINE_FAULTS[later]]
    code, dataset, out, _ = run_tune(tmp_path, lines[1:])
    assert code == 2
    assert f"error: {dataset}:1: {_FRAME_ERRORS[fault]}\n" in capsys.readouterr().err
    code, dataset, out, _ = run_tune(tmp_path, lines)
    assert code == 2
    assert f"error: {dataset}:2: {_FRAME_ERRORS[fault]}\n" in capsys.readouterr().err
    assert not out.exists()


def test_tune_bad_frame_wins_over_a_bad_target_on_its_own_line(tmp_path, capsys):
    entry = json.loads(_bad_frame_line("non-finite"))
    entry["target"] = "thumb"
    code, dataset, _, _ = run_tune(tmp_path, [tuning_line(20, [1]), json.dumps(entry)])
    assert code == 2
    assert f"error: {dataset}:2: {_FRAME_ERRORS['non-finite']}\n" in capsys.readouterr().err


def test_tune_bad_line_wins_over_a_later_bad_frame(tmp_path, capsys):
    lines = [_LATER_LINE_FAULTS["bad-target"], _bad_frame_line("non-finite")]
    code, dataset, _, _ = run_tune(tmp_path, lines)
    assert code == 2
    assert f"error: {dataset}:1: proximity needs a target" in capsys.readouterr().err


# --- ground ---------------------------------------------------------------------

def test_ground_produces_deterministic_transcript(tmp_path, matrix_file, library_file, capsys):
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    transcripts = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = main([
            "ground", str(matrix_file), "--library", str(library_file),
            "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir),
        ])
        assert code == 0
        transcripts.append((out_dir / "transcript.jsonl").read_bytes())
        conclusion = json.loads((out_dir / "conclusion.json").read_text())
        assert conclusion["ranked_functions"][0] == "light.power"
    assert transcripts[0] == transcripts[1]


def test_ground_missing_function_list_exits_2(tmp_path, matrix_file, capsys):
    lib = smart_home_library().filtered(["gaze", "history"])
    path = tmp_path / "partial.json"
    path.write_text(lib.to_json())
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    code = main([
        "ground", str(matrix_file), "--library", str(path),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "function_list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config", ["[]", '{"timeout": "x"}', '{"timeout": 0}', '{"provider_url": 5}']
)
def test_ground_malformed_backend_config_exits_2_naming_it(
    tmp_path, matrix_file, library_file, capsys, config
):
    path = tmp_path / "backend.json"
    path.write_text(config)
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", str(path), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert f"error: bad backend config {path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixtures",
    [
        '[{"match": "sequence"}]',
        '["a reply"]',
        '[{"response": 5}]',
        '[{"match": "hash", "key": "k", "response": "r"}]',
    ],
)
def test_ground_malformed_fixture_exits_2_naming_the_file(
    tmp_path, matrix_file, library_file, capsys, fixtures
):
    path = tmp_path / "fx.json"
    path.write_text(fixtures)
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{path}", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert f"error: bad fixture file {path}: fixture #0" in capsys.readouterr().err


def test_ground_zero_max_rounds_exits_2(tmp_path, matrix_file, library_file, capsys):
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir), "--max-rounds", "0",
    ])
    assert code == 2
    assert "max_rounds must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("field", ["description_md", "name"])
def test_ground_library_context_with_non_string_field_exits_2_naming_it(
    tmp_path, matrix_file, library_file, capsys, field
):
    doc = json.loads(library_file.read_text())
    doc["contexts"][1][field] = ["not", "text"]
    library_file.write_text(json.dumps(doc))
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert f"error: {library_file}: context " in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"channel1": [[7]] + [[0]] * 18},
        {"channel1": [[0.7]] + [[0]] * 18},
        {"hand_width": -1},
        {"interval": 0},
        {"channel1": [[]] * 19, "channel2": [[], []], "T": 0},
    ],
)
def test_ground_matrix_breaking_an_invariant_exits_2_naming_the_file(
    tmp_path, matrix_file, library_file, capsys, change
):
    doc = json.loads(matrix_file.read_text())
    doc.update(change)
    matrix_file.write_text(json.dumps(doc))
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir),
    ])
    assert code == 2
    assert f"error: {matrix_file}: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "values",
    [
        "x",
        [],
        {"interface": "Smart Home", "functions": "x"},
        {"functions": [{"id": "light.power"}]},
        {"functions": [{"id": "a", "name": "A"}, {"id": "a", "name": "B"}]},
    ],
)
def test_ground_malformed_function_list_exits_2_naming_the_library(
    tmp_path, matrix_file, library_file, capsys, values
):
    doc = json.loads(library_file.read_text())
    doc["contexts"][0]["values"] = values
    library_file.write_text(json.dumps(doc))
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir),
    ])
    assert code == 2
    assert f"error: {library_file}: " in capsys.readouterr().err
    assert not out_dir.exists()


def test_ground_negative_exits_3(tmp_path, matrix_file, library_file):
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(
        fixtures,
        [pose_reply(), movement_reply(), conclusion_reply(["ghost.fn"])],
    )
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir),
    ])
    assert code == 3
    assert json.loads((out_dir / "conclusion.json").read_text()) == {"result": "negative"}


def test_ground_transport_failure_exits_4(tmp_path, matrix_file, library_file):
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, [pose_reply(), movement_reply()])  # then exhausted
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 4



# Exact bytes of the partial transcript.jsonl written when the backend fails
# in the middle of a session (here: no fixture left for the context reply).
PARTIAL_TRANSCRIPT_JSONL = (
    '{"input_tokens": 647, "latency": 0.0, "output_tokens": 19, '
    '"parsed": {"candidate_gestures": "open palm facing the camera", "time_span": [0, 0]}, '
    '"raw": "{\\"candidate_gestures\\": \\"open palm facing the camera\\", \\"time_span\\": [0, 0]}", "role": "description_pose"}\n'
    '{"input_tokens": 348, "latency": 0.0, "output_tokens": 13, '
    '"parsed": {"movement": "The hand stays essentially still."}, '
    '"raw": "{\\"movement\\": \\"The hand stays essentially still.\\"}", "role": "description_movement"}\n'
    '{"input_tokens": 910, "latency": 0.0, "output_tokens": 12, '
    '"parsed": {"question": "gaze?", "thought": "need context"}, '
    '"raw": "{\\"thought\\": \\"need context\\", \\"question\\": \\"gaze?\\"}", "role": "inference"}\n'
)


def test_ground_transport_failure_writes_partial_transcript(tmp_path, matrix_file, library_file):
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, [pose_reply(), movement_reply(), question_reply("gaze?")])
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir),
    ])
    assert code == 4
    assert (out_dir / "transcript.jsonl").read_text() == PARTIAL_TRANSCRIPT_JSONL
    assert not (out_dir / "conclusion.json").exists()

# --- eval ------------------------------------------------------------------------

def write_manifest(tmp_path, truths=("light.power", "oven.power")):
    functions = [
        {"id": f.id, "name": f.name, "location": list(f.location)}
        for f in smart_home_functions()
    ]
    tasks = []
    for i, truth in enumerate(truths, start=1):
        stream = tmp_path / f"t{i}.stream.json"
        write_stream(stream, [0.8] * 3 + [0.4] * 8 + [0.8] * 8)
        tasks.append(
            {
                "scenario_id": f"t{i}",
                "stream": stream.name,
                "interface": "Smart Home",
                "functions": functions,
                "gaze": [{"t": 0.8, "x": 0.2, "y": 0.4, "z": 1.5}],
                "history": [{"t": 0.0, "description": "turned on the light"}],
                "external": ["It is 7:05 PM now."],
                "truth": truth,
            }
        )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tasks": tasks}))
    return manifest


def test_eval_smoke_runs_all_settings(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--repetitions", "1", "--out-dir", str(out_dir),
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["settings"]) == {"baseline", "only_gaze", "only_history_external", "all"}
    # Conclusion ranks light.power first for both tasks: t1 top1, t2 negative.
    assert report["settings"]["all"]["metrics"]["top1"]["mean"] == pytest.approx(0.5)
    assert "random_guess" in report
    assert (out_dir / "report.csv").exists()


_INFINITE_SPAN = '{"candidate_gestures": "wave", "time_span": [0, 1e400]}'
_LONG_NUMBER = 'x {"thought": "t", "conclusion": [' + "9" * 4400 + "]}"
# Scripts whose replies used to escape as a traceback, with the Top-1 mean
# eval then reports: the first two end Negative after one re-ask, and the
# placeholders are delivered as an unavailability note.
HOSTILE_SCRIPTS = {
    "infinite-span": ([_INFINITE_SPAN, _INFINITE_SPAN], 0.0),
    "too-many-digits": (GROUND_REPLIES[:2] + [_LONG_NUMBER, _LONG_NUMBER], 0.0),
    "placeholder-digits": (
        GROUND_REPLIES[:3]
        + [context_reply("the {{CALC:gaze_target:[" + "1" * 5000 + "]}}"), GROUND_REPLIES[4]],
        0.5,
    ),
    "placeholder-depth": (
        GROUND_REPLIES[:3]
        + [context_reply("the {{CALC:gaze_target:" + "[" * 20_000 + "}}"), GROUND_REPLIES[4]],
        0.5,
    ),
}


@pytest.mark.parametrize("script", HOSTILE_SCRIPTS)
def test_hostile_replies_score_instead_of_crashing(tmp_path, matrix_file, library_file, script):
    replies, top1 = HOSTILE_SCRIPTS[script]
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, replies)
    out_dir = tmp_path / "out"
    code = main([
        "eval", str(write_manifest(tmp_path)), "--backend", f"scripted:{fixtures}",
        "--repetitions", "1", "--out-dir", str(out_dir),
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["settings"]["all"]["metrics"]["top1"]["mean"] == pytest.approx(top1)
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(tmp_path / "ground"),
    ])
    assert code == (3 if top1 == 0.0 else 0)


def test_eval_single_setting_and_determinism(tmp_path):
    manifest = write_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = main([
            "eval", str(manifest), "--backend", f"scripted:{fixtures}",
            "--settings", "baseline", "--repetitions", "3", "--out-dir", str(out_dir),
        ])
        assert code == 0
        outputs.append(
            ((out_dir / "report.json").read_bytes(), (out_dir / "report.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0][0])
    assert list(report["settings"]) == ["baseline"]
    for metric in report["settings"]["baseline"]["metrics"].values():
        assert metric["std"] == 0.0


def test_eval_smoke_is_fast(tmp_path):
    import time

    manifest = write_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    started = time.perf_counter()
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--repetitions", "1", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert time.perf_counter() - started < 10.0


def test_eval_zero_completed_tasks_exits_nonzero(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    fixtures.write_text("[]")  # every session dies on the first call
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--repetitions", "1", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 4
    assert "zero tasks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--settings", "foo"], "choose from baseline, only_gaze, only_history_external, all"),
        (["--settings", "all,all"], "each context setting may be run only once"),
        (["--max-rounds", "0"], "max_rounds must be >= 1"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--jobs", "-1"], "jobs must be >= 1, got -1"),
    ],
    ids=["unknown-setting", "repeated-setting", "zero-rounds", "zero-jobs", "negative-jobs"],
)
def test_eval_bad_option_exits_2_naming_it(tmp_path, capsys, option, message):
    manifest = write_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--out-dir", str(out_dir), *option,
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_eval_bad_manifest_exits_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{}")
    assert main(["eval", str(manifest), "--backend", "scripted:unused.json"]) == 2


def test_eval_manifest_that_is_not_an_object_exits_2_naming_it(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    assert main(["eval", str(manifest), "--backend", "scripted:unused.json"]) == 2
    assert f"error: bad manifest {manifest}: " in capsys.readouterr().err


@pytest.mark.parametrize("where, number", [("gaze", "NaN"), ("history", "Infinity"),
                                           ("external", "-Infinity"), ("location", "1e999")])
def test_eval_manifest_with_a_non_finite_number_exits_2_naming_it(tmp_path, capsys, where,
                                                                  number):
    manifest = write_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    task = doc["tasks"][1]
    sentinel = 424242.5
    if where == "gaze":
        task["gaze"][0]["x"] = sentinel
    elif where == "history":
        task["history"][0]["t"] = sentinel
    elif where == "external":
        task["external"].append({"lux": sentinel})
    else:
        task["functions"][-1]["location"][1] = sentinel
    manifest.write_text(json.dumps(doc).replace(str(sentinel), number))
    out_dir = tmp_path / "out"
    assert main(["eval", str(manifest), "--backend", "scripted:unused.json",
                 "--out-dir", str(out_dir)]) == 2
    assert f"error: bad manifest {manifest}: not valid JSON: {number} is not a finite number" in (
        capsys.readouterr().err)
    assert not out_dir.exists()


def test_eval_manifest_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b'{"tasks": []}\xff')
    assert main(["eval", str(manifest), "--backend", "scripted:unused.json"]) == 2
    assert f"error: bad manifest {manifest}: not valid JSON: 'utf-8' codec" in capsys.readouterr().err


def test_eval_manifest_stream_that_is_not_json_exits_2_naming_the_stream(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    stream = tmp_path / "t2.stream.json"
    stream.write_bytes(stream.read_bytes()[:40])
    assert main(["eval", str(manifest), "--backend", "scripted:unused.json"]) == 2
    err = capsys.readouterr().err
    assert f"error: bad task entry in {manifest}: t2.stream.json: not valid JSON: " in err


def test_eval_manifest_with_duplicate_function_ids_exits_2_naming_it(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    functions = doc["tasks"][1]["functions"]
    functions.append(dict(functions[0], name="Second light"))
    manifest.write_text(json.dumps(doc))
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--repetitions", "1", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: bad task entry in {manifest}: duplicate function id" in err


# --- context ----------------------------------------------------------------------

def test_context_add_and_show(tmp_path, capsys):
    lib_path = tmp_path / "lib.json"
    values = tmp_path / "values.json"
    values.write_text(json.dumps({"doorbell": "ringing"}))
    code = main([
        "context", "add", "--library", str(lib_path), "--name", "external",
        "--description", "Reports from other devices.", "--values", str(values),
    ])
    assert code == 0
    assert "1 context" in capsys.readouterr().out

    code = main(["context", "show", "--library", str(lib_path)])
    assert code == 0
    assert "## external" in capsys.readouterr().out

    code = main(["context", "show", "--library", str(lib_path), "--name", "external"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"doorbell": "ringing"}


def test_context_add_duplicate_exits_2(tmp_path, capsys):
    lib_path = tmp_path / "lib.json"
    argv = [
        "context", "add", "--library", str(lib_path), "--name", "gaze",
        "--description", "Gaze samples.",
    ]
    assert main(argv) == 0
    assert main(argv) == 2


def test_context_add_values_that_are_not_json_exit_2_naming_the_file(tmp_path, capsys):
    lib_path = tmp_path / "lib.json"
    values = tmp_path / "values.json"
    values.write_text("doorbell: ringing")
    code = main([
        "context", "add", "--library", str(lib_path), "--name", "external",
        "--description", "Reports from other devices.", "--values", str(values),
    ])
    assert code == 2
    assert f"error: {values}: " in capsys.readouterr().err
    assert not lib_path.exists()


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_context_add_values_with_a_non_finite_number_exit_2_naming_the_file(
    tmp_path, capsys, number
):
    lib_path = tmp_path / "lib.json"
    assert main(["context", "add", "--library", str(lib_path), "--name", "gaze",
                 "--description", "Gaze samples."]) == 0
    library = lib_path.read_bytes()
    values = tmp_path / "values.json"
    values.write_text(f'[{{"t": 1.0, "reading": {number}}}]')
    code = main([
        "context", "add", "--library", str(lib_path), "--name", "external",
        "--description", "Reports from other devices.", "--values", str(values),
    ])
    assert code == 2
    assert f"error: {values}: not valid JSON: {number} is not a finite number" in (
        capsys.readouterr().err)
    assert lib_path.read_bytes() == library


def run_context_add_from_file(tmp_path, description: bytes):
    lib_path, desc = tmp_path / "lib.json", tmp_path / "desc.md"
    desc.write_bytes(description)
    code = main(["context", "add", "--library", str(lib_path), "--name", "external",
                 "--description-file", str(desc)])
    return code, lib_path, desc


def test_context_add_description_file_translates_newlines(tmp_path):
    code, from_file, _ = run_context_add_from_file(tmp_path, b"Reports.\r\n\r\n- caf\xc3\xa9\r\n")
    assert code == 0
    inline = tmp_path / "inline.json"
    assert main(["context", "add", "--library", str(inline), "--name", "external",
                 "--description", "Reports.\n\n- caf\u00e9\n"]) == 0
    assert from_file.read_bytes() == inline.read_bytes()


def test_context_add_description_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    code, lib_path, desc = run_context_add_from_file(tmp_path, b"caf\xe9\n")
    assert code == 2
    assert f"error: {desc}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
    assert not lib_path.exists()


@pytest.mark.parametrize("command", ["ground", "show", "add"])
def test_library_with_a_repeated_context_name_exits_2_naming_it(
    tmp_path, matrix_file, capsys, command
):
    lib_path = tmp_path / "lib.json"
    entry = {"name": "a", "description_md": "A.", "values": None}
    lib_path.write_text(json.dumps({"contexts": [entry, entry]}))
    argv = {
        "ground": ["ground", str(matrix_file), "--library", str(lib_path),
                   "--backend", "scripted:unused.json", "--out-dir", str(tmp_path / "out")],
        "show": ["context", "show", "--library", str(lib_path)],
        "add": ["context", "add", "--library", str(lib_path), "--name", "b",
                "--description", "B."],
    }[command]
    assert main(argv) == 2
    assert f"error: {lib_path}: duplicate context name: 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["Infinity", "1e999"])
@pytest.mark.parametrize("command", ["ground", "show", "add"])
def test_library_with_a_non_finite_number_exits_2_naming_it(
    tmp_path, matrix_file, capsys, command, number
):
    lib_path = tmp_path / "lib.json"
    lib_path.write_text(f'{{"contexts": [{{"name": "a", "description_md": "A.", '
                        f'"values": [{number}]}}]}}')
    argv = {
        "ground": ["ground", str(matrix_file), "--library", str(lib_path),
                   "--backend", "scripted:unused.json", "--out-dir", str(tmp_path / "out")],
        "show": ["context", "show", "--library", str(lib_path), "--name", "a"],
        "add": ["context", "add", "--library", str(lib_path), "--name", "b",
                "--description", "B."],
    }[command]
    library = lib_path.read_bytes()
    assert main(argv) == 2
    assert f"error: {lib_path}: not valid JSON: {number} is not a finite number" in (
        capsys.readouterr().err)
    assert lib_path.read_bytes() == library


@pytest.mark.parametrize("coordinate, reason", [
    ('"nan"', "function 'a' location must be a finite number, got nan"),
    ('"-inf"', "function 'a' location must be a finite number, got -inf"),
    ("1" + "0" * 400, "function 'a' needs a list of numbers as location"),
], ids=["nan", "minus-inf", "huge-int"])
@pytest.mark.parametrize("command", ["ground", "show"])
def test_library_with_a_non_finite_location_exits_2_naming_it(
    tmp_path, matrix_file, capsys, command, coordinate, reason
):
    lib_path = tmp_path / "lib.json"
    lib_path.write_text('{"contexts": [{"name": "function_list", "description_md": "F.", '
                        '"values": {"functions": [{"id": "a", "name": "A", '
                        f'"location": [{coordinate}, 0.5]}}]}}}}]}}')
    argv = {
        "ground": ["ground", str(matrix_file), "--library", str(lib_path),
                   "--backend", "scripted:unused.json", "--out-dir", str(tmp_path / "out")],
        "show": ["context", "show", "--library", str(lib_path)],
    }[command]
    assert main(argv) == 2
    assert f"error: {lib_path}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- each input is checked where it enters ------------------------------------------

def write_flat_width_stream(path):
    path.write_bytes(flat_width_stream_json())


def test_encode_zero_hand_width_exits_2_naming_the_file(tmp_path, capsys):
    stream = tmp_path / "s.json"
    write_flat_width_stream(stream)
    code = main(["encode", str(stream), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {stream}: hand_width must be positive and finite, got 0.0" in err
    assert not list(tmp_path.glob("out/*.matrix.json"))


def test_encode_integer_timestamp_beyond_any_float_exits_2_naming_the_file(tmp_path, capsys):
    stream = tmp_path / "s.json"
    stream.write_bytes(stream_json([(0.0, FLAT_HAND_POINTS), (10 ** 400, FLAT_HAND_POINTS)]))
    assert main(["encode", str(stream), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: {stream}: bad timestamp: 1000" in capsys.readouterr().err


def _overflowing_depth_frames():
    """A raise whose z values of 1e200 and -1e300 overflow the squared bone
    lengths, so the curl readings are NaN."""
    frames = []
    for i, y in enumerate([0.8] * 10 + [0.4] * 20 + [0.8] * 10):
        points = [list(p) for p in hand_at(y)]
        for j, p in enumerate(points):
            p[2] = 1e200 if j % 2 else -1e300
        frames.append({"t": i / 30, "lm": points})
    return frames


@pytest.mark.filterwarnings("error::RuntimeWarning:gesturelink")
def test_overflowing_depth_reads_nan_in_encode_and_tune_without_a_warning(tmp_path, capsys):
    frames = _overflowing_depth_frames()
    stream = tmp_path / "s.json"
    stream.write_text(json.dumps({"frames": frames}))
    assert main(["encode", str(stream), "--out-dir", str(tmp_path / "out")]) == 0
    channel1 = json.loads((tmp_path / "out" / "s_w00.matrix.json").read_text())["channel1"]
    assert not any(map(any, channel1[:5]))  # flexion unsure
    assert not any(map(any, channel1[13:]))  # palm unknown
    lines = [json.dumps({"rule": rule_id, "target": target, "acceptable_states": [1],
                         "frame": frame})
             for rule_id, target in (("flexion_finger", "index"), ("flexion_thumb", None))
             for frame in frames[:3]]
    code, _, _, rep = run_tune(tmp_path, lines)
    assert code == 0
    rates = {rule_id: entry["rates"] for rule_id, entry in json.loads(rep.read_text()).items()}
    assert rates["flexion_finger"]["unsure"] == rates["flexion_thumb"]["unsure"] == 1.0


@pytest.mark.parametrize("key", ["hand_width", "interval", "channel2"])
def test_ground_matrix_integer_beyond_any_float_exits_2_naming_the_file(
    tmp_path, matrix_file, library_file, capsys, key
):
    doc = json.loads(matrix_file.read_text())
    if key == "channel2":
        doc[key][0][0] = 10 ** 400
    else:
        doc[key] = 10 ** 400
    matrix_file.write_text(json.dumps(doc))
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert f"error: {matrix_file}: bad matrix JSON: int too large" in capsys.readouterr().err


def test_eval_zero_hand_width_task_scores_negative_with_cause_logged(tmp_path, caplog):
    manifest = write_manifest(tmp_path)
    write_flat_width_stream(tmp_path / "t1.stream.json")
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--settings", "baseline", "--repetitions", "1", "--out-dir", str(out_dir),
    ])
    assert code == 0
    run = json.loads((out_dir / "report.json").read_text())["settings"]["baseline"]
    assert (run["completed"], run["failures"]) == (1, 1)
    assert run["metrics"]["negative"]["mean"] == 0.5  # t1 failed; t2 ranks its truth second
    assert caplog.text.count("task t1 failed to encode (hand_width must be positive") == 1


# --- eval encodes each task once --------------------------------------------------

def write_mixed_manifest(tmp_path):
    """Two tasks that ground, one whose hand never rises (no window), and
    one whose hand_width is 0 (the encoder fails)."""
    manifest = write_manifest(
        tmp_path, truths=("light.power", "oven.power", "light.power", "oven.power")
    )
    write_stream(tmp_path / "t3.stream.json", [0.9] * 10)
    write_flat_width_stream(tmp_path / "t4.stream.json")
    return manifest


def run_mixed_eval(tmp_path):
    manifest = write_mixed_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main(["eval", str(manifest), "--backend", f"scripted:{fixtures}",
                 "--out-dir", str(out_dir)])
    return code, out_dir


MIXED_STDOUT = """\
baseline: top1=25.00% top3=50.00% top5=50.00% negative=50.00% (completed 9, failures 3)
only_gaze: top1=25.00% top3=50.00% top5=50.00% negative=50.00% (completed 9, failures 3)
only_history_external: top1=25.00% top3=50.00% top5=50.00% negative=50.00% (completed 9, failures 3)
all: top1=25.00% top3=50.00% top5=50.00% negative=50.00% (completed 9, failures 3)
"""

MIXED_REPORT_JSON = """\
{
  "random_guess": {
    "negative": {
      "mean": 0.722222,
      "std": 0.0
    },
    "top1": {
      "mean": 0.055556,
      "std": 0.0
    },
    "top3": {
      "mean": 0.166667,
      "std": 0.0
    },
    "top5": {
      "mean": 0.277778,
      "std": 0.0
    }
  },
  "settings": {
    "all": {
      "completed": 9,
      "cost": {
        "mean_input_tokens": 2242.6666666666665,
        "mean_latency": 0.0,
        "mean_output_tokens": 55.333333333333336,
        "mean_rounds": 1.3333333333333333
      },
      "failures": 3,
      "metrics": {
        "negative": {
          "mean": 0.5,
          "std": 0.0
        },
        "top1": {
          "mean": 0.25,
          "std": 0.0
        },
        "top3": {
          "mean": 0.5,
          "std": 0.0
        },
        "top5": {
          "mean": 0.5,
          "std": 0.0
        }
      }
    },
    "baseline": {
      "completed": 9,
      "cost": {
        "mean_input_tokens": 2193.3333333333335,
        "mean_latency": 0.0,
        "mean_output_tokens": 55.333333333333336,
        "mean_rounds": 1.3333333333333333
      },
      "failures": 3,
      "metrics": {
        "negative": {
          "mean": 0.5,
          "std": 0.0
        },
        "top1": {
          "mean": 0.25,
          "std": 0.0
        },
        "top3": {
          "mean": 0.5,
          "std": 0.0
        },
        "top5": {
          "mean": 0.5,
          "std": 0.0
        }
      }
    },
    "only_gaze": {
      "completed": 9,
      "cost": {
        "mean_input_tokens": 2217.3333333333335,
        "mean_latency": 0.0,
        "mean_output_tokens": 55.333333333333336,
        "mean_rounds": 1.3333333333333333
      },
      "failures": 3,
      "metrics": {
        "negative": {
          "mean": 0.5,
          "std": 0.0
        },
        "top1": {
          "mean": 0.25,
          "std": 0.0
        },
        "top3": {
          "mean": 0.5,
          "std": 0.0
        },
        "top5": {
          "mean": 0.5,
          "std": 0.0
        }
      }
    },
    "only_history_external": {
      "completed": 9,
      "cost": {
        "mean_input_tokens": 2218.6666666666665,
        "mean_latency": 0.0,
        "mean_output_tokens": 55.333333333333336,
        "mean_rounds": 1.3333333333333333
      },
      "failures": 3,
      "metrics": {
        "negative": {
          "mean": 0.5,
          "std": 0.0
        },
        "top1": {
          "mean": 0.25,
          "std": 0.0
        },
        "top3": {
          "mean": 0.5,
          "std": 0.0
        },
        "top5": {
          "mean": 0.5,
          "std": 0.0
        }
      }
    }
  }
}
"""

MIXED_REPORT_CSV = """\
setting,top1_mean,top1_std,top3_mean,top3_std,top5_mean,top5_std,negative_mean,negative_std,mean_rounds,mean_input_tokens,mean_output_tokens,mean_latency
random_guess,0.0556,0.0000,0.1667,0.0000,0.2778,0.0000,0.7222,0.0000,unavailable,unavailable,unavailable,unavailable
baseline,0.2500,0.0000,0.5000,0.0000,0.5000,0.0000,0.5000,0.0000,1.3333,2193.3333,55.3333,0.0000
only_gaze,0.2500,0.0000,0.5000,0.0000,0.5000,0.0000,0.5000,0.0000,1.3333,2217.3333,55.3333,0.0000
only_history_external,0.2500,0.0000,0.5000,0.0000,0.5000,0.0000,0.5000,0.0000,1.3333,2218.6667,55.3333,0.0000
all,0.2500,0.0000,0.5000,0.0000,0.5000,0.0000,0.5000,0.0000,1.3333,2242.6667,55.3333,0.0000
"""


def test_eval_report_bytes_match_golden(tmp_path, capsys):
    code, out_dir = run_mixed_eval(tmp_path)
    assert code == 0
    assert capsys.readouterr().out == MIXED_STDOUT
    assert (out_dir / "report.json").read_text() == MIXED_REPORT_JSON
    assert (out_dir / "report.csv").read_text() == MIXED_REPORT_CSV


def test_eval_encodes_each_task_once(tmp_path, monkeypatch):
    from gesturelink import evaluation

    encoded = []
    original = evaluation.encode_streams

    def counting(streams, *args, **kwargs):
        encoded.append(list(streams))
        return original(streams, *args, **kwargs)

    monkeypatch.setattr(evaluation, "encode_streams", counting)
    code, _ = run_mixed_eval(tmp_path)  # 4 settings x 3 repetitions
    assert code == 0
    assert len(encoded) == 1 and len({id(s) for s in encoded[0]}) == 4
    assert encoded[0] == [parse_landmark_stream((tmp_path / f"t{k}.stream.json").read_bytes())
                          for k in range(1, 5)]


@pytest.mark.parametrize("columns", [11, 1.0])
def test_ground_matrix_with_wrong_T_exits_2_naming_the_file(
    tmp_path, matrix_file, library_file, capsys, columns
):
    doc = json.loads(matrix_file.read_text())
    doc["T"] = columns
    matrix_file.write_text(json.dumps(doc))
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--backend", f"scripted:{fixtures}", "--out-dir", str(out_dir),
    ])
    assert code == 2
    assert f'error: {matrix_file}: "T" must be the column count 1' in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.fixture
def prompt_typo_dir(tmp_path):
    from gesturelink.prompts import PROMPT_FILES, load_prompt_set

    prompts = tmp_path / "prompts"
    prompts.mkdir()
    for which, filename in PROMPT_FILES.items():
        (prompts / filename).write_text(getattr(load_prompt_set(), f"{which}_prompt"))
    inference = prompts / "inference.md"
    inference.write_text(inference.read_text().replace("$function_list", "$functoin_list"))
    return prompts


@pytest.fixture
def backend_calls(monkeypatch):
    """Requests sent to every backend the CLI loads."""
    import gesturelink.cli

    calls = []
    load = gesturelink.cli.load_backend

    class Counting:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, req):
            calls.append(req)
            return self.inner.complete(req)

    monkeypatch.setattr(gesturelink.cli, "load_backend", lambda *a: Counting(load(*a)))
    return calls


def test_ground_prompt_placeholder_typo_exits_2_naming_the_file(
    tmp_path, matrix_file, library_file, prompt_typo_dir, backend_calls, capsys
):
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "ground", str(matrix_file), "--library", str(library_file),
        "--prompts", str(prompt_typo_dir), "--backend", f"scripted:{fixtures}",
        "--out-dir", str(out_dir),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {prompt_typo_dir / 'inference.md'}: " in err
    assert "functoin_list" in err
    assert backend_calls == []
    assert not out_dir.exists()


def test_eval_prompt_placeholder_typo_exits_2_naming_the_file(
    tmp_path, prompt_typo_dir, backend_calls, capsys
):
    manifest = write_manifest(tmp_path)
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    out_dir = tmp_path / "out"
    code = main([
        "eval", str(manifest), "--backend", f"scripted:{fixtures}",
        "--prompts", str(prompt_typo_dir), "--repetitions", "1", "--out-dir", str(out_dir),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {prompt_typo_dir / 'inference.md'}: " in err
    assert "functoin_list" in err
    assert backend_calls == []
    assert not out_dir.exists()


# --- every input file is read as UTF-8 ----------------------------------------------

@pytest.mark.parametrize("raw", [b'[{"response": "caf\xe9"}]', '[]'.encode("utf-16")],
                         ids=["latin-1", "utf-16"])
@pytest.mark.parametrize("kind", ["fixture file", "backend config"])
def test_ground_backend_file_not_in_utf8_exits_2_naming_it(
    tmp_path, matrix_file, library_file, capsys, raw, kind
):
    path = tmp_path / "backend.json"
    path.write_bytes(raw)
    spec = f"scripted:{path}" if kind == "fixture file" else str(path)
    code = main(["ground", str(matrix_file), "--library", str(library_file),
                 "--backend", spec, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"error: bad {kind} {path}: " in capsys.readouterr().err


def test_ground_prompt_file_that_is_not_utf8_exits_2_naming_it(
    tmp_path, matrix_file, library_file, prompt_typo_dir, capsys
):
    inference = prompt_typo_dir / "inference.md"
    inference.write_bytes(b"caf\xe9")
    code = main(["ground", str(matrix_file), "--library", str(library_file),
                 "--prompts", str(prompt_typo_dir), "--backend", "scripted:unused.json",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {inference}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


# --- every JSON input is decoded by one reader ---------------------------------------

def deep_json_argv(case, tmp_path, matrix_file, library_file):
    """(argv, the name stderr must show) for a run whose input `case` is
    tmp_path / "deep.json"; every other input is valid."""
    deep, out = tmp_path / "deep.json", str(tmp_path / "out")
    fixtures = tmp_path / "fx.json"
    write_grounding_fixtures(fixtures, GROUND_REPLIES)
    ground = ["ground", str(matrix_file), "--library", str(library_file),
              "--backend", f"scripted:{fixtures}", "--out-dir", out]
    if case == "encode --thresholds":
        stream = tmp_path / "s.json"
        write_stream(stream, [0.8] * 5 + [0.4] * 11 + [0.8] * 10)
        return ["encode", str(stream), "--thresholds", str(deep), "--out-dir", out], str(deep)
    if case == "tune --grid":
        dataset = tmp_path / "labels.jsonl"
        dataset.write_text(tuning_line(10, [1]) + "\n" + tuning_line(90, [-1]) + "\n")
        return ["tune", str(dataset), "--grid", str(deep), "--out", str(tmp_path / "o.json"),
                "--report", str(tmp_path / "r.json")], str(deep)
    if case == "ground matrix":
        ground[1] = str(deep)
    elif case == "ground --library":
        ground[3] = str(deep)
    elif case == "ground --backend scripted":
        ground[5] = f"scripted:{deep}"
    elif case == "ground --backend config":
        ground[5] = str(deep)
    elif case == "eval manifest":
        return ["eval", str(deep), "--backend", f"scripted:{fixtures}", "--out-dir", out], str(deep)
    elif case == "eval stream":
        manifest = write_manifest(tmp_path)
        deep = tmp_path / "t2.stream.json"  # the manifest names it by its relative path
        deep.write_text("[" * 100_000)
        return ["eval", str(manifest), "--backend", f"scripted:{fixtures}", "--out-dir", out], deep.name
    elif case == "context show --library":
        return ["context", "show", "--library", str(deep)], str(deep)
    else:
        assert case == "context add --values"
        return ["context", "add", "--library", str(tmp_path / "lib.json"), "--name", "extra",
                "--values", str(deep)], str(deep)
    return ground, str(deep)


@pytest.mark.parametrize("case", [
    "encode --thresholds", "tune --grid", "ground matrix", "ground --library",
    "ground --backend scripted", "ground --backend config", "eval manifest", "eval stream",
    "context show --library", "context add --values",
])
def test_json_input_nested_too_deep_exits_2_naming_it(
    tmp_path, matrix_file, library_file, capsys, case
):
    argv, named = deep_json_argv(case, tmp_path, matrix_file, library_file)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{named}: not valid JSON: maximum recursion depth exceeded" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- exit codes by error class --------------------------------------------------------

EXIT_CODES = {
    errors.GestureLinkError: 2, errors.MalformedInput: 2, errors.DegenerateGeometry: 2,
    errors.CalculatorFailure: 2, errors.ParseError: 2,
    errors.TransportError: 4, errors.AuthError: 4, errors.FixtureExhausted: 4,
}


def test_errors_module_defines_exactly_the_classes_with_exit_codes():
    defined = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)}
    assert defined == set(EXIT_CODES)


@pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda e: e.__name__)
def test_each_error_class_exits_with_its_documented_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("stubbed failure")

    monkeypatch.setattr(gesturelink.cli, "cmd_context_show", fail)
    assert main(["context", "show", "--library", "unused.json"]) == EXIT_CODES[error]
    prefix = "transport failure" if EXIT_CODES[error] == 4 else "error"
    assert capsys.readouterr().err == f"{prefix}: stubbed failure\n"
