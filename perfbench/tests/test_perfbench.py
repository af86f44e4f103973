"""Tests of the benchmark itself: seeded inputs, the correctness gate,
the printed metric names, and span nesting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 0  # recorded in digests.json


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (3, 3, 4)):
        d.mkdir()
        gen.GENERATORS[name](seed, d)
    a, b, c = (_files(d) for d in dirs)
    assert a == b
    assert a.keys() == c.keys() and a != c


def _first_pass(name, tmp_path):
    planted = gen.GENERATORS[name](SEED, tmp_path)
    workload = workloads.WORKLOADS[name](tmp_path, planted)
    gl = workloads.import_gesturelink()
    workload.load(gl, gl.prompts.load_prompt_set())
    return planted, workload, gl, workload.run(gl)


def _recorded(name):
    return json.loads(run.DIGESTS.read_text())[name][str(SEED)]


def _judged(p, reference, recorded):
    gate = run.Gate(recorded)
    gate.judge(p, reference)
    return gate


def test_gate_accepts_seed_outputs_and_rejects_a_perturbed_matrix(tmp_path):
    _, _, _, p = _first_pass("stream_encode", tmp_path)
    recorded = _recorded("stream_encode")
    assert _judged(p, p, recorded).failed == 0

    bad = copy.deepcopy(p)
    matrix = json.loads(bad.outputs[0].split("\n", 1)[0])
    matrix["channel1"][0][0] = -matrix["channel1"][0][0] or 1
    bad.outputs[0] = json.dumps(matrix) + "\n" + bad.outputs[0].split("\n", 1)[1]
    assert _judged(bad, p, None).failed == 1  # caught against the reference pass
    assert _judged(bad, None, recorded).failed == len(p.outputs)  # and against the record


def test_gate_rejects_a_perturbed_transcript_and_conclusion(tmp_path):
    planted, _, _, p = _first_pass("ground_sessions", tmp_path)
    assert _judged(p, p, _recorded("ground_sessions")).failed == 0

    bad = copy.deepcopy(p)
    bad.outputs[3] = bad.outputs[3].replace('"role": "context"', '"role": "contexts"', 1) \
        if '"role": "context"' in bad.outputs[3] else bad.outputs[3] + " "
    assert _judged(bad, p, None).failed == 1
    assert _judged(bad, None, _recorded("ground_sessions")).failed == len(p.outputs)

    script = next(s for s in planted["sessions"] if s["expected"])
    assert workloads.check_session(script, script["expected"], len(script["replies"])) == []
    swapped = list(reversed(script["expected"])) if len(script["expected"]) > 1 else None
    assert workloads.check_session(script, swapped, len(script["replies"]))
    assert workloads.check_session(script, script["expected"], len(script["replies"]) - 1)


def test_gate_rejects_a_perturbed_threshold(tmp_path):
    planted, _, _, p = _first_pass("tune_grid", tmp_path)
    assert _judged(p, p, _recorded("tune_grid")).failed == 0
    thresholds_text = p.outputs[0].split("\n}\n", 1)[0] + "\n}\n"
    thresholds = json.loads(thresholds_text)
    report = {rule: {"loss": 0.0} for rule in planted["gaps"]}
    assert workloads.check_thresholds(planted, thresholds, report) == []

    pos_max, neg_min = planted["gaps"]["flexion_finger"]
    for cell in ([pos_max - 2.0, pos_max + 1.0], [neg_min - 1.0, neg_min + 1.0]):
        assert workloads.check_thresholds(planted, dict(thresholds, flexion_finger=cell), report)
    wide = dict(thresholds, palm_angle_threshold=planted["gaps"]["palm_orientation"][1] + 1)
    assert workloads.check_thresholds(planted, wide, report)

    bad = copy.deepcopy(p)
    bad.outputs[0] = bad.outputs[0].replace(json.dumps(thresholds["flexion_finger"][0]), "99", 1)
    assert _judged(bad, None, _recorded("tune_grid")).failed == 1


def test_gate_checks_planted_eval_ranks(tmp_path):
    planted, workload, _, p = _first_pass("eval_protocol", tmp_path)
    assert _judged(p, p, _recorded("eval_protocol")).failed == 0
    key = next(k for k, r in planted["planted_ranks"].items() if r == 1)
    workload.planted = copy.deepcopy(planted)
    workload.planted["planted_ranks"][key] = 2
    gl = workloads.import_gesturelink()
    workload.load(gl, gl.prompts.load_prompt_set())
    assert _judged(workload.run(gl), None, None).failed == 1


def _main(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_printed_metric_names_and_units_match_benchmark_json(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _main("--workload", name, "--seed", str(SEED), "--seconds", "0.01",
                       "--trace", str(trace))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_end_to_end_times_are_in_reference_host_seconds():
    passes = []
    for seconds, scale in ((2.0, 0.5), (1.0, 1.0), (4.0, 0.25)):
        p = workloads.Pass()
        p.seconds, p.ref_seconds, p.units = seconds, seconds * scale, 100
        p.op_s, p.op_scale = [seconds / 2] * 3, [scale] * 3
        passes.append(p)
    metrics = run.end_to_end(passes, 0.5)
    assert metrics["work_per_s"] == 100.0  # every pass took 1 reference second
    assert metrics["op_ms_p50"] == metrics["op_ms_p90"] == 500.0


def test_each_op_takes_the_scale_of_its_calibrated_segment():
    class Host:
        scales = iter((0.5, 2.0))

        def due(self):
            return True

        def checkpoint(self):
            return next(self.scales)

    p = workloads.Pass(Host())
    p.op(1.0, "a", [])
    p.op(1.0, "b", [])
    assert p.op_scale == [0.5, 2.0]

    clock = host.HostScale()
    clock.restart()
    scale = clock.checkpoint()
    assert scale > 0.0 and len(clock.segments) == 1
    assert clock.take() == clock.segments[0][0] * scale


EXACT = [k for k in layers.PER_LAYER
         if k.startswith(("rules.decided_ratio", "ground.", "agents.repair_ratio",
                          "agents.negative_ratio", "agents.rounds_per_session",
                          "context.placeholder_failed_ratio", "transport.request_chars",
                          "evaluation.failures", "trace.spans_per_pass"))
         or k in ("rules.degenerate_count", "encoder.encode_calls_per_task_run")]


@pytest.mark.parametrize("name", ["stream_encode", "eval_protocol"])
def test_exact_counts_repeat_across_runs(name):
    runs = [_main("--workload", name, "--seed", "2", "--seconds", "0.01", "--trace", "1")
            for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT} for r in runs)
    assert first == second
    assert first["rules.decided_ratio.flexion"] > 0


def test_span_self_times_are_non_negative_and_nested(tmp_path):
    planted = gen.gen_ground_sessions(SEED, tmp_path)
    workload = workloads.GroundSessions(tmp_path, planted)
    gl = workloads.import_gesturelink()
    workload.load(gl, gl.prompts.load_prompt_set())
    tracer = spans.Tracer()
    instrumented = spans.Instrumented(gl, tracer)
    workload.proxy = instrumented.backend
    with instrumented, tracer.span("bench.pass", "pass0"):
        workload.run(gl, tracer)
    assert gl.agents.ground_matrix.__name__ == "ground_matrix"  # patches undone

    recorded = tracer.spans
    own = spans.self_times(recorded)
    assert len(recorded) > 1000
    assert all(t >= 0 for t in own)
    for s in recorded:
        if s[spans.PARENT] >= 0:
            parent = recorded[s[spans.PARENT]]
            assert parent[spans.START] <= s[spans.START] <= s[spans.END] <= parent[spans.END]
    layers_seen = {spans.layer_of(s[spans.NAME]) for s in recorded}
    assert {"agents", "transport", "context", "prompts", "encoder"} <= layers_seen
