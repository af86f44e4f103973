import cProfile
import dataclasses
import json
import math
import pstats
import random

import numpy as np
import pytest

from conftest import (
    conclusion_reply,
    context_reply,
    flat_width_stream_json,
    hand_at,
    movement_reply,
    pose_reply,
    question_reply,
    seq_fixtures,
    single_gesture_stream,
    smart_home_functions,
    smart_home_library,
    stream_json,
    trajectory_stream,
)
from gesturelink.agents import Conclusion
from gesturelink.encoder import encode_stream
from gesturelink.errors import MalformedInput
from gesturelink.evaluation import (
    COST_FIELDS,
    METRIC_NAMES,
    TOP_K,
    ContextSetting,
    Metrics,
    MetricValue,
    PipelineHandles,
    SessionCost,
    SettingRun,
    TaskRecord,
    _score,
    build_task_library,
    load_manifest,
    random_guess_baseline,
    report,
    run_protocol,
    run_setting,
    run_task,
    topk_rank,
)
from gesturelink.landmarks import Handedness, parse_landmark_stream
from gesturelink.prompts import load_prompt_set
from gesturelink.transport import ScriptedBackend

PROMPTS = load_prompt_set()


def make_task(scenario_id="t1", truth="light.power", **kwargs):
    return TaskRecord(
        scenario_id=scenario_id,
        stream=single_gesture_stream(),
        library=smart_home_library(
            gaze=[{"t": 1.0, "x": 0.2, "y": 0.4, "z": 1.5}],
            history=[{"t": 0.0, "description": "turned on the light"}],
            external=["It is 7:05 PM now."],
        ),
        truth_id=truth,
        **kwargs,
    )


def grounding_replies(conclusion_ids):
    return [
        pose_reply("open palm", (0, 2)),
        movement_reply("The hand stays essentially still."),
        question_reply("where is the user looking?"),
        context_reply("at the {{CALC:gaze_target}}"),
        conclusion_reply(list(conclusion_ids)),
    ]


def handles_for(replies_by_task):
    return PipelineHandles(
        prompts=PROMPTS,
        backend_factory=lambda task: ScriptedBackend(
            seq_fixtures(*replies_by_task[task.scenario_id])
        ),
    )


# --- topk_rank ---------------------------------------------------------------

def test_rank_of_third_entry():
    c = Conclusion(ranked_functions=("a", "b", "truth", "d", "e"))
    assert topk_rank(c, "truth") == 3


def test_rank_of_negative_is_none():
    assert topk_rank(None, "truth") is None


def test_rank_of_singleton():
    assert topk_rank(Conclusion(ranked_functions=("truth",)), "truth") == 1


def test_rank_of_absent_truth_is_none():
    assert topk_rank(Conclusion(ranked_functions=("a", "b")), "truth") is None


# --- metrics invariants ----------------------------------------------------------

def test_metrics_reject_unordered_topk():
    with pytest.raises(MalformedInput):
        Metrics(
            top1=MetricValue(0.9), top3=MetricValue(0.5),
            top5=MetricValue(1.0), negative=MetricValue(0.0),
        )


def test_metrics_reject_inconsistent_negative():
    with pytest.raises(MalformedInput):
        Metrics(
            top1=MetricValue(0.1), top3=MetricValue(0.2),
            top5=MetricValue(0.5), negative=MetricValue(0.1),
        )


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("stat", ["mean", "std"])
@pytest.mark.parametrize("name", ["top1", "negative"])
def test_metrics_reject_non_finite_means_and_stds(name, stat, value):
    values = {"top1": MetricValue(0.1), "top3": MetricValue(0.2), "top5": MetricValue(0.5),
              "negative": MetricValue(0.5)}
    values[name] = dataclasses.replace(values[name], **{stat: value})
    with pytest.raises(MalformedInput, match="metric means and stds must be finite"):
        Metrics(**values)


def test_metric_and_cost_tables_follow_the_dataclasses():
    assert METRIC_NAMES == (*(f"top{k}" for k in TOP_K), "negative")
    assert COST_FIELDS == ("rounds", "input_tokens", "output_tokens", "latency")


# --- scoring against the per-repetition reference ----------------------------------
# Verbatim copies of the scoring that kept one function per rank. The Top-k
# means and stds are reductions over the (repetitions, 3) block and Negative
# is a 1-D reduction; a 1-D reduction of a Top-k column sums pairwise and,
# past 8 repetitions, can round differently, so these pin numpy's order.

def _reference_ranks_to_fractions(ranks):
    n = len(ranks)
    top1 = sum(1 for r in ranks if r is not None and r <= 1) / n
    top3 = sum(1 for r in ranks if r is not None and r <= 3) / n
    top5 = sum(1 for r in ranks if r is not None and r <= 5) / n
    return top1, top3, top5


def _reference_aggregate(per_rep):
    arr = np.array(per_rep, dtype=float)  # shape (reps, 3)
    means = arr.mean(axis=0)
    stds = arr.std(axis=0)  # population std across repetitions
    neg_vals = 1.0 - arr[:, 2]
    return Metrics(
        top1=MetricValue(float(means[0]), float(stds[0])),
        top3=MetricValue(float(means[1]), float(stds[1])),
        top5=MetricValue(float(means[2]), float(stds[2])),
        negative=MetricValue(float(neg_vals.mean()), float(neg_vals.std())),
    )


def _reference_random_guess_baseline(counts):
    def expected(k: int) -> float:
        return float(np.mean([min(k, n) / n for n in counts]))

    top5 = expected(5)
    return Metrics(
        top1=MetricValue(expected(1)),
        top3=MetricValue(expected(3)),
        top5=MetricValue(top5),
        negative=MetricValue(1.0 - top5),
    )


def _assert_metrics_equal(got, expected):
    for name in ("top1", "top3", "top5", "negative"):
        assert getattr(got, name) == getattr(expected, name), name


def test_score_matches_per_repetition_reference_bit_for_bit():
    rng = random.Random(25)
    for _ in range(10_000):
        repetitions, n_tasks = rng.randint(1, 25), rng.randint(1, 40)
        p_negative = rng.random()
        rep_ranks = [
            [None if rng.random() < p_negative else rng.randint(1, 10) for _ in range(n_tasks)]
            for _ in range(repetitions)
        ]
        expected = _reference_aggregate([_reference_ranks_to_fractions(r) for r in rep_ranks])
        _assert_metrics_equal(_score(rep_ranks), expected)


def test_random_guess_matches_reference_bit_for_bit():
    rng = random.Random(25)
    for _ in range(10_000):
        counts = [rng.randint(1, 100) for _ in range(rng.randint(1, 40))]
        _assert_metrics_equal(random_guess_baseline(counts), _reference_random_guess_baseline(counts))


# --- random guess baseline --------------------------------------------------------

def test_random_guess_for_18_functions():
    m = random_guess_baseline([18] * 8)
    assert m.top1.mean == pytest.approx(1 / 18)
    assert m.top3.mean == pytest.approx(3 / 18)
    assert m.top5.mean == pytest.approx(5 / 18)
    assert f"{m.top1.mean:.2%}" == "5.56%"
    assert f"{m.top3.mean:.2%}" == "16.67%"
    assert f"{m.top5.mean:.2%}" == "27.78%"
    assert f"{m.negative.mean:.2%}" == "72.22%"


def test_random_guess_for_video_mix():
    m = random_guess_baseline([66] * 5 + [17] * 3)
    assert m.top1.mean == pytest.approx((5 / 8) * (1 / 66) + (3 / 8) * (1 / 17))
    assert abs(m.top1.mean - 0.0315) < 1e-4  # 3.15% within 0.01 pp
    assert f"{m.top3.mean:.2%}" == "9.46%"
    assert f"{m.top5.mean:.2%}" == "15.76%"


def test_random_guess_single_function_task():
    m = random_guess_baseline([1])
    assert m.top1.mean == 1.0
    assert m.negative.mean == 0.0


def test_random_guess_accepts_task_records():
    m = random_guess_baseline([make_task()])
    assert m.top1.mean == pytest.approx(1 / 18)


def test_random_guess_matches_monte_carlo():
    counts = [66] * 5 + [17] * 3
    m = random_guess_baseline(counts)
    rng = random.Random(7)
    draws = 200_000
    hits = {1: 0, 3: 0, 5: 0}
    for _ in range(draws):
        n = counts[rng.randrange(len(counts))]
        ranking = rng.sample(range(n), k=min(5, n))
        truth = rng.randrange(n)
        if truth in ranking:
            rank = ranking.index(truth) + 1
            for k in hits:
                if rank <= k:
                    hits[k] += 1
    for k, field in ((1, m.top1), (3, m.top3), (5, m.top5)):
        assert abs(hits[k] / draws - field.mean) < 0.005


# --- library filtering -------------------------------------------------------------

@pytest.mark.parametrize(
    "setting,expected",
    [
        (ContextSetting.BASELINE, ["function_list"]),
        (ContextSetting.ONLY_GAZE, ["function_list", "gaze"]),
        (ContextSetting.ONLY_HISTORY_EXTERNAL, ["function_list", "history", "external"]),
        (ContextSetting.ALL, ["function_list", "gaze", "history", "external"]),
    ],
)
def test_setting_filters_context_exposure(setting, expected):
    lib = build_task_library(make_task(), setting)
    assert lib.names == expected


# --- run_setting ---------------------------------------------------------------------

def test_always_rank1_gives_perfect_top1():
    task = make_task()
    handles = handles_for({"t1": grounding_replies(["light.power", "oven.power"])})
    run = run_setting([task], ContextSetting.ALL, repetitions=3, handles=handles)
    assert run.metrics.top1 == MetricValue(1.0, 0.0)
    assert run.metrics.negative == MetricValue(0.0, 0.0)
    assert run.completed == 3
    assert all(c.rounds == 2 for c in run.costs)


def test_alternating_rank1_and_negative_is_half():
    tasks = [make_task("t1"), make_task("t2")]
    handles = handles_for({
        "t1": grounding_replies(["light.power"]),
        "t2": grounding_replies(["ghost.fn"]),  # prunes to empty -> Negative
    })
    run = run_setting(tasks, ContextSetting.ALL, repetitions=1, handles=handles)
    assert run.metrics.top1.mean == pytest.approx(0.5)
    assert run.metrics.negative.mean == pytest.approx(0.5)


def test_three_repetitions_of_deterministic_pipeline_have_zero_std():
    task = make_task()
    handles = handles_for({"t1": grounding_replies(["oven.power", "light.power"])})
    run = run_setting([task], ContextSetting.ONLY_GAZE, repetitions=3, handles=handles)
    for name in ("top1", "top3", "top5", "negative"):
        assert getattr(run.metrics, name).std == 0.0
    assert run.metrics.top1.mean == 0.0  # truth ranked second
    assert run.metrics.top3.mean == 1.0


def test_task_failure_scores_negative_without_aborting():
    tasks = [make_task("t1"), make_task("t2")]

    def factory(task):
        if task.scenario_id == "t2":
            return ScriptedBackend([])  # exhausts immediately
        return ScriptedBackend(seq_fixtures(*grounding_replies(["light.power"])))

    handles = PipelineHandles(prompts=PROMPTS, backend_factory=factory)
    run = run_setting(tasks, ContextSetting.ALL, repetitions=1, handles=handles)
    assert run.failures == 1
    assert run.completed == 1
    assert run.metrics.top1.mean == pytest.approx(0.5)


def test_programming_error_propagates_out_of_run_setting():
    class BrokenBackend:
        def complete(self, req):
            raise TypeError("bug in backend")

    handles = PipelineHandles(prompts=PROMPTS, backend_factory=lambda task: BrokenBackend())
    with pytest.raises(TypeError):
        run_setting([make_task()], ContextSetting.ALL, repetitions=1, handles=handles)


def test_no_window_scores_negative():
    task = TaskRecord(
        scenario_id="flatline",
        stream=trajectory_stream([0.9] * 10),  # hand never raised
        library=smart_home_library(),
        truth_id="light.power",
    )
    handles = PipelineHandles(
        prompts=PROMPTS, backend_factory=lambda t: ScriptedBackend([])
    )
    assert encode_stream(task.stream, handles.thresholds) == []
    rank, cost = run_task(task, ContextSetting.BASELINE, None, handles)
    assert rank is None
    assert cost.rounds == 0


def test_run_setting_encodes_each_task_once(monkeypatch):
    from gesturelink import evaluation

    encoded = []
    original = evaluation.encode_streams
    monkeypatch.setattr(
        evaluation, "encode_streams", lambda streams, th: encoded.append(streams) or original(streams, th)
    )
    tasks = [make_task("t1"), make_task("t2", truth="oven.power")]
    replies = {t.scenario_id: grounding_replies(["light.power"]) for t in tasks}
    run = run_setting(tasks, ContextSetting.ALL, repetitions=3, handles=handles_for(replies))
    assert run.completed == 6
    assert [[id(s) for s in streams] for streams in encoded] == [[id(t.stream) for t in tasks]]


def test_encoder_failure_is_negative_in_every_run_and_logged_once(caplog):
    task = TaskRecord(
        scenario_id="flat", stream=parse_landmark_stream(flat_width_stream_json()),
        library=smart_home_library(), truth_id="light.power",
    )

    def no_session(t):
        raise AssertionError("an unencodable task must not start a session")

    handles = PipelineHandles(prompts=PROMPTS, backend_factory=no_session)
    runs = run_protocol([task], list(ContextSetting), repetitions=3, handles=handles)
    assert [run.setting for run in runs] == list(ContextSetting)
    for run in runs:
        assert (run.completed, run.failures, run.costs) == (0, 3, [])
        assert run.metrics.negative == MetricValue(1.0, 0.0)
    assert sum(run.failures for run in runs) == len(ContextSetting) * 3
    assert caplog.text.count("task flat failed to encode (hand_width must be positive") == 1


def _recorded_runs(monkeypatch, tasks, replies, settings, repetitions=2):
    """run_protocol over tasks, and what each task run got and gave:
    (setting, scenario id, matrix, rank, cost), in run order."""
    from gesturelink import evaluation

    seen = []

    def recording(task, setting, described, handles):
        rank, cost = run_task(task, setting, described, handles)
        seen.append((setting, task.scenario_id, described.matrix, rank, cost))
        return rank, cost

    monkeypatch.setattr(evaluation, "run_task", recording)
    return run_protocol(tasks, settings, repetitions, handles_for(replies)), seen


def test_mixed_tasks_encoded_together_match_each_encoded_alone(monkeypatch, caplog):
    """A flat-width task and a left-hand task each fail alone, logged once,
    and score Negative in every run; the other tasks get the first
    matrices, ranks and costs they get when run, and so encoded, by
    themselves."""
    raise_once = [0.8] * 5 + [0.4] * 11 + [0.8] * 10
    flat = TaskRecord("flat", parse_landmark_stream(flat_width_stream_json()),
                      smart_home_library(), "light.power")
    left = TaskRecord("left", trajectory_stream(raise_once, handedness=Handedness.LEFT),
                      smart_home_library(), "light.power")
    good = [make_task("t1"), make_task("t2", truth="oven.power"),
            TaskRecord("two_windows", trajectory_stream(raise_once * 2), smart_home_library(),
                       "oven.power")]
    tasks = [good[0], flat, left, *good[1:]]
    replies = {t.scenario_id: grounding_replies(["oven.power", "light.power"]) for t in tasks}
    settings = [ContextSetting.BASELINE, ContextSetting.ALL]
    runs, seen = _recorded_runs(monkeypatch, tasks, replies, settings)
    for run in runs:
        assert (run.completed, run.failures) == (6, 4)
        assert run.metrics.negative == MetricValue(pytest.approx(0.4), 0.0)
    for task_id, cause in (("flat", "hand_width must be positive"),
                           ("left", "encoder handles right-hand streams only")):
        assert caplog.text.count(f"task {task_id} failed to encode ({cause}") == 1
    alone = {t.scenario_id: _recorded_runs(monkeypatch, [t], replies, settings)[1] for t in good}
    assert seen == [alone[t.scenario_id][i] for i in range(4) for t in good]
    windows = [encode_stream(task.stream) for task in good]
    assert [len(w) for w in windows] == [1, 1, 2]
    assert [alone[t.scenario_id][0][2] for t in good] == [w[0] for w in windows]


def _protocol_calls(n):
    """Python calls of run_protocol over n one-window tasks, one setting
    and one repetition, with scripted backends."""
    tasks = [make_task(f"t{k}") for k in range(n)]
    handles = handles_for({t.scenario_id: grounding_replies(["light.power"]) for t in tasks})
    profile = cProfile.Profile()
    profile.enable()
    run = run_protocol(tasks, [ContextSetting.ALL], 1, handles)[0]
    profile.disable()
    assert (run.completed, run.metrics.top1.mean) == (n, 1.0)
    return pstats.Stats(profile).total_calls


def test_protocol_python_work_grows_linearly_in_tasks():
    """Doubling the manifest's tasks at most about doubles the Python calls
    of run_protocol, counted by cProfile, so the bound does not depend on
    the host's speed: no stage, the batched encode included, rescans the
    tasks per task."""
    assert _protocol_calls(256) / _protocol_calls(128) <= 2.2


def test_run_protocol_matches_one_run_setting_per_setting():
    tasks = [make_task("t1"), make_task("t2", truth="oven.power")]
    replies = {
        "t1": grounding_replies(["light.power"]),
        "t2": grounding_replies(["oven.power", "light.power"]),
    }
    settings = [ContextSetting.BASELINE, ContextSetting.ALL]
    single = [run_setting(tasks, s, 2, handles_for(replies)) for s in settings]
    assert run_protocol(tasks, settings, 2, handles_for(replies)) == single
    assert run_protocol(tasks, settings, 2, handles_for(replies), jobs=3) == single


def test_run_setting_parses_no_function_list(tmp_path, monkeypatch):
    from gesturelink import context

    stream_path = tmp_path / "t1.stream.json"
    stream_path.write_bytes(stream_json([
        (round(0.1 * i, 6), hand_at(y)) for i, y in enumerate([0.8] * 3 + [0.4] * 8 + [0.8] * 8)
    ]))
    functions = [{"id": f.id, "name": f.name} for f in smart_home_functions()]
    (tmp_path / "manifest.json").write_text(json.dumps({"tasks": [{
        "scenario_id": "t1", "stream": stream_path.name, "functions": functions,
        "gaze": [{"t": 1.0, "x": 0.2, "y": 0.4}], "truth": "light.power",
    }]}))
    tasks = load_manifest(tmp_path / "manifest.json")
    parsed = []
    original = context.parse_function_list
    monkeypatch.setattr(context, "parse_function_list", lambda doc: parsed.append(doc) or original(doc))
    handles = handles_for({"t1": grounding_replies(["light.power"])})
    for setting in ContextSetting:
        assert run_setting(tasks, setting, repetitions=2, handles=handles).completed == 2
    assert parsed == []


def test_load_manifest_parses_each_function_list_once(tmp_path, monkeypatch):
    from gesturelink import context, evaluation

    stream_path = tmp_path / "t.stream.json"
    stream_path.write_bytes(stream_json([
        (round(0.1 * i, 6), hand_at(y)) for i, y in enumerate([0.8] * 3 + [0.4] * 8 + [0.8] * 8)
    ]))
    functions = [{"id": f.id, "name": f.name} for f in smart_home_functions()]
    (tmp_path / "manifest.json").write_text(json.dumps({"tasks": [
        {"scenario_id": sid, "stream": stream_path.name, "functions": functions,
         "truth": "light.power"} for sid in ("t1", "t2")
    ]}))
    parsed = []
    original = context.parse_function_list

    def counting(doc):
        parsed.append(doc)
        return original(doc)

    monkeypatch.setattr(context, "parse_function_list", counting)
    monkeypatch.setattr(evaluation, "parse_function_list", counting)
    tasks = load_manifest(tmp_path / "manifest.json")
    assert len(parsed) == 2
    assert [len(t.library.functions) for t in tasks] == [len(functions)] * 2
    assert tasks[0].library.get("function_list").values["functions"][0] == {
        "id": functions[0]["id"], "name": functions[0]["name"], "location": []}


def test_aggregation_is_order_independent():
    tasks = [make_task("t1"), make_task("t2", truth="oven.power")]
    replies = {
        "t1": grounding_replies(["light.power"]),
        "t2": grounding_replies(["light.power"]),
    }
    forward = run_setting(tasks, ContextSetting.ALL, 1, handles_for(replies))
    reverse = run_setting(tasks[::-1], ContextSetting.ALL, 1, handles_for(replies))
    assert forward.metrics == reverse.metrics


def test_parallel_jobs_match_sequential():
    tasks = [make_task("t1"), make_task("t2", truth="oven.power")]
    replies = {
        "t1": grounding_replies(["light.power"]),
        "t2": grounding_replies(["oven.power", "light.power"]),
    }
    seq = run_setting(tasks, ContextSetting.ALL, 2, handles_for(replies), jobs=1)
    par = run_setting(tasks, ContextSetting.ALL, 2, handles_for(replies), jobs=4)
    assert seq.metrics == par.metrics
    assert seq.completed == par.completed


def _counting(monkeypatch, calls, module, name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.update([name]) or original(*args))


def test_protocol_builds_each_task_prompt_once_and_each_view_prompt_once(monkeypatch):
    """Over S settings x R repetitions x T tasks, each task's matrix is
    serialized once (not S * R * T times) and each view renders its
    overview once. A second run builds the description prompts anew, and
    the views answer from their kept system prompts."""
    from collections import Counter

    from gesturelink import agents, context

    calls = Counter()
    for module, name in ((agents, "serialize_matrix"), (agents, "serialize_movement"),
                         (context, "render_library_prompt")):
        _counting(monkeypatch, calls, module, name)
    tasks = [make_task(f"t{k}") for k in range(3)]
    settings = list(ContextSetting)
    handles = handles_for({t.scenario_id: grounding_replies(["light.power"]) for t in tasks})
    runs = run_protocol(tasks, settings, 3, handles)
    assert [run.completed for run in runs] == [9] * len(settings)
    assert calls == {"serialize_matrix": 3, "serialize_movement": 3,
                     "render_library_prompt": 3 * len(settings)}
    run_protocol(tasks, settings, 3, handles)
    assert calls == {"serialize_matrix": 6, "serialize_movement": 6,
                     "render_library_prompt": 3 * len(settings)}


def _mixed_report(jobs):
    """report() of run_protocol over fresh tasks that conclude, rank the
    truth lower, end Negative or fail to encode, run with `jobs` threads."""
    tasks = [make_task("t1"), make_task("t2", truth="oven.power"), make_task("t3"),
             TaskRecord("flat", parse_landmark_stream(flat_width_stream_json()),
                        smart_home_library(), "light.power")]
    replies = {"t1": grounding_replies(["light.power"]),
               "t2": grounding_replies(["light.power", "oven.power"]),
               "t3": ["junk", "junk again"], "flat": []}
    runs = run_protocol(tasks, list(ContextSetting), 3, handles_for(replies), jobs=jobs)
    doc = report(runs, baseline=random_guess_baseline(tasks))
    return doc.json_text + doc.csv_text


def test_report_bytes_at_four_jobs_equal_those_at_one():
    import sys

    sequential = _mixed_report(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = [_mixed_report(4) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == [sequential] * 3
    settings = json.JSONDecoder().raw_decode(sequential)[0]["settings"]
    assert {(s["completed"], s["failures"], s["metrics"]["top1"]["mean"],
             s["metrics"]["top3"]["mean"]) for s in settings.values()} == {(9, 3, 0.25, 0.5)}


def test_truth_must_be_in_function_list():
    with pytest.raises(MalformedInput):
        make_task(truth="not.a.function")


# --- report ---------------------------------------------------------------------------

GOLDEN_CSV = """setting,top1_mean,top1_std,top3_mean,top3_std,top5_mean,top5_std,negative_mean,negative_std,mean_rounds,mean_input_tokens,mean_output_tokens,mean_latency
random_guess,0.0556,0.0000,0.1667,0.0000,0.2778,0.0000,0.7222,0.0000,unavailable,unavailable,unavailable,unavailable
baseline,0.5000,0.0000,0.5000,0.0000,1.0000,0.0000,0.0000,0.0000,3.0000,150.0000,30.0000,0.0000
"""


GOLDEN_JSON = """{
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
    "baseline": {
      "completed": 2,
      "cost": {
        "mean_input_tokens": 150.0,
        "mean_latency": 0.0,
        "mean_output_tokens": 30.0,
        "mean_rounds": 3.0
      },
      "failures": 0,
      "metrics": {
        "negative": {
          "mean": 0.0,
          "std": 0.0
        },
        "top1": {
          "mean": 0.5,
          "std": 0.0
        },
        "top3": {
          "mean": 0.5,
          "std": 0.0
        },
        "top5": {
          "mean": 1.0,
          "std": 0.0
        }
      }
    }
  }
}
"""


def _fixture_run():
    metrics = Metrics(
        top1=MetricValue(0.5, 0.0), top3=MetricValue(0.5, 0.0),
        top5=MetricValue(1.0, 0.0), negative=MetricValue(0.0, 0.0),
    )
    return SettingRun(
        setting=ContextSetting.BASELINE,
        metrics=metrics,
        costs=[SessionCost(2, 100, 20, 0.0), SessionCost(4, 200, 40, 0.0)],
        completed=2,
    )


def test_report_matches_golden_csv():
    doc = report([_fixture_run()], baseline=random_guess_baseline([18, 18]))
    assert doc.csv_text == GOLDEN_CSV
    parsed = json.loads(doc.json_text)
    assert parsed["settings"]["baseline"]["cost"]["mean_rounds"] == 3.0
    assert parsed["random_guess"]["top1"]["mean"] == pytest.approx(0.055556)


def test_report_matches_golden_json():
    doc = report([_fixture_run()], baseline=random_guess_baseline([18, 18]))
    assert doc.json_text == GOLDEN_JSON


def test_report_marks_missing_costs_unavailable():
    run = _fixture_run()
    run.costs = []
    doc = report([run])
    assert "unavailable" in doc.csv_text
    assert json.loads(doc.json_text)["settings"]["baseline"]["cost"]["mean_rounds"] is None


def test_report_is_deterministic():
    run = _fixture_run()
    assert report([run]).json_text == report([run]).json_text
    assert report([run]).csv_text == report([run]).csv_text


# --- manifest ---------------------------------------------------------------------------

def test_load_manifest_resolves_stream_refs(tmp_path):
    from conftest import hand_at

    stream_path = tmp_path / "t1.stream.json"
    profile = [0.8] * 3 + [0.4] * 8 + [0.8] * 8
    frames = [(round(0.1 * i, 6), hand_at(y)) for i, y in enumerate(profile)]
    stream_path.write_bytes(stream_json(frames))
    manifest = {
        "tasks": [
            {
                "scenario_id": "home_1",
                "stream": "t1.stream.json",
                "interface": "Smart Home",
                "functions": [
                    {"id": f.id, "name": f.name, "location": list(f.location)}
                    for f in smart_home_functions()
                ],
                "gaze": [{"t": 1.0, "x": 0.2, "y": 0.4, "z": 1.5}],
                "history": [],
                "external": ["It is 7:05 PM now."],
                "truth": "light.power",
            }
        ]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    tasks = load_manifest(tmp_path / "manifest.json")
    assert len(tasks) == 1
    assert tasks[0].truth_id == "light.power"
    assert len(tasks[0].stream.frames) == len(profile)


def test_load_manifest_rejects_missing_fields(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"tasks": [{"scenario_id": "x"}]}))
    with pytest.raises(MalformedInput):
        load_manifest(tmp_path / "manifest.json")


def _manifest_holding(tmp_path, where, number):
    """A one-task manifest holding the JSON number text `number` in the
    task's gaze, history, external or first function's location."""
    sentinel = 424242.5
    task = {"scenario_id": "t", "stream": "t.stream.json", "interface": "Smart Home",
            "functions": [{"id": f.id, "name": f.name, "location": list(f.location)}
                          for f in smart_home_functions()],
            "gaze": [{"t": 1.0, "x": 0.2, "y": 0.4, "z": 1.5}],
            "history": [{"t": 0.0, "description": "turned on the light"}],
            "external": ["It is 7:05 PM now."], "truth": "light.power"}
    if where == "gaze":
        task["gaze"][0]["x"] = sentinel
    elif where == "history":
        task["history"][0]["t"] = sentinel
    elif where == "external":
        task["external"].append({"lux": sentinel})
    else:
        task["functions"][0]["location"][0] = sentinel
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"tasks": [task]}).replace(str(sentinel), number))
    return path


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("where", ["gaze", "history", "external", "location"])
def test_load_manifest_rejects_non_finite_numbers_naming_it(tmp_path, where, number):
    """A context library file holding such a number is refused, so the same
    values in a manifest's task, which become its library, are too."""
    path = _manifest_holding(tmp_path, where, number)
    with pytest.raises(MalformedInput) as caught:
        load_manifest(path)
    assert str(caught.value) == (
        f"bad manifest {path}: not valid JSON: {number} is not a finite number")


@pytest.mark.parametrize("number", ['"nan"', '"Infinity"', '"-1e999"'])
def test_load_manifest_rejects_a_location_that_converts_to_non_finite(tmp_path, number):
    path = _manifest_holding(tmp_path, "location", number)
    with pytest.raises(MalformedInput) as caught:
        load_manifest(path)
    assert str(caught.value).startswith(
        f"bad task entry in {path}: function 'light.power' location must be a finite number")


def test_load_manifest_rejects_empty(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"tasks": []}))
    with pytest.raises(MalformedInput):
        load_manifest(tmp_path / "manifest.json")
