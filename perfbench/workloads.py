"""The four workloads: timed set-up, one pass, and the planted-structure gate.

A pass is one batch job over the generated inputs: one recording, one
`tune` command, one pool of sessions, or one evaluation protocol. A pass
is made of ops (a window, a tune command, a session, a `run_setting`
call) whose latencies give the p50/p90. Every op's byte outputs are kept
so the runner can digest them, and every op is checked against what the
generator planted.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import gen

MODULES = ("landmarks", "encoder", "rules", "tuning", "agents", "transport", "context",
           "prompts", "evaluation", "cli", "errors")


def import_gesturelink() -> SimpleNamespace:
    """Fresh import of every gesturelink module (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "gesturelink" or n.startswith("gesturelink.")]:
        del sys.modules[name]
    importlib.import_module("gesturelink")
    return SimpleNamespace(**{m: importlib.import_module(f"gesturelink.{m}") for m in MODULES})


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Timings, outputs and gate findings of one pass. With a host clock
    (host.HostScale, set by the runner on timed passes) the pass
    calibrates at checkpoints and keeps each op's scale to reference-host
    seconds."""

    def __init__(self, host=None):
        self.host = host
        self.seconds = 0.0  # wall time, calibrations included
        self.ref_seconds = 0.0  # reference-host time, set by the runner
        self.units = 0
        self.op_s: list[float] = []
        self.op_scale: list[float] = []  # filled at each checkpoint
        self.outputs: list[str] = []  # one byte output per op
        self.op_problems: list[list[str]] = []
        self.extra = ""  # pass-level byte output (the eval report)
        self.problems: list[str] = []

    def op(self, seconds: float, output: str, problems: list[str]) -> None:
        self.op_s.append(seconds)
        self.outputs.append(output)
        self.op_problems.append(problems)
        if self.host is not None and self.host.due():
            self.checkpoint()

    def checkpoint(self) -> None:
        """Calibrate now (nothing without a host clock): the ops since the
        last checkpoint take the scale of the segment it closes."""
        if self.host is not None:
            scale = self.host.checkpoint()
            self.op_scale += [scale] * (len(self.op_s) - len(self.op_scale))

    @property
    def op_digests(self) -> list[str]:
        return [sha(o) for o in self.outputs]

    @property
    def digest(self) -> str:
        return sha("".join(self.op_digests) + sha(self.extra))


def _span(tr, name, item=None):
    return tr.span(name, item) if tr is not None else contextlib.nullcontext()


class Workload:
    """Base: generated inputs live in `work`; `planted` is what the
    generator promised about them."""

    name = ""
    work_unit = ""  # what work_per_s counts
    op_name = ""  # what op_ms_* time
    report_names = ("", "", "")  # the work_per_s / op_ms_p50 / op_ms_p90 names used in reports

    def __init__(self, work: Path, planted: dict):
        self.work, self.planted = work, planted
        self.proxy = None  # set by the traced run: wraps each scripted backend
        self.host = None  # set by the runner on timed passes: a host.HostScale

    def load(self, gl, prompts) -> None:
        """Load fixtures (part of the timed set-up)."""

    def run(self, gl, tr=None) -> Pass:
        raise NotImplementedError

    def backend(self, gl, fixtures):
        b = gl.transport.ScriptedBackend(fixtures)
        return self.proxy(b) if self.proxy else b


class StreamEncode(Workload):
    name = "stream_encode"
    work_unit, op_name = "frames", "window (sample + build + serialize)"
    report_names = ("encode.frames_per_s", "encode.window_ms_p50", "encode.window_ms_p90")

    def load(self, gl, prompts):
        self.raw = (self.work / self.planted["stream"]).read_bytes()
        self.th = gl.rules.RuleThresholds()

    def run(self, gl, tr=None):
        p = Pass(self.host)
        enc = gl.encoder
        t0 = time.perf_counter()
        stream = gl.landmarks.parse_landmark_stream(self.raw)
        windows = enc.detect_gesture_window(stream)
        p.checkpoint()
        for i, w in enumerate(windows):
            with _span(tr, "bench.op", f"window{i}"):
                a = time.perf_counter()
                m = enc.build_state_matrix(enc.sample_window(w), self.th)
                text, js = enc.serialize_matrix(m), enc.matrix_to_json(m)
                b = time.perf_counter()
            p.op(b - a, js + text, self._check_window(i, w))
        p.seconds = time.perf_counter() - t0
        p.units = len(stream.frames)
        if len(windows) != len(self.planted["windows"]):
            p.problems.append(f"{len(windows)} windows, planted {len(self.planted['windows'])}")
        return p

    def _check_window(self, i, w) -> list[str]:
        planted = self.planted["windows"]
        if i >= len(planted):
            return [f"window {i} not planted"]
        first, last = planted[i]
        got = (round(w.start_time * gen.FPS), round(w.end_time * gen.FPS))
        if abs(got[0] - first) > 1 or abs(got[1] - last) > 1:
            return [f"window {i} spans frames {got}, planted {(first, last)}"]
        return []


class TuneGrid(Workload):
    name = "tune_grid"
    work_unit, op_name = "labels", "tune command"
    report_names = ("tune.labels_per_s", "tune.command_ms_p50", "tune.command_ms_p90")

    def run(self, gl, tr=None):
        p = Pass(self.host)
        out, report = self.work / "thresholds.json", self.work / "tuning_report.json"
        argv = ["tune", str(self.work / self.planted["labels"]), "--out", str(out),
                "--report", str(report)]
        stdout = io.StringIO()
        with _span(tr, "bench.op", "tune"):
            a = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = gl.cli.main(argv)
            b = time.perf_counter()
        p.seconds, p.units = b - a, self.planted["count"]
        if code != 0:
            p.op(b - a, "", [f"tune exited {code}"])
            return p
        thresholds, report_text = out.read_text(), report.read_text()
        p.op(b - a, thresholds + report_text + stdout.getvalue(),
             check_thresholds(self.planted, json.loads(thresholds), json.loads(report_text)))
        return p


# Where each tuned rule lands in the thresholds file.
_THRESHOLD_KEYS = {
    "flexion_thumb": "flexion_thumb", "flexion_finger": "flexion_finger",
    "proximity": "proximity", "contact": "contact",
    "thumb_direction": "thumb_dir_angle_threshold", "palm_orientation": "palm_angle_threshold",
}


def check_thresholds(planted: dict, thresholds: dict, report: dict) -> list[str]:
    """Tuned thresholds must sit inside each rule's planted class gap:
    largest positive <= low < high <= smallest negative (one threshold t
    for direction and palm: largest correct <= t < smallest wrong)."""
    problems = []
    for rule, (pos_max, neg_min) in planted["gaps"].items():
        value = thresholds.get(_THRESHOLD_KEYS[rule])
        cell = value if isinstance(value, list) else [value]
        low, high = cell[0], cell[-1]
        ok = (isinstance(low, (int, float)) and pos_max - 1e-9 <= low
              and (len(cell) == 1 or low < high) and high <= neg_min + 1e-9
              and (len(cell) == 2 or low < neg_min))
        if not ok:
            problems.append(f"{rule}: tuned {cell} outside planted gap [{pos_max}, {neg_min}]")
        if len(cell) == 2 and report.get(rule, {}).get("loss") != 0.0:
            problems.append(f"{rule}: separable labels tuned to loss {report.get(rule, {}).get('loss')}")
    return problems


class GroundSessions(Workload):
    name = "ground_sessions"
    work_unit, op_name = "sessions", "session (ground_matrix + transcript)"
    report_names = ("ground.sessions_per_s", "ground.session_ms_p50", "ground.session_ms_p90")

    def load(self, gl, prompts):
        lib = gl.context.ContextLibrary.from_json((self.work / "library.json").read_text())
        self.libs = {"full": lib, "no_gaze": lib.filtered(["function_list", "history", "external"])}
        with open(self.work / "matrices.jsonl") as fh:
            self.matrices = [gl.encoder.matrix_from_json(line) for line in fh]
        self.fixtures = json.loads((self.work / "fixtures.json").read_text())
        self.prompts = prompts
        self.cfg = gl.agents.SessionConfig()

    def run(self, gl, tr=None):
        p = Pass(self.host)
        t0 = time.perf_counter()
        for i, s in enumerate(self.planted["sessions"]):
            with _span(tr, "bench.op", f"session{i}"):
                a = time.perf_counter()
                backend = self.backend(gl, self.fixtures[i])
                conclusion, transcript = gl.agents.ground_matrix(
                    self.matrices[i], self.libs[s["library"]], self.prompts, backend, self.cfg)
                jsonl = transcript.to_jsonl()
                b = time.perf_counter()
            ranked = None if conclusion is None else list(conclusion.ranked_functions)
            p.op(b - a, jsonl + json.dumps(ranked), check_session(s, ranked, backend.calls))
        p.seconds = time.perf_counter() - t0
        p.units = len(self.planted["sessions"])
        return p


def check_session(script: dict, ranked, calls: int) -> list[str]:
    """The conclusion (or Negative) is the one scripted, and the dialogue
    used exactly the scripted replies."""
    problems = []
    if ranked != script["expected"]:
        problems.append(f"concluded {ranked}, scripted {script['expected']}")
    if calls != len(script["replies"]):
        problems.append(f"{calls} model calls, scripted {len(script['replies'])}")
    return problems


class EvalProtocol(Workload):
    name = "eval_protocol"
    work_unit, op_name = "task runs", "run_setting call (one setting, all tasks x repetitions)"
    report_names = ("eval.task_runs_per_s", "eval.run_setting_ms_p50", "eval.run_setting_ms_p90")

    def load(self, gl, prompts):
        self.tasks = gl.evaluation.load_manifest(self.work / "manifest.json")
        self.fixtures = json.loads((self.work / "eval_fixtures.json").read_text())
        ev = gl.evaluation
        self.handles = {
            s: ev.PipelineHandles(prompts=prompts, backend_factory=self._factory(gl, s))
            for s in ev.ContextSetting
        }

    def _factory(self, gl, setting):
        return lambda task: self.backend(gl, self.fixtures[f"{setting.value}/{task.scenario_id}"])

    def run(self, gl, tr=None):
        p = Pass(self.host)
        ev = gl.evaluation
        reps = self.planted["repetitions"]
        runs = []
        t0 = time.perf_counter()
        for setting in ev.ContextSetting:
            with _span(tr, "bench.op", setting.value):
                a = time.perf_counter()
                run = ev.run_setting(self.tasks, setting, repetitions=reps,
                                     handles=self.handles[setting], jobs=1)
                b = time.perf_counter()
            runs.append(run)
            p.op(b - a, _run_text(run), self._check_run(run))
        doc = ev.report(runs, baseline=ev.random_guess_baseline(self.tasks))
        p.seconds = time.perf_counter() - t0
        p.units = len(self.tasks) * reps * len(runs)
        p.extra = doc.json_text + doc.csv_text
        return p

    def _check_run(self, run) -> list[str]:
        setting = run.setting.value
        ranks = [self.planted["planted_ranks"][f"{setting}/{t.scenario_id}"] for t in self.tasks]
        return check_topk(ranks, run, len(self.tasks) * self.planted["repetitions"])


def _run_text(run) -> str:
    m = run.metrics
    return json.dumps({"setting": run.setting.value, "completed": run.completed,
                       "failures": run.failures,
                       "metrics": [[v.mean, v.std] for v in (m.top1, m.top3, m.top5, m.negative)],
                       "costs": [[c.rounds, c.input_tokens, c.output_tokens] for c in run.costs]})


def check_topk(ranks: list, run, task_runs: int) -> list[str]:
    """Top-1/3/5 means equal the fractions the scripts plant; every task
    run completed."""
    problems = []
    for k, value in ((1, run.metrics.top1), (3, run.metrics.top3), (5, run.metrics.top5)):
        want = sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
        if abs(value.mean - want) > 1e-12 or value.std != 0.0:
            problems.append(f"{run.setting.value} top{k} {value.mean}±{value.std}, planted {want}")
    if run.failures or run.completed != task_runs:
        problems.append(f"{run.setting.value}: {run.completed} completed, {run.failures} failed")
    return problems


WORKLOADS = {w.name: w for w in (StreamEncode, TuneGrid, GroundSessions, EvalProtocol)}
