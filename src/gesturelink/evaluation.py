"""Top-k evaluation protocol: context settings, repetitions, metrics,
and the analytic random-guess baseline.

All tasks' streams are encoded in one batch per protocol run; every
setting and repetition then grounds each task's result with its context
library filtered to the active setting. Per-task failures score as
Negative with a logged cause so a bad task never aborts a setting.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .agents import Conclusion, SessionConfig, ground_matrix
from .context import (
    ContextLibrary,
    function_entries,
    make_external_context,
    make_function_list_context,
    make_gaze_context,
    make_history_context,
    parse_function_list,
)
from .encoder import GestureStateMatrix, encode_streams
from .errors import GestureLinkError, MalformedInput, parse_json
from .landmarks import LandmarkStream, parse_landmark_stream
from .prompts import AgentPromptSet
from .rules import RuleThresholds

logger = logging.getLogger(__name__)


class ContextSetting(Enum):
    BASELINE = "baseline"
    ONLY_GAZE = "only_gaze"
    ONLY_HISTORY_EXTERNAL = "only_history_external"
    ALL = "all"


# Context types exposed per setting; the function list is always present.
SETTING_CONTEXTS = {
    ContextSetting.BASELINE: ("function_list",),
    ContextSetting.ONLY_GAZE: ("function_list", "gaze"),
    ContextSetting.ONLY_HISTORY_EXTERNAL: ("function_list", "history", "external"),
    ContextSetting.ALL: ("function_list", "gaze", "history", "external"),
}


@dataclass(frozen=True)
class TaskRecord:
    """One evaluation task: a landmark stream, its full context library,
    and the ground-truth function id."""

    scenario_id: str
    stream: LandmarkStream
    library: ContextLibrary
    truth_id: str

    def __post_init__(self):
        if self.truth_id not in {f.id for f in function_entries(self.library)}:
            raise MalformedInput(
                f"task {self.scenario_id}: truth id {self.truth_id!r} not in function list"
            )


@dataclass(frozen=True)
class MetricValue:
    mean: float
    std: float = 0.0


@dataclass(frozen=True)
class Metrics:
    top1: MetricValue
    top3: MetricValue
    top5: MetricValue
    negative: MetricValue

    def __post_init__(self):
        means = (self.top1.mean, self.top3.mean, self.top5.mean)
        if not (0 <= means[0] <= means[1] <= means[2] <= 1):
            raise MalformedInput(f"top-k means must be nested fractions: {means}")
        if abs(self.negative.mean - (1 - self.top5.mean)) > 1e-9:
            raise MalformedInput("negative must equal 1 - top5")


@dataclass(frozen=True)
class SessionCost:
    rounds: int
    input_tokens: int
    output_tokens: int
    latency: float


@dataclass
class SettingRun:
    setting: ContextSetting
    metrics: Metrics
    costs: list[SessionCost] = field(default_factory=list)
    completed: int = 0
    failures: int = 0


@dataclass(frozen=True)
class PipelineHandles:
    """Everything run_protocol needs to execute a task end to end. The
    backend factory yields a fresh backend per task run so scripted
    replays stay independent."""

    prompts: AgentPromptSet
    backend_factory: Callable[[TaskRecord], object]
    thresholds: RuleThresholds = RuleThresholds()
    session: SessionConfig = SessionConfig()


def topk_rank(conclusion: Conclusion | None, truth_id: str) -> int | None:
    """1-based position of the truth in the ranking; None if absent or
    the session was Negative."""
    if conclusion is None:
        return None
    try:
        return conclusion.ranked_functions.index(truth_id) + 1
    except ValueError:
        return None


def build_task_library(task: TaskRecord, setting: ContextSetting) -> ContextLibrary:
    """The task's library, filtered to the setting's types."""
    return task.library.filtered(SETTING_CONTEXTS[setting])


def run_task(
    task: TaskRecord,
    setting: ContextSetting,
    matrices: Sequence[GestureStateMatrix],
    handles: PipelineHandles,
) -> tuple[int | None, SessionCost]:
    """Ground the first of the task's encoded windows, rank the truth. No
    window scores Negative at zero cost."""
    if not matrices:
        return None, SessionCost(0, 0, 0, 0.0)
    lib = build_task_library(task, setting)
    backend = handles.backend_factory(task)
    conclusion, transcript = ground_matrix(
        matrices[0], lib, handles.prompts, backend, handles.session
    )
    cost = SessionCost(
        rounds=transcript.rounds,
        input_tokens=transcript.total_input_tokens,
        output_tokens=transcript.total_output_tokens,
        latency=transcript.total_latency,
    )
    return topk_rank(conclusion, task.truth_id), cost


def _ranks_to_fractions(ranks: Sequence[int | None]) -> tuple[float, float, float]:
    n = len(ranks)
    top1 = sum(1 for r in ranks if r is not None and r <= 1) / n
    top3 = sum(1 for r in ranks if r is not None and r <= 3) / n
    top5 = sum(1 for r in ranks if r is not None and r <= 5) / n
    return top1, top3, top5


def _aggregate(per_rep: Sequence[tuple[float, float, float]]) -> Metrics:
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


def _encode_task(task: TaskRecord, matrices) -> list[GestureStateMatrix] | None:
    """The task's windows, or None when the encoder failed (logged here, once)."""
    if isinstance(matrices, GestureLinkError):
        logger.warning(
            "task %s failed to encode (%s); scoring Negative in every setting and repetition",
            task.scenario_id, matrices,
        )
        return None
    if not matrices:
        logger.warning("task %s: no gesture window detected", task.scenario_id)
    elif len(matrices) > 1:
        logger.info("task %s: %d windows, grounding the first", task.scenario_id, len(matrices))
    return matrices


def run_protocol(
    tasks: Sequence[TaskRecord],
    settings: Sequence[ContextSetting],
    repetitions: int = 3,
    handles: PipelineHandles | None = None,
    jobs: int = 1,
) -> list[SettingRun]:
    """Run every task `repetitions` times under each context setting.

    All tasks are encoded in one batch; every setting and repetition grounds
    those results. Pipeline failures (GestureLinkError, OSError) score
    Negative and are counted, never raised; anything else is a bug and
    propagates. A task the encoder rejects fails alone, logged once, in
    every setting and repetition. With jobs > 1 the task runs share one
    thread pool; each run gets its own backend, so results match sequential
    evaluation.
    """
    if repetitions < 1:
        raise MalformedInput("repetitions must be >= 1")
    if handles is None:
        raise MalformedInput("evaluation needs pipeline handles")
    if not tasks:
        raise MalformedInput("evaluation needs at least one task")
    if jobs < 1:
        raise MalformedInput(f"jobs must be >= 1, got {jobs}")
    if len(set(settings)) != len(settings):
        raise MalformedInput("each context setting may be run only once")
    encoded = [_encode_task(task, result) for task, result in
               zip(tasks, encode_streams([task.stream for task in tasks], handles.thresholds))]

    def attempt(run):
        setting, rep, task, matrices = run
        if matrices is None:
            return None, None
        try:
            return run_task(task, setting, matrices, handles)
        except (GestureLinkError, OSError) as exc:
            logger.warning(
                "task %s %s rep %d failed (%s); scoring Negative",
                task.scenario_id, setting.value, rep, exc,
            )
            return None, None

    task_runs = [
        (setting, rep, task, matrices)
        for setting in settings
        for rep in range(repetitions)
        for task, matrices in zip(tasks, encoded)
    ]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = iter(list(pool.map(attempt, task_runs)))
    else:
        outcomes = map(attempt, task_runs)

    runs = []
    for setting in settings:
        per_rep = []
        costs: list[SessionCost] = []
        for _ in range(repetitions):
            done = list(itertools.islice(outcomes, len(tasks)))
            per_rep.append(_ranks_to_fractions([rank for rank, _ in done]))
            costs += [cost for _, cost in done if cost is not None]
        runs.append(SettingRun(
            setting=setting,
            metrics=_aggregate(per_rep),
            costs=costs,
            completed=len(costs),
            failures=repetitions * len(tasks) - len(costs),
        ))
    return runs


def run_setting(
    tasks: Sequence[TaskRecord],
    setting: ContextSetting,
    repetitions: int = 3,
    handles: PipelineHandles | None = None,
    jobs: int = 1,
) -> SettingRun:
    """run_protocol for one context setting."""
    return run_protocol(tasks, [setting], repetitions, handles, jobs)[0]


def random_guess_baseline(tasks: Sequence) -> Metrics:
    """Closed-form uniform-guess expectation: Top-k = mean of min(k, N)/N.

    Accepts TaskRecord objects or bare function counts.
    """
    counts = [t if isinstance(t, int) else len(function_entries(t.library)) for t in tasks]
    if not counts or any(n < 1 for n in counts):
        raise MalformedInput("every task needs at least one function")

    def expected(k: int) -> float:
        return float(np.mean([min(k, n) / n for n in counts]))

    top5 = expected(5)
    return Metrics(
        top1=MetricValue(expected(1)),
        top3=MetricValue(expected(3)),
        top5=MetricValue(top5),
        negative=MetricValue(1.0 - top5),
    )


@dataclass(frozen=True)
class ReportDocument:
    json_text: str
    csv_text: str


_CSV_COLUMNS = (
    "setting",
    "top1_mean", "top1_std", "top3_mean", "top3_std",
    "top5_mean", "top5_std", "negative_mean", "negative_std",
    "mean_rounds", "mean_input_tokens", "mean_output_tokens", "mean_latency",
)


def _cost_summary(costs: Sequence[SessionCost]) -> dict:
    if not costs:
        return {
            "mean_rounds": None,
            "mean_input_tokens": None,
            "mean_output_tokens": None,
            "mean_latency": None,
        }
    return {
        "mean_rounds": float(np.mean([c.rounds for c in costs])),
        "mean_input_tokens": float(np.mean([c.input_tokens for c in costs])),
        "mean_output_tokens": float(np.mean([c.output_tokens for c in costs])),
        "mean_latency": float(np.mean([c.latency for c in costs])),
    }


def _metrics_doc(m: Metrics) -> dict:
    return {
        name: {"mean": round(getattr(m, name).mean, 6), "std": round(getattr(m, name).std, 6)}
        for name in ("top1", "top3", "top5", "negative")
    }


def _csv_row(setting: str, metrics: Metrics, cost: dict) -> dict:
    row = {"setting": setting}
    for name in ("top1", "top3", "top5", "negative"):
        row[f"{name}_mean"] = f"{getattr(metrics, name).mean:.4f}"
        row[f"{name}_std"] = f"{getattr(metrics, name).std:.4f}"
    for col, value in cost.items():
        row[col] = "unavailable" if value is None else f"{value:.4f}"
    return row


def report(
    runs: Sequence[SettingRun], baseline: Metrics | None = None
) -> ReportDocument:
    """Deterministic JSON + CSV mirroring the headline results table, with
    per-setting cost accounting (marked unavailable when absent)."""
    doc: dict = {"settings": {}}
    rows = []
    if baseline is not None:
        doc["random_guess"] = _metrics_doc(baseline)
        rows.append(_csv_row("random_guess", baseline, _cost_summary([])))
    for run in runs:
        cost = _cost_summary(run.costs)
        doc["settings"][run.setting.value] = {
            "metrics": _metrics_doc(run.metrics),
            "cost": cost,
            "completed": run.completed,
            "failures": run.failures,
        }
        rows.append(_csv_row(run.setting.value, run.metrics, cost))

    json_text = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return ReportDocument(json_text=json_text, csv_text=buf.getvalue())


# --- manifest loading -------------------------------------------------------

def load_manifest(path: str | Path) -> list[TaskRecord]:
    """Dataset manifest: {"tasks": [{scenario_id, stream, interface,
    functions, gaze, history, external, truth}]} with stream paths
    resolved relative to the manifest file."""
    path = Path(path)
    try:
        doc = parse_json(path.read_bytes())
    except (OSError, MalformedInput) as exc:
        raise MalformedInput(f"bad manifest {path}: {exc}") from exc
    entries = doc.get("tasks", []) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise MalformedInput(f"bad manifest {path}: must hold {{\"tasks\": [...]}}")
    tasks = []
    for entry in entries:
        try:
            functions = parse_function_list(entry)
            library = ContextLibrary([
                make_function_list_context(str(entry.get("interface", "interface")), functions),
                make_gaze_context(list(entry.get("gaze", ()))),
                make_history_context(list(entry.get("history", ()))),
                make_external_context(list(entry.get("external", ()))),
            ], functions)
            try:  # the stream file's own errors name it
                stream = parse_landmark_stream((path.parent / entry["stream"]).read_bytes())
            except MalformedInput as exc:
                raise MalformedInput(f"{entry['stream']}: {exc}") from exc
            tasks.append(TaskRecord(
                scenario_id=str(entry["scenario_id"]),
                stream=stream,
                library=library,
                truth_id=str(entry["truth"]),
            ))
        except (KeyError, TypeError, ValueError, OSError, MalformedInput) as exc:
            raise MalformedInput(f"bad task entry in {path}: {exc}") from exc
    if not tasks:
        raise MalformedInput(f"manifest {path} has no tasks")
    return tasks
