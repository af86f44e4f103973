"""Top-k evaluation protocol: context settings, repetitions, metrics,
and the analytic random-guess baseline.

All tasks' streams are encoded in one batch per protocol run, and each
task's description prompts are built once from its result; every setting
and repetition then grounds that result with the task's context library
filtered to the active setting. Per-task failures score as Negative with
a logged cause so a bad task never aborts a setting.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .agents import Conclusion, DescriptionPrompts, SessionConfig, ground_matrix
from .context import (
    ContextLibrary,
    make_external_context,
    make_function_list_context,
    make_gaze_context,
    make_history_context,
    parse_function_list,
)
from .encoder import GestureStateMatrix, encode_streams
from .errors import GestureLinkError, MalformedInput, parse_finite_json
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
        if self.truth_id not in self.library.function_ids:
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
        values = [getattr(self, name) for name in METRIC_NAMES]
        if not all(math.isfinite(v.mean) and math.isfinite(v.std) for v in values):
            raise MalformedInput(f"metric means and stds must be finite: {values}")
        *means, negative = (v.mean for v in values)
        if not all(a <= b for a, b in zip((0, *means), (*means, 1))):
            raise MalformedInput(f"top-k means must be nested fractions: {tuple(means)}")
        if abs(negative - (1 - means[-1])) > 1e-9:
            raise MalformedInput(f"negative must equal 1 - top{TOP_K[-1]}")


@dataclass(frozen=True)
class SessionCost:
    rounds: int
    input_tokens: int
    output_tokens: int
    latency: float


# The metrics are the Top-k fractions, then Negative = 1 - the widest Top-k.
TOP_K = (1, 3, 5)
METRIC_NAMES = tuple(f.name for f in fields(Metrics))
COST_FIELDS = tuple(f.name for f in fields(SessionCost))


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
    described: DescriptionPrompts | None,
    handles: PipelineHandles,
) -> tuple[int | None, SessionCost]:
    """Ground the matrix of described, the description prompts of the
    first of the task's encoded windows, and rank the truth. None, for no
    window, scores Negative at zero cost."""
    if described is None:
        return None, SessionCost(0, 0, 0, 0.0)
    lib = build_task_library(task, setting)
    backend = handles.backend_factory(task)
    conclusion, transcript = ground_matrix(
        described.matrix, lib, described, backend, handles.session
    )
    cost = SessionCost(transcript.rounds, transcript.total_input_tokens,
                       transcript.total_output_tokens, transcript.total_latency)
    return topk_rank(conclusion, task.truth_id), cost


def _score(rep_ranks: Sequence[Sequence[int | None]]) -> Metrics:
    """One setting's metrics from each repetition's ranks: each Top-k
    fraction's and Negative's mean and population std across repetitions."""
    fractions = np.array([
        [sum(1 for r in ranks if r is not None and r <= k) / len(ranks) for k in TOP_K]
        for ranks in rep_ranks
    ], dtype=float)  # shape (repetitions, len(TOP_K))
    negative = 1.0 - fractions[:, -1]
    return Metrics(
        *map(MetricValue, fractions.mean(axis=0).tolist(), fractions.std(axis=0).tolist()),
        MetricValue(float(negative.mean()), float(negative.std())),
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

    All tasks are encoded in one batch, and each task's description
    prompts are built once, before any task run; every setting and
    repetition grounds those results. Pipeline failures (GestureLinkError,
    OSError) score Negative and are counted, never raised; anything else is
    a bug and propagates. A task the encoder rejects fails alone, logged
    once, in every setting and repetition. With jobs > 1 the task runs
    share one thread pool; each run gets its own backend, so results match
    sequential evaluation.
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
    # Built here, before any thread starts, for all of a task's settings
    # and repetitions.
    prepared = [
        (task, matrices, DescriptionPrompts(matrices[0], handles.prompts) if matrices else None)
        for task, matrices in zip(tasks, encoded)
    ]

    def attempt(run):
        setting, rep, (task, matrices, described) = run
        if matrices is None:
            return None, None
        try:
            return run_task(task, setting, described, handles)
        except (GestureLinkError, OSError) as exc:
            logger.warning(
                "task %s %s rep %d failed (%s); scoring Negative",
                task.scenario_id, setting.value, rep, exc,
            )
            return None, None

    task_runs = [(setting, rep, inputs) for setting in settings
                 for rep in range(repetitions) for inputs in prepared]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(attempt, task_runs))
    else:
        outcomes = list(map(attempt, task_runs))

    n, per_setting = len(tasks), repetitions * len(tasks)
    runs = []
    for start, setting in zip(range(0, len(outcomes), per_setting), settings):
        done = outcomes[start:start + per_setting]
        ranks = [rank for rank, _ in done]
        costs = [cost for _, cost in done if cost is not None]
        runs.append(SettingRun(
            setting=setting,
            metrics=_score([ranks[i:i + n] for i in range(0, per_setting, n)]),
            costs=costs,
            completed=len(costs),
            failures=per_setting - len(costs),
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
    counts = [t if isinstance(t, int) else len(t.library.functions) for t in tasks]
    if not counts or any(n < 1 for n in counts):
        raise MalformedInput("every task needs at least one function")

    topk = [float(np.mean([min(k, n) / n for n in counts])) for k in TOP_K]
    return Metrics(*map(MetricValue, topk), MetricValue(1.0 - topk[-1]))


@dataclass(frozen=True)
class ReportDocument:
    json_text: str
    csv_text: str


_STATS = ("mean", "std")
_COST_KEYS = tuple(f"mean_{name}" for name in COST_FIELDS)
_CSV_COLUMNS = (
    "setting", *(f"{name}_{stat}" for name in METRIC_NAMES for stat in _STATS), *_COST_KEYS,
)


def _cost_summary(costs: Sequence[SessionCost]) -> dict:
    return {
        key: float(np.mean([getattr(c, name) for c in costs])) if costs else None
        for key, name in zip(_COST_KEYS, COST_FIELDS)
    }


def _metrics_doc(m: Metrics) -> dict:
    return {
        name: {stat: round(getattr(getattr(m, name), stat), 6) for stat in _STATS}
        for name in METRIC_NAMES
    }


def _csv_row(setting: str, metrics: Metrics, cost: dict) -> list[str]:
    return [
        setting,
        *(f"{getattr(getattr(metrics, name), stat):.4f}" for name in METRIC_NAMES for stat in _STATS),
        *("unavailable" if value is None else f"{value:.4f}" for value in cost.values()),
    ]


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

    json_text = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True,
                           allow_nan=False) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_CSV_COLUMNS, *rows])
    return ReportDocument(json_text=json_text, csv_text=buf.getvalue())


# --- manifest loading -------------------------------------------------------

def load_manifest(path: str | Path) -> list[TaskRecord]:
    """Dataset manifest: {"tasks": [{scenario_id, stream, interface,
    functions, gaze, history, external, truth}]} with stream paths
    resolved relative to the manifest file. Standard JSON only: a NaN,
    Infinity or 1e999 anywhere in it is MalformedInput."""
    path = Path(path)
    try:
        doc = parse_finite_json(path.read_bytes())
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
