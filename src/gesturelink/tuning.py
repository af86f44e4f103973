"""Three-way correctness assessment, asymmetric loss, and grid search.

Tuning works on the rules' readings (the values the encoder thresholds),
taken once per labeled sample, in one batched call per rule and target,
so sweeping a grid never re-runs the geometry. Rules with a (low, high)
threshold pair are swept over all low < high cells; single-threshold
rules (thumb direction, palm orientation) carry a per-sample candidate
state and sweep only the angle threshold. TUNABLE_RULES holds what tune
knows of each rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import MalformedInput
from .landmarks import HandLandmarkFrame, Handedness
from .rules import (
    CONTACT_FINGERS,
    PROXIMITY_PAIRS,
    PalmOrientation,
    contact_distances,
    curl_readings,
    palm_readings,
    proximity_distances,
    three_way_verdict,
    threshold_verdict,
    thumb_direction_readings,
)


class Assessment(Enum):
    CORRECT = "correct"
    ERROR = "error"
    UNSURE = "unsure"


# Per-outcome losses. The unsure loss sits strictly between correct and
# error so the optimum neither abstains everywhere nor never.
CORRECT_LOSS = 0.0
UNSURE_LOSS = 0.2
ERROR_LOSS = 1.0


@dataclass(frozen=True)
class StateSpace:
    """Discrete states of one rule plus its designated unsure marker."""

    states: frozenset
    unsure: Hashable
    parse: Callable  # label state as written in a dataset -> state

    def __post_init__(self):
        if self.unsure not in self.states:
            raise MalformedInput("unsure marker must be a member of the state space")


def _three_way_state(value) -> int:
    """A three-way label state as a dataset writes it: a JSON number with
    a whole value (1.0 too), not a bool. parse_label checks the range."""
    if type(value) not in (int, float) or value % 1:  # also NaN and the infinities
        raise ValueError(f"three-way label state must be -1, 0 or 1, got {value!r}")
    return int(value)


THREE_WAY_SPACE = StateSpace(frozenset({-1, 0, 1}), 0, _three_way_state)
PALM_SPACE = StateSpace(frozenset(PalmOrientation), PalmOrientation.UNKNOWN, PalmOrientation)


@dataclass(frozen=True)
class GroundTruthLabel:
    """Acceptable states for one rule on one sample; ambiguous labels
    (size >= 2) are kept for assessment but excluded from tuning."""

    acceptable_states: frozenset

    def __post_init__(self):
        if not self.acceptable_states:
            raise MalformedInput("label needs at least one acceptable state")

    @property
    def is_ambiguous(self) -> bool:
        return len(self.acceptable_states) >= 2


def assess(prediction, label: GroundTruthLabel, space: StateSpace) -> Assessment:
    """Unsure if the rule abstained, else correct iff the label accepts."""
    if prediction not in space.states:
        raise MalformedInput(f"prediction {prediction!r} outside state space")
    if not label.acceptable_states <= space.states:
        raise MalformedInput(f"label {label} outside state space")
    if prediction == space.unsure:
        return Assessment.UNSURE
    if prediction in label.acceptable_states:
        return Assessment.CORRECT
    return Assessment.ERROR


def average_loss(assessments: Sequence[Assessment]) -> float:
    if not assessments:
        raise MalformedInput("average_loss over zero assessments")
    per = {
        Assessment.CORRECT: CORRECT_LOSS,
        Assessment.ERROR: ERROR_LOSS,
        Assessment.UNSURE: UNSURE_LOSS,
    }
    return float(np.mean([per[a] for a in assessments]))


def assessment_rates(assessments: Sequence[Assessment]) -> dict[str, float]:
    """error / unsure / correct fractions, as in the tuning report."""
    if not assessments:
        raise MalformedInput("rates over zero assessments")
    n = len(assessments)
    return {
        "error": sum(a == Assessment.ERROR for a in assessments) / n,
        "unsure": sum(a == Assessment.UNSURE for a in assessments) / n,
        "correct": sum(a == Assessment.CORRECT for a in assessments) / n,
    }


@dataclass(frozen=True)
class MeasuredSample:
    """One labeled scalar measurement. candidate_state is the direction /
    orientation the rule would report when decided (single-threshold
    rules only)."""

    measurement: float
    label: GroundTruthLabel
    candidate_state: Hashable = None


# Bounds on the values of one range and on the (low, high) pairs of a
# paired grid, whose score matrix holds one float per pair. The default
# grids have at most 200 values and 40,000 pairs.
MAX_RANGE_VALUES = 10_000
MAX_GRID_PAIRS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Candidate threshold values. high_values empty means the rule has a
    single threshold. Paired cells are every (low, high) with low < high;
    disjoint low/high ranges therefore use the full product."""

    low_values: tuple[float, ...]
    high_values: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.low_values:
            raise MalformedInput("grid has no candidate values")
        if len(self.low_values) * len(self.high_values) > MAX_GRID_PAIRS:
            raise MalformedInput(f"grid has {len(self.low_values)} x {len(self.high_values)} "
                                 f"(low, high) pairs, more than {MAX_GRID_PAIRS}")
        if self.high_values and not any(
            lo < hi for lo in self.low_values for hi in self.high_values
        ):
            raise MalformedInput("no (low, high) cell satisfies low < high")

    @property
    def paired(self) -> bool:
        return bool(self.high_values)

    def cells(self) -> list[tuple[float, ...]]:
        """Cells in lexicographic order (the tie-break order)."""
        if not self.paired:
            return [(v,) for v in sorted(self.low_values)]
        return [
            (lo, hi)
            for lo in sorted(self.low_values)
            for hi in sorted(self.high_values)
            if lo < hi
        ]

    @classmethod
    def from_ranges(
        cls,
        low: tuple[float, float, float],
        high: tuple[float, float, float] | None = None,
    ) -> "GridSpec":
        """Build from inclusive (start, stop, step) ranges."""
        return cls(
            low_values=_expand_range(*low),
            high_values=_expand_range(*high) if high else (),
        )


def _expand_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    if step <= 0 or stop < start:
        raise MalformedInput(f"bad range ({start}, {stop}, {step})")
    n = np.floor((float(stop) - start) / step + 1e-9) + 1
    if not n <= MAX_RANGE_VALUES:  # also an infinite count
        raise MalformedInput(f"range ({start}, {stop}, {step}) has {n:.3g} values, "
                             f"more than {MAX_RANGE_VALUES}")
    return tuple(round(start + k * step, 12) for k in range(int(n)))


@dataclass(frozen=True)
class TunableRule:
    """One rule as tune sees it. read(coords, depth, left, target) gives
    the readings of N frames, from their (N, 21, 3) coordinates and (N,)
    has_depth and left-hand flags: (N measurements, N candidate states or
    None)."""

    field: str  # RuleThresholds field the optimum lands in
    space: StateSpace
    ranges: tuple  # default grid: (low, high) ranges, or (threshold,)
    targets: tuple[str, ...]  # valid targets; empty when the rule takes none
    read: Callable


# Default grids bracket the shipped tuned values and start at their step,
# since RuleThresholds rejects 0.
_DEGREES = ((1, 180, 1), (1, 180, 1))
_DISTANCES = ((0.001, 0.2, 0.001), (0.001, 0.2, 0.001))
_ANGLE = ((1, 90, 1),)

TUNABLE_RULES = {
    "flexion_thumb": TunableRule("flexion_thumb", THREE_WAY_SPACE, _DEGREES, (),
                                 lambda c, depth, left, target: (curl_readings(c, "thumb")[0], None)),
    "flexion_finger": TunableRule("flexion_finger", THREE_WAY_SPACE, _DEGREES, CONTACT_FINGERS,
                                  lambda c, depth, left, finger: (curl_readings(c, finger)[0], None)),
    "proximity": TunableRule("proximity", THREE_WAY_SPACE, _DISTANCES, PROXIMITY_PAIRS,
                             lambda c, depth, left, pair: (proximity_distances(c, pair), None)),
    "contact": TunableRule("contact", THREE_WAY_SPACE, _DISTANCES, CONTACT_FINGERS,
                           lambda c, depth, left, finger: (contact_distances(c, finger), None)),
    "thumb_direction": TunableRule("thumb_dir_angle_threshold", THREE_WAY_SPACE, _ANGLE, (),
                                   lambda c, depth, left, target: thumb_direction_readings(c)[:2]),
    "palm_orientation": TunableRule("palm_angle_threshold", PALM_SPACE, _ANGLE, (),
                                    lambda c, depth, left, target: palm_readings(c, depth, left)[:2]),
}


def tunable_rule(rule_id: str) -> TunableRule:
    if rule_id not in TUNABLE_RULES:
        raise MalformedInput(f"unknown rule id: {rule_id!r}")
    return TUNABLE_RULES[rule_id]


def default_grid(rule_id: str) -> GridSpec:
    return GridSpec.from_ranges(*tunable_rule(rule_id).ranges)


def parse_label(rule_id: str, states: list) -> GroundTruthLabel:
    """A dataset label's acceptable states, which must be the rule's own."""
    rule = tunable_rule(rule_id)
    label = GroundTruthLabel(acceptable_states=frozenset(map(rule.space.parse, states)))
    if not label.acceptable_states <= rule.space.states:
        raise MalformedInput(f"{rule_id} label states outside the rule's states: {states!r}")
    return label


def _tuning_arrays(dataset: Sequence[MeasuredSample], paired: bool):
    if not dataset:
        raise MalformedInput("grid search over zero samples")
    for s in dataset:
        if s.label.is_ambiguous:
            raise MalformedInput("ambiguous labels must be filtered before tuning")
    m = np.array([s.measurement for s in dataset], dtype=float)
    if paired:
        pos_ok = np.array([1 in s.label.acceptable_states for s in dataset])
        neg_ok = np.array([-1 in s.label.acceptable_states for s in dataset])
        return m, pos_ok, neg_ok
    cand_ok = np.array(
        [s.candidate_state in s.label.acceptable_states for s in dataset]
    )
    return m, cand_ok, cand_ok


def _cell_loss(m, ok, cell) -> float:
    """Average of one cell's per-sample loss vector. ok pairs the "+1 is
    correct" and "-1 is correct" masks. The verdicts are those of
    predictions_for_cell; a single-threshold cell has no high, so it
    gives only 1 (decided) or 0."""
    high = cell[1] if len(cell) > 1 else np.nan
    verdict = np.where(m <= cell[0], 1, np.where(m >= high, -1, 0))
    correct = np.where(verdict == 1, ok[0], ok[1])
    loss = np.where(verdict == 0, UNSURE_LOSS, np.where(correct, CORRECT_LOSS, ERROR_LOSS))
    return float(loss.mean())


def grid_search(dataset: Sequence[MeasuredSample], grid: GridSpec
                ) -> tuple[tuple[float, ...], float]:
    """Exhaustive sweep; returns (best cell, minimal average loss).

    Every cell is scored at once from counts over the sorted measurements,
    O(n log n + cells); only cells within a rounding tolerance of the best
    score get their loss recomputed per sample. Ties go to the
    lexicographically smallest cell. The dataset must be pre-filtered of
    ambiguous labels (asserted here).
    """
    m, *ok = _tuning_arrays(dataset, grid.paired)
    lows = sorted(grid.low_values)
    highs = sorted(grid.high_values) if grid.paired else [np.nan]
    order = np.argsort(m, kind="stable")
    s = m[order]
    n = len(s)
    pos_c, neg_c = (np.concatenate(([0], np.cumsum(o[order]))) for o in ok)
    lo_v, hi_v = np.array(lows, dtype=float), np.array(highs, dtype=float)
    # i: count of m <= low; s[j:] are the m >= high plus any NaN, which
    # sorts last and adds the same count to every cell.
    i = np.where(np.isnan(lo_v), 0, np.searchsorted(s, lo_v, "right"))
    j = np.searchsorted(s, hi_v, "left")
    decided = i[:, None] + (n - j)[None, :]
    correct = pos_c[i][:, None] + (neg_c[n] - neg_c[j])[None, :]
    score = correct * CORRECT_LOSS + (decided - correct) * ERROR_LOSS + (n - decided) * UNSURE_LOSS
    if grid.paired:
        score[~(lo_v[:, None] < hi_v[None, :])] = np.inf
    near = score <= score.min() + 1e-9 * n * ERROR_LOSS
    # Cells that split the sorted samples alike share one loss vector.
    best_cell, best_loss, seen = None, np.inf, set()
    for a, b in np.argwhere(near).tolist():
        if (i[a], j[b]) in seen:
            continue
        seen.add((i[a], j[b]))
        cell = (lows[a], highs[b]) if grid.paired else (lows[a],)
        loss = _cell_loss(m, ok, cell)
        if loss < best_loss:
            best_cell, best_loss = cell, loss
    return best_cell, best_loss


def predictions_for_cell(
    dataset: Sequence[MeasuredSample], grid_paired: bool, cell: tuple[float, ...], unsure=0
) -> list:
    """Verdicts of one grid cell over the dataset (report generation)."""
    if grid_paired:
        return [three_way_verdict(s.measurement, *cell) for s in dataset]
    return [threshold_verdict(s.measurement, s.candidate_state, cell[0], unsure) for s in dataset]


def targeted_rule(rule_id: str, target) -> TunableRule:
    """The named rule, once target is checked: it selects the finger or pair
    for flexion_finger/proximity/contact, and must be None for the others."""
    rule = tunable_rule(rule_id)
    if rule.targets and target not in rule.targets:
        raise MalformedInput(
            f"{rule_id} needs a target in {', '.join(rule.targets)}, got {target!r}"
        )
    if not rule.targets and target is not None:
        raise MalformedInput(f"{rule_id} takes no target, got {target!r}")
    return rule


def rule_measurement(
    frame: HandLandmarkFrame, rule_id: str, target: str | None
) -> tuple[float, Hashable]:
    """The named rule's reading of a frame (measurement, candidate state or
    None): the value the encoder thresholds, NaN where it never decides."""
    left = frame.handedness == Handedness.LEFT
    measurements, states = targeted_rule(rule_id, target).read(
        frame.coords[None], np.array([frame.has_depth]), np.array([left]), target)
    return float(measurements[0]), None if states is None else states[0]
