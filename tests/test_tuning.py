import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import FLAT_HAND_POINTS, frame_readings, make_frame, random_points
from gesturelink.errors import MalformedInput
from gesturelink.rules import (
    PalmOrientation,
    RuleThresholds,
    ThreeWay,
    contact,
    flexion,
    palm_orientation,
    proximity,
    thumb_pointing,
)
from gesturelink.tuning import (
    PALM_SPACE,
    THREE_WAY_SPACE,
    TUNABLE_RULES,
    Assessment,
    GridSpec,
    GroundTruthLabel,
    MeasuredSample,
    assess,
    assessment_rates,
    average_loss,
    default_grid,
    grid_search,
    predictions_for_cell,
    rule_measurement,
)


def label(*states):
    return GroundTruthLabel(acceptable_states=frozenset(states))


# --- assessment ---------------------------------------------------------------

def test_assess_correct():
    assert assess(1, label(1), THREE_WAY_SPACE) == Assessment.CORRECT


def test_assess_unsure_regardless_of_label():
    assert assess(0, label(1), THREE_WAY_SPACE) == Assessment.UNSURE
    assert assess(0, label(-1), THREE_WAY_SPACE) == Assessment.UNSURE


def test_assess_error():
    assert assess(-1, label(1), THREE_WAY_SPACE) == Assessment.ERROR


def test_assess_palm_space():
    assert (
        assess(PalmOrientation.LEFT, label(PalmOrientation.LEFT), PALM_SPACE)
        == Assessment.CORRECT
    )
    assert (
        assess(PalmOrientation.UNKNOWN, label(PalmOrientation.LEFT), PALM_SPACE)
        == Assessment.UNSURE
    )


def test_assess_state_space_mismatch():
    with pytest.raises(MalformedInput, match="prediction 2 outside state space"):
        assess(2, label(1), THREE_WAY_SPACE)
    with pytest.raises(MalformedInput, match="label .* outside state space"):
        assess(1, label(5), THREE_WAY_SPACE)


def test_average_loss_values():
    C, E, U = Assessment.CORRECT, Assessment.ERROR, Assessment.UNSURE
    assert average_loss([C, C]) == 0.0
    assert average_loss([U]) == pytest.approx(0.2)
    assert average_loss([C, E, U, C]) == pytest.approx(0.3)


def test_average_loss_empty():
    with pytest.raises(MalformedInput, match="average_loss over zero assessments"):
        average_loss([])


def test_rates_sum_to_one():
    C, E, U = Assessment.CORRECT, Assessment.ERROR, Assessment.UNSURE
    rates = assessment_rates([C, E, U, C, C])
    assert rates["correct"] == pytest.approx(0.6)
    assert rates["error"] == pytest.approx(0.2)
    assert rates["unsure"] == pytest.approx(0.2)


def test_ambiguous_label_flag():
    assert label(1, -1).is_ambiguous
    assert not label(1).is_ambiguous
    with pytest.raises(MalformedInput):
        label()


# --- grid spec -----------------------------------------------------------------

def test_grid_from_ranges_inclusive():
    grid = GridSpec.from_ranges((0, 10, 2))
    assert grid.low_values == (0, 2, 4, 6, 8, 10)
    assert not grid.paired


def test_grid_cells_lexicographic_and_filtered():
    grid = GridSpec(low_values=(3, 1), high_values=(2, 4))
    assert grid.cells() == [(1, 2), (1, 4), (3, 4)]


def test_grid_with_no_valid_cells():
    with pytest.raises(MalformedInput, match=r"no \(low, high\) cell satisfies low < high"):
        GridSpec(low_values=(5,), high_values=(3,))


def test_default_grids_bracket_shipped_optima():
    flex = default_grid("flexion_thumb")
    assert 16 in flex.low_values and 38 in flex.high_values
    assert 57 in flex.low_values and 74 in flex.high_values
    dist = default_grid("proximity")
    assert 0.024 in dist.low_values and 0.029 in dist.high_values
    assert 0.046 in dist.low_values and 0.055 in dist.high_values
    angle = default_grid("palm_orientation")
    assert 40 in angle.low_values and 41 in angle.low_values
    assert not angle.paired


# --- grid search -----------------------------------------------------------------

def _planted_paired_dataset(rng, low_star, high_star, n, tight=1.0):
    """Noiseless separable samples: positives end tight*step below low_star,
    negatives start tight*step above high_star."""
    samples = []
    for _ in range(n // 2):
        samples.append(
            MeasuredSample(measurement=rng.uniform(0, low_star - tight), label=label(1))
        )
        samples.append(
            MeasuredSample(measurement=rng.uniform(high_star + tight, high_star + 40), label=label(-1))
        )
    # Anchor the extremes so the zero-loss region is tight.
    samples.append(MeasuredSample(measurement=low_star - tight, label=label(1)))
    samples.append(MeasuredSample(measurement=high_star + tight, label=label(-1)))
    return samples


def test_grid_search_recovers_planted_thresholds(rng):
    low_star, high_star = 30.0, 60.0
    dataset = _planted_paired_dataset(rng, low_star, high_star, 200)
    grid = GridSpec.from_ranges((0, 180, 1), (0, 180, 1))
    cell, loss = grid_search(dataset, grid)
    assert loss == 0.0
    # The cell at the planted value itself is zero loss too.
    preds = predictions_for_cell(dataset, True, (low_star, high_star))
    assert all(
        assess(p, s.label, THREE_WAY_SPACE) == Assessment.CORRECT
        for p, s in zip(preds, dataset)
    )
    assert cell[0] <= low_star <= cell[1] or abs(cell[0] - low_star) <= 1.0


def test_grid_search_single_cell():
    dataset = [
        MeasuredSample(measurement=10.0, label=label(1)),
        MeasuredSample(measurement=50.0, label=label(-1)),
        MeasuredSample(measurement=30.0, label=label(1)),
    ]
    cell, loss = grid_search(dataset, GridSpec(low_values=(20.0,), high_values=(40.0,)))
    assert cell == (20.0, 40.0)
    # 10 -> +1 correct; 50 -> -1 correct; 30 -> unsure.
    assert loss == pytest.approx(0.2 / 3)


def test_grid_search_rejects_ambiguous_labels():
    dataset = [MeasuredSample(measurement=10.0, label=label(1, -1))]
    with pytest.raises(MalformedInput, match="ambiguous labels must be filtered"):
        grid_search(dataset, GridSpec(low_values=(5.0,), high_values=(15.0,)))


def test_grid_search_empty_dataset():
    with pytest.raises(MalformedInput, match="grid search over zero samples"):
        grid_search([], GridSpec(low_values=(1.0,), high_values=(2.0,)))


def test_grid_search_tie_breaks_lexicographically():
    dataset = [MeasuredSample(measurement=5.0, label=label(1))]
    grid = GridSpec(low_values=(1.0, 2.0, 6.0), high_values=(7.0, 8.0))
    cell, loss = grid_search(dataset, grid)
    assert cell == (6.0, 7.0)
    assert loss == 0.0


def test_grid_search_matches_exhaustive_rescan(rng):
    """Independent re-scan with the scalar assess/average_loss path."""
    dataset = [
        MeasuredSample(measurement=rng.uniform(0, 100), label=label(rng.choice([1, -1])))
        for _ in range(60)
    ]
    grid = GridSpec.from_ranges((10, 50, 10), (55, 95, 10))
    cell, loss = grid_search(dataset, grid)
    losses = {}
    for candidate in grid.cells():
        preds = predictions_for_cell(dataset, True, candidate)
        losses[candidate] = average_loss(
            [assess(p, s.label, THREE_WAY_SPACE) for p, s in zip(preds, dataset)]
        )
    assert loss == pytest.approx(min(losses.values()))
    assert all(loss <= v + 1e-12 for v in losses.values())
    assert losses[cell] == pytest.approx(loss)


def _rescan(dataset, grid):
    """Reference sweep: every cell of grid.cells() in order, each scored by
    its own per-sample loss vector (correct 0, unsure 0.2, error 1); a cell
    wins only on a strictly smaller loss, so ties keep the lexicographically
    first."""
    m = np.array([s.measurement for s in dataset], dtype=float)
    best_cell, best_loss = None, np.inf
    for cell in grid.cells():
        if grid.paired:
            verdict = np.where(m <= cell[0], 1, np.where(m >= cell[1], -1, 0))
            correct = np.array(
                [v in s.label.acceptable_states for v, s in zip(verdict.tolist(), dataset)]
            )
        else:
            verdict = np.where(m <= cell[0], 1, 0)
            correct = np.array([s.candidate_state in s.label.acceptable_states for s in dataset])
        loss = float(np.where(verdict == 0, 0.2, np.where(correct, 0.0, 1.0)).mean())
        if loss < best_loss:
            best_cell, best_loss = cell, loss
    return best_cell, best_loss


def _assert_matches_rescan(dataset, grid):
    cell, loss = grid_search(dataset, grid)
    want_cell, want_loss = _rescan(dataset, grid)
    assert (cell, loss) == (want_cell, want_loss)
    assert [type(v) for v in cell] == [type(v) for v in want_cell]


@pytest.mark.parametrize("seed", range(12))
def test_grid_search_matches_rescan_on_integer_ties(seed):
    local = random.Random(seed)
    dataset = [
        MeasuredSample(measurement=local.randint(0, 15), label=label(local.choice([1, -1])))
        for _ in range(local.randint(1, 60))
    ]
    grid = GridSpec.from_ranges((0, 15, 1), (local.randint(0, 8), 16, 1))
    _assert_matches_rescan(dataset, grid)


@pytest.mark.parametrize("seed", range(12))
def test_grid_search_matches_rescan_on_grid_valued_measurements(seed):
    local = random.Random(seed)
    grid = GridSpec.from_ranges((0.0, 0.03, 0.001), (0.01, 0.05, 0.001))
    values = grid.low_values + grid.high_values
    dataset = [
        MeasuredSample(measurement=local.choice(values), label=label(local.choice([1, -1])))
        for _ in range(local.randint(1, 80))
    ]
    _assert_matches_rescan(dataset, grid)


@pytest.mark.parametrize("seed", range(12))
def test_grid_search_matches_rescan_on_duplicate_and_disjoint_grids(seed):
    local = random.Random(seed)
    dataset = [
        MeasuredSample(
            measurement=local.choice([local.uniform(0, 100), float(local.randint(0, 10) * 10)]),
            label=label(local.choice([1, -1])),
        )
        for _ in range(local.randint(1, 50))
    ]
    lows = tuple(local.choice(range(0, 70, 10)) for _ in range(8))
    if local.random() < 0.5:  # disjoint: every high above every low
        highs = tuple(local.choice(range(70, 110, 5)) for _ in range(6))
    else:  # overlapping, with repeats
        highs = tuple(local.choice(range(0, 110, 10)) for _ in range(8)) + (100,)
    grid = GridSpec(low_values=lows + (0,), high_values=highs)
    _assert_matches_rescan(dataset, grid)


@pytest.mark.parametrize("seed", range(12))
def test_grid_search_matches_rescan_on_palm_candidates(seed):
    local = random.Random(seed)
    decided = [o for o in PalmOrientation if o != PalmOrientation.UNKNOWN]
    dataset = [
        MeasuredSample(
            measurement=local.choice([float(local.randint(0, 90)), local.uniform(0, 90)]),
            label=label(local.choice(decided)),
            candidate_state=local.choice(decided),
        )
        for _ in range(local.randint(1, 60))
    ]
    grid = GridSpec.from_ranges((0, 90, 1))
    _assert_matches_rescan(dataset, grid)


@pytest.mark.parametrize("seed", range(6))
def test_grid_search_matches_rescan_with_nan(seed):
    # NaN is neither <= low nor >= high: always unsure, as in the rescan.
    local = random.Random(seed)
    dataset = [
        MeasuredSample(
            measurement=local.choice([float("nan"), float(local.randint(0, 10))]),
            label=label(local.choice([1, -1])),
            candidate_state=local.choice([1, -1]),
        )
        for _ in range(local.randint(1, 30))
    ]
    nan = float("nan")
    _assert_matches_rescan(dataset, GridSpec(low_values=(2, nan, 5), high_values=(nan, 6, 9)))
    _assert_matches_rescan(dataset, GridSpec(low_values=(nan, 3, 7)))


def test_grid_search_real_valued_tie_goes_to_first_cell():
    # (1, 5.2) leaves the five positives unsure (5 x 0.2); (6, 7) decides
    # them all but calls the negative at 5.5 positive (1 x 1.0). Equal loss.
    dataset = [MeasuredSample(measurement=5.0, label=label(1)) for _ in range(5)]
    dataset.append(MeasuredSample(measurement=5.5, label=label(-1)))
    grid = GridSpec(low_values=(6.0, 1.0), high_values=(7.0, 5.2))
    cell, loss = grid_search(dataset, grid)
    assert cell == (1.0, 5.2)
    assert loss == pytest.approx(1 / 6)
    assert (cell, loss) == _rescan(dataset, grid)


def test_single_threshold_grid_search():
    # Direction rule: candidate state is what the rule reports when decided.
    dataset = [
        MeasuredSample(measurement=10.0, label=label(1), candidate_state=1),
        MeasuredSample(measurement=20.0, label=label(-1), candidate_state=-1),
        MeasuredSample(measurement=70.0, label=label(1), candidate_state=-1),  # would be wrong
    ]
    cell, loss = grid_search(dataset, GridSpec.from_ranges((0, 90, 10)))
    # Threshold 20 decides the first two correctly and abstains on the third.
    assert cell == (20.0,)
    assert loss == pytest.approx(0.2 / 3)


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(10, 40),
    high=st.floats(50, 90),
    widen_low=st.floats(0, 10),
    widen_high=st.floats(0, 10),
)
def test_widening_unsure_band_never_increases_errors(seed, low, high, widen_low, widen_high):
    local = random.Random(seed)
    dataset = [
        MeasuredSample(measurement=local.uniform(0, 100), label=label(local.choice([1, -1])))
        for _ in range(40)
    ]

    def error_count(lo, hi):
        preds = predictions_for_cell(dataset, True, (lo, hi))
        return sum(
            assess(p, s.label, THREE_WAY_SPACE) == Assessment.ERROR
            for p, s in zip(preds, dataset)
        )

    assert error_count(low - widen_low, high + widen_high) <= error_count(low, high)


# --- measurement bridge ----------------------------------------------------------

def test_rule_measurements_match_oracles(flat_hand):
    points = FLAT_HAND_POINTS
    m, cand = rule_measurement(flat_hand, "flexion_thumb", None)
    assert m == pytest.approx(oracles.oracle_curl(points, "thumb"), abs=1e-9)
    assert cand is None
    m, _ = rule_measurement(flat_hand, "flexion_finger", "index")
    assert m == pytest.approx(oracles.oracle_curl(points, "index"), abs=1e-9)
    m, _ = rule_measurement(flat_hand, "proximity", "index_middle")
    assert m == pytest.approx(
        oracles.oracle_proximity_distance(points, "index", "middle"), abs=1e-12
    )
    m, _ = rule_measurement(flat_hand, "contact", "index")
    assert m == pytest.approx(oracles.oracle_contact_distance(points, "index"), abs=1e-12)
    angle, direction = rule_measurement(flat_hand, "thumb_direction", None)
    assert direction == 1  # flat-hand thumb leans up
    assert angle == pytest.approx(30.96, abs=0.01)
    angle, orientation = rule_measurement(flat_hand, "palm_orientation", None)
    assert orientation == PalmOrientation.OUTWARD
    assert angle == pytest.approx(0.0, abs=1e-6)


def test_rule_measurement_rejects_unknown_rule(flat_hand):
    with pytest.raises(MalformedInput):
        rule_measurement(flat_hand, "grip_strength", None)


@pytest.mark.parametrize(
    "rule_id, target",
    [("flexion_finger", "thumb"), ("proximity", "bogus"), ("proximity", None),
     ("contact", "thumb")],
)
def test_rule_measurement_rejects_unknown_target(flat_hand, rule_id, target):
    with pytest.raises(MalformedInput, match=rule_id):
        rule_measurement(flat_hand, rule_id, target)


@pytest.mark.parametrize("rule_id", sorted(TUNABLE_RULES))
def test_default_grids_start_above_zero(rule_id):
    # RuleThresholds rejects 0, so no default grid may offer it.
    grid = default_grid(rule_id)
    assert min(grid.low_values + grid.high_values) > 0


# --- tuner and encoder read a label alike ------------------------------------------

# Joint groups made coincident: thumb MCP/TIP (thumb vector), index MCP/PIP and
# middle DIP/TIP (bones), wrist and MCPs (palm normal), index PIP/DIP/TIP
# (proximity segments), thumb/index tips (contact at distance 0).
_COINCIDENT = ((2, 4), (5, 6), (11, 12), (0, 5, 9, 17), (6, 7, 8), (4, 8))

# The encoder's verdict on a frame's readings (conftest.frame_readings).
_ENCODER_VERDICTS = {
    "flexion_thumb": lambda r, target, th: flexion(r.curl["thumb"], "thumb", th),
    "flexion_finger": lambda r, target, th: flexion(r.curl[target], target, th),
    "proximity": lambda r, target, th: proximity(r.proximity[target], th),
    "contact": lambda r, target, th: contact(r.contact[target], th),
    "thumb_direction": lambda r, target, th: thumb_pointing(r.thumb, ThreeWay.POSITIVE, th),
    "palm_orientation": lambda r, target, th: palm_orientation(r.palm, th),
}
# Where random cells are drawn, per kind of reading.
_CELL_SPAN = {"flexion": 300.0, "distance": 0.6, "angle": 90.0}


def _property_frames(rng, n=1000):
    """Random hands and jittered flat hands; every third has a coincident
    joint group and every fourth is 2-D (z = 0, no depth)."""
    for i in range(n):
        if i % 2:
            points = random_points(rng)
        else:
            points = [tuple(c + rng.gauss(0, 0.03) for c in p) for p in FLAT_HAND_POINTS]
        if i % 3 == 0:
            group = rng.choice(_COINCIDENT)
            for j in group[1:]:
                points[j] = points[group[0]]
        has_depth = i % 4 != 3
        if not has_depth:
            points = [(x, y, 0.0) for x, y, _ in points]
        yield make_frame(points, has_depth=has_depth)


def _random_cell(rng, rule_id, paired, measurement):
    kind = ("flexion" if rule_id.startswith("flexion")
            else "distance" if rule_id in ("proximity", "contact") else "angle")
    values = [rng.uniform(0.001, _CELL_SPAN[kind]) for _ in range(2)]
    if measurement > 0 and rng.random() < 0.2:  # a threshold exactly on the reading
        values[rng.randrange(2)] = measurement
    cell = tuple(sorted(values))
    return cell if paired else cell[:1]


def _rule_targets():
    for rule_id, rule in sorted(TUNABLE_RULES.items()):
        for target in rule.targets or (None,):
            yield rule_id, rule, target


def test_tuner_verdict_equals_encoder_verdict_and_grid_loss(rng):
    """Every label the tuner scores gets the verdict encode gives the same
    frame under thresholds set to the cell, including coincident joints
    and 2-D frames; a one-cell grid_search scores those verdicts as
    average_loss over assess does."""
    frames = list(_property_frames(rng))
    readings = [frame_readings(frame) for frame in frames]
    checked = 0
    for rule_id, rule, target in _rule_targets():
        paired = len(rule.ranges) == 2
        states = sorted(rule.space.states, key=str)
        samples = []
        for frame, r in zip(frames, readings):
            measurement, candidate = rule_measurement(frame, rule_id, target)
            sample = MeasuredSample(measurement, label(rng.choice(states)), candidate)
            cell = _random_cell(rng, rule_id, paired, measurement)
            th = RuleThresholds(**{rule.field: cell if paired else cell[0]})
            tuned = predictions_for_cell([sample], paired, cell, unsure=rule.space.unsure)
            assert tuned == [_ENCODER_VERDICTS[rule_id](r, target, th)], (
                rule_id, target, frame.coords.tolist(), frame.has_depth, cell)
            samples.append(sample)
            checked += 1
        for _ in range(3):
            cell = _random_cell(rng, rule_id, paired, np.nan)
            grid = GridSpec(low_values=cell[:1], high_values=cell[1:])
            preds = predictions_for_cell(samples, paired, cell, unsure=rule.space.unsure)
            want = average_loss(
                [assess(p, s.label, rule.space) for p, s in zip(preds, samples)]
            )
            assert grid_search(samples, grid) == (cell, want)
    assert checked == 14 * len(frames)
