"""Per-layer metrics derived from the spans and counts of a traced run.

Every workload reports every metric; a layer the workload never calls
reads 0 there (see README.md for which workload moves which metric).
Times are means over the traced passes; counts and ratios come from
counters, so they repeat exactly for a given seed.
"""

from __future__ import annotations

from collections import defaultdict

from spans import ATTRS, END, LAYERS, NAME, PARENT, START, layer_of, self_times

RULES = ("flexion", "proximity", "contact", "thumb_pointing", "palm_orientation")
TUNED_RULES = ("contact", "flexion_finger", "flexion_thumb", "palm_orientation", "proximity",
               "thumb_direction")  # the order the tune command visits them
STYLES = ("plain", "fenced", "prose", "stray_brace", "malformed")
SETTINGS = ("baseline", "only_gaze", "only_history_external", "all")

# name -> (unit, better)
PER_LAYER = {
    "landmarks.parse_us_per_frame": ("us", "lower"),
    "encoder.segment_us_per_frame": ("us", "lower"),
    "encoder.sample_ms_per_window.short": ("ms", "lower"),
    "encoder.sample_ms_per_window.long": ("ms", "lower"),
    "encoder.build_us_per_sample": ("us", "lower"),
    "encoder.serialize_us_per_matrix": ("us", "lower"),
    "encoder.encode_calls_per_task_run": ("count", "lower"),
    "rules.pose_us_per_sample": ("us", "lower"),
    **{f"rules.{r}_us_per_call": ("us", "lower") for r in RULES + ("hand_center",)},
    **{f"rules.decided_ratio.{r}": ("ratio", "higher") for r in RULES},
    "rules.degenerate_count": ("count", "lower"),
    "tuning.measure_us_per_label": ("us", "lower"),
    **{f"tuning.grid_search_s.{r}": ("s", "lower") for r in TUNED_RULES},
    "tuning.cell_evals_per_s": ("1/s", "higher"),
    "tuning.report_ms": ("ms", "lower"),
    "agents.describe_ms_per_session": ("ms", "lower"),
    "agents.inference_us_per_round": ("us", "lower"),
    **{f"agents.extract_json_us_per_reply.{s}": ("us", "lower") for s in STYLES},
    "agents.repair_ratio": ("ratio", "lower"),
    "agents.negative_ratio": ("ratio", "lower"),
    "agents.rounds_per_session": ("count", "lower"),
    "transport.complete_us_per_call": ("us", "lower"),
    "transport.message_hash_us_per_call": ("us", "lower"),
    "transport.request_chars_per_call": ("chars", "lower"),
    "ground.input_tokens_per_session": ("count", "lower"),
    "ground.output_tokens_per_session": ("count", "lower"),
    "ground.model_calls_per_session": ("count", "lower"),
    "context.calculate_us_per_placeholder": ("us", "lower"),
    "context.library_build_us": ("us", "lower"),
    "context.placeholder_failed_ratio": ("ratio", "lower"),
    "prompts.load_ms": ("ms", "lower"),
    "prompts.render_us_per_call": ("us", "lower"),
    **{f"evaluation.run_setting_s.{s}": ("s", "lower") for s in SETTINGS},
    "evaluation.encode_share": ("ratio", "lower"),
    "evaluation.report_ms": ("ms", "lower"),
    "evaluation.failures": ("count", "lower"),
    **{f"{layer}.self_ms_per_pass": ("ms", "lower") for layer in LAYERS + ("bench",)},
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans_per_pass": ("count", "lower"),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_metrics(spans, counts, *, traced_pass_s, untraced_pass_s, passes,
                      prompts_load_ms, degenerate_count) -> dict[str, float]:
    """All PER_LAYER values from one traced run's spans and counters."""
    total = defaultdict(int)  # name -> summed inclusive ns
    calls = defaultdict(int)
    by_attr = defaultdict(list)  # (name, attr value) -> durations
    for s in spans:
        d = s[END] - s[START]
        total[s[NAME]] += d
        calls[s[NAME]] += 1
        attrs = s[ATTRS]
        if attrs:
            for key in ("kind", "style", "setting"):
                if key in attrs:
                    by_attr[(s[NAME], attrs[key])].append(d)

    def mean_us(name):
        return _ratio(total[name], calls[name]) / 1e3

    def mean_attr(name, value, scale):
        ds = by_attr[(name, value)]
        return _ratio(sum(ds), len(ds)) / scale

    m = {}
    c = counts
    m["landmarks.parse_us_per_frame"] = _ratio(total["landmarks.parse_landmark_stream"],
                                               c.get("landmarks.frames", 0)) / 1e3
    m["encoder.segment_us_per_frame"] = _ratio(total["encoder.detect_gesture_window"],
                                               c.get("encoder.segmented_frames", 0)) / 1e3
    for kind in ("short", "long"):
        m[f"encoder.sample_ms_per_window.{kind}"] = mean_attr("encoder.sample_window", kind, 1e6)
    m["encoder.build_us_per_sample"] = _ratio(total["encoder.build_state_matrix"],
                                              c.get("encoder.built_samples", 0)) / 1e3
    m["encoder.serialize_us_per_matrix"] = _ratio(
        total["encoder.serialize_matrix"] + total["encoder.matrix_to_json"],
        calls["encoder.serialize_matrix"]) / 1e3
    m["encoder.encode_calls_per_task_run"] = _ratio(calls["encoder.encode_stream"],
                                                    calls["evaluation.run_task"])
    m["rules.pose_us_per_sample"] = mean_us("rules.encode_pose_vector")
    for r in RULES + ("hand_center",):
        m[f"rules.{r}_us_per_call"] = mean_us(f"rules.{r}")
    for r in RULES:
        m[f"rules.decided_ratio.{r}"] = _ratio(c.get(f"rules.{r}.decided", 0),
                                               c.get(f"rules.{r}.verdicts", 0))
    m["rules.degenerate_count"] = degenerate_count

    m["tuning.measure_us_per_label"] = mean_us("tuning.rule_measurement")
    grid = defaultdict(list)
    cells = 0
    for rule, s in _grid_searches(spans):
        grid[rule].append(s[END] - s[START])
        cells += s[ATTRS]["cells"]
    for r in TUNED_RULES:
        m[f"tuning.grid_search_s.{r}"] = _ratio(sum(grid[r]), len(grid[r])) / 1e9
    m["tuning.cell_evals_per_s"] = _ratio(cells, total["tuning.grid_search"] / 1e9)
    m["tuning.report_ms"] = _ratio(
        total["tuning.predictions_for_cell"] + total["tuning.assess"]
        + total["tuning.assessment_rates"], calls["cli.main"]) / 1e6

    sessions = c.get("agents.sessions", 0)
    m["agents.describe_ms_per_session"] = _ratio(
        total["agents.describe_pose"] + total["agents.describe_movement"], sessions) / 1e6
    own = self_times(spans)
    inference_self = sum(own[i] for i, s in enumerate(spans)
                         if s[NAME] == "agents.run_inference_session")
    m["agents.inference_us_per_round"] = _ratio(inference_self, c.get("agents.rounds", 0)) / 1e3
    for style in STYLES:
        m[f"agents.extract_json_us_per_reply.{style}"] = mean_attr(
            "agents.extract_json_object", style, 1e3)
    model_calls = c.get("transport.calls", 0)
    m["agents.repair_ratio"] = _ratio(c.get("agents.repairs", 0), model_calls)
    m["agents.negative_ratio"] = _ratio(c.get("agents.negative", 0), sessions)
    m["agents.rounds_per_session"] = _ratio(c.get("agents.rounds", 0), sessions)

    m["transport.complete_us_per_call"] = mean_us("transport.complete")
    m["transport.message_hash_us_per_call"] = mean_us("transport.message_hash")
    m["transport.request_chars_per_call"] = _ratio(c.get("transport.request_chars", 0), model_calls)
    m["ground.input_tokens_per_session"] = _ratio(c.get("transport.input_tokens", 0), sessions)
    m["ground.output_tokens_per_session"] = _ratio(c.get("transport.output_tokens", 0), sessions)
    m["ground.model_calls_per_session"] = _ratio(model_calls, sessions)

    m["context.calculate_us_per_placeholder"] = mean_us("context.calculate")
    library = ("evaluation.build_task_library", "context.filtered", "context.render_library_prompt")
    outermost = sum(s[END] - s[START] for s in spans
                    if s[NAME] in library and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in library))
    m["context.library_build_us"] = _ratio(outermost, sessions) / 1e3
    failed = c.get("context.calculate.raised", 0)
    m["context.placeholder_failed_ratio"] = _ratio(failed, failed + c.get("context.calculate.ok", 0))

    m["prompts.load_ms"] = prompts_load_ms
    m["prompts.render_us_per_call"] = mean_us("prompts.render_prompt")

    for setting in SETTINGS:
        m[f"evaluation.run_setting_s.{setting}"] = mean_attr("evaluation.run_setting", setting, 1e9)
    m["evaluation.encode_share"] = _ratio(total["encoder.encode_stream"],
                                          total["evaluation.run_setting"])
    m["evaluation.report_ms"] = _ratio(
        total["evaluation.report"] + total["evaluation.random_guess_baseline"], passes) / 1e6
    m["evaluation.failures"] = _ratio(c.get("evaluation.failures", 0), passes)

    # Self time per layer, over spans inside passes only.
    in_pass = [False] * len(spans)
    for i, s in enumerate(spans):
        in_pass[i] = s[NAME] == "bench.pass" or (s[PARENT] >= 0 and in_pass[s[PARENT]])
    layer_self = defaultdict(int)
    span_count = 0
    for i, s in enumerate(spans):
        if in_pass[i]:
            layer_self[layer_of(s[NAME])] += own[i]
            span_count += 1
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_ms_per_pass"] = _ratio(layer_self[layer], passes) / 1e6
    m["trace.overhead_pct"] = 100.0 * (_ratio(traced_pass_s, untraced_pass_s) - 1.0)
    m["trace.spans_per_pass"] = _ratio(span_count, passes)
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of sync: {set(m) ^ set(PER_LAYER)}")
    return m


def _grid_searches(spans):
    """(rule, span) of every grid_search: a tune command visits the rules in
    TUNED_RULES order, so a span's position under its parent names the rule."""
    position = defaultdict(int)
    for s in spans:
        if s[NAME] == "tuning.grid_search":
            k = position[s[PARENT]]
            position[s[PARENT]] += 1
            yield (TUNED_RULES[k] if k < len(TUNED_RULES) else "other"), s


def grid_sizes(spans) -> dict[str, dict]:
    """n and cell count of each rule's grid search in the first tune command."""
    out = {}
    for rule, s in _grid_searches(spans):
        out.setdefault(rule, dict(s[ATTRS]))
    return out
