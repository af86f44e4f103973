"""Command-line entry points wiring the pipeline stages together.

Exit codes: 0 success, 2 input/validation error, 3 session ended
Negative, 4 transport failure (including an eval setting that completed
zero tasks). Output files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .agents import DialogueTranscript, SessionConfig, ground_matrix
from .context import ContextLibrary, ContextType, add_context_type, render_library_prompt
from .encoder import (
    SegmentationConfig,
    encode_stream,
    matrix_from_json,
    matrix_to_json,
    serialize_matrix,
)
from .errors import GestureLinkError, MalformedInput, TransportError, parse_finite_json, read_input
from .evaluation import (
    METRIC_NAMES,
    ContextSetting,
    PipelineHandles,
    load_manifest,
    random_guess_baseline,
    report,
    run_protocol,
)
from .landmarks import (
    Handedness,
    LandmarkStream,
    decode_frame,
    first_bad_frame,
    parse_landmark_stream,
)
from .prompts import load_prompt_set
from .rules import RuleThresholds
from .transport import backend_factory
from .tuning import (
    TUNABLE_RULES,
    GridSpec,
    MeasuredSample,
    assess,
    assessment_rates,
    default_grid,
    grid_search,
    parse_label,
    predictions_for_cell,
    targeted_rule,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_TRANSPORT = 4


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_text(path: str | Path) -> str:
    """The text of path, which must be UTF-8, with read_text's newline
    translation; MalformedInput naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def _load_thresholds(path: str | None) -> RuleThresholds:
    return RuleThresholds() if path is None else read_input(path, RuleThresholds.from_json)


# --- encode -----------------------------------------------------------------

def cmd_encode(args) -> int:
    th = _load_thresholds(args.thresholds)
    cfg = SegmentationConfig(
        chest_line=args.chest_line,
        trigger_frames=args.trigger_frames,
        end_hold=args.end_hold,
    )
    matrices = read_input(  # so a matrix that breaks an invariant names the stream too
        args.stream, lambda raw: encode_stream(parse_landmark_stream(raw), th, cfg))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.stream).stem
    for i, matrix in enumerate(matrices):
        _write_atomic(out_dir / f"{stem}_w{i:02d}.matrix.json", matrix_to_json(matrix))
        _write_atomic(out_dir / f"{stem}_w{i:02d}.matrix.txt", serialize_matrix(matrix))
    print(f"{len(matrices)} windows")
    return EXIT_OK


# --- tune -------------------------------------------------------------------

def _load_tuning_dataset(path: Path):
    """JSON-lines dataset -> {rule_id: [MeasuredSample]} in line order;
    ambiguous labels are filtered out with a logged count. Entries reference
    an inline frame or a stream file plus frame index.

    Each line's own checks run as it is read. Its frame is stacked with
    the others, and the frames are checked at once and read in one call
    per (rule, target). The first bad line still wins: before a line's
    error is raised, the frames of the lines before it are checked.
    """
    lines = _read_text(path).splitlines()
    # Not errors.parse_json: a line that fails to decode is a "bad dataset line".
    decode = json.JSONDecoder().decode
    n = len(lines)
    coords, times = np.zeros((n, 21, 3)), np.empty(n)
    depth, left = np.empty(n, dtype=bool), np.zeros(n, dtype=bool)
    kept: list[tuple] = []  # (line, rule id, target, label) of each unambiguous label
    ambiguous = 0
    stream_cache: dict[str, LandmarkStream] = {}

    def check_frames() -> None:
        """Raise the error of the first bad frame kept so far, naming its line."""
        k = len(kept)
        if bad := first_bad_frame(coords[:k], times[:k]):
            raise MalformedInput(f"{path}:{kept[bad[0]][0]}: {bad[1]}")

    def line_error(line_no: int, message: str) -> MalformedInput:
        """The error of line line_no, once the frames kept before it pass."""
        check_frames()
        return MalformedInput(f"{path}:{line_no}: {message}")

    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = decode(line)
            rule_id = entry["rule"]
            label = parse_label(rule_id, entry["acceptable_states"])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # also nesting too deep
            raise line_error(line_no, f"bad dataset line: {exc}") from exc
        except GestureLinkError as exc:
            raise line_error(line_no, str(exc)) from exc
        if label.is_ambiguous:
            ambiguous += 1
            continue
        k, target = len(kept), entry.get("target")
        try:
            if "frame" in entry:
                decode_frame(entry["frame"], k, coords, times, depth)
            elif "stream" in entry:
                if not isinstance(entry["stream"], str):
                    raise MalformedInput(f"stream must be a file name, got {entry['stream']!r}")
                ref = str(path.parent / entry["stream"])
                if ref not in stream_cache:
                    stream_cache[ref] = read_input(ref, parse_landmark_stream)
                stream = stream_cache[ref]
                index = entry.get("frame_index", 0)
                if type(index) is not int or not 0 <= index < len(stream):
                    raise MalformedInput(
                        f"frame_index must be an integer in [0, {len(stream)}), got {index!r}"
                    )
                coords[k], times[k] = stream.coords[index], stream.timestamps[index]
                depth[k], left[k] = stream.depth_flags[index], stream.handedness == Handedness.LEFT
            else:
                raise MalformedInput("needs 'frame' or 'stream'")
            kept.append((line_no, rule_id, target, label))  # its frame is checked with the rest
            targeted_rule(rule_id, target)
        except (GestureLinkError, OSError) as exc:
            raise line_error(line_no, str(exc)) from exc
    check_frames()

    readings, states = np.empty(len(kept)), [None] * len(kept)
    groups: dict[tuple[str, str | None], list[int]] = {}
    for k, (_, rule_id, target, _) in enumerate(kept):
        groups.setdefault((rule_id, target), []).append(k)
    for (rule_id, target), rows in groups.items():
        measured, candidates = TUNABLE_RULES[rule_id].read(
            coords[rows], depth[rows], left[rows], target)
        readings[rows] = measured
        for k, state in zip(rows, candidates or ()):
            states[k] = state
    per_rule: dict[str, list[MeasuredSample]] = {}
    unread: dict[str, list[int]] = {}  # lines of the NaN readings, per rule
    for (line_no, rule_id, _, label), measurement, state in zip(kept, readings.tolist(), states):
        per_rule.setdefault(rule_id, []).append(MeasuredSample(measurement, label, state))
        if math.isnan(measurement):
            unread.setdefault(rule_id, []).append(line_no)
    for rule_id, nan_lines in unread.items():
        logger.warning(
            "%s: %d labels have no reading (degenerate geometry, or an inward/outward palm "
            "without depth), the first at %s:%d; they score unsure",
            rule_id, len(nan_lines), path, nan_lines[0])
    if ambiguous:
        logger.info("filtered %d ambiguous labels from %s", ambiguous, path)
        print(f"filtered {ambiguous} ambiguous labels", file=sys.stderr)
    return per_rule


def _load_grid_doc(path: str | None) -> dict:
    if path is None:
        return {}
    doc = read_input(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: grid file must hold a JSON object")
    return doc


def _grid_from_file(doc: dict, rule_id: str, path: str | None) -> GridSpec:
    """{"low": range, "high": range} for a paired rule, {"threshold": range}
    for a single-threshold one; each range is [start, stop, step]. A rule
    the file leaves out gets its default grid."""
    if rule_id not in TUNABLE_RULES:
        raise MalformedInput(f"{path}: unknown rule id {rule_id!r}")
    default = default_grid(rule_id)
    if rule_id not in doc:
        return default
    keys = ("low", "high") if default.paired else ("threshold",)
    spec = doc[rule_id]
    if not isinstance(spec, dict) or any(k not in spec for k in keys):
        raise MalformedInput(f"{path}: {rule_id} needs {' and '.join(keys)} ranges")
    for key in keys:
        r = spec[key]
        numbers = isinstance(r, list) and all(type(v) in (int, float) for v in r)
        # Exact comparisons: NaN, infinities and ints beyond any float all fail.
        if not (numbers and len(r) == 3 and all(abs(v) <= sys.float_info.max for v in r)):
            raise MalformedInput(f"{path}: {rule_id} {key} must be [start, stop, step], got {r!r}")
    try:
        return GridSpec.from_ranges(*(tuple(spec[k]) for k in keys))
    except GestureLinkError as exc:
        raise MalformedInput(f"{path}: {rule_id}: {exc}") from exc


def cmd_tune(args) -> int:
    per_rule = _load_tuning_dataset(Path(args.dataset))
    if not any(per_rule.values()):
        print("no usable samples after filtering ambiguous labels", file=sys.stderr)
        return EXIT_INPUT
    grid_doc = _load_grid_doc(args.grid)  # every entry is checked, labelled or not
    grids = {r: _grid_from_file(grid_doc, r, args.grid) for r in sorted({*grid_doc, *per_rule})}
    report_doc: dict = {}
    tuned: dict = {}
    for rule_id, samples in sorted(per_rule.items()):
        rule = TUNABLE_RULES[rule_id]
        grid = grids[rule_id]
        cell, loss = grid_search(samples, grid)
        preds = predictions_for_cell(samples, grid.paired, cell, unsure=rule.space.unsure)
        rates = assessment_rates(
            [assess(p, s.label, rule.space) for p, s in zip(preds, samples)]
        )
        report_doc[rule_id] = {
            "parameters": list(cell),
            "loss": loss,
            "rates": rates,
            "samples": len(samples),
        }
        tuned[rule.field] = cell if grid.paired else cell[0]
    # Validates the optima, so nothing encode would reject gets written.
    thresholds = RuleThresholds(**tuned)
    _write_atomic(Path(args.out), thresholds.to_json())
    _write_atomic(Path(args.report),
                  json.dumps(report_doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    for rule_id, entry in sorted(report_doc.items()):
        r = entry["rates"]
        print(
            f"{rule_id}: params={entry['parameters']} loss={entry['loss']:.4f} "
            f"error={r['error']:.3f} unsure={r['unsure']:.3f} correct={r['correct']:.3f}"
        )
    return EXIT_OK


# --- ground -----------------------------------------------------------------

def cmd_ground(args) -> int:
    matrix = read_input(args.matrix, matrix_from_json)
    lib = read_input(args.library, ContextLibrary.from_json)
    if "function_list" not in lib:
        print("context library has no function_list context", file=sys.stderr)
        return EXIT_INPUT
    prompts = load_prompt_set(args.prompts)
    backend = backend_factory(args.backend, args.seed)()
    cfg = SessionConfig(max_rounds=args.max_rounds)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    transcript = DialogueTranscript()
    try:
        conclusion, _ = ground_matrix(matrix, lib, prompts, backend, cfg, transcript)
    except TransportError as exc:
        if transcript.turns:
            _write_atomic(out_dir / "transcript.jsonl", transcript.to_jsonl())
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    _write_atomic(out_dir / "transcript.jsonl", transcript.to_jsonl())
    doc = ({"result": "negative"} if conclusion is None
           else {"result": "conclusion", "ranked_functions": list(conclusion.ranked_functions)})
    _write_atomic(out_dir / "conclusion.json", json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if conclusion is None:
        print("negative: no usable conclusion")
        return EXIT_NEGATIVE
    print("conclusion:", " > ".join(conclusion.ranked_functions))
    return EXIT_OK


# --- eval -------------------------------------------------------------------

def cmd_eval(args) -> int:
    tasks = load_manifest(args.manifest)
    th = _load_thresholds(args.thresholds)
    prompts = load_prompt_set(args.prompts)
    new_backend = backend_factory(args.backend, args.seed)
    try:
        settings = (
            [ContextSetting(s.strip()) for s in args.settings.split(",")]
            if args.settings
            else list(ContextSetting)
        )
    except ValueError as exc:
        names = ", ".join(s.value for s in ContextSetting)
        raise MalformedInput(f"--settings: {exc}; choose from {names}") from exc
    handles = PipelineHandles(
        prompts=prompts,
        backend_factory=lambda task: new_backend(),
        thresholds=th,
        session=SessionConfig(max_rounds=args.max_rounds),
    )
    runs = run_protocol(tasks, settings, repetitions=args.repetitions, handles=handles, jobs=args.jobs)
    for run in runs:
        means = " ".join(f"{name}={getattr(run.metrics, name).mean:.2%}" for name in METRIC_NAMES)
        print(f"{run.setting.value}: {means} (completed {run.completed}, failures {run.failures})")
    doc = report(runs, baseline=random_guess_baseline(tasks))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "report.json", doc.json_text)
    _write_atomic(out_dir / "report.csv", doc.csv_text)
    if any(run.completed == 0 for run in runs):
        print("a setting completed zero tasks", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


# --- context ----------------------------------------------------------------

def cmd_context_add(args) -> int:
    path = Path(args.library)
    lib = read_input(path, ContextLibrary.from_json) if path.exists() else ContextLibrary([])
    values = read_input(args.values, parse_finite_json) if args.values else None
    description = (
        _read_text(args.description_file) if args.description_file else args.description
    )
    ctx = ContextType(
        name=args.name,
        description_md=description or "",
        values=values,
    )
    lib = add_context_type(lib, ctx)
    _write_atomic(path, lib.to_json())
    print(f"library now holds {len(lib)} context types")
    return EXIT_OK


def cmd_context_show(args) -> int:
    lib = read_input(args.library, ContextLibrary.from_json)
    if args.name:
        print(json.dumps(lib.get(args.name).values, ensure_ascii=False, indent=2, allow_nan=False))
    else:
        print(render_library_prompt(lib), end="")
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesturelink",
        description=(
            "Encode hand-landmark streams into gesture state matrices, tune "
            "rule thresholds, and ground gestures to interface functions "
            "through an LLM agent dialogue."
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="stream -> gesture state matrices")
    p.add_argument("stream", help="landmark stream JSON file")
    p.add_argument("--thresholds", help="rule thresholds JSON (default: shipped values)")
    p.add_argument("--out-dir", default=".", help="where matrix files go")
    p.add_argument("--chest-line", type=float, default=SegmentationConfig.chest_line,
                   help="trigger line (y-down)")
    p.add_argument("--trigger-frames", type=int, default=SegmentationConfig.trigger_frames,
                   help="consecutive raised frames that open a window")
    p.add_argument("--end-hold", type=float, default=SegmentationConfig.end_hold,
                   help="seconds a lowered run must span, first frame to last, to close")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("tune", help="grid-search rule thresholds on a labeled dataset")
    p.add_argument("dataset", help="JSON-lines labeled dataset")
    p.add_argument("--grid", help="grid ranges JSON (default: built-in ranges)")
    p.add_argument("--out", default="thresholds.json", help="tuned thresholds output")
    p.add_argument("--report", default="tuning_report.json", help="per-rule report output")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("ground", help="matrix + context library -> ranked functions")
    p.add_argument("matrix", help="matrix JSON file from encode")
    p.add_argument("--library", required=True, help="context library JSON")
    p.add_argument("--prompts", help="prompt directory (default: shipped prompts)")
    p.add_argument("--backend", required=True, help="scripted:<fixtures.json> or backend config path")
    p.add_argument("--out-dir", default=".", help="transcript/conclusion output directory")
    p.add_argument("--max-rounds", type=int, default=SessionConfig.max_rounds)
    p.add_argument("--seed", type=int, default=None, help="seed for retry jitter")
    p.set_defaults(fn=cmd_ground)

    p = sub.add_parser("eval", help="run the evaluation protocol over a task manifest")
    p.add_argument("manifest", help="dataset manifest JSON")
    p.add_argument("--settings", help="comma list: baseline,only_gaze,only_history_external,all")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--backend", required=True)
    p.add_argument("--thresholds")
    p.add_argument("--prompts")
    p.add_argument("--out-dir", default=".", help="report output directory")
    p.add_argument("--max-rounds", type=int, default=SessionConfig.max_rounds)
    p.add_argument("--jobs", type=int, default=1, help="parallel task runs")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("context", help="inspect or extend a context library file")
    ctx_sub = p.add_subparsers(dest="context_command", required=True)
    pa = ctx_sub.add_parser("add", help="add a context type")
    pa.add_argument("--library", required=True)
    pa.add_argument("--name", required=True)
    pa.add_argument("--description", help="markdown description text")
    pa.add_argument("--description-file", help="file with the markdown description")
    pa.add_argument("--values", help="JSON file with the context values")
    pa.set_defaults(fn=cmd_context_add)
    ps = ctx_sub.add_parser("show", help="render the library or one context's values")
    ps.add_argument("--library", required=True)
    ps.add_argument("--name", help="show this context's values instead of the overview")
    ps.set_defaults(fn=cmd_context_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except TransportError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (GestureLinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
