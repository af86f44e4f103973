"""In-memory spans recorded around calls into gesturelink's public functions.

Tracing lives entirely in the benchmark: `instrument` swaps wrappers into
the module attributes that gesturelink code calls through, for the traced
phase only, and puts the originals back afterwards. Each span records its
name (`<layer>.<function>`), start and end, parent span, the id of the
window, session or task run it belongs to, and optional attributes.
"""

from __future__ import annotations

import contextlib
import json
import time

# Public functions wrapped per layer. Every module attribute that refers to
# the same function object is patched, so calls made through `from .x
# import f` bindings are seen too.
WRAPPED = {
    "landmarks": ("parse_landmark_stream",),
    "encoder": ("encode_stream", "detect_gesture_window", "sample_window", "build_state_matrix",
                "serialize_matrix", "matrix_to_json", "serialize_movement"),
    "rules": ("encode_pose_vector", "flexion", "proximity", "contact", "thumb_pointing",
              "palm_orientation", "hand_center"),
    "tuning": ("rule_measurement", "grid_search", "predictions_for_cell", "assess",
               "assessment_rates"),
    "agents": ("ground_matrix", "describe_pose", "describe_movement", "run_inference_session",
               "extract_json_object"),
    "transport": ("message_hash",),
    "context": ("calculate", "render_library_prompt"),
    "prompts": ("load_prompt_set", "render_prompt"),
    "evaluation": ("run_setting", "run_task", "build_task_library", "random_guess_baseline",
                   "report"),
    "cli": ("main",),
}
LAYERS = tuple(WRAPPED)
LONG_WINDOW_S = 30.0  # sample_window timings are split at this window length

# Span fields, stored as lists to keep the traced run cheap.
NAME, START, END, PARENT, ITEM, ATTRS = range(6)


class Tracer:
    """Spans of one single-threaded run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str, attrs) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.item, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        if item is not None:
            self.item = item
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs_of=None, on_result=None):
        """fn wrapped in a span; attrs_of(args) adds attributes and
        on_result(args, result) counts outcomes, both outside the span."""

        def traced(*args, **kwargs):
            span = self._open(name, attrs_of(args) if attrs_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{name}.raised")
                raise
            finally:
                self._close(span)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT], "item": s[ITEM],
                                     "attrs": s[ATTRS]}) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class _BackendProxy:
    """Hands ground_matrix a backend whose completions are spans, and
    counts request size, tokens and repair re-asks."""

    deterministic = True

    def __init__(self, inner, tracer: Tracer):
        self.inner, self.tracer = inner, tracer
        self._complete = tracer.wrap("transport.complete", inner.complete)

    @property
    def calls(self):
        return self.inner.calls

    def complete(self, req):
        t = self.tracer
        t.count("transport.calls")
        t.count("transport.request_chars", sum(len(m.content) for m in req.messages))
        if req.messages[-1].content.startswith("Your previous reply could not be parsed"):
            t.count("agents.repairs")
        text, usage = self._complete(req)
        t.count("transport.input_tokens", usage.input_tokens)
        t.count("transport.output_tokens", usage.output_tokens)
        return text, usage


class Instrumented:
    """Context manager patching gesturelink for one traced phase.

    `style_of` maps a scripted reply text to its style, so JSON extraction
    can be timed per reply style.
    """

    def __init__(self, gl, tracer: Tracer, style_of: dict | None = None):
        self.gl, self.tracer = gl, tracer
        self.style_of = style_of or {}
        self.sampled: list = []  # frames sample_window returned, for the degenerate count
        self._undo: list = []

    def backend(self, inner):
        return _BackendProxy(inner, self.tracer)

    def _hooks(self, layer: str, fn_name: str):
        t = self.tracer
        verdicts = {"flexion", "proximity", "contact", "thumb_pointing"}
        if layer == "rules" and fn_name in verdicts:
            def on_result(args, v, key=f"rules.{fn_name}"):
                t.count(key + ".verdicts")
                if int(v) != 0:
                    t.count(key + ".decided")
            return None, on_result
        if layer == "rules" and fn_name == "palm_orientation":
            def on_result(args, v):
                t.count("rules.palm_orientation.verdicts")
                if v != self.gl.rules.PalmOrientation.UNKNOWN:
                    t.count("rules.palm_orientation.decided")
            return None, on_result
        if fn_name == "parse_landmark_stream":
            return None, lambda args, s: t.count("landmarks.frames", len(s.frames))
        if fn_name == "detect_gesture_window":
            return None, lambda args, w: t.count("encoder.segmented_frames", len(args[0].frames))
        if fn_name == "sample_window":
            def attrs_of(args):
                return {"kind": "long" if args[0].duration >= LONG_WINDOW_S else "short"}

            return attrs_of, lambda args, samples: self.sampled.extend(samples)
        if fn_name == "build_state_matrix":
            return None, lambda args, m: t.count("encoder.built_samples", len(args[0]))
        if fn_name == "extract_json_object":
            return (lambda args: {"style": self.style_of.get(args[0], "other")}), None
        if fn_name == "grid_search":
            return (lambda args: {"n": len(args[0]), "cells": len(args[1].cells())}), None
        if fn_name == "ground_matrix":
            def on_result(args, result):
                conclusion, transcript = result
                t.count("agents.sessions")
                t.count("agents.rounds", transcript.rounds)
                if conclusion is None:
                    t.count("agents.negative")
            return None, on_result
        if fn_name == "calculate":
            return None, lambda args, r: t.count("context.calculate.ok")
        if fn_name == "run_task":
            def attrs_of(args):
                t.count("evaluation.task_runs")
                t.item = f"{args[1].value}/{args[0].scenario_id}/{t.counts['evaluation.task_runs']}"
            return attrs_of, None
        if fn_name == "run_setting":
            def on_result(args, run):
                t.count("evaluation.failures", run.failures)
            return (lambda args: {"setting": args[1].value}), on_result
        return None, None

    def __enter__(self):
        modules = vars(self.gl)
        for layer, names in WRAPPED.items():
            home = modules[layer]
            for fn_name in names:
                original = getattr(home, fn_name)
                attrs_of, on_result = self._hooks(layer, fn_name)
                wrapper = self.tracer.wrap(f"{layer}.{fn_name}", original, attrs_of, on_result)
                for mod in modules.values():
                    if getattr(mod, fn_name, None) is original:
                        self._undo.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        lib_cls = self.gl.context.ContextLibrary
        original = lib_cls.filtered
        self._undo.append((lib_cls, "filtered", original))
        lib_cls.filtered = self.tracer.wrap("context.filtered", original)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False
