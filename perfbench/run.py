#!/usr/bin/env python3
"""gesturelink benchmark runner.

    python3 perfbench/run.py --workload stream_encode --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: it imports gesturelink from ./src and
writes its scratch files under ./.perfbench. It generates the workload's
inputs from --seed, times the set-up, runs one untimed warm-up pass
(which is also the reference output), then repeats passes for --seconds.
Every pass is checked against the planted structure, against the warm-up
pass, and against the recorded digest for this seed when there is one.
Times are calibrated to a reference host speed (see host.py).

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
the first half of the time runs untraced and the second half traced, and
the last line holds the per-layer metrics; the spans go to
.perfbench/trace-<workload>-<seed>.jsonl.

Single process, single thread. Exit code 0 on a completed run (even one
that fails the gate: see "correct"), 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import host

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPEATS = 9
PROBLEMS_SHOWN = 10

END_TO_END = {
    "work_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def env_stamp() -> dict:
    import numpy

    return {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()}


def timed_setup(gl_import, workload):
    """Median over SETUP_REPEATS of import + load_prompt_set + fixtures,
    in reference-host seconds."""
    totals, prompt_ms = [], []
    clock = host.HostScale()
    for _ in range(SETUP_REPEATS):
        clock.restart()
        a = time.perf_counter()
        gl = gl_import()
        b = time.perf_counter()
        prompts = gl.prompts.load_prompt_set()
        c = time.perf_counter()
        workload.load(gl, prompts)
        scale = clock.checkpoint()
        totals.append(clock.take())
        prompt_ms.append((c - b) * 1e3 * scale)
    return gl, statistics.median(totals), statistics.median(prompt_ms)


class Gate:
    """Counts failed ops: an op fails when it raised, broke a planted
    check, or produced bytes other than the reference pass's. A pass-level
    finding (wrong window count, digest mismatch) fails every op of the pass."""

    def __init__(self, recorded: str | None):
        self.recorded = recorded
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, p, reference=None) -> None:
        ref = reference or self.reference
        whole = list(p.problems)
        if self.recorded and p.digest != self.recorded:
            whole.append(f"output digest {p.digest[:16]} differs from the recorded "
                         f"{self.recorded[:16]}")
        if ref is not None and (len(p.outputs) != len(ref.outputs) or p.extra != ref.extra):
            whole.append("pass output differs from the reference pass")
        ref_digests = ref.op_digests if ref is not None else None
        failed = 0
        for i, problems in enumerate(p.op_problems):
            bad = bool(whole or problems)
            if not bad and ref_digests is not None and p.op_digests[i] != ref_digests[i]:
                problems = problems + [f"op {i} output differs from the reference pass"]
                bad = True
            failed += bad
            self.problems += [f"op {i}: {m}" for m in problems]
        self.problems += whole
        self.attempted += len(p.op_problems)
        self.failed += failed

    def crashed(self, exc: Exception) -> None:
        """A pass that raised fails as many ops as the reference pass has."""
        ops = len(self.reference.op_problems)
        self.problems.append(f"pass raised {exc!r}")
        self.attempted += ops
        self.failed += ops


def timed_passes(workload, gl, gate: Gate, seconds: float, tracer=None, on_pass=None):
    passes = []
    clock = workload.host = host.HostScale()
    end = time.perf_counter() + seconds
    while True:
        clock.restart()
        try:
            if tracer is not None:
                with tracer.span("bench.pass", f"pass{len(passes)}"):
                    p = workload.run(gl, tracer)
            else:
                p = workload.run(gl)
        except Exception as exc:  # noqa: BLE001 - a crashing pass fails its ops, the run goes on
            gate.crashed(exc)
        else:
            p.checkpoint()
            p.ref_seconds = clock.take()
            gate.judge(p)
            p.outputs.clear()  # judged; keeping them would tie peak RSS to the pass count
            passes.append(p)
            if on_pass is not None:
                on_pass(p)
        if time.perf_counter() >= end:
            workload.host = None
            if not passes:
                raise RuntimeError(f"every pass raised: {gate.problems[-1]}")
            return passes


def _pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_s: float) -> dict:
    """Times are in reference-host seconds (see host.py). Each statistic
    is taken per pass, then the median over passes, so that a few passes
    whose calibration missed a switch of the host's speed do not move it."""
    def per_pass(stat):
        return statistics.median(stat(p) for p in passes)

    def ref_op_s(p):
        return [s * scale for s, scale in zip(p.op_s, p.op_scale)]

    return {
        "work_per_s": per_pass(lambda p: p.units / p.ref_seconds),
        "op_ms_p50": per_pass(lambda p: 1e3 * _pct(ref_op_s(p), 50)),
        "op_ms_p90": per_pass(lambda p: 1e3 * _pct(ref_op_s(p), 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def degenerate_frames(gl, frames) -> int:
    """Frames on which a public measurement function raises DegenerateGeometry."""
    rules, count = gl.rules, 0
    for f in frames:
        try:
            for finger in ("thumb", "index", "middle", "ring", "pinky"):
                rules.finger_curl_deg(f, finger)
            rules.thumb_direction_measurement(f)
            rules.palm_orientation_measurement(f)
        except gl.errors.DegenerateGeometry:
            count += 1
    return count


def run(args) -> dict:
    import gen
    import layers
    import spans
    import workloads

    stamp = env_stamp()
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    # Warnings about degenerate frames and malformed replies are expected
    # by design; writing them to stderr would be timed as well.
    logging.getLogger("gesturelink").setLevel(logging.ERROR)

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        planted = gen.GENERATORS[args.workload](args.seed, work)
        workload = workloads.WORKLOADS[args.workload](work, planted)
        gl, setup_s, prompts_ms = timed_setup(workloads.import_gesturelink, workload)
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed)) \
            if DIGESTS.is_file() else None
        gate = Gate(recorded)
        reference = workload.run(gl)  # warm-up
        gate.judge(reference, reference)
        gate.reference = reference
        header = {"workload": args.workload, "seed": args.seed, "digest": reference.digest,
                  "recorded_digest": recorded, **stamp}

        if not args.trace:
            passes = timed_passes(workload, gl, gate, args.seconds)
            metrics = end_to_end(passes, setup_s)
            units = {k: u for k, (u, _) in END_TO_END.items()}
            names = dict(zip(("work_per_s", "op_ms_p50", "op_ms_p90"), workload.report_names))
            for key, value in metrics.items():
                print(f"{args.workload} {names.get(key, key)} = {value:.6g} {units[key]}")
            print(f"{args.workload} passes={len(passes)} ops={sum(len(p.op_s) for p in passes)}"
                  f" per-op: {workload.op_name}; work unit: {workload.work_unit}")
            print(f"{args.workload} pass_s = {[round(p.seconds, 4) for p in passes]}")
            print(f"{args.workload} ref_pass_s = {[round(p.ref_seconds, 4) for p in passes]}")
        else:
            untraced = timed_passes(workload, gl, gate, args.seconds / 2)
            tracer = spans.Tracer()
            instrumented = spans.Instrumented(gl, tracer, planted.get("style_of"))
            workload.proxy = instrumented.backend
            degenerate = []

            def after_pass(p):
                if not degenerate:
                    degenerate.append(degenerate_frames(gl, instrumented.sampled))
                instrumented.sampled.clear()

            with instrumented:
                if args.workload == "eval_protocol":  # parse happens in set-up here
                    with tracer.span("bench.setup", "setup"):
                        gl.evaluation.load_manifest(work / "manifest.json")
                traced = timed_passes(workload, gl, gate, args.seconds / 2, tracer, after_pass)
            workload.proxy = None
            metrics = layers.per_layer_metrics(
                tracer.spans, tracer.counts,
                traced_pass_s=statistics.median(p.ref_seconds for p in traced),
                untraced_pass_s=statistics.median(p.ref_seconds for p in untraced),
                passes=len(traced), prompts_load_ms=prompts_ms, degenerate_count=degenerate[0])
            units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
            for key, value in metrics.items():
                print(f"{args.workload} {key} = {value:.6g} {units[key]}")
            grid_sizes = layers.grid_sizes(tracer.spans)
            for rule, size in grid_sizes.items():
                print(f"{args.workload} tuning.grid.{rule} n={size['n']} cells={size['cells']}")
            trace_path = WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.write_jsonl(trace_path, dict(header, grid_sizes=grid_sizes,
                                                loadavg_end=os.getloadavg()))
            print(f"{args.workload} spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    header["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(header))
    for problem in gate.problems[:PROBLEMS_SHOWN]:
        print(f"gate: {problem}", file=sys.stderr)
    print(f"{args.workload} failed_ratio = {gate.failed / max(1, gate.attempted):.6g}"
          f" ({gate.failed} of {gate.attempted} ops)")
    return {
        "correct": gate.failed == 0 and not gate.problems,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream_encode", "tune_grid", "ground_sessions", "eval_protocol"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gesturelink" / "__init__.py").is_file():
        print(f"error: gesturelink sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
