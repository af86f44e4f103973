#!/usr/bin/env python3
"""Record the byte-output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are the reference. Each
digest covers one pass: the matrices (JSON and text), the tuned
thresholds, tuning report and tune output, the transcripts and
conclusions, and the eval report.json/report.csv. A run of run.py whose
seed is recorded here fails its gate unless it reproduces these bytes.
Outputs that break a planted check are refused, not recorded.
"""

from __future__ import annotations

import json
import logging
import shutil
import sys

import run

SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import gen
    import workloads

    logging.getLogger("gesturelink").setLevel(logging.ERROR)
    gl = workloads.import_gesturelink()
    prompts = gl.prompts.load_prompt_set()
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name, generate in gen.GENERATORS.items():
        for seed in SEEDS:
            work = run.WORK_ROOT / f"record-{name}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                workload = workloads.WORKLOADS[name](work, generate(seed, work))
                workload.load(gl, prompts)
                p = workload.run(gl)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            gate = run.Gate(None)
            gate.judge(p, p)
            if gate.problems:
                print(f"{name} seed {seed}: not recorded: {gate.problems[:3]}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = p.digest
        print(f"{name}: seeds {SEEDS.start}-{SEEDS.stop - 1} recorded")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
