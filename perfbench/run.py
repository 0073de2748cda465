"""HPDR repository benchmark.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 26 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics, measured in a
separate traced pass, plus the tracing overhead.  The last line of
standard output is one JSON object; the exit code is non-zero when any
output fails its correctness check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The program under test is imported from this checkout's sources; the
# benchmark pins the settings that would otherwise leak in from the
# environment (tracing, the sanitizer wrapper).
for var in ("HPDR_TRACE", "HPDR_SAN"):
    os.environ.pop(var, None)
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    from hpdrbench.runner import WORKLOADS, run

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 ROOT / ".bench_tmp" / f"run-{os.getpid()}")
    print(json.dumps(result["json"]), flush=True)
    return 0 if result["json"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
