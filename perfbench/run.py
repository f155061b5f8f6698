"""Benchmark command for hapticnet.

    python3 perfbench/run.py --workload {ingest,cnn_lstm} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  The line before it is the run's record: sample counts,
per-set-up and per-pass times, check problems and the machine.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOAD_NAMES = ("ingest", "cnn_lstm")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hapticnet" / "__init__.py").is_file():
        print(f"error: no hapticnet package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads; the allocator keeps its defaults.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import pb_bench

    result, record = pb_bench.run(args.workload, args.seed, args.seconds, args.trace,
                                  ROOT / ".perfbench_work")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
