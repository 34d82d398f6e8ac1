"""galpha benchmark: one closed-loop client drives a seeded workload
through galpha's public entry points and checks every output.

    python3 bench/run.py --workload {analysis,simulate,modal} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it times half the run untraced, replays the same ops
with spans around every call into galpha, and prints the per-layer
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the metrics, the workloads and why they were
chosen.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="galpha benchmark")
    parser.add_argument("--workload", required=True, choices=["analysis", "simulate", "modal"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Only the checkout's own copy of galpha is measured, never an
    # installed one.
    if not (SRC / "galpha" / "__init__.py").is_file():
        print(f"error: no galpha package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import harness

    print(json.dumps(harness.run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
