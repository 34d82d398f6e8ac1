"""One set-up sample: a fresh interpreter imports galpha.cli and runs the
workload's warm-up op.  run.py times this process from start to exit.

    python3 bench/probe.py WORK_DIR

WORK_DIR holds warmup.json (the op) and the inputs it reads; artifacts go
to WORK_DIR/probe_out.  Exits 0 when the op exits 0.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import galpha.cli  # noqa: E402,F401  (the import is part of what is timed)

import ops  # noqa: E402

if __name__ == "__main__":
    work = Path(sys.argv[1])
    op = json.loads((work / "warmup.json").read_text())
    sys.exit(0 if ops.run_op(op, 0, work, work / "probe_out").code == 0 else 1)
