"""Digest of what the benchmark's ops leave behind, to show that a change
keeps every op's output byte for byte.

    python tools/artifact_digest.py SRC

imports galpha from the directory SRC and runs ops 1-60 of the
``analysis``, ``simulate`` and ``modal`` workloads on seeds 1-3 in
process, through ``bench/workloads.generate`` and ``bench/ops.run_op``.
It prints a sha256 (16 hex digits) of each op's exit code, its printed
text and its artifacts (names and bytes) per (workload, seed), and a
total over all of them.  The CLI hashes ``--out`` into artifact names,
so every run uses the one fixed output directory ``OUT`` (and strips it
from the printed text); run two checkouts one after the other, never at
once.
"""

import hashlib
import shutil
import sys
from pathlib import Path

WORK = Path("/tmp/galpha-artifact-digest")
OUT = WORK / "out"


def main(src: str) -> None:
    sys.path[:0] = [str(Path(src).resolve()), str(Path(__file__).resolve().parents[1] / "bench")]
    import ops
    import workloads

    total = hashlib.sha256()
    for workload in ("analysis", "simulate", "modal"):
        for seed in (1, 2, 3):
            shutil.rmtree(WORK, ignore_errors=True)
            OUT.mkdir(parents=True)
            op_list = workloads.generate(workload, seed)[:61]
            ops.write_inputs(op_list, WORK)
            digest = hashlib.sha256()
            for index in range(1, 61):
                output = ops.run_op(op_list[index], index, WORK, OUT)
                digest.update(f"{index} {output.code}\n".encode())
                digest.update(output.text.replace(str(OUT), "OUT").encode())
                for path in sorted(OUT.iterdir()):
                    digest.update(path.name.encode() + b"\n" + path.read_bytes())
                ops.clear(OUT)
            print(f"{workload:9s} seed {seed}: {digest.hexdigest()[:16]}")
            total.update(digest.digest())
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"total: {total.hexdigest()[:16]}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
