"""Regenerate the reference values the iteration workloads are checked against.

    python3 benchmarks/make_reference.py [--seeds 20]

Runs tg2d-iterate once (its inputs do not depend on the seed) and
random3d-p3 once for each seed in 0..seeds-1, and writes T, the snapshot
count and the per-iterate H1/H2/D_n values to ``reference/<workload>.json``.
Only regenerate when the mathematics is meant to change; the point of the
files is that a refactor or a new FFT backend reproduces them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import OUT_DIR, import_package
from workloads import REFERENCE_DIR, Random3D, TaylorGreen2D, reference_entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)
    lpmhd = import_package()
    if lpmhd is None:
        print("lpmhd source not found", file=sys.stderr)
        return 2
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        plan = [(TaylorGreen2D, ["any"]), (Random3D, [str(s) for s in range(args.seeds)])]
        for cls, keys in plan:
            table = {}
            for key in keys:
                workload = cls(lpmhd, 0 if key == "any" else int(key), scratch)
                table[key] = reference_entry(workload.run(workload.setup()).result)
                print(f"{cls.name} seed {key}: T={table[key]['T']}", flush=True)
            with open(os.path.join(REFERENCE_DIR, f"{cls.name}.json"), "w") as fh:
                json.dump({"seeds": table}, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
