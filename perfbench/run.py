"""Solver benchmark entry point.

    python3 perfbench/run.py --workload cheap-objective [--seed 0] [--seconds 20] [--trace 0]

Runs against the package source in ``src/`` next to this directory and
exits with an error when it is missing.  BLAS/OpenMP thread counts are
fixed before numpy is imported.
"""

import os
import sys
from pathlib import Path

# One thread: never more than the CPUs present, and no thread-scheduling
# noise in the timings.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "cagopt" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cagopt'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.main(sys.argv[1:], ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
