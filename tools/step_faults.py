"""Minor page faults and wall time of one warm training run of the
criterion-6 fixture.

Usage, from anywhere:

    python3 tools/step_faults.py [TREE]

TREE is a checkout (with ``src/disconet`` and ``tests/conftest.py``); it
defaults to the one holding this script. The script imports that tree's
package in this process with one BLAS thread, trains the fixture's unit
``train_bimodal(0, 0.5, True)`` (the bimodal task, gamma 0.5, K = 16, 120
epochs) once to warm up, then 3 more times, and prints the fewest minor
page faults (``getrusage``) and the least wall seconds of those 3 runs. A
step that allocates its batch-sized arrays afresh makes the allocator
return and refault the heap top, which shows as tens of thousands of
faults per run.
"""

import argparse
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPEAT = 3  # measured runs after the warm-up


def measure(run):
    """(minor faults, wall seconds) of one call of `run`."""
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    run()
    seconds = time.perf_counter() - t0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0, seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    args = parser.parse_args()
    tree = Path(args.tree).resolve()
    if not (tree / "src" / "disconet").is_dir() or not (tree / "tests" / "conftest.py").is_file():
        parser.error(f"{tree} holds no src/disconet and tests/conftest.py")
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from tests.conftest import train_bimodal

    def run():
        train_bimodal(0, 0.5, True)

    run()
    faults, seconds = zip(*(measure(run) for _ in range(REPEAT)))
    print(f"{tree}: warm criterion-6 run, best of {REPEAT}: "
          f"{min(faults)} minor faults, {min(seconds):.3f} s")


if __name__ == "__main__":
    main()
