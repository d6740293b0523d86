"""Entry point by path: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

Same options as ``python -m benchmarks.e2e run``, runnable from the root of
a checkout without ``PYTHONPATH``.
"""

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("run.py: no src/repro under %s; run it from a full checkout" % ROOT)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
