"""Run one minorkern benchmark workload and print its result as JSON.

    python3 benchmarks/run.py --workload kernel-eval --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --quick        # every workload at reduced sizes

Run from the repository root; see benchmarks/README.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mkbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
