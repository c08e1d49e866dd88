"""Compare two revisions' outputs on the benchmark's kernel plans.

Runs every operation of the kernel-eval and scaling-limits plans for seeds
1-3 and rounds 0-1 (1434 outputs), with the working tree's benchmark
plans, against the src/ of two revisions.  Each revision is unpacked with
`git archive` and run in its own subprocess.  The new side defaults to the
working tree's src/.  Prints, for each kind of operation, how many outputs
are bitwise equal, the worst absolute difference and the worst relative
difference |a-b|/max(|a|,|b|); an output is every float inside it (arrays
and reports included), and an operation that raises is an output unequal
to any value.

The file name keeps it out of pytest collection.  It reads benchmarks/ and
changes nothing there.  Run from the repository root:

    python tests/diff_outputs.py OLD_REV [NEW_REV]
"""

import argparse
import importlib
import math
import pickle
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kernel-eval", "scaling-limits")
SEEDS = (1, 2, 3)
ROUNDS = (0, 1)


def run_plans(src: str, out: str):
    """Child side: every planned operation's output against the minorkern in src."""
    sys.path[:0] = [src, str(ROOT / "benchmarks"), str(ROOT / "tests")]
    results = []
    for name in WORKLOADS:
        module = importlib.import_module(f"mkbench.{name.replace('-', '_')}")
        for seed in SEEDS:
            work = module.Workload(seed)
            for r in ROUNDS:
                for label, op in work.round_ops(r):
                    try:
                        value = op()
                    except Exception as e:  # an output of its own, unequal to any value
                        value = f"raised {type(e).__name__}: {e}"
                    results.append((name, seed, r, label, value))
    with open(out, "wb") as fh:
        pickle.dump(results, fh)


def outputs(rev: str | None, tmp: Path) -> list:
    """The outputs of rev's src/, or of the working tree's when rev is None."""
    tree = Path(tempfile.mkdtemp(dir=tmp))
    src = ROOT / "src" if rev is None else tree / "src"
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    out = tree / "outputs.pickle"
    subprocess.run([sys.executable, __file__, "--child", str(src), str(out)], check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def leaves(value):
    """The values inside an output, in a fixed order."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from leaves(value[k])
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from leaves(v)
    else:
        yield from np.ravel(value).tolist() if isinstance(value, (np.ndarray, np.generic)) else [value]


def compare(a, b) -> tuple[bool, float, float]:
    """(bitwise equal, worst absolute difference, worst relative difference)
    of two outputs."""
    la, lb = list(leaves(a)), list(leaves(b))
    if len(la) != len(lb):
        return False, math.inf, math.inf
    equal, worst, worst_rel = True, 0.0, 0.0
    for x, y in zip(la, lb):
        if isinstance(x, float) and isinstance(y, float):
            if x.hex() != y.hex():
                equal = False
                diff = abs(x - y) if not math.isnan(x - y) else math.inf
                worst = max(worst, diff)
                if diff == math.inf:
                    worst_rel = math.inf
                elif diff:  # two zeros of opposite sign differ by nothing
                    worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
        elif x != y:
            return False, math.inf, math.inf
    return equal, worst, worst_rel


def kind(workload: str, label: str) -> str:
    """An operation's kind: its label without sizes and entry indices."""
    return f"{workload} " + re.sub(r" (N=\d+|\(\d+,\d+\))", "", label)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="git revision of the old side")
    ap.add_argument("new", nargs="?", help="git revision of the new side (default: the working tree)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old, new = outputs(args.old, Path(tmp)), outputs(args.new, Path(tmp))
    if [row[:4] for row in old] != [row[:4] for row in new]:
        sys.exit("the two revisions planned different operations")
    table = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for (workload, _, _, label, a), (*_, b) in zip(old, new):
        equal, diff, rel = compare(a, b)
        row = table[kind(workload, label)]
        row[0] += equal
        row[1] += 1
        row[2] = max(row[2], diff)
        row[3] = max(row[3], rel)
    print(f"{'kind':<40} {'equal':>11}  {'worst |difference|':>18}  worst relative")
    for name, (equal, total, worst, rel) in sorted(table.items()):
        print(f"{name:<40} {equal:>5} / {total:<4}  {worst:>18.3g}  {rel:.3g}")
    print(f"bitwise equal: {sum(r[0] for r in table.values())} of {len(old)}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_plans(*sys.argv[2:4])
    else:
        main()
