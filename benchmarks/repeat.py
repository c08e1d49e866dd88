"""Run benchmark workloads over several seeds and summarize the spread.

    python3 benchmarks/repeat.py --seeds 1-10 --seconds 15
    python3 benchmarks/repeat.py --workloads kernel-eval --seeds 1-5 --trace 1

Each run is a separate process, one after another.  For every workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median, plus the share of failed
operations; the table is also written to benchmarks/results/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from mkbench.harness import RESULTS, WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    table = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["elapsed_s"] = seed, elapsed
            runs.append(res)
            print(f"{name} seed {seed}: {elapsed:.1f} s, correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if args.trace == 0), flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        table[name] = {"metrics": metrics, "runs": runs,
                       "failed_share": [r["failed"] / r["attempted"] for r in runs],
                       "all_correct": all(r["correct"] for r in runs),
                       "elapsed_s": summarize([r["elapsed_s"] for r in runs])}
        if args.trace == 0:
            for k, s in metrics.items():
                print(f"  {name} {k}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {100 * s['spread']:.2f}%", flush=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json"
    out.write_text(json.dumps(table, indent=1))
    print(f"written {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
