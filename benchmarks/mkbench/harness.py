"""Closed-loop benchmark harness for minorkern.

One caller drives minorkern's public API from one process: it starts the
next operation only after the previous one returns.  A run sets up (import,
inputs from the seed, warm-up on disjoint inputs), then repeats whole rounds
of one workload's fixed work until the timed rounds add up to `--seconds`,
then checks every round's outputs.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics.

Only the standard library is imported at module level, so that the import
of numpy, scipy and minorkern falls inside the timed set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("mc-closure", "kernel-eval", "scaling-limits", "lattice-bridge")

# One BLAS thread (nproc >= 1 everywhere): the work is many small matrices,
# and a single thread keeps run-to-run spread low on a shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up samples per run: this process plus SETUP_SAMPLES - 1 fresh ones
SETUP_SAMPLES = 3
# statistical checks hold their false-alarm rate over this many rounds
MAX_ROUNDS = 40
# stop starting rounds after this much wall time, so a run ends in time
WALL_LIMIT_S = 110.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def add_source_paths() -> None:
    """Make the checkout's minorkern and tests/oracles.py importable."""
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _prepare_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    add_source_paths()


def _require_sources() -> None:
    if not (SRC / "minorkern" / "__init__.py").is_file():
        raise SystemExit(f"error: minorkern sources not found under {SRC.name}/ "
                         "next to the benchmark directory")
    if not (TESTS / "oracles.py").is_file():
        raise SystemExit(f"error: {TESTS.name}/oracles.py not found")


def workload_module(name: str):
    return importlib.import_module(f"mkbench.{name.replace('-', '_')}")


def run_ops(ops):
    """Run (label, callable) pairs in order; a raised error counts as failed."""
    outputs, failed = [], 0
    for label, op in ops:
        try:
            outputs.append(op())
        except Exception:  # a failed operation is counted, the run goes on
            failed += 1
            outputs.append(None)
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return outputs, failed


def set_up(name: str, seed: int, quick: bool):
    """Import, generate the inputs, warm up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import minorkern.cli  # noqa: F401  (imports every layer)
    wl = workload_module(name).Workload(seed, quick)
    run_ops(wl.warm_up_ops())
    return wl, time.perf_counter() - t0


def _setup_in_fresh_process(name: str, seed: int, quick: bool) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, quick: bool = False,
                 setup_samples: int = SETUP_SAMPLES, out_dir: Path | None = RESULTS):
    """One run of one workload; returns (result, details)."""
    started = time.perf_counter()
    samples = [_setup_in_fresh_process(name, seed, quick) for _ in range(setup_samples - 1)]
    wl, own = set_up(name, seed, quick)
    samples.append(own)

    tracer = None
    if trace:
        import minorkern

        from mkbench.tracing import Tracer
        tracer = Tracer()
        tracer.install(minorkern)
    round_s, attempted, failed, problems = [], 0, 0, []
    try:
        for r in range(MAX_ROUNDS):
            ops = wl.round_ops(r)
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            outputs, n_failed = run_ops(ops)
            round_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.enabled = False
            attempted += len(ops)
            failed += n_failed
            problems += wl.check_round(r, outputs)
            if sum(round_s) >= seconds or time.perf_counter() - started > WALL_LIMIT_S:
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.final_checks()

    if tracer:
        metrics = tracer.layer_metrics(len(round_s))
    else:
        metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"},
                   "wall_s": {"value": statistics.median(round_s), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": name, "seed": seed, "trace": int(trace), "quick": quick,
               "rounds": len(round_s), "ops_per_round": wl.ops_per_round,
               "round_s": round_s, "setup_samples": samples,
               "wall_s_median": statistics.median(round_s),
               "peak_rss_mb": peak_rss_mb, "problems": problems}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
        if tracer:
            details["spans"] = tracer.spans()
            tracer.write(out_dir / f"{stem}.spans.npz")
        (out_dir / f"{stem}.json").write_text(json.dumps({"result": result, **details}, indent=1))
    return result, details


def quick_check(seed: int = 0) -> list[str]:
    """Every workload, untraced and traced, at reduced sizes with one round.

    Returns the list of harness problems found (empty when all is well).
    """
    from mkbench.tracing import metric_names

    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            res, det = run_workload(name, seed, 0.0, trace, quick=True, setup_samples=1,
                                    out_dir=None)
            tag = f"{name} trace={int(trace)}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if det["rounds"] != 1 or res["attempted"] != det["ops_per_round"]:
                problems.append(f"{tag}: attempted {res['attempted']} in {det['rounds']} rounds, "
                                f"expected {det['ops_per_round']} in 1")
            if res["failed"] != 0:
                problems.append(f"{tag}: {res['failed']} failed operations")
            if not res["correct"]:
                problems.append(f"{tag}: checks failed: {det['problems']}")
            want = metric_names() if trace else list(END_TO_END)
            got = [(k, v["unit"]) for k, v in res["metrics"].items()]
            if sorted(got) != sorted(want):
                problems.append(f"{tag}: metrics {sorted(got)} differ from {sorted(want)}")
            if any(not isinstance(v["value"], float) for v in res["metrics"].values()):
                problems.append(f"{tag}: non-float metric value")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes; without --workload, check the harness on all workloads")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_sources()
    _prepare_environment()
    if args.workload is None:
        if not args.quick:
            ap.error("--workload is required unless --quick is given")
        problems = quick_check(args.seed)
        for p in problems:
            print(f"quick: {p}", file=sys.stderr)
        print(json.dumps({"quick": "ok" if not problems else "failed",
                          "problems": len(problems)}))
        return 1 if problems else 0
    if args.setup_only:
        _, secs = set_up(args.workload, args.seed, args.quick)
        print(json.dumps({"setup_s": secs}))
        return 0
    res, det = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            quick=args.quick)
    for p in det["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        print(f"traced wall_s {det['wall_s_median']:.6g} over {det['rounds']} rounds",
              file=sys.stderr)
    print(json.dumps(res))
    return 0
