"""Command-line surface: kernel evaluation, sampling, validation suites,
scaling studies and lattice experiments.

Exit codes: 0 success, 1 numeric/validation failure, 2 usage error.  Machine
output goes to --out files (CSV/JSON, 17 significant digits, '#' metadata);
stdout carries short human-readable summaries only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import orthopoly as op
from . import rsklab, samplers, scaling, validate
from .kernel import ProcessSpec, SpeciesPoint, correlation, density, kernel_K, phi_cap, psi
from .numerics import NumericError, gauss_legendre

USAGE_ERROR = 2
NUMERIC_ERROR = 1


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Everything a subcommand needs; JSON-serializable, flags override file.
    N = 0 leaves the size unset, for a validation suite to use its default."""

    subcommand: str = ""
    ensemble: str = op.GAUSSIAN
    a: float = 0.0
    b: float = 0.0
    N: int = 0
    species: tuple[int, ...] = ()
    grid_min: float = 0.0
    grid_max: float = 0.0
    grid_step: float = 1.0
    seed: int = 0
    draws: int = 1000
    out: str = ""
    process: str = "gue-minor"
    n: int = 2
    depth: int = 0
    suite: str = ""
    regime: str = scaling.SOFT_FIXED
    n_list: tuple[int, ...] = (50, 100, 200)
    offsets: tuple[float, ...] = (0.0,)
    positions: tuple[float, ...] = (0.0,)
    points: tuple[float, ...] = ()
    tolerance: float = 0.0
    scale: float = 1.0

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
        except (TypeError, AttributeError) as e:  # a key that names no field, or no JSON object
            raise UsageError(f"config file: {e}") from e

    def spec(self) -> op.EnsembleSpec:
        return op.EnsembleSpec(self.ensemble, self.a, self.b)


def _write(path: str, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid_step <= 0:
        raise ValueError("grid step must be positive")
    span = (cfg.grid_max - cfg.grid_min) / cfg.grid_step
    if not math.isfinite(span):
        raise ValueError("grid bounds and step must be finite, with a finite number of points")
    n = int(round(span)) + 1
    return cfg.grid_min + cfg.grid_step * np.arange(max(n, 1))


def cmd_density(cfg: RunConfig) -> int:
    proc = ProcessSpec(cfg.spec(), cfg.N)
    grid = _grid(cfg)
    lines = [f"# ensemble={cfg.ensemble}", f"# N={cfg.N}", "species,y,rho1"]
    for s in cfg.species or (cfg.N,):
        rho = density(proc, s, grid)
        for y, r in zip(grid, rho):
            lines.append(f"{s},{_fmt(y)},{_fmt(r)}")
    _write(cfg.out, "\n".join(lines) + "\n")
    print(f"density: {len(grid)} grid points x {len(cfg.species or (cfg.N,))} species")
    return 0


def cmd_kernel(cfg: RunConfig) -> int:
    proc = ProcessSpec(cfg.spec(), cfg.N)
    if len(cfg.species) != 2 or len(cfg.points) != 2:
        raise ValueError("kernel needs exactly two --species and two --points")
    p1, p2 = map(SpeciesPoint, cfg.species, cfg.points)
    v = kernel_K(proc, p1, p2)
    _write(cfg.out, f"# K(s1,y1;s2,y2)\n{_fmt(v.value)}\n")
    print(f"K({p1.s},{p1.y};{p2.s},{p2.y}) = {v.value:.12g}")
    return 0


def cmd_correlation(cfg: RunConfig) -> int:
    proc = ProcessSpec(cfg.spec(), cfg.N)
    if len(cfg.species) != len(cfg.points) or not cfg.species:
        raise ValueError("correlation needs matching --species and --points lists")
    pts = [SpeciesPoint(s, y) for s, y in zip(cfg.species, cfg.points)]
    rho = correlation(proc, pts)
    _write(cfg.out, f"# correlation\n{_fmt(rho)}\n")
    print(f"rho({len(pts)} points) = {rho:.12g}")
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    if cfg.process == "gue-minor":
        batch = samplers.sample_gue_minor_batch(cfg.N, cfg.draws, cfg.seed)
        meta = dict(ensemble=op.GAUSSIAN, N=cfg.N)
    elif cfg.process == "lue-chain":
        batch = samplers.sample_lue_batch(cfg.N, cfg.n, cfg.draws, cfg.seed)
        meta = dict(ensemble=op.LAGUERRE, N=cfg.N)
    else:
        if cfg.N and cfg.N != cfg.n:
            raise UsageError(f"--N {cfg.N} differs from --n {cfg.n}")
        batch = samplers.sample_projection_batch(cfg.spec(), cfg.n, cfg.depth, cfg.draws, cfg.seed)
        meta = dict(ensemble=cfg.ensemble, N=cfg.n)
    _write(cfg.out, samplers.chains_to_csv(batch, **meta, seed=cfg.seed))
    print(f"sampled {cfg.draws} draws of {cfg.process}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    checks = _SUITES[cfg.suite][0](cfg)
    ok = all(c["pass"] for c in checks)
    report = {"suite": cfg.suite, "pass": ok, "checks": checks}
    _write(cfg.out, json.dumps(report, sort_keys=True, default=float) + "\n")
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: stat={c['statistic']:.3g} thr={c['threshold']:.3g}")
    return 0 if ok else NUMERIC_ERROR


def cmd_scaling(cfg: RunConfig) -> int:
    rep = scaling.convergence_report(cfg.regime, cfg.spec(), cfg.n_list,
                                     cfg.offsets, cfg.positions)
    _write(cfg.out, json.dumps(rep, sort_keys=True) + "\n")
    if cfg.out:
        with open(os.path.splitext(cfg.out)[0] + ".csv", "w") as fh:
            fh.write(scaling.report_to_csv(rep))
    for row in rep["rows"]:
        print(f"N={row['N']}: max|finite-limit| = {row['max_error']:.3e}")
    print(f"order estimate: {rep['order_estimate']}")
    return 0 if rep["converged"] else NUMERIC_ERROR


def cmd_lpp(cfg: RunConfig) -> int:
    rep = rsklab.lpp_eigenvalue_bridge_test(cfg.n, cfg.draws, cfg.seed, scale=cfg.scale)
    _write(cfg.out, json.dumps(rep, sort_keys=True) + "\n")
    print(f"lpp bridge n={cfg.n}: KS={rep['statistic']:.4f} crit={rep['critical_value']:.4f} "
          f"{'PASS' if rep['pass'] else 'FAIL'}")
    return 0 if rep["pass"] else NUMERIC_ERROR


def cmd_limitcheck(cfg: RunConfig) -> int:
    q = scaling.LimitQuery(cfg.regime, cfg.spec(), cfg.N, cfg.offsets, cfg.positions)
    lines = ["i,j,finite,limit"]
    worst = 0.0
    for i in range(len(cfg.offsets)):
        for j in range(len(cfg.offsets)):
            fin = scaling.scaled_finite_kernel(q, i, j)
            lim = scaling.limit_kernel(q, i, j)
            worst = max(worst, abs(fin - lim))
            lines.append(f"{i},{j},{_fmt(fin)},{_fmt(lim)}")
    _write(cfg.out, "\n".join(lines) + "\n")
    print(f"limitcheck {cfg.regime} N={cfg.N}: worst |finite-limit| = {worst:.3e}")
    return NUMERIC_ERROR if cfg.tolerance and worst > cfg.tolerance else 0


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def _bin_averaged_density(proc, s, edges, order=6):
    xg, wg = gauss_legendre(order)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * xg
    vals = density(proc, s, nodes.ravel()).reshape(nodes.shape)
    return (vals * wg).sum(axis=1) / 2.0


def _suite_biorthogonality(cfg: RunConfig) -> list[dict]:
    N = cfg.N or 10
    proc = ProcessSpec(cfg.spec(), N)
    worst = 0.0
    for n in range(1, N + 1):
        fam = proc.family(n)
        nodes, wts = op.gauss_weight_nodes(fam, n + 3)
        for j in range(n):
            for k in range(n):
                vals = [phi_cap(proc, n, j, float(x)) * psi(proc, n, k, float(x))
                        / op.eval_weight(fam, float(x)) for x in nodes]
                integral = float(np.dot(wts, vals))
                worst = max(worst, abs(integral - (1.0 if j == k else 0.0)))
    return [_check("biorthogonality max deviation", worst, cfg.tolerance or 1e-8)]


def _suite_oracle(cfg: RunConfig) -> list[dict]:
    spec = cfg.spec()
    N = cfg.N or 2
    if N > 3:
        raise UsageError(f"oracle runs N <= 3, got --N {N}")
    proc = ProcessSpec(spec, N)
    lo, hi = validate.support_box(spec, N)
    span = hi - lo
    pts = [lo + f * span for f in (0.25, 0.45, 0.65)]
    worst = 0.0
    for s in range(1, N + 1):
        for y in pts:
            bf = validate.brute_force_marginal(proc, [SpeciesPoint(s, y)])
            kd = correlation(proc, [SpeciesPoint(s, y)])
            worst = max(worst, abs(bf - kd) / max(abs(kd), 1e-10))
    return [_check("kernel vs brute force (relative)", worst, cfg.tolerance or 1e-4)]


def _suite_sampler_vs_kernel(cfg: RunConfig) -> list[dict]:
    spec = cfg.spec()
    draws = cfg.draws
    checks = []
    if cfg.N > 4:
        raise UsageError(f"sampler-vs-kernel runs N <= 4, got --N {cfg.N}")
    N = cfg.N or 3
    proc = ProcessSpec(spec, N)
    if spec.kind == op.GAUSSIAN:
        batch = samplers.sample_gue_minor_batch(N, draws, cfg.seed)
        edges = np.linspace(-3.8, 3.8, 61)
    else:
        batch = samplers.sample_projection_batch(spec, N, N - 1, draws, cfg.seed)
        edges = (np.linspace(0, 1, 26) if spec.kind == op.JACOBI
                 else np.linspace(0, 30.0 + 4 * spec.a, 51))
    # without --tolerance each bin gets the per-bin noise bound, with the 1%
    # false-alarm rate shared by the bins of every species compared
    name = "sup-norm" if cfg.tolerance else "sup-norm / per-bin bound"
    family = len(batch) * (len(edges) - 1)
    for s in sorted(batch):
        est = validate.empirical_density(batch[s], draws, s, edges)
        rep = validate.compare(_bin_averaged_density(proc, s, edges), est,
                               validate.SUP_NORM, threshold=cfg.tolerance or None,
                               seed=cfg.seed, family_bins=family)
        checks.append(_check(f"species {s} {name}", rep.statistic, rep.threshold))
    return checks


def _suite_gauge(cfg: RunConfig) -> list[dict]:
    spec = cfg.spec()
    N = cfg.N or 4
    proc = ProcessSpec(spec, N)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = validate.support_box(spec, N)
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(2, 4))
        ss = rng.integers(1, N + 1, r)
        ys = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), r)
        pts = [SpeciesPoint(int(s), float(y)) for s, y in zip(ss, ys)]
        if len({(p.s, p.y) for p in pts}) != r:
            continue
        base = correlation(proc, pts)
        c = rng.uniform(0.5, 2.0, N + 1)
        mat = np.array([[kernel_K(proc, pi, pj).value * c[pi.s] / c[pj.s]
                         for pj in pts] for pi in pts])
        # relative to Hadamard's bound on the determinant: near-cancelling
        # determinants have no relative accuracy of their own
        hadamard = float(np.prod(np.linalg.norm(mat, axis=1)))
        worst = max(worst, abs(float(np.linalg.det(mat)) - base) / hadamard)
    return [_check("gauge invariance of determinants", worst, cfg.tolerance or 1e-9)]


def _suite_rsk(cfg: RunConfig) -> list[dict]:
    lat = rsklab.LatticeConfig(3, 1, 1, rsklab.Geometric(z=0.3, t=0.5, alphas=(0.4,)))
    grids = rsklab.sample_lattice_batch(lat, cfg.draws, cfg.seed)
    if not all(rsklab.rsk_shape_sequence(grid, 1).interlaced() for grid in grids):
        return [_check("interlacing violations", 1.0, 0.5)]
    # truncated normalization of the joint weight over partitions with parts <= 14
    def parts(rows):
        return itertools.combinations_with_replacement(range(14, -1, -1), rows)
    tot = sum(rsklab.eval_discrete_joint(lat, rsklab.ShapeSequence((mu0, mu1), 1))
              for mu0 in parts(1) for mu1 in parts(2))
    return [
        _check("interlacing violations", 0.0, 0.5),
        _check("joint weight normalization |sum-1|", abs(tot - 1.0), 1e-6),
    ]


def _suite_lpp_bridge(cfg: RunConfig) -> list[dict]:
    rep = rsklab.lpp_eigenvalue_bridge_test(cfg.n, cfg.draws, cfg.seed, scale=cfg.scale)
    return [_check(f"lpp bridge n={cfg.n} KS", rep["statistic"], rep["critical_value"])]


def _suite_bead_det(cfg: RunConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 4))
        cs = rng.integers(-3, 4, r)
        xs = rng.uniform(-2.0, 2.0, r)
        m1 = np.array([[scaling.bead_kernel(int(cs[i]), xs[i], int(cs[j]), xs[j])
                        for j in range(r)] for i in range(r)])
        m2 = np.array([[scaling.bead_kernel_alt(int(cs[i]), xs[i], int(cs[j]), xs[j])
                        for j in range(r)] for i in range(r)])
        worst = max(worst, abs(float(np.linalg.det(m1)) - float(np.linalg.det(m2))))
    return [_check("bead determinant equality", worst, cfg.tolerance or 1e-7)]


def _suite_scaling(cfg: RunConfig) -> list[dict]:
    rep = scaling.convergence_report(cfg.regime, cfg.spec(), cfg.n_list,
                                     cfg.offsets, cfg.positions)
    errs = rep["errors"]
    return [
        _check("final scaling error", errs[-1], cfg.tolerance or 5e-2),
        _check("error decreasing", 0.0 if rep["converged"] else 1.0, 0.5),
    ]


_SPEC = ("ensemble", "a", "b")  # the flags RunConfig.spec reads

# suite -> (runner, the flags it reads)
_SUITES = {
    "biorthogonality": (_suite_biorthogonality, ("N", *_SPEC, "tolerance")),
    "oracle": (_suite_oracle, ("N", *_SPEC, "tolerance")),
    "sampler-vs-kernel": (_suite_sampler_vs_kernel, ("N", *_SPEC, "draws", "seed", "tolerance")),
    "gauge": (_suite_gauge, ("N", *_SPEC, "seed", "tolerance")),
    "rsk": (_suite_rsk, ("draws", "seed")),
    "lpp-bridge": (_suite_lpp_bridge, ("n", "draws", "seed", "scale")),
    "bead-det": (_suite_bead_det, ("seed", "tolerance")),
    "scaling": (_suite_scaling, ("regime", *_SPEC, "n-list", "offsets", "positions", "tolerance")),
}


def _check(name: str, stat: float, thr: float) -> dict:
    return {"name": name, "statistic": float(stat), "threshold": float(thr),
            "pass": bool(stat < thr)}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# every flag once, as argparse keyword arguments
_FLAGS = {
    "config": dict(help="JSON config file; flags override its values"),
    "ensemble": dict(choices=op.KINDS),
    "process": dict(choices=["gue-minor", "lue-chain", "projection"]),
    "suite": dict(choices=sorted(_SUITES)),
    "regime": dict(choices=scaling.REGIMES),
    "grid": dict(help="min:step:max"),
    "out": {},
    **{flag: dict(type=float) for flag in ("a", "b", "tolerance", "scale")},
    **{flag: dict(type=int) for flag in ("seed", "N", "n", "depth", "draws")},
    **{flag: dict(type=int, nargs="+") for flag in ("species", "n-list")},
    **{flag: dict(type=float, nargs="+") for flag in ("points", "offsets", "positions")},
}

# subcommand -> (runner, help, the flags it reads), where a subcommand with
# variants reads (the flag that picks one, {variant: the flags it reads});
# "N!" is a --N that must be given, and every subcommand takes --config and --out
_COMMANDS = {
    "density": (cmd_density, "finite-N one-point functions on a grid", ("N!", *_SPEC, "species", "grid")),
    "kernel": (cmd_kernel, "one kernel value", ("N!", *_SPEC, "species", "points")),
    "correlation": (cmd_correlation, "r-point correlation", ("N!", *_SPEC, "species", "points")),
    "sample": (cmd_sample, "Monte Carlo chains to CSV", ("process", {
        "gue-minor": ("N!", "draws", "seed"),
        "lue-chain": ("N!", "n", "draws", "seed"),
        "projection": (*_SPEC, "N", "n", "depth", "draws", "seed")})),
    "validate": (cmd_validate, "named validation suite",
                 ("suite", {name: flags for name, (_, flags) in _SUITES.items()})),
    "scaling": (cmd_scaling, "convergence report over an N list",
                ("regime", *_SPEC, "n-list", "offsets", "positions")),
    "lpp": (cmd_lpp, "last-passage vs eigenvalue bridge", ("n", "draws", "seed", "scale")),
    "limitcheck": (cmd_limitcheck, "finite kernel vs limit kernel at one N",
                   ("regime", *_SPEC, "N!", "offsets", "positions", "tolerance")),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minorkern", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand")
    for name, (_, help_text, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if isinstance(reads[-1], dict):
            reads = (reads[0], *itertools.chain(*reads[1].values()))
        for flag in dict.fromkeys(flag.rstrip("!") for flag in ("config", *reads, "out")):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_data = json.load(fh)
        except OSError as e:
            raise UsageError(f"config file {args.config}: {e.strerror}") from e
    cfg = RunConfig.from_dict(file_data)
    cfg.subcommand = args.subcommand
    given = {k: v for k, v in vars(args).items() if v is not None and k not in ("config", "subcommand")}
    # a field counts as set when a flag gives it or the file moves it off its default
    unset = RunConfig(subcommand=cfg.subcommand)
    changed = set(given) | {f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(unset, f.name)}
    if "grid" in given:
        parts = given.pop("grid").split(":")
        if len(parts) != 3:
            raise UsageError("--grid must be min:step:max")
        cfg.grid_min, cfg.grid_step, cfg.grid_max = map(float, parts)
    for k, v in given.items():
        setattr(cfg, k, tuple(v) if isinstance(v, list) else v)
    if cfg.seed == 0 and "seed" not in given and "MINORKERN_SEED" in os.environ:
        cfg.seed = int(os.environ["MINORKERN_SEED"])
    # the flags read where the config runs: its variant's, if its subcommand has variants
    where, reads = cfg.subcommand, _COMMANDS[cfg.subcommand][2]
    if isinstance(reads[-1], dict):
        (key, variants), value = reads, getattr(cfg, reads[0])
        if value not in variants:
            raise UsageError(f"--{key} must be one of {sorted(variants)}, got {value!r}")
        where, reads = f"--{key} {value}", (key, *variants[value])
    flags = {flag.rstrip("!") for flag in (*reads, "out")}
    for name in sorted({"grid" if k.startswith("grid_") else k.replace("_", "-") for k in changed} - flags):
        raise UsageError(f"--{name} does not apply to {where}")
    explicit = set(given) | set(file_data)
    if "N!" in reads and "N" not in explicit:
        raise UsageError("missing required --N")
    if "N" in flags & explicit and type(cfg.N) is not int:
        raise UsageError(f"--N must be an integer, got {cfg.N!r}")
    if "N" in flags & explicit and cfg.N < 1:
        raise UsageError(f"--N must be >= 1, got {cfg.N}")
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args, extra = ap.parse_known_args(argv)
        # a flag of another subcommand is a flag that does not apply
        flag = extra[0].split("=")[0] if extra else ""
        if extra and not (args.subcommand and flag[:2] == "--" and flag[2:] in _FLAGS):
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    if not args.subcommand:
        ap.print_usage()
        return USAGE_ERROR
    try:
        try:
            if extra:
                raise UsageError(f"{flag} does not apply to {args.subcommand}")
            cfg = _merge_config(args)
        except OverflowError as e:
            raise UsageError(str(e)) from e
        return _COMMANDS[cfg.subcommand][0](cfg)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (NumericError, OverflowError) as e:
        # a double that overflows in a command's numerics is a numeric failure
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
