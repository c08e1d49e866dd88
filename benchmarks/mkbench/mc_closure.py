"""mc-closure: Monte Carlo eigenvalue chains held to the exact kernel density.

The four chains of acceptance criterion 4: GUE minors (N=4), the
rank-one-update LUE chain (N=4, n=3), and corank-1 projections of a
Gaussian and of a Jacobi(1,1) draw (n=3, depth 2).  A round draws `chunks`
chunks of `chunk` draws of each chain (3 of 850).  The first goes through the
README's `minorkern sample` command (cli.main, --out to a temporary file,
read back with chains_from_csv) under a fresh seed per round; the others are
direct batch calls that continue one stream with `start` offsets.  Every
species is histogrammed with validate.empirical_density and held by
validate.compare to the kernel's bin-averaged density.

The samplers do nearly all of the work; CSV writing and reading sits beside
them, and kernel.density is a sliver.
"""

from __future__ import annotations

import contextlib
import io
import tempfile

import numpy as np

from minorkern import cli, kernel, samplers, validate
from minorkern import orthopoly as op
from minorkern.numerics import gauss_legendre

from .common import RUN_FALSE_ALARM, TIMED, WARM_UP, rng, sampler_seed
from . import harness

NAME = "mc-closure"

GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG0 = op.EnsembleSpec(op.LAGUERRE, a=0.0)
JAC11 = op.EnsembleSpec(op.JACOBI, a=1.0, b=1.0)

# (label, sampler, CLI flags, process whose density it must match, species
#  sampled, histogram range and bins, bins in the quick mode)
CHAINS = (
    ("gue-minor N=4",
     lambda draws, seed, start: samplers.sample_gue_minor_batch(4, draws, seed, start),
     ["--process", "gue-minor", "--N", "4"], kernel.ProcessSpec(GAUSS, 4),
     (1, 2, 3, 4), (-4.0, 4.0, 60, 6)),
    ("lue-chain N=4 n=3",
     lambda draws, seed, start: samplers.sample_lue_batch(4, 3, draws, seed, start),
     ["--process", "lue-chain", "--N", "4", "--n", "3"], kernel.ProcessSpec(LAG0, 4),
     (1, 2, 3), (0.0, 22.0, 50, 5)),
    ("projection gaussian n=3 p=2",
     lambda draws, seed, start: samplers.sample_projection_batch(GAUSS, 3, 2, draws, seed, start),
     ["--process", "projection", "--ensemble", "gaussian", "--N", "3", "--n", "3", "--depth", "2"],
     kernel.ProcessSpec(GAUSS, 3), (1, 2, 3), (-3.6, 3.6, 60, 6)),
    ("projection jacobi(1,1) n=3 p=2",
     lambda draws, seed, start: samplers.sample_projection_batch(JAC11, 3, 2, draws, seed, start),
     ["--process", "projection", "--ensemble", "jacobi", "--a", "1", "--b", "1",
      "--N", "3", "--n", "3", "--depth", "2"],
     kernel.ProcessSpec(JAC11, 3), (1, 2, 3), (0.0, 1.0, 10, 2)),
)

FULL = dict(chunk=850, chunks=3, quick=False)
QUICK = dict(chunk=250, chunks=2, quick=True)
WARM_UP_CHUNK = 50

# one stray count in a bin moves its density by 1/(draws * width); this
# keeps that far below compare's 0.02 floor
MIN_DRAWS_TIMES_WIDTH = 250.0


def bin_averaged_density(proc, s, edges, order=6):
    """Kernel one-point density averaged over each bin (Gauss-Legendre)."""
    xg, wg = gauss_legendre(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * xg
    vals = kernel.density(proc, s, nodes.ravel()).reshape(nodes.shape)
    return (vals * wg).sum(axis=1) / 2.0


def bin_edges(hist, quick: bool) -> np.ndarray:
    lo, hi, bins, quick_bins = hist
    return np.linspace(lo, hi, (quick_bins if quick else bins) + 1)


def family_bins(quick: bool) -> int:
    """The family size that makes compare's default bound (1% over the
    family) hold the false-alarm rate at RUN_FALSE_ALARM over every bin of
    every species of every chain in MAX_ROUNDS rounds."""
    bins = sum((len(bin_edges(hist, quick)) - 1) * len(species)
               for *_, species, hist in CHAINS)
    tests = bins * harness.MAX_ROUNDS
    return int(np.ceil(tests * np.log1p(-validate.SUP_NORM_ALPHA) / np.log1p(-RUN_FALSE_ALARM)))


class Workload:
    def __init__(self, seed: int, quick: bool = False):
        self.size = QUICK if quick else FULL
        self.draws = self.size["chunk"] * self.size["chunks"]
        self.ops_per_round = len(CHAINS) * (self.size["chunks"] + 1)
        self.family = family_bins(quick)
        gen = rng(seed, NAME, TIMED)
        self.stream_seeds = [sampler_seed(gen) for _ in CHAINS]
        self.cli_seeds = [[sampler_seed(gen) for _ in CHAINS] for _ in range(harness.MAX_ROUNDS)]
        warm = rng(seed, NAME, WARM_UP)
        self.warm_seeds = [sampler_seed(warm) for _ in CHAINS]
        self.tmp = tempfile.TemporaryDirectory(prefix="mc-closure-", dir=_tmp_parent())
        self.kept = {}          # round-0 outputs for the reproducibility checks

    def _ops(self, c, cli_seed, stream_seed, first_start, chunk):
        label, sampler, flags, proc, species, hist = CHAINS[c]
        edges = bin_edges(hist, self.size["quick"])
        path = f"{self.tmp.name}/chain{c}.csv"
        batches = []

        def via_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["sample", *flags, "--draws", str(chunk),
                                 "--seed", str(cli_seed), "--out", path])
            if code != 0:
                raise RuntimeError(f"minorkern sample exited {code}")
            with open(path) as fh:
                batches.append(samplers.chains_from_csv(fh.read())[0])
            return batches[-1]

        def direct(start):
            def op():
                batches.append(sampler(chunk, stream_seed, start))
                return batches[-1]
            return op

        def closure():
            reports = {}
            draws = chunk * len(batches)
            for s in species:
                est = validate.empirical_density(
                    np.concatenate([b[s] for b in batches]), draws, s, edges)
                reports[s] = validate.compare(bin_averaged_density(proc, s, edges), est,
                                              validate.SUP_NORM, family_bins=self.family)
            return reports

        ops = [(f"{label} via cli", via_cli)]
        ops += [(f"{label} chunk {k}", direct(first_start + (k - 1) * chunk))
                for k in range(1, self.size["chunks"])]
        ops.append((f"{label} closure", closure))
        return ops

    def warm_up_ops(self):
        return [op for c in range(len(CHAINS))
                for op in self._ops(c, self.warm_seeds[c], self.warm_seeds[c], 0, WARM_UP_CHUNK)]

    def round_ops(self, r: int):
        first_start = r * (self.size["chunks"] - 1) * self.size["chunk"]
        return [op for c in range(len(CHAINS))
                for op in self._ops(c, self.cli_seeds[r][c], self.stream_seeds[c], first_start,
                                    self.size["chunk"])]

    def check_round(self, r: int, outputs) -> list[str]:
        problems = []
        per_chain = self.size["chunks"] + 1
        for c, (label, *_) in enumerate(CHAINS):
            outs = outputs[c * per_chain:(c + 1) * per_chain]
            for k, batch in enumerate(outs[:-1]):
                if batch is None:
                    continue
                bad = interlacing_violations(batch)
                if bad:
                    problems.append(f"round {r} {label} chunk {k}: {bad} interlacing violations")
                if r == 0 and k < 3:
                    self.kept[(c, k)] = batch
            if outs[-1] is not None:
                for s, rep in outs[-1].items():
                    if not rep.passed:
                        problems.append(f"round {r} {label} species {s}: max |dev|/tol "
                                        f"{rep.statistic:.3g} >= {rep.threshold}")
        return problems

    def final_checks(self) -> list[str]:
        problems = []
        chunk = self.size["chunk"]
        for c, (label, sampler, *_, hist) in enumerate(CHAINS):
            edges = bin_edges(hist, self.size["quick"])
            if np.min(np.diff(edges)) * self.draws < MIN_DRAWS_TIMES_WIDTH:
                problems.append(f"{label}: draws x bin width below {MIN_DRAWS_TIMES_WIDTH}")
            if (c, 0) in self.kept:
                direct = sampler(chunk, self.cli_seeds[0][c], 0)
                if not same_bits(direct, self.kept[(c, 0)]):
                    problems.append(f"{label}: CSV from `minorkern sample` differs from "
                                    "the direct batch with the same (seed, draws)")
            if (c, 1) in self.kept and (c, 2) in self.kept:
                whole = sampler(2 * chunk, self.stream_seeds[c], 0)
                for k in (1, 2):
                    part = {s: v[(k - 1) * chunk:k * chunk] for s, v in whole.items()}
                    if not same_bits(part, self.kept[(c, k)]):
                        problems.append(f"{label}: chunk at start={(k - 1) * chunk} differs "
                                        "from the slice of one larger batch")
        self.tmp.cleanup()
        return problems


def _tmp_parent():
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    return harness.RESULTS


def interlacing_violations(batch) -> int:
    """Draws in which some pair of adjacent species fails strict interlacing."""
    species = sorted(batch)
    bad = np.zeros(len(batch[species[0]]), dtype=bool)
    for lo, hi in zip(species[:-1], species[1:]):
        lo_v, hi_v = batch[lo], batch[hi]
        if hi == lo + 1 and hi_v.shape[1] == lo_v.shape[1] + 1:
            bad |= ~(np.all(hi_v[:, :-1] < lo_v, axis=1) & np.all(lo_v < hi_v[:, 1:], axis=1))
    return int(np.sum(bad))


def same_bits(a: dict, b: dict) -> bool:
    return sorted(a) == sorted(b) and all(
        a[s].shape == b[s].shape and a[s].tobytes() == np.ascontiguousarray(b[s]).tobytes()
        for s in a)
