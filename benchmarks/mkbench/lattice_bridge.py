"""lattice-bridge: last-passage and RSK lattices against eigenvalue chains.

A round covers the four parts of the lattice layer, with fresh seeds:

* lpp_eigenvalue_bridge_test at n = 4 and n = 10: l(n, n) of exponential
  last-passage against the top eigenvalue of the LUE chain (batched eigh
  plus the LUE secular solve at n up to 10);
* the inhomogeneous Wishart chain at homogeneous rates (p = 4) against the
  LUE chain, by two-sample KS on the top eigenvalue;
* RSK shape sequences of sampled geometric lattices (3 x (1+1)), each with
  its discrete joint weight, and that weight summed over all partitions
  with parts up to CUT (random z, t, alpha per round);
* the discrete-to-continuum limit of acceptance criterion 11 (L = 50 ...
  400), at its interlaced points moved by k/50, |k| <= 5, each round.  The
  moves keep x L whole for every L, so lattice rounding adds no error; the
  doubling ratio stays within 0.16 of 2 at all 11^3 such points.

rsklab is measured nowhere else; it draws per-draw lattice streams and uses
the sampler layer differently from mc-closure.
"""

from __future__ import annotations

import math

from minorkern import rsklab, samplers, validate

from .common import RUN_FALSE_ALARM, TIMED, WARM_UP, rng, sampler_seed, sidak_per_test
from . import harness

NAME = "lattice-bridge"

CUT = 20                  # largest part in the truncated normalization sum
NORM_TOL = 1e-6           # |sum of the discrete joint weight - 1|
RATIO_TOL = 0.3           # |L-doubling error ratio - 2|
KS_TESTS_PER_ROUND = 3

FULL = dict(lpp=((4, 1500), (10, 750)), wishart=1500, rsk=1000, limit_points=4)
QUICK = dict(lpp=((4, 300), (10, 150)), wishart=300, rsk=100, limit_points=1)
WARM = dict(lpp=((4, 100), (10, 50)), wishart=100, rsk=50, limit_points=1)

# criterion 11's configuration
N1, N2, P, A, A1 = 4, 1, 1, 0.8, 0.5
L_VALUES = (50, 100, 200, 400)


def ks_factor() -> float:
    """KS critical value times sqrt(m n / (m + n)) at the per-test level that
    holds the false-alarm rate at RUN_FALSE_ALARM over MAX_ROUNDS rounds."""
    alpha = sidak_per_test(RUN_FALSE_ALARM, KS_TESTS_PER_ROUND * harness.MAX_ROUNDS)
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def partitions(rows: int, cut: int):
    """Weakly decreasing tuples of `rows` parts in [0, cut]."""
    if rows == 0:
        yield ()
        return
    for first in range(cut + 1):
        for rest in partitions(rows - 1, first):
            yield (first,) + rest


def discrete_limit(points):
    """(continuum density, [L^((1+p)(n2+p/2)) x discrete weight] over L)."""
    cont = rsklab.eval_jacobi_limit_pdf(N1, N2, P, A, (A1,), points)
    vals = []
    for L in L_VALUES:
        cfg = rsklab.LatticeConfig(N1, N2, P, rsklab.Geometric(
            z=math.exp(-A / L), t=math.exp(-1.0 / L), alphas=(math.exp(-A1 / L),)))
        mus = {s: tuple(round(x * L) - (N2 + s) + (j + 1) for j, x in enumerate(xs))
               for s, xs in points.items()}
        val = rsklab.eval_discrete_joint(cfg, rsklab.ShapeSequence((mus[0], mus[1]), N2))
        vals.append(val * L ** ((1 + P) * (N2 + P / 2.0)))
    return cont, vals


class Workload:
    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.size = QUICK if quick else FULL
        self.ops_per_round = len(self._plan(rng(seed, NAME, TIMED, 0), self.size)[0])
        self.ks_factor = ks_factor()

    @staticmethod
    def _plan(gen, size):
        plan, facts = [], {}
        for n, draws in size["lpp"]:
            seed = sampler_seed(gen)
            plan.append((f"lpp n={n}", lambda n=n, draws=draws, seed=seed:
                         rsklab.lpp_eigenvalue_bridge_test(n, draws, seed)))
        w_seed, l_seed, draws = sampler_seed(gen), sampler_seed(gen), size["wishart"]
        top = {}

        def top_eigenvalues(key, sample):
            def op():
                top[key] = sample()[4][:, -1]
                return len(top[key])
            return op

        plan.append(("wishart p=4", top_eigenvalues("wishart", lambda: rsklab.sample_wishart_chain_batch(
            4, [0.5] * 4, [0.5] * 4, draws, w_seed))))
        plan.append(("lue p=4", top_eigenvalues("lue", lambda: samplers.sample_lue_batch(
            4, 4, draws, l_seed))))
        plan.append(("wishart vs lue", lambda: validate.ks_two_sample(top["wishart"], top["lue"])
                     + (draws,)))
        z, t, alpha = gen.uniform(0.25, 0.35), gen.uniform(0.4, 0.6), gen.uniform(0.3, 0.5)
        cfg = rsklab.LatticeConfig(3, 1, 1, rsklab.Geometric(z=z, t=t, alphas=(alpha,)))
        facts["lattice"] = cfg
        r_seed = sampler_seed(gen)

        def rsk():
            out = []
            for d in range(size["rsk"]):
                seq = rsklab.rsk_shape_sequence(rsklab.sample_lattice(cfg, r_seed, d), 1)
                out.append((seq, rsklab.eval_discrete_joint(cfg, seq)))
            return out

        plan.append(("rsk shapes", rsk))
        plan.append(("joint weight sum", lambda: math.fsum(
            rsklab.eval_discrete_joint(cfg, rsklab.ShapeSequence((m0, m1), 1))
            for m0 in partitions(1, CUT) for m1 in partitions(2, CUT))))
        for i in range(size["limit_points"]):
            d = gen.integers(-5, 6, 3) / 50.0
            points = {0: [1.1 + d[0]], 1: [1.9 + d[1], 0.6 + d[2]]}
            plan.append((f"discrete limit {i}", lambda points=points: discrete_limit(points)))
        return plan, facts

    def warm_up_ops(self):
        return self._plan(rng(self.seed, NAME, WARM_UP), WARM)[0]

    def round_ops(self, r: int):
        self.plan, self.facts = self._plan(rng(self.seed, NAME, TIMED, r), self.size)
        return self.plan

    def check_round(self, r: int, outputs) -> list[str]:
        got = {label: out for (label, _), out in zip(self.plan, outputs) if out is not None}
        problems = []
        for label, out in got.items():
            if label.startswith("lpp"):
                crit = self.ks_factor * math.sqrt(2.0 / out["draws"])
                if not out["statistic"] < crit:
                    problems.append(f"round {r} {label}: KS {out['statistic']:.4g} >= {crit:.4g}")
            elif label == "rsk shapes":
                bad = sum(1 for seq, w in out if not (seq.interlaced() and w > 0.0))
                if bad:
                    problems.append(f"round {r}: {bad} RSK shape sequences not interlaced "
                                    "or of zero weight")
            elif label == "joint weight sum":
                if not abs(out - 1.0) < NORM_TOL:
                    problems.append(f"round {r} {self.facts['lattice']}: weight sum {out!r}")
            elif label.startswith("discrete limit"):
                cont, vals = out
                errs = [abs(v - cont) for v in vals]
                ratios = [a / b for a, b in zip(errs[:-1], errs[1:])]
                if not all(abs(x - 2.0) < RATIO_TOL for x in ratios):
                    problems.append(f"round {r} {label}: L-doubling ratios {ratios}")
            elif label == "wishart vs lue":
                stat, _, draws = out
                crit = self.ks_factor * math.sqrt(2.0 / draws)
                if not stat < crit:
                    problems.append(f"round {r} {label}: KS {stat:.4g} >= {crit:.4g}")
        return problems

    def final_checks(self) -> list[str]:
        return []
