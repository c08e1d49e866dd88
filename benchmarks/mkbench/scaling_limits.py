"""scaling-limits: finite-N kernels against their scaling limits at large N.

Every regime of acceptance criteria 6-9, at the criteria's N and with the
positions moved by a fresh random offset (|offset| <= 0.1) each round:

* soft edge, Gaussian: convergence_report over N = 100, 200, 400 at species
  offsets (0, 1), diagonal and cross-species entries, against the Airy kernel;
* bulk, Gaussian N = 200: density, same-species and cross-species entries
  against the bead (sine) kernel;
* hard edge, Laguerre a = 0, N = 200: the diagonal at X = 0 and a
  cross-species entry whose Bessel integral takes the oscillatory branch;
* soft drift, Laguerre and Gaussian, N = 100, 200, 400: 2x2 determinants
  against the extended Airy kernel, whose off-diagonal entries take both
  signs of the time offset.  These stay at criterion 9's positions every
  round: their cost jumps by up to 10x between nearby positions (whether
  the bilinear series is accepted), so moved positions would make the
  round time unsteady.  With the hard-edge diagonal at X = 0 they are the
  only inputs that repeat from round to round.

Few kernel entries, but at large N, where the signed-log path and whether
the bilinear series is accepted set the cost; the limit kernels are heavy
on quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from minorkern import orthopoly as op
from minorkern import scaling

from .common import TIMED, WARM_UP, rng

NAME = "scaling-limits"

GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG0 = op.EnsembleSpec(op.LAGUERRE, a=0.0)
JITTER = 0.1

# tolerances of acceptance criteria 6-9
SOFT_TOL, BULK_TOL, HARD_DIAG_TOL, HARD_CROSS_TOL, DRIFT_TOL = 5e-2, 5e-2, 2e-2, 5e-2, 1e-1
# closed forms of the limit kernels are held to this absolute accuracy
CLOSED_FORM_TOL = 1e-9

FULL = dict(soft_n=(100, 200, 400), bulk_n=200, hard_n=200, drift_n=(100, 200, 400))
QUICK = dict(soft_n=(20, 40, 80), bulk_n=40, hard_n=40, drift_n=(16, 32, 64))
WARM = dict(soft_n=(20, 40, 80), bulk_n=40, hard_n=40, drift_n=(50,))


class Workload:
    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.size = QUICK if quick else FULL
        self.ops_per_round = len(self._plan(rng(seed, NAME, TIMED, 0), self.size)[0])

    @staticmethod
    def _plan(gen, size, drift_jitter=False):
        """(label, callable) pairs, and the bulk separation the checks need."""
        d = gen.uniform(-JITTER, JITTER, 8)
        plan = []
        soft_pos = (d[0], 0.5 + d[1])
        plan.append(("soft convergence_report", lambda: scaling.convergence_report(
            scaling.SOFT_FIXED, GAUSS, size["soft_n"], (0, 1), soft_pos,
            pairs=[(0, 0), (0, 1), (1, 1)])))
        bulk_u = 0.6 + d[3]
        bulk = scaling.LimitQuery(scaling.BULK, GAUSS, size["bulk_n"], (0, 0), (d[2], d[2] + bulk_u))
        bulk_x = scaling.LimitQuery(scaling.BULK, GAUSS, size["bulk_n"], (0, 1), (d[2], d[2] + bulk_u))
        for name, q, j, k in (("bulk", bulk, 0, 0), ("bulk", bulk, 0, 1), ("bulk cross", bulk_x, 0, 1)):
            plan.append((f"{name} finite ({j},{k})", _entry(scaling.scaled_finite_kernel, q, j, k)))
            plan.append((f"{name} limit ({j},{k})", _entry(scaling.limit_kernel, q, j, k)))
        hard = scaling.LimitQuery(scaling.HARD_EDGE, LAG0, size["hard_n"], (0,), (0.0,))
        hard_x = scaling.LimitQuery(scaling.HARD_EDGE, LAG0, size["hard_n"], (0, 1),
                                    (2.0 + d[4], 3.0 + d[4]))
        for name, q, j, k in (("hard", hard, 0, 0), ("hard cross", hard_x, 0, 1)):
            plan.append((f"{name} finite ({j},{k})", _entry(scaling.scaled_finite_kernel, q, j, k)))
            plan.append((f"{name} limit ({j},{k})", _entry(scaling.limit_kernel, q, j, k)))
        if not drift_jitter:
            d[5:] = 0.0
        for spec, offsets, dd in ((LAG0, (0.0, 0.5), d[5]), (GAUSS, (0.0, -0.5), d[6])):
            pos = (dd, 0.3 + d[7])
            for N in size["drift_n"]:
                q = scaling.LimitQuery(scaling.SOFT_DRIFT, spec, N, offsets, pos)
                qe = scaling.LimitQuery(scaling.SOFT_DRIFT, spec, N, scaling.realized_offsets(q), pos)
                for j, k in ((0, 0), (1, 1), (0, 1), (1, 0)):
                    plan.append((f"drift {spec.kind} N={N} finite ({j},{k})",
                                 _entry(scaling.scaled_finite_kernel, q, j, k)))
                for j, k in ((0, 0), (1, 1), (0, 1), (1, 0)):
                    plan.append((f"drift {spec.kind} N={N} limit ({j},{k})",
                                 _entry(scaling.limit_kernel, qe, j, k)))
        return plan, bulk_u

    def warm_up_ops(self):
        # moved drift positions keep the warm-up's inputs apart from the rounds'
        return self._plan(rng(self.seed, NAME, WARM_UP), WARM, drift_jitter=True)[0]

    def round_ops(self, r: int):
        self.plan, self.bulk_u = self._plan(rng(self.seed, NAME, TIMED, r), self.size)
        return self.plan

    def check_round(self, r: int, outputs) -> list[str]:
        got = {label: out for (label, _), out in zip(self.plan, outputs) if out is not None}
        problems = []

        def bound(name, value, tol):
            if not abs(value) < tol:
                problems.append(f"round {r} {name}: {value!r} not below {tol}")

        rep = got.get("soft convergence_report")
        if rep is not None:
            bound("soft edge error at the largest N", rep["errors"][-1], SOFT_TOL)
            if not rep["converged"]:
                problems.append(f"round {r} soft edge errors do not fall with N: {rep['errors']}")
            # the Airy kernel does not depend on N: check the first row's diagonals
            for col, a in ((0, 0), (2, 1)):
                Y = rep["positions"][a]
                bound(f"Airy diagonal at {Y:.4f} - quadrature of Ai^2",
                      rep["rows"][0]["limits"][col] - airy_diagonal(Y), CLOSED_FORM_TOL)
        bulk_u = self.bulk_u
        if "bulk finite (0,0)" in got:
            bound("bulk density - 1", got["bulk finite (0,0)"] - 1.0, BULK_TOL)
        if "bulk finite (0,1)" in got:
            bound("bulk entry - sine", got["bulk finite (0,1)"] - sine(bulk_u), BULK_TOL)
        if "bulk limit (0,1)" in got:
            bound("bead kernel - sine", got["bulk limit (0,1)"] - sine(bulk_u), CLOSED_FORM_TOL)
        if "bulk limit (0,0)" in got:
            bound("bead kernel diagonal - 1", got["bulk limit (0,0)"] - 1.0, CLOSED_FORM_TOL)
        fin, lim = got.get("hard cross finite (0,1)"), got.get("hard cross limit (0,1)")
        if fin is not None and lim is not None:
            bound("hard cross finite - limit", fin - lim, HARD_CROSS_TOL)
        fin, lim = got.get("bulk cross finite (0,1)"), got.get("bulk cross limit (0,1)")
        if fin is not None and lim is not None:
            # g = sign(K01 K10) sqrt|K01 K10| jumps where one entry crosses 0,
            # so compare the product g|g| = K01 K10 itself
            bound("bulk cross K01 K10 finite - limit", fin * abs(fin) - lim * abs(lim), BULK_TOL)
        if "hard finite (0,0)" in got:
            bound("hard edge diagonal at X=0 - 1/4", got["hard finite (0,0)"] - 0.25, HARD_DIAG_TOL)
        if "hard limit (0,0)" in got:
            bound("hard-edge kernel at X=0 - 1/4", got["hard limit (0,0)"] - 0.25, CLOSED_FORM_TOL)
        for kind, monotone in ((op.LAGUERRE, True), (op.GAUSSIAN, False)):
            errs = []
            for N in self.size["drift_n"]:
                fin = _det(got, f"drift {kind} N={N} finite")
                lim = _det(got, f"drift {kind} N={N} limit")
                if fin is None or lim is None:
                    break
                errs.append(abs(fin - lim))
                bound(f"soft drift {kind} N={N} determinant error", errs[-1], DRIFT_TOL)
            if monotone and len(errs) == len(self.size["drift_n"]) and not all(
                    a > b for a, b in zip(errs[:-1], errs[1:])):
                problems.append(f"round {r} soft drift {kind} errors do not fall with N: {errs}")
        return problems

    def final_checks(self) -> list[str]:
        return []


def _entry(fn, q, j, k):
    return lambda: fn(q, j, k)


def _det(got, prefix):
    keys = [f"{prefix} ({j},{k})" for j, k in ((0, 0), (1, 1), (0, 1), (1, 0))]
    if not all(k in got for k in keys):
        return None
    a, b, c, e = (got[k] for k in keys)
    return a * b - c * e


def sine(u: float) -> float:
    return math.sin(math.pi * u) / (math.pi * u)


def airy_diagonal(y: float) -> float:
    """K_Airy(y, y) as the integral of Ai^2 over (y, inf), by scipy quadrature."""
    val, _ = integrate.quad(lambda u: special.airy(u)[0] ** 2, y, np.inf, epsabs=1e-14, epsrel=1e-12)
    return val
