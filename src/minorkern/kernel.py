"""Exact finite-N correlation kernel of the projection processes.

The joint law puts species s = 1..N on the support of a classical weight,
species s carrying s strictly interlaced points; its correlations are
determinantal.  The two-point kernel is assembled from the transition kernels
phi, the weighted functions Psi and the dual polynomials Phi.  Internally all
sums run in signed log-magnitude form so that N up to a few hundred works in
double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from . import orthopoly as op
from .numerics import (
    NEG_INF,
    NumericError,
    slog_from_float,
    slog_mul,
    slog_sum,
    slog_to_float,
)

__all__ = [
    "ProcessSpec",
    "SpeciesPoint",
    "KernelValue",
    "phi_conv",
    "psi",
    "phi_cap",
    "kernel_K",
    "correlation",
    "density",
]


@dataclass(frozen=True)
class ProcessSpec:
    """A projection process: classical ensemble plus top species rank N."""

    ensemble: op.EnsembleSpec
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")

    def family(self, s: int) -> op.ShiftedFamily:
        """Shifted family attached to species s (shift N - s)."""
        if not 1 <= s <= self.N:
            raise ValueError(f"species {s} outside [1, {self.N}]")
        return op.ShiftedFamily(self.ensemble, self.N - s)


@dataclass(frozen=True)
class SpeciesPoint:
    """A (species rank, position) pair at which correlations are evaluated."""

    s: int
    y: float

    def __post_init__(self):
        if not math.isfinite(self.y):
            raise ValueError(f"position must be finite, got {self.y}")


@dataclass(frozen=True)
class KernelValue:
    """Kernel value together with the (row species, row position) gauge tag."""

    value: float
    gauge_tag: tuple[int, float]


@lru_cache(maxsize=4096)
def _log_norm(spec: op.EnsembleSpec, shift: int, j: int) -> float:
    return op.log_norm_constant(op.ShiftedFamily(spec, shift), j)


def _log_gamma_coef(spec: op.EnsembleSpec, shift: int, j: int) -> tuple[float, float]:
    """(sign, log) of gamma_j = e_j * sqrt(N_j) for the shifted family."""
    lg = op.log_abs_e(spec.kind, j) + 0.5 * _log_norm(spec, shift, j)
    return op.sign_e(spec.kind, j), lg


def _log_gamma_vec(spec: op.EnsembleSpec, shift: int, degs: np.ndarray) -> np.ndarray:
    """log |gamma_j| over an integer array of degrees."""
    return op.log_abs_e(spec.kind, degs) + 0.5 * op.log_norm_constant(op.ShiftedFamily(spec, shift), degs)


def phi_conv(n1: int, n2: int, x: float, y: float) -> float:
    """(n2-n1)-fold convolution of the indicator kernel chi_{y > x}.

    Equals chi_{y>x} (y-x)^(n2-n1-1) / (n2-n1-1)!; identically 0 for n1 >= n2.
    """
    s, lg = _phi_conv_slog(n1, n2, x, y)
    return slog_to_float(s, lg)


def _phi_conv_slog(n1, n2, x, y):
    if n1 >= n2 or y <= x:
        return (0.0, NEG_INF)
    m = n2 - n1 - 1
    return (1.0, m * math.log(y - x) - math.lgamma(m + 1.0))


def psi(proc: ProcessSpec, n: int, j: int, x: float) -> float:
    """Psi_j^n(x): weighted function of species n, index j (j may be negative)."""
    s, lg = _psi_slog(proc, n, j, x)
    return slog_to_float(s, lg)


def _psi_slog(proc, n, j, x):
    if not 1 <= n <= proc.N:
        raise ValueError(f"species {n} outside [1, {proc.N}]")
    kind = proc.ensemble.kind
    sig = proc.N - n
    if j >= 0:
        fam = proc.family(n)
        eta = op.eval_eta(fam, j, x)
        lw = op.log_weight(fam, x)
        if eta == 0.0 and lw == -math.inf:
            return (0.0, NEG_INF)
        sign = (-1.0) ** sig * op.sign_e(kind, j) * op.sign_e(kind, sig + j)
        sign *= math.copysign(1.0, eta) if eta != 0.0 else 0.0
        if eta == 0.0:
            return (0.0, NEG_INF)
        lg = (
            op.log_abs_e(kind, j)
            - op.log_abs_e(kind, sig + j)
            + 0.5 * (lw + _log_norm(proc.ensemble, sig, j))
            + math.log(abs(eta))
        )
        return (sign, lg)
    # negative index: integral of (y-x)^(-j-1) against the shift-(N-n+j) weight
    q = sig + j
    if q < 0:
        if kind != op.GAUSSIAN:
            return (0.0, NEG_INF)
        q = 0  # Gaussian Q == 1, any power collapses
    m = -j - 1
    sign = (-1.0) ** ((sig + j) % 2) * op.sign_e(kind, abs(sig + j))
    lg_int = _log_tail_integral(op.ShiftedFamily(proc.ensemble, q), m, x)
    if lg_int == NEG_INF:
        return (0.0, NEG_INF)
    lg = lg_int - op.log_abs_e(kind, max(sig + j, 0)) - math.lgamma(m + 1.0)
    return (sign, lg)


def _log_tail_integral(fam: op.ShiftedFamily, m: int, x: float) -> float:
    """log of integral_x^hi (y-x)^m w_fam(y) dy, robust to huge magnitudes."""
    lo, hi = fam.support()
    lo = max(lo, x)
    if hi <= lo:
        return NEG_INF
    a_eff, b_eff = fam.params()

    def logf(u):
        # u = y - lo
        y = lo + u
        t = m * np.log(y - x) if m else 0.0
        if fam.kind == op.GAUSSIAN:
            return t - y * y
        if fam.kind == op.LAGUERRE:
            return t + a_eff * np.log(y) - y
        return t + a_eff * np.log(y) + b_eff * np.log1p(-y)

    if math.isinf(hi):
        # locate the mode of the log-integrand on a log-spaced grid
        grid = np.concatenate([[1e-12], np.geomspace(1e-6, 1e4, 400)])
    else:
        width = hi - lo
        grid = width * np.concatenate([[1e-14], np.geomspace(1e-7, 1.0, 400)[:-1], [1.0 - 1e-14]])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = logf(grid)
    vals = np.where(np.isnan(vals), -np.inf, vals)
    mx = float(np.max(vals))
    if mx == -math.inf:
        return NEG_INF

    def f(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            lf = logf(np.asarray(u, dtype=float))
        return np.exp(np.where(np.isnan(lf), -np.inf, lf) - mx)

    if math.isinf(hi):
        val, err = integrate.quad(f, 0.0, np.inf, epsabs=1e-300, epsrel=1e-11, limit=300)
    elif fam.kind == op.JACOBI and (a_eff < 0.0 or b_eff < 0.0):
        # integrable endpoint singularities: split and substitute u = v^2
        mid = 0.5 * (hi - lo)
        v1, e1 = integrate.quad(
            lambda v: 2.0 * v * f(v * v), 0.0, math.sqrt(mid), epsabs=1e-300, epsrel=1e-11, limit=300
        )
        v2, e2 = integrate.quad(
            lambda v: 2.0 * v * f(hi - lo - v * v),
            0.0,
            math.sqrt(hi - lo - mid),
            epsabs=1e-300,
            epsrel=1e-11,
            limit=300,
        )
        val, err = v1 + v2, e1 + e2
    else:
        val, err = integrate.quad(f, 0.0, hi - lo, epsabs=1e-300, epsrel=1e-11, limit=300)
    if val <= 0.0:
        return NEG_INF
    if err > 1e-8 * val:
        raise NumericError(
            f"tail integral did not converge: rel err {err / val:.2e} at m={m}, x={x}"
        )
    return mx + math.log(val)


def phi_cap(proc: ProcessSpec, n: int, j: int, x: float) -> float:
    """Phi_j^n(x): polynomial dual to Psi_k^n under integration over the support."""
    s, lg = _phi_cap_slog(proc, n, j, x)
    return slog_to_float(s, lg)


def _phi_cap_slog(proc, n, j, x):
    if not 1 <= n <= proc.N:
        raise ValueError(f"species {n} outside [1, {proc.N}]")
    if not 0 <= j <= n - 1:
        raise ValueError(f"index {j} outside [0, {n - 1}]")
    kind = proc.ensemble.kind
    sig = proc.N - n
    fam = proc.family(n)
    sign_pref = (-1.0) ** sig * op.sign_e(kind, sig + j) * op.sign_e(kind, j)
    lg_pref = (
        op.log_abs_e(kind, sig + j)
        - op.log_abs_e(kind, j)
        - _log_norm(proc.ensemble, sig, j)
    )
    lw = op.log_weight(fam, x)
    if math.isfinite(lw):
        eta = op.eval_eta(fam, j, x)
        if eta != 0.0:
            lg_p = math.log(abs(eta)) + 0.5 * (_log_norm(proc.ensemble, sig, j) - lw)
            return (sign_pref * math.copysign(1.0, eta), lg_pref + lg_p)
    # outside the support, or eta underflowed: signed-log recurrence
    ps, plg = op.log_poly(fam, j, x)
    if ps == 0.0:
        return (0.0, NEG_INF)
    return (sign_pref * ps, lg_pref + plg)


# species separations at least this large go through the bilinear series,
# which then converges geometrically; below it the finite quadrature form is
# used (the two paths agree in the overlap, see the tests)
SERIES_SPLIT = 12


def _kernel_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint):
    """K(s1,y1;s2,y2) as (sign, log)."""
    s1, y1 = p1.s, p1.y
    s2, y2 = p2.s, p2.y
    fam1, fam2 = proc.family(s1), proc.family(s2)
    if s1 >= s2:
        f = _f_entry_slog(proc, p1, p2)
        gauge = 0.5 * (op.log_weight(fam1, y1) - op.log_weight(fam2, y2))
        return slog_mul(((-1.0) ** (s1 - s2), gauge), f)
    if s2 - s1 >= SERIES_SPLIT:
        val = _series_slog(proc, p1, p2)
        if val is not None:
            return val
    if s2 == s1 + 1 and y2 == y1:
        # jump midpoint of the indicator kernel: the value the bilinear
        # expansion converges to; determinants do not see the difference
        phi_term = (-0.5, 0.0)
    else:
        phi_term = slog_mul((-1.0, 0.0), _phi_conv_slog(s1, s2, y1, y2))
    terms = [phi_term]
    for l in range(1, s2 + 1):
        t = slog_mul(_psi_slog(proc, s1, s1 - l, y1), _phi_cap_slog(proc, s2, s2 - l, y2))
        terms.append(t)
    return slog_sum(terms)


def _series_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint, max_terms: int = 6000):
    """Bilinear series for s1 < s2; only used when its tail certifies as
    geometric (returns None otherwise)."""
    s, x = p1.s, p1.y
    t, y = p2.s, p2.y
    spec = proc.ensemble
    kmax = max_terms
    eta_x = op.eta_table(proc.family(s), s + kmax, x)
    eta_y = op.eta_table(proc.family(t), t + kmax, y)
    sign0 = (-1.0) ** ((t - s - 1) % 2)
    gauge = 0.5 * (op.log_weight(proc.family(s), x) - op.log_weight(proc.family(t), y))
    i = np.arange(kmax + 1)
    lg1 = _log_gamma_vec(spec, proc.N - s, s + i)
    lg2 = _log_gamma_vec(spec, proc.N - t, t + i)
    sgn = np.full(kmax + 1, (-1.0) ** ((s + t) % 2) if spec.kind == op.GAUSSIAN else 1.0)
    prod = eta_x[s:] * eta_y[t: t + kmax + 1]
    with np.errstate(divide="ignore"):
        logs = np.where(prod != 0.0, lg1 - lg2 + np.log(np.abs(np.where(prod == 0, 1.0, prod))), NEG_INF)
    signs = sgn * np.sign(prod)
    m = float(np.max(logs))
    if m == NEG_INF:
        return (0.0, NEG_INF)
    tot = float(np.sum(signs * np.exp(logs - m)))
    if tot == 0.0:
        return (0.0, NEG_INF)
    # accept only when the trailing envelope sits far below the result, so a
    # flat-tail bound already certifies the truncation; otherwise fall back
    block = 48
    env_last = float(np.max(logs[-block:]))
    env_prev = float(np.max(logs[-2 * block: -block]))
    result_log = m + math.log(abs(tot))
    if env_last > env_prev or env_last > result_log - 30.0:
        return None
    return (sign0 * math.copysign(1.0, tot), gauge + result_log)


def _f_entry_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint):
    """Symmetrically gauged kernel entry (finite sum form, requires s1 >= s2)."""
    s1, y1 = p1.s, p1.y
    s2, y2 = p2.s, p2.y
    eta1 = op.eta_table(proc.family(s1), s1 - 1, np.asarray(y1))
    eta2 = op.eta_table(proc.family(s2), s2 - 1, np.asarray(y2))
    spec = proc.ensemble
    terms = []
    for k in range(1, s2 + 1):
        sg1, lg1 = _log_gamma_coef(spec, proc.N - s1, s1 - k)
        sg2, lg2 = _log_gamma_coef(spec, proc.N - s2, s2 - k)
        prod = float(eta1[s1 - k]) * float(eta2[s2 - k])
        sp, lp = slog_from_float(prod)
        terms.append((sg1 * sg2 * sp, lg1 - lg2 + lp))
    return slog_sum(terms)


def kernel_F(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> float:
    """Kernel in the symmetric sqrt-weight gauge; same determinants as kernel_K."""
    if p1.s >= p2.s:
        return slog_to_float(*_f_entry_slog(proc, p1, p2))
    k = _kernel_slog(proc, p1, p2)
    fam1, fam2 = proc.family(p1.s), proc.family(p2.s)
    gauge = 0.5 * (op.log_weight(fam2, p2.y) - op.log_weight(fam1, p1.y))
    return slog_to_float(*slog_mul(((-1.0) ** (p2.s - p1.s), gauge), k))


def kernel_K(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> KernelValue:
    """Two-point correlation kernel K(s1,y1;s2,y2)."""
    s, lg = _kernel_slog(proc, p1, p2)
    return KernelValue(slog_to_float(s, lg), gauge_tag=(p1.s, p1.y))


def correlation(proc: ProcessSpec, points: list[SpeciesPoint]) -> float:
    """r-point correlation det[K(s_j,y_j;s_k,y_k)]; gauge and order invariant."""
    r = len(points)
    if not 1 <= r <= 12:
        raise ValueError("need 1 <= r <= 12 points")
    if len({(p.s, p.y) for p in points}) != r:
        raise ValueError("duplicate (species, position) pairs are not allowed")
    mat = np.empty((r, r))
    for i, pi in enumerate(points):
        for j, pj in enumerate(points):
            mat[i, j] = kernel_F(proc, pi, pj)
    det = float(np.linalg.det(mat))
    scale = float(np.prod(np.maximum(np.linalg.norm(mat, axis=1), 1e-300)))
    if abs(det) < 1e-14 * scale:
        return 0.0
    return det


def density(proc: ProcessSpec, s: int, grid) -> np.ndarray:
    """One-point function rho_1(s, y) on a grid; integrates to s over the support."""
    fam = proc.family(s)
    grid = np.asarray(grid, dtype=float)
    lo, hi = fam.support()
    eta = op.eta_table(fam, s - 1, grid)
    rho = np.sum(eta * eta, axis=0)
    return np.where((grid >= lo) & (grid <= hi), rho, 0.0)
