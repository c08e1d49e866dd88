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

import numpy as np
from scipy import integrate, linalg

from . import orthopoly as op
from .numerics import NEG_INF, NumericError, slog_to_float

__all__ = [
    "ProcessSpec",
    "SpeciesPoint",
    "KernelValue",
    "phi_conv",
    "psi",
    "phi_cap",
    "kernel_F",
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
    """A kernel value K(s1,y1;s2,y2)."""

    value: float


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
    if j >= 0:
        signs, logs = _psi_table(proc, n, j, x)
        return slog_to_float(float(signs[j]), float(logs[j]))
    return slog_to_float(*_psi_tail_slog(proc, n, j, x))


def _psi_table(proc, n, jmax, x):
    """(signs, logs) of Psi_j^n(x) for j = 0..jmax, from one eta table."""
    fam, sig, kind = proc.family(n), proc.N - n, proc.ensemble.kind
    eta = op.eta_table(fam, jmax, x)
    j = np.arange(jmax + 1)
    with np.errstate(divide="ignore"):
        logs = (op.log_abs_e(kind, j) - op.log_abs_e(kind, sig + j)
                + 0.5 * (op.log_weight(fam, x) + op.log_norm_constant(fam, j)) + np.log(np.abs(eta)))
    # e_j / e_{sig+j} has the sign of e_sig
    return (-1.0) ** sig * op.sign_e(kind, sig) * np.sign(eta), np.where(eta == 0.0, NEG_INF, logs)


def _psi_tail_slog(proc, n, j, x):
    """Psi_j^n(x) for j < 0 as (sign, log)."""
    if not 1 <= n <= proc.N:
        raise ValueError(f"species {n} outside [1, {proc.N}]")
    kind, sig = proc.ensemble.kind, proc.N - n
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

    def quad(g, a, b):
        return integrate.quad(g, a, b, epsabs=1e-300, epsrel=1e-11, limit=300)

    if math.isinf(hi):
        val, err = quad(f, 0.0, np.inf)
    elif fam.kind == op.JACOBI and (a_eff < 0.0 or b_eff < 0.0):
        # integrable endpoint singularities: split and substitute u = v^2
        mid = 0.5 * (hi - lo)
        v1, e1 = quad(lambda v: 2.0 * v * f(v * v), 0.0, math.sqrt(mid))
        v2, e2 = quad(lambda v: 2.0 * v * f(hi - lo - v * v), 0.0, math.sqrt(hi - lo - mid))
        val, err = v1 + v2, e1 + e2
    else:
        val, err = quad(f, 0.0, hi - lo)
    if val <= 0.0:
        return NEG_INF
    if err > 1e-8 * val:
        raise NumericError(
            f"tail integral did not converge: rel err {err / val:.2e} at m={m}, x={x}"
        )
    return mx + math.log(val)


def phi_cap(proc: ProcessSpec, n: int, j: int, x: float) -> float:
    """Phi_j^n(x): polynomial dual to Psi_k^n under integration over the support."""
    if not 0 <= j <= n - 1:
        raise ValueError(f"index {j} outside [0, {n - 1}]")
    signs, logs = _phi_cap_table(proc, n, j, x)
    return slog_to_float(float(signs[j]), float(logs[j]))


def _phi_cap_table(proc, n, jmax, x):
    """(signs, logs) of Phi_j^n(x) for j = 0..jmax, from one log_poly_table;
    finite outside the support too."""
    fam, sig, kind = proc.family(n), proc.N - n, proc.ensemble.kind
    sign, lg = op.log_poly_table(fam, jmax, x)
    j = np.arange(jmax + 1)
    logs = op.log_abs_e(kind, sig + j) - op.log_abs_e(kind, j) - 0.5 * op.log_norm_constant(fam, j) + lg
    return (-1.0) ** sig * op.sign_e(kind, sig) * sign, logs


def _slog_sum(signs, logs):
    """Signed logsumexp of arrays of terms, where a zero term has sign 0 and
    log -inf; exact cancellation gives (0, -inf)."""
    m = float(np.max(logs))
    if m == NEG_INF:
        return (0.0, NEG_INF)
    tot = float(np.sum(signs * np.exp(logs - m)))
    if tot == 0.0:
        return (0.0, NEG_INF)
    return (math.copysign(1.0, tot), m + math.log(abs(tot)))


def _bilinear(proc, p1, p2, k_lo, k_hi):
    """(signs, logs) of gamma_{s1-k}/gamma_{s2-k} eta_{s1-k}(y1) eta_{s2-k}(y2)
    for k = k_lo..k_hi, with gamma_j = e_j sqrt(N_j), from one eta table per
    point.  The terms are products of eta floats, so a cancelling sum keeps
    its accuracy relative to the terms' size."""
    s1, s2, spec = p1.s, p2.s, proc.ensemble
    k = np.arange(k_lo, k_hi + 1)
    prod = (op.eta_table(proc.family(s1), s1 - k_lo, p1.y)[s1 - k]
            * op.eta_table(proc.family(s2), s2 - k_lo, p2.y)[s2 - k])
    lg = _log_gamma_vec(spec, proc.N - s1, s1 - k) - _log_gamma_vec(spec, proc.N - s2, s2 - k)
    with np.errstate(divide="ignore"):
        logs = np.where(prod != 0.0, lg + np.log(np.abs(prod)), NEG_INF)
    # gamma_j has the sign of e_j, (-1)^j for the Gaussian family
    sign = (-1.0) ** ((s1 + s2) % 2) if spec.kind == op.GAUSSIAN else 1.0
    return sign * np.sign(prod), logs


def _gauge(proc, p1, p2):
    """log sqrt(w_{s1}(y1) / w_{s2}(y2)): K = (-1)^(s1-s2) exp(gauge) F."""
    return 0.5 * (op.log_weight(proc.family(p1.s), p1.y) - op.log_weight(proc.family(p2.s), p2.y))


# species separations at least this large go through the bilinear series,
# which then converges geometrically; below it the finite quadrature form is
# used (the two paths agree in the overlap, see the tests)
SERIES_SPLIT = 12


def _kernel_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint):
    """K(s1,y1;s2,y2) as (sign, log)."""
    s1, y1 = p1.s, p1.y
    s2, y2 = p2.s, p2.y
    if s1 >= s2:
        sign, lg = _slog_sum(*_bilinear(proc, p1, p2, 1, s2))
        if sign == 0.0:
            return (0.0, NEG_INF)
        return ((-1.0) ** (s1 - s2) * sign, _gauge(proc, p1, p2) + lg)
    if s2 - s1 >= SERIES_SPLIT:
        val = _series_slog(proc, p1, p2)
        if val is not None:
            return val
    if s2 == s1 + 1 and y2 == y1:
        # jump midpoint of the indicator kernel: the value the bilinear
        # expansion converges to; determinants do not see the difference
        phi_sign, phi_log = 0.5, 0.0
    else:
        phi_sign, phi_log = _phi_conv_slog(s1, s2, y1, y2)
    # -phi + sum over l = 1..s2 of Psi_{s1-l}(y1) Phi_{s2-l}(y2); the Psi
    # with l > s1 are tail integrals, the rest come from one table per point
    psi_s, psi_l = (v[::-1] for v in _psi_table(proc, s1, s1 - 1, y1))
    tail_s, tail_l = zip(*(_psi_tail_slog(proc, s1, s1 - l, y1) for l in range(s1 + 1, s2 + 1)))
    phi_s, phi_l = (v[::-1] for v in _phi_cap_table(proc, s2, s2 - 1, y2))
    signs = np.concatenate([[-phi_sign], psi_s, tail_s]) * np.concatenate([[1.0], phi_s])
    logs = np.concatenate([[phi_log], psi_l, tail_l]) + np.concatenate([[0.0], phi_l])
    return _slog_sum(signs, logs)


def _series_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint, max_terms: int = 6000):
    """Bilinear series for s1 < s2; only used when its tail certifies as
    geometric (returns None otherwise)."""
    signs, logs = _bilinear(proc, p1, p2, -max_terms, 0)
    sign, result_log = _slog_sum(signs, logs)
    if sign == 0.0:
        return (0.0, NEG_INF)
    # accept only when the trailing envelope (the highest degrees, first in
    # k order) sits far below the result, so a flat-tail bound already
    # certifies the truncation; otherwise fall back
    block = 48
    env_last = float(np.max(logs[:block]))
    env_prev = float(np.max(logs[block: 2 * block]))
    if env_last > env_prev or env_last > result_log - 30.0:
        return None
    return ((-1.0) ** ((p2.s - p1.s - 1) % 2) * sign, _gauge(proc, p1, p2) + result_log)


def _check_weights(proc: ProcessSpec, *points: SpeciesPoint) -> None:
    """Reject a point where its species' weight is infinite: its kernel
    entries and correlations are not finite numbers.  Only the top species
    (shift 0) can have an exponent below 0, and then only at an endpoint."""
    for p in points:
        if p.s == proc.N and op.log_weight(proc.ensemble, p.y) == math.inf:
            raise ValueError(f"the weight of species {p.s} is infinite at position {p.y}")


def kernel_F(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> float:
    """Kernel in the symmetric sqrt-weight gauge; same determinants as kernel_K."""
    _check_weights(proc, p1, p2)
    if p1.s >= p2.s:
        return slog_to_float(*_slog_sum(*_bilinear(proc, p1, p2, 1, p2.s)))
    sign, lg = _kernel_slog(proc, p1, p2)
    if sign == 0.0:
        return 0.0
    return slog_to_float((-1.0) ** (p2.s - p1.s) * sign, lg - _gauge(proc, p1, p2))


def kernel_K(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> KernelValue:
    """Two-point correlation kernel K(s1,y1;s2,y2)."""
    _check_weights(proc, p1, p2)
    s, lg = _kernel_slog(proc, p1, p2)
    return KernelValue(slog_to_float(s, lg))


def correlation(proc: ProcessSpec, points: list[SpeciesPoint]) -> float:
    """r-point correlation det[K(s_j,y_j;s_k,y_k)]; gauge and order invariant."""
    r = len(points)
    if not 1 <= r <= 12:
        raise ValueError("need 1 <= r <= 12 points")
    if len({(p.s, p.y) for p in points}) != r:
        raise ValueError("duplicate (species, position) pairs are not allowed")
    mat = np.array([[kernel_F(proc, pi, pj) for pj in points] for pi in points])
    if not (mat.any(axis=0).all() and mat.any(axis=1).all()):
        return 0.0  # a point where its species' weight vanishes zeroes its row or column
    det = float(np.linalg.det(mat))
    if not np.isfinite(mat).all():
        return det
    # the zero test compares |det| with Hadamard's bound, which depends on
    # the gauge; a diagonal similarity that balances the rows against the
    # columns (Parlett-Reinsch, as LAPACK dgebal) brings that bound near |det|
    bal = linalg.matrix_balance(mat, permute=False)[0]
    scale = float(np.prod(np.maximum(np.linalg.norm(bal, axis=1), 1e-300)))
    if abs(det) < 1e-14 * scale:
        return 0.0
    return det


def density(proc: ProcessSpec, s: int, grid) -> np.ndarray:
    """One-point function rho_1(s, y) on a grid; integrates to s over the support."""
    eta = op.eta_table(proc.family(s), s - 1, grid)
    return np.sum(eta * eta, axis=0)
