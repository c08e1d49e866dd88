"""Exact finite-N correlation kernel of the projection processes.

The joint law puts species s = 1..N on the support of a classical weight,
species s carrying s strictly interlaced points; its correlations are
determinantal.  The two-point kernel is assembled from the transition kernels
phi, the weighted functions Psi and the dual polynomials Phi.  Internally all
sums run in signed log-magnitude form so that N up to a few hundred works in
double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy.special import gammaln

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

    def family(self, s: int) -> op.EnsembleSpec:
        """Family of species s: the ensemble with its exponents raised by N - s."""
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


class _Tables:
    """The tables of the points of one kernel matrix, each built once: a
    point's eta table (rebuilt only to reach a higher degree; a longer table
    starts with the same bits), its Psi and Phi tables to degree s-1, and its
    tail moments per species gap."""

    def __init__(self, proc: ProcessSpec):
        self.proc, self.etas = proc, {}
        self.psi = functools.cache(lambda p: _psi_table(proc, p.s, p.y, self.eta(p, p.s - 1)[:p.s]))
        self.phi_cap = functools.cache(lambda p: _phi_cap_table(proc, p.s, p.s - 1, p.y))
        self.tails = functools.cache(lambda p, M: _psi_tails(proc, p.s, M, p.y))

    def eta(self, p, kmax):
        if len(self.etas.get(p, ())) <= kmax:
            self.etas[p] = op.eta_table(self.proc.family(p.s), kmax, p.y)
        return self.etas[p]


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
        signs, logs = _psi_table(proc, n, x, op.eta_table(proc.family(n), j, x))
    else:
        signs, logs = _psi_tails(proc, n, -j, x)
    return slog_to_float(float(signs[-1]), float(logs[-1]))


def _psi_table(proc, n, x, eta):
    """(signs, logs) of Psi_j^n(x) for j = 0..len(eta)-1, from the eta table."""
    fam, sig, kind, jmax = proc.family(n), proc.N - n, proc.ensemble.kind, len(eta) - 1
    _, logn, loge = op.family_constants(fam, sig + jmax)
    with np.errstate(divide="ignore"):
        logs = (loge[:jmax + 1] - loge[sig:sig + jmax + 1]
                + 0.5 * (op.log_weight(fam, x) + logn[:jmax + 1]) + np.log(np.abs(eta)))
    # e_j / e_{sig+j} has the sign of e_sig
    return (-1.0) ** sig * op.sign_e(kind, sig) * np.sign(eta), np.where(eta == 0.0, NEG_INF, logs)


def _psi_tails(proc, n, M, x):
    """(signs, logs) of Psi_j^n(x) for j = -1..-M: the tail moment of
    (y-x)^m, m = -j-1, against the shift-(N-n+j) weight."""
    if not 1 <= n <= proc.N:
        raise ValueError(f"species {n} outside [1, {proc.N}]")
    kind, sig = proc.ensemble.kind, proc.N - n
    m = np.arange(M)
    q = sig - 1 - m
    if kind == op.GAUSSIAN:
        # Q == 1, so every shift is the same weight
        lg = _gauss_tail_moments(M, x)
    elif kind == op.JACOBI:
        lg = np.full(M, NEG_INF)
        ok = q >= 0
        a, b = proc.ensemble.params()
        lg[ok] = _jacobi_tail_moments(a + q[ok], b + q[ok], m[ok], x)
    else:
        lg = np.array([_log_tail_integral(op.ShiftedFamily(proc.ensemble, int(qq)), int(mm), x)
                       if qq >= 0 else NEG_INF for mm, qq in zip(m, q)])
    # the sign (-1)^q e_q is +1 for the Gaussian family
    signs = np.where(lg == NEG_INF, 0.0, 1.0 if kind == op.GAUSSIAN else np.where(q % 2, -1.0, 1.0))
    return signs, lg - op.log_abs_e(kind, np.maximum(q, 0)) - gammaln(m + 1.0)


# the Gaussian tail moments and the Jacobi difference route certify this
# relative accuracy, or raise; the Laguerre and Jacobi sums of positive terms
# lose no more than their terms' rounding
TAIL_RTOL = 1e-12
# a backward continued fraction deeper than this raises NumericError
CF_MAX_DEPTH = 1 << 16


def _gauss_tail_moments(M: int, x: float) -> np.ndarray:
    """log of integral_x^inf (y-x)^m e^{-y^2} dy for m = 0..M-1.

    This is e^{-x^2} I_m(x), I_m(x) = integral_0^inf u^m e^{-u^2-2xu} du, with
    I_0 = (sqrt(pi)/2) erfcx(x) and 2 I_{m+1} = m I_{m-1} - 2x I_m.  For
    x <= 1/2 the recurrence runs forward while its running error bound
    certifies it; otherwise the ratios I_k/I_{k-1} come from the backward
    continued fraction (I_m is the minimal solution for x > 0, Gautschi 1977).
    """
    if x <= 0.5:
        out = _gauss_forward(M, x)
        if out is not None:
            return out
    if x <= 0.0:
        raise NumericError(f"Gaussian tail moments uncertified at M={M}, x={x}")
    return _gauss_ratios(M, x)


def _gauss_forward(M, x):
    """Forward recurrence on e^{-x^2} I_m, None when its error bound fails.

    B_m runs the same recurrence on |terms|, so it bounds every partial sum;
    the rounding error of the m-th value stays below about 3 (m+3) eps B_m."""
    ex = math.exp(-x * x)
    cur = 0.5 * math.sqrt(math.pi) * special.erfc(x)
    prev, bprev, bcur = ex, ex, cur  # k I_{k-1} at k = 0 is replaced by e^{-x^2}
    out = [cur]
    for k in range(M - 1):
        prev, cur = cur, 0.5 * ((k * prev if k else ex) - 2.0 * x * cur)
        bprev, bcur = bcur, 0.5 * ((k * bprev if k else ex) + 2.0 * abs(x) * bcur)
        if not cur > 0.0 or 3.0 * (k + 4) * np.finfo(float).eps * bcur > TAIL_RTOL * cur:
            return None
        out.append(cur)
    return np.log(out)


def _gauss_ratios(M, x):
    """log e^{-x^2} I_m from I_0 and the ratios r_k = I_k/I_{k-1} = k/(2x + 2 r_{k+1}).

    I_k is log-convex in k, so r_k rises with k and r_K lies in
    [K/(2x + 2 rho(K+1)), rho(K)], rho(K) the root of 2 rho^2 + 2x rho = K.
    The map r_{k+1} -> r_k is decreasing, so the two ends stay a bracket all
    the way down; its width certifies the depth, which doubles until it does.
    """
    def rho(k):
        return 0.5 * (math.sqrt(x * x + 2.0 * k) - x)

    # the bracket shrinks like exp(-2 sqrt(2) x (sqrt(depth) - sqrt(M))): this
    # start certifies at once for M <= 34 and x >= 1/2
    depth = max(M + 1, int((math.sqrt(M) + 7.0 / x + 3.0) ** 2))
    while depth <= CF_MAX_DEPTH:
        lo, hi = depth / (2.0 * x + 2.0 * rho(depth + 1)), rho(depth)
        his, los = [], []
        for k in range(depth - 1, 0, -1):
            lo, hi = k / (2.0 * x + 2.0 * hi), k / (2.0 * x + 2.0 * lo)
            if k < M:
                his.append(hi)
                los.append(lo)
        width = math.fsum(map(math.log, his)) - math.fsum(map(math.log, los))
        if width <= TAIL_RTOL:
            head = math.log(0.5 * math.sqrt(math.pi) * special.erfcx(x)) - x * x
            return head + np.concatenate([[0.0], np.cumsum(np.log(his[::-1]))])
        depth *= 2
    raise NumericError(f"continued fraction for the Gaussian tail moments did not converge at M={M}, x={x}")


def _laguerre_tail_moment(a: float, m: int, x: float) -> float:
    """log of integral_max(x,0)^inf (y-x)^m y^a e^{-y} dy as a sum of positive
    terms: for x <= 0, sum_k C(m,k) (-x)^(m-k) Gamma(a+k+1); for x > 0 and an
    integer a, e^{-x} sum_k C(a,k) x^(a-k) Gamma(m+k+1)."""
    if x <= 0.0:
        n, k = m, np.arange(m + 1)
        logs = special.xlogy(n - k, -x) + gammaln(a + k + 1.0)
    else:
        n, k = int(a), np.arange(int(a) + 1)
        logs = (n - k) * math.log(x) + gammaln(m + k + 1.0) - x
    logs += gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    top = float(np.max(logs))
    return top + math.log(math.fsum(np.exp(logs - top)))


# a Jacobi series grows in blocks of HYP_BLOCK terms, each continuing from the
# last, and gives up past HYP_MAX_TERMS
HYP_BLOCK = 64
HYP_MAX_TERMS = 1 << 16
LOG_EPS = math.log(np.finfo(float).eps)
# each term of the difference route carries the rounding of logs up to a few
# hundred in size, about 1e3 eps of the term; cancellation multiplies it
DIFF_TERM_RTOL = 1e3 * np.finfo(float).eps


def _jacobi_tail_moments(a, b, m, x: float) -> np.ndarray:
    """log of integral_x^1 (y-x)^m y^a (1-y)^b dy over arrays a, b, m of one length.

    For 0 < x < 1, Euler's integral and Pfaff's transformation (DLMF 15.6.1,
    15.8.1) give (1-x)^(m+b+1) x^(m+a+1) B(m+1, b+1) 2F1(m+a+b+2, m+1; m+b+2; 1-x),
    whose terms are all positive (_pfaff_series).  Near x = 0 that series
    needs about (m+a)/x terms, so rows it leaves past HYP_MAX_TERMS take the
    full moment minus (-1)^m times the lower moment, which is the mirror series
    (a <-> b, x <-> 1-x) with ratio tending to x; that difference is kept
    where its cancellation certifies TAIL_RTOL.  A row neither route
    certifies raises NumericError.  For x <= 0 the binomial sum has positive
    terms.
    """
    a, b, m = (np.asarray(v, dtype=float) for v in (a, b, m))
    if x >= 1.0:
        return np.full(m.shape, NEG_INF)
    if x <= 0.0:
        return np.array([_slog_sum(*row)[1] for row in zip(*_jacobi_binomial(a, b, m, x))])
    out = _pfaff_series(a, b, m, math.log(x), math.log1p(-x))
    short = np.isnan(out)
    if short.any():
        out[short] = _jacobi_difference(a[short], b[short], m[short], x)
    if np.isnan(out).any():
        raise NumericError(f"Jacobi tail moments uncertified at x={x}: the series needs more than "
                           f"{HYP_MAX_TERMS} terms and the difference route cancels")
    return out


def _pfaff_series(a, b, m, lx, lw):
    """log of (1-x)^(m+b+1) x^(m+a+1) B(m+1, b+1) 2F1(A, B; C; w) by rows, with
    A = m+a+b+2, B = m+1, C = m+b+2, w = 1 - x, lx = log x and lw = log w;
    NaN on rows whose tail has not certified within HYP_MAX_TERMS terms.

    The term ratios are r_k = w (A+k)(B+k)/((C+k)(k+1)) = w (1 + (beta + d k)/((C+k)(k+1))),
    beta = AB - C = m (m+a+b+2) + a and d = m + a, so for k >= K they stay
    below R_K = w (1 + beta+/((C+K)(K+1)) + d+/(C+K)), whether they fall to w
    or, when d < 0, rise to it.  Once R_K < 1 the terms after t_K sum to at
    most t_K R_K / (1 - R_K); a row is done when that is below eps of its sum.
    The sum peaks near k = d w / x, so a relative error in w comes out about
    that many times larger: lx and lw come in exact, and log t_K carries a
    Kahan correction for the one rounding each block adds to it.
    """
    C = (m + b + 2.0)[:, None]
    beta, d = (m * (m + a + b + 2.0) + a)[:, None], (m + a)[:, None]
    w = math.exp(lw)
    lt, err = np.zeros((len(m), 1)), np.zeros((len(m), 1))  # log t_K = lt + err, t_0 = 1
    top, acc = np.zeros(len(m)), np.ones(len(m))
    done = np.zeros(len(m), dtype=bool)
    for k0 in range(0, HYP_MAX_TERMS, HYP_BLOCK):
        k = np.arange(k0, k0 + HYP_BLOCK, dtype=float)
        steps = np.cumsum(np.log1p((beta + d * k) / ((C + k) * (k + 1.0))) + lw, axis=1)
        logs = steps + lt  # log t_{k0+1} .. t_{k0+HYP_BLOCK}
        y = steps[:, -1:] + err
        new = lt + y
        err, lt = y - (new - lt), new
        new_top = np.maximum(top, logs.max(axis=1))
        acc = acc * np.exp(top - new_top) + np.exp(logs - new_top[:, None]).sum(axis=1)
        top = new_top
        K = k0 + HYP_BLOCK
        R = w * (1.0 + np.maximum(beta, 0.0) / ((C + K) * (K + 1.0)) + np.maximum(d, 0.0) / (C + K))[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            done |= lt[:, 0] + np.log(R) - np.log1p(-R) <= top + np.log(acc) + LOG_EPS
        if done.all():
            break
    out = (m + b + 1.0) * lw + (m + a + 1.0) * lx + special.betaln(m + 1.0, b + 1.0) + top + np.log(acc)
    return np.where(done, out, np.nan)


def _jacobi_binomial(a, b, m, x):
    """(signs, logs) by rows of the terms C(m,k) (-x)^(m-k) B(a+k+1, b+1),
    k = 0..m, of the full moment integral_0^1 (y-x)^m y^a (1-y)^b dy; all
    positive for x <= 0."""
    k = np.arange(int(m.max(initial=0)) + 1)[None, :]
    mm = m[:, None]
    inside = k <= mm
    n = np.where(inside, mm - k, 0.0)
    logs = (gammaln(mm + 1.0) - gammaln(k + 1.0) - gammaln(n + 1.0) + special.xlogy(n, abs(x))
            + special.betaln(a[:, None] + k + 1.0, b[:, None] + 1.0))
    signs = np.where(n % 2, -1.0, 1.0) if x > 0.0 else np.ones_like(logs)
    return np.where(inside, signs, 0.0), np.where(inside, logs, NEG_INF)


def _jacobi_difference(a, b, m, x):
    """log of the upper moment as the full moment minus (-1)^m times the lower
    moment integral_0^x (x-y)^m y^a (1-y)^b dy, for rows with 0 < x < 1; NaN
    on rows whose cancellation leaves it short of TAIL_RTOL."""
    low = _pfaff_series(b, a, m, math.log1p(-x), math.log(x))
    signs, logs = _jacobi_binomial(a, b, m, x)
    signs = np.column_stack([signs, (-1.0) ** (m + 1.0)])
    logs = np.column_stack([logs, low])
    out = np.full(m.shape, np.nan)
    for i, (s, lg) in enumerate(zip(signs, logs)):
        sign, val = _slog_sum(s, lg)
        if sign > 0.0 and _slog_sum(np.abs(s), lg)[1] - val <= math.log(TAIL_RTOL / DIFF_TERM_RTOL):
            out[i] = val
    return out


def _log_tail_integral(fam: op.EnsembleSpec, m: int, x: float) -> float:
    """log of integral_x^inf (y-x)^m w_fam(y) dy for a Laguerre family, robust
    to huge magnitudes: in closed form for x <= 0 or an integer exponent,
    otherwise by quad, which raises NumericError past 1e-8.  (The Jacobi
    moments are series, _jacobi_tail_moments.)"""
    if x == math.inf:
        return NEG_INF
    a = fam.a
    if x <= 0.0 or a == int(a):
        return _laguerre_tail_moment(a, m, x)

    def logf(u):
        # u = y - x
        y = x + u
        t = m * np.log(y - x) if m else 0.0
        return t + a * np.log(y) - y

    # locate the mode of the log-integrand on a log-spaced grid
    grid = np.concatenate([[1e-12], np.geomspace(1e-6, 1e4, 400)])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = logf(grid)
    mx = float(np.max(np.where(np.isnan(vals), -np.inf, vals)))
    if mx == -math.inf:
        return NEG_INF

    def f(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            lf = logf(np.asarray(u, dtype=float))
        return np.exp(np.where(np.isnan(lf), -np.inf, lf) - mx)

    val, err = integrate.quad(f, 0.0, np.inf, epsabs=1e-300, epsrel=1e-11, limit=300)
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
    _, logn, loge = op.family_constants(fam, sig + jmax)
    logs = loge[sig:sig + jmax + 1] - loge[:jmax + 1] - 0.5 * logn[:jmax + 1] + lg
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


def _bilinear(tables, p1, p2, k_lo, k_hi):
    """(signs, logs) of gamma_{s1-k}/gamma_{s2-k} eta_{s1-k}(y1) eta_{s2-k}(y2)
    for k = k_lo..k_hi, with gamma_j = e_j sqrt(N_j), from one eta table per
    point.  The terms are products of eta floats, so a cancelling sum keeps
    its accuracy relative to the terms' size."""
    proc, s1, s2 = tables.proc, p1.s, p2.s
    spec = proc.ensemble
    k = np.arange(k_lo, k_hi + 1)
    prod = tables.eta(p1, s1 - k_lo)[s1 - k] * tables.eta(p2, s2 - k_lo)[s2 - k]
    # log |gamma_j| = log |e_j| + log N_j / 2
    (_, n1, e1), (_, n2, e2) = (op.family_constants(proc.family(s), s - k_lo) for s in (s1, s2))
    lg = (e1[s1 - k] + 0.5 * n1[s1 - k]) - (e2[s2 - k] + 0.5 * n2[s2 - k])
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
# a series whose terms' absolute sum exceeds |sum| by more than e^10 loses
# digits to their rounding (1.1e-8 of the entry at e^13.8, while the finite
# sum kept 6e-15), so it falls back to the finite sum
SERIES_MAX_CANCEL = 10.0
# the deepest degree the series grows to before it falls back
SERIES_MAX_DEPTH = 6000


def _kernel_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint, tables=None):
    """K(s1,y1;s2,y2) as (sign, log), from the points' tables (new ones by default)."""
    tables = _Tables(proc) if tables is None else tables
    s1, y1 = p1.s, p1.y
    s2, y2 = p2.s, p2.y
    if s1 >= s2:
        sign, lg = _slog_sum(*_bilinear(tables, p1, p2, 1, s2))
        if sign == 0.0:
            return (0.0, NEG_INF)
        return ((-1.0) ** (s1 - s2) * sign, _gauge(proc, p1, p2) + lg)
    if s2 - s1 >= SERIES_SPLIT:
        val = _series_slog(proc, p1, p2, tables)
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
    psi_s, psi_l = (v[::-1] for v in tables.psi(p1))
    tail_s, tail_l = tables.tails(p1, s2 - s1)
    phi_s, phi_l = (v[::-1] for v in tables.phi_cap(p2))
    signs = np.concatenate([[-phi_sign], psi_s, tail_s]) * np.concatenate([[1.0], phi_s])
    logs = np.concatenate([[phi_log], psi_l, tail_l]) + np.concatenate([[0.0], phi_l])
    return _slog_sum(signs, logs)


def _series_slog(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint, tables=None):
    """Bilinear series for s1 < s2, grown in blocks of degrees (each one twice
    the last, up to SERIES_MAX_DEPTH); only used when its tail certifies as
    geometric and its terms do not cancel badly (returns None otherwise)."""
    tables = _Tables(proc) if tables is None else tables
    depth, block = 384, 48
    while True:
        signs, logs = _bilinear(tables, p1, p2, -depth, 0)
        sign, result_log = _slog_sum(signs, logs)
        if sign == 0.0:
            return (0.0, NEG_INF)
        # accept when the trailing envelope (the highest degrees, first in k
        # order) falls and sits far below the result, so a flat-tail bound
        # already certifies the truncation; fall back once it stops falling
        env_last = float(np.max(logs[:block]))
        if env_last > float(np.max(logs[block: 2 * block])):
            return None
        if env_last <= result_log - 30.0:
            if _slog_sum(np.abs(signs), logs)[1] > result_log + SERIES_MAX_CANCEL:
                return None
            return ((-1.0) ** ((p2.s - p1.s - 1) % 2) * sign, _gauge(proc, p1, p2) + result_log)
        if depth == SERIES_MAX_DEPTH:
            return None
        depth = min(2 * depth, SERIES_MAX_DEPTH)


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
    return _entry_F(_Tables(proc), p1, p2)


def _entry_F(tables, p1, p2):
    proc = tables.proc
    if p1.s >= p2.s:
        return slog_to_float(*_slog_sum(*_bilinear(tables, p1, p2, 1, p2.s)))
    sign, lg = _kernel_slog(proc, p1, p2, tables)
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
    _check_weights(proc, *points)
    # every entry reads its points' tables, which are built once
    tables = _Tables(proc)
    mat = np.array([[_entry_F(tables, pi, pj) for pj in points] for pi in points])
    if not (mat.any(axis=0).all() and mat.any(axis=1).all()):
        return 0.0  # a point where its species' weight vanishes zeroes its row or column
    det = float(np.linalg.det(mat))
    if not np.isfinite(mat).all():
        return det
    # the zero test compares |det| with Hadamard's bound, which depends on
    # the gauge.  Equilibrating the rows and columns of |mat| (Sinkhorn, on
    # the squares after scaling every row and column maximum to 1) gives a
    # matrix that no diagonal similarity changes, with bound 1 once its rows
    # are normalized last; the test reads |det| times the scalings
    a = np.abs(mat)
    rmax = a.max(axis=1, keepdims=True)
    cmax = (a / rmax).max(axis=0)
    sq = (a / rmax / cmax) ** 2
    v = np.ones(r)
    for _ in range(50):
        v = 1.0 / ((1.0 / (sq @ v)) @ sq)
    u = 1.0 / (sq @ v)
    log_scale = 0.5 * np.sum(np.log(u)) + 0.5 * np.sum(np.log(v)) - np.sum(np.log(rmax)) - np.sum(np.log(cmax))
    if det == 0.0 or math.log(abs(det)) + float(log_scale) < math.log(1e-14):
        return 0.0
    return det


def density(proc: ProcessSpec, s: int, grid) -> np.ndarray:
    """One-point function rho_1(s, y) on a grid; integrates to s over the support."""
    eta = op.eta_table(proc.family(s), s - 1, grid)
    return np.sum(eta * eta, axis=0)
