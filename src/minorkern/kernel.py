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
from scipy import special
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
    "kernel_matrix",
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


def _memo(build):
    """build, keeping its result per tuple of arguments (cheaper to make than functools.cache)."""
    held = {}
    return lambda *key: held[key] if key in held else held.setdefault(key, build(*key))


class _Tables:
    """The tables of the points of one kernel matrix, each built once: a point's
    Psi and Phi tables to degree s-1, and its tail moments per gap and side.
    A point in shared needs both of its tables, which one recurrence gives."""

    def __init__(self, proc: ProcessSpec, shared=()):
        self.proc = proc
        both = _memo(lambda p: op.eta_poly_tables(proc.family(p.s), p.s - 1, p.y))
        self.psi = _memo(lambda p: _psi_table(proc, p.s, p.y, both(p)[0] if p in shared
                                              else op.eta_table(proc.family(p.s), p.s - 1, p.y)))
        self.phi_cap = _memo(lambda p: _phi_cap_table(proc, p.s, p.s - 1, p.y, both(p)[1] if p in shared else None))
        self.tails = _memo(lambda p, M, lower: _psi_tails(proc, p.s, M, p.y, lower))


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
    # log |e_k| is one table per kind, read through the base family's constants to N - 1
    logn, loge = op.family_constants(fam, jmax)[1], op.family_constants(proc.ensemble, proc.N - 1)[2]
    with np.errstate(divide="ignore"):
        logs = (loge[:jmax + 1] - loge[sig:sig + jmax + 1]
                + 0.5 * (op.log_weight(fam, x) + logn[:jmax + 1]) + np.log(np.abs(eta)))
    # e_j / e_{sig+j} has the sign of e_sig
    return (-1.0) ** sig * op.sign_e(kind, sig) * np.sign(eta), np.where(eta == 0.0, NEG_INF, logs)


def _psi_tails(proc, n, M, x, lower=False):
    """(signs, logs) of Psi_j^n(x) for j = -1..-M: the tail moment of
    (y-x)^m, m = -j-1, against the shift-(N-n+j) weight; with lower, the
    same for the lower moment integral_lo^x (y-x)^m w(y) dy instead."""
    if not 1 <= n <= proc.N:
        raise ValueError(f"species {n} outside [1, {proc.N}]")
    kind, sig = proc.ensemble.kind, proc.N - n
    m = np.arange(M)
    q = sig - 1 - m
    a, b = proc.ensemble.params()
    if kind == op.GAUSSIAN:
        # Q == 1: every shift is the same weight, and the lower moment is the upper one at -x
        lg = _gauss_tail_moments(M, -x if lower else x)
    else:
        lg, ok = np.full(M, NEG_INF), q >= 0
        if kind == op.JACOBI:
            lg[ok] = (_jacobi_lower_moments if lower else _jacobi_tail_moments)(a + q[ok], b + q[ok], m[ok], x)
        else:
            lg[ok] = (_laguerre_lower_moments if lower else _laguerre_tail_moments)(a + q[ok], m[ok], x)
        if np.isnan(lg).any():
            raise NumericError(f"lower tail moments uncertified at x={x}")
    # the sign (-1)^q e_q is +1 for the Gaussian family; (y-x)^m has the sign (-1)^m below x
    flip = (q if kind != op.GAUSSIAN else 0) + (m if lower else 0)
    signs = np.where(lg == NEG_INF, 0.0, np.where(flip % 2, -1.0, 1.0))
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


def _laguerre_tail_moments(a, m, x: float) -> np.ndarray:
    """log of integral_max(x,0)^inf (y-x)^m y^a e^{-y} dy over arrays a, m of
    one length.  For x <= 0 it is sum_k C(m,k) (-x)^(m-k) Gamma(a+k+1), and
    for x > 0 and an integer a, e^{-x} sum_k C(a,k) x^(a-k) Gamma(m+k+1): both
    sums of positive terms, summed in one array.  The other rows take
    _laguerre_rule, and those it leaves uncertified the full moment minus
    (-1)^m times the lower one (_difference); a row neither route certifies
    raises NumericError."""
    out = np.full(np.shape(m), NEG_INF)
    if x == math.inf:
        return out
    closed = (a == np.round(a)) | (x <= 0.0)
    n, c = (m, a) if x <= 0.0 else (a, m)
    rows = np.flatnonzero(closed)
    step = max(1, SUM_BLOCK // (int(n[rows].max(initial=0)) + 1))
    for r in (rows[i:i + step] for i in range(0, len(rows), step)):
        _, logs = _binomial_terms(n[r], x, lambda k: gammaln(c[r, None] + k + 1.0))
        top = logs.max(axis=1)
        out[r] = top + np.log(np.exp(logs - top[:, None]).sum(axis=1)) - max(x, 0.0)
    rows = np.flatnonzero(~closed)
    if len(rows):
        out[rows] = _laguerre_rule(a[rows], m[rows], x)
        short = rows[np.isnan(out[rows])]
        if len(short):
            nk, logs = _binomial_terms(m[short], x, lambda k: gammaln(a[short, None] + k + 1.0))
            out[short] = _difference(np.where(nk % 2, -1.0, 1.0), logs, m[short],
                                     _laguerre_lower_moments(a[short], m[short], x))
        if np.isnan(out).any():
            raise NumericError(f"Laguerre tail moments uncertified at x={x}: the Gauss-Laguerre rules "
                               f"disagree and the difference route cancels")
    return out


# generalized Gauss-Laguerre rules of LAG_NODES nodes, each twice the one
# before: a row takes the first rule that agrees with the one before it to
# TAIL_RTOL in the log.  At most LAG_RULES rules are kept
LAG_NODES = (64, 128, 256)
LAG_RULES = 256


@functools.lru_cache(maxsize=LAG_RULES)
def _genlaguerre_rule(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and log weights of the n-node Gauss rule for the weight
    u^m e^{-u} on [0, inf): the eigenvalues of its Jacobi matrix
    (Golub-Welsch), one Newton step on L_n^(m), and the weights, which are
    proportional to 1 / (r L_n^(m)'(r)^2), L_n^(m)' = -L_{n-1}^(m+1), scaled
    to sum to m!; in log form, which no m overflows."""
    k = np.arange(1.0, n)
    r = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + m + 1.0) + np.diag(np.sqrt(k * (k + m)), -1))
    r += special.eval_genlaguerre(n, m, r) / special.eval_genlaguerre(n - 1, m + 1.0, r)
    lw = -np.log(r) - 2.0 * np.log(np.abs(special.eval_genlaguerre(n - 1, m + 1.0, r)))
    top = lw.max()
    return r, lw - top - math.log(np.exp(lw - top).sum()) + math.lgamma(m + 1.0)


def _laguerre_rule(a, m, x: float) -> np.ndarray:
    """log of integral_x^inf (y-x)^m y^a e^{-y} dy = e^{-x} integral_0^inf
    u^m (x+u)^a e^{-u} du for x > 0 by rows, from the rules for u^m e^{-u}
    (LAG_NODES) applied to (x+u)^a; NaN on rows that no two rules certify.
    Near x = 0 the factor's singularity at u = -x sits close to the nodes."""
    out, rows, prev = np.full(len(m), np.nan), np.arange(len(m)), None
    for n in LAG_NODES:
        r, lw = map(np.array, zip(*(_genlaguerre_rule(n, int(k)) for k in m[rows])))
        terms = lw + a[rows, None] * np.log(x + r)
        top = terms.max(axis=1)
        cur = top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - x
        if prev is not None:
            ok = np.abs(cur - prev) <= TAIL_RTOL
            out[rows[ok]] = cur[ok]
            rows, cur = rows[~ok], cur[~ok]
            if not len(rows):
                break
        prev = cur
    return out


def _laguerre_lower_moments(a, m, x: float) -> np.ndarray:
    """log of integral_0^x (x-y)^m y^a e^{-y} dy over arrays a, m of one length,
    any a > -1: m! Gamma(a+1)/Gamma(m+a+2) x^(m+a+1) e^{-x} 1F1(m+1; m+a+2; x)
    (Kummer, DLMF 13.2.39), whose term ratios x (m+1+k)/((m+a+2+k)(k+1)) are
    positive and at most x/(k+1); NaN on rows left uncertified (_positive_series)."""
    if x <= 0.0:
        return np.full(m.shape, NEG_INF)
    C, lx = (m + a + 2.0)[:, None], math.log(x)
    top, acc, done = _positive_series(lambda k: lx + np.log1p(-(a[:, None] + 1.0) / (C + k)) - np.log1p(k),
                                      lambda K: x / (K + 1.0), len(m))
    out = gammaln(m + 1.0) + gammaln(a + 1.0) - gammaln(m + a + 2.0) + (m + a + 1.0) * lx - x + top + np.log(acc)
    return np.where(done, out, np.nan)


# a positive series grows in blocks of HYP_BLOCK terms, each continuing from
# the last, and gives up past HYP_MAX_TERMS; a closed Laguerre sum runs on
# blocks of rows of at most SUM_BLOCK terms
HYP_BLOCK = 64
HYP_MAX_TERMS = 1 << 16
SUM_BLOCK = 1 << 11
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
    full moment minus (-1)^m times the lower moment (_jacobi_lower_moments),
    kept where its cancellation certifies TAIL_RTOL.  A row neither route
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
        out[short] = _difference(*_jacobi_binomial(a[short], b[short], m[short], x), m[short],
                                 _jacobi_lower_moments(a[short], b[short], m[short], x))
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
    or, when d < 0, rise to it (_positive_series).  The sum peaks near
    k = d w / x, so a relative error in w comes out about that many times
    larger: lx and lw come in exact.
    """
    C = (m + b + 2.0)[:, None]
    beta, d = (m * (m + a + b + 2.0) + a)[:, None], (m + a)[:, None]
    w = math.exp(lw)
    top, acc, done = _positive_series(
        lambda k: np.log1p((beta + d * k) / ((C + k) * (k + 1.0))) + lw,
        lambda K: w * (1.0 + np.maximum(beta, 0.0) / ((C + K) * (K + 1.0)) + np.maximum(d, 0.0) / (C + K))[:, 0],
        len(m))
    out = (m + b + 1.0) * lw + (m + a + 1.0) * lx + special.betaln(m + 1.0, b + 1.0) + top + np.log(acc)
    return np.where(done, out, np.nan)


def _positive_series(log_ratio, bound, rows):
    """(top, acc, done) by rows for the positive series t_0 = 1, t_{k+1} = t_k r_k,
    whose sum is exp(top) acc: log_ratio(k) gives log r_k on a block of k, and
    bound(K) bounds every r_k with k >= K.  A row is done once R_K < 1 and the
    terms after t_K, at most t_K R_K / (1 - R_K), are below eps of its sum.
    log t_K carries a Kahan correction for the one rounding each block adds."""
    lt, err = np.zeros((rows, 1)), np.zeros((rows, 1))  # log t_K = lt + err, t_0 = 1
    top, acc, done = np.zeros(rows), np.ones(rows), np.zeros(rows, dtype=bool)
    for k0 in range(0, HYP_MAX_TERMS, HYP_BLOCK):
        steps = np.cumsum(log_ratio(np.arange(k0, k0 + HYP_BLOCK, dtype=float)), axis=1)
        logs = steps + lt  # log t_{k0+1} .. t_{k0+HYP_BLOCK}
        y = steps[:, -1:] + err
        new = lt + y
        err, lt = y - (new - lt), new
        new_top = np.maximum(top, logs.max(axis=1))
        acc = acc * np.exp(top - new_top) + np.exp(logs - new_top[:, None]).sum(axis=1)
        top = new_top
        R = bound(k0 + HYP_BLOCK)
        with np.errstate(divide="ignore", invalid="ignore"):
            done |= lt[:, 0] + np.log(R) - np.log1p(-R) <= top + np.log(acc) + LOG_EPS
        if done.all():
            break
    return top, acc, done


def _binomial_terms(n, x, tail):
    """(n-k, logs) by rows of the terms C(n,k) |x|^(n-k) exp(tail(k)),
    k = 0..max n, over an array n; logs is -inf past each row's n."""
    k = np.arange(int(n.max(initial=0)) + 1)[None, :]
    nn = n[:, None]
    nk = np.maximum(nn - k, 0.0)
    logs = gammaln(nn + 1.0) - gammaln(k + 1.0) - gammaln(nk + 1.0) + special.xlogy(nk, abs(x)) + tail(k)
    return nk, np.where(k <= nn, logs, NEG_INF)


def _jacobi_binomial(a, b, m, x):
    """(signs, logs) by rows of the terms C(m,k) (-x)^(m-k) B(a+k+1, b+1),
    k = 0..m, of the full moment integral_0^1 (y-x)^m y^a (1-y)^b dy; all
    positive for x <= 0."""
    nk, logs = _binomial_terms(m, x, lambda k: special.betaln(a[:, None] + k + 1.0, b[:, None] + 1.0))
    return np.where(nk % 2, -1.0, 1.0) if x > 0.0 else np.ones_like(logs), logs


def _difference(signs, logs, m, low):
    """log of an upper moment as the full moment, given by rows of its terms
    (signs, logs), minus (-1)^m times the lower moment, log low; NaN on rows
    whose cancellation leaves it short of TAIL_RTOL."""
    signs = np.column_stack([signs, (-1.0) ** (m + 1.0)])
    logs = np.column_stack([logs, low])
    out = np.full(m.shape, np.nan)
    for i, (s, lg) in enumerate(zip(signs, logs)):
        sign, val, size = _slog_sum(s, lg)
        if sign > 0.0 and size - val <= math.log(TAIL_RTOL / DIFF_TERM_RTOL):
            out[i] = val
    return out


def _jacobi_lower_moments(a, b, m, x: float) -> np.ndarray:
    """log of integral_0^x (x-y)^m y^a (1-y)^b dy over arrays a, b, m of one
    length: the mirror series (a <-> b, x <-> 1-x) of _jacobi_tail_moments,
    whose ratio tends to x; NaN on rows it leaves uncertified, and for x >= 1."""
    if not 0.0 < x < 1.0:
        return np.full(np.shape(m), NEG_INF if x <= 0.0 else np.nan)
    return _pfaff_series(b, a, m, math.log1p(-x), math.log(x))


def phi_cap(proc: ProcessSpec, n: int, j: int, x: float) -> float:
    """Phi_j^n(x): polynomial dual to Psi_k^n under integration over the support."""
    if not 0 <= j <= n - 1:
        raise ValueError(f"index {j} outside [0, {n - 1}]")
    signs, logs = _phi_cap_table(proc, n, j, x)
    return slog_to_float(float(signs[j]), float(logs[j]))


def _phi_cap_table(proc, n, jmax, x, poly=None):
    """(signs, logs) of Phi_j^n(x) for j = 0..jmax, from one log_poly_table
    (poly, when given); finite outside the support too."""
    fam, sig, kind = proc.family(n), proc.N - n, proc.ensemble.kind
    sign, lg = op.log_poly_table(fam, jmax, x) if poly is None else poly
    logn, loge = op.family_constants(fam, jmax)[1], op.family_constants(proc.ensemble, proc.N - 1)[2]
    logs = loge[sig:sig + jmax + 1] - loge[:jmax + 1] - 0.5 * logn[:jmax + 1] + lg
    return (-1.0) ** sig * op.sign_e(kind, sig) * sign, logs


def _slog_sum(signs, logs):
    """(sign, log |sum|, log sum |terms|) of arrays of terms, where a zero term
    has sign 0 and log -inf; exact cancellation gives sign 0 and log -inf."""
    m = float(logs.max())
    if m == NEG_INF:
        return (0.0, NEG_INF, NEG_INF)
    terms = np.exp(logs - m)
    tot, size = float((signs * terms).sum()), float((np.abs(signs) * terms).sum())
    size = m + math.log(size) if size else NEG_INF
    if tot == 0.0:
        return (0.0, NEG_INF, size)
    return (math.copysign(1.0, tot), m + math.log(abs(tot)), size)


def _gauge(proc, p1, p2):
    """log sqrt(w_{s1}(y1) / w_{s2}(y2)): K = (-1)^(s1-s2) exp(gauge) F."""
    return 0.5 * (op.log_weight(proc.family(p1.s), p1.y) - op.log_weight(proc.family(p2.s), p2.y))


# a side whose terms' absolute sum exceeds |sum| by more than e^MAX_CANCEL loses
# digits to their rounding: the other side is formed too, and the better kept
MAX_CANCEL = 10.0


def _kernel_slog(tables, p1: SpeciesPoint, p2: SpeciesPoint):
    """K(s1,y1;s2,y2) as (sign, log), from the points' tables."""
    sides = []
    for lower in (False, True):
        try:
            sides.append(_finite_sum(tables, p1, p2, lower))
        except NumericError:
            if lower and not sides:
                raise
        if sides and (sides[0][2] <= MAX_CANCEL or p1.s >= p2.s):
            break
    return min(sides, key=lambda side: side[2])[:2]


def _finite_sum(tables, p1, p2, lower):
    """(sign, log, log cancellation) of K(s1,y1;s2,y2) as -phi + sum over
    l = 1..s2 of Psi_{s1-l}(y1) Phi_{s2-l}(y2).  For s1 >= s2, phi is 0 and
    every Psi is in the table, so both sides are this sum.  For s1 < s2 the
    Psi with l > s1 are moments over [y1, hi]; with lower over [lo, y1]: the
    sum over the whole support is (y2-y1)^m/m!, m = s2-s1-1, so the first
    term becomes chi_{y2<y1} (y2-y1)^m/m!, and each moment enters negated."""
    s1, y1, s2, y2 = p1.s, p1.y, p2.s, p2.y
    sign, lg = _phi_conv_slog(s1, s2, *((y2, y1) if lower else (y1, y2)))
    first = ((-1.0) ** (s2 - s1 - 1) * sign if lower else -sign, lg)
    if s2 == s1 + 1 and y2 == y1:
        # jump midpoint of the indicator kernel: the value the expansion in
        # eigenfunctions converges to; determinants do not see the difference
        first = (0.5 if lower else -0.5, 0.0)
    psi_s, psi_l = (v[::-1][:s2] for v in tables.psi(p1))
    tail_s, tail_l = tables.tails(p1, s2 - s1, lower) if s2 > s1 else np.empty((2, 0))
    phi_s, phi_l = (v[::-1] for v in tables.phi_cap(p2))
    signs = np.concatenate([[first[0]], psi_s, -tail_s if lower else tail_s]) * np.concatenate([[1.0], phi_s])
    logs = np.concatenate([[first[1]], psi_l, tail_l]) + np.concatenate([[0.0], phi_l])
    sign, lg, size = _slog_sum(signs, logs)
    return sign, lg, (size - lg if sign else (0.0 if size == NEG_INF else math.inf))


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
    return slog_to_float(*_entry_F(_Tables(proc, {p1} if p1 == p2 else ()), p1, p2))


def _entry_F(tables, p1, p2):
    """The entry of kernel_F as (sign, log) from K; a 0, as where w_{s2}(y2) = 0, has sign 0 and log -inf."""
    sign, lg = _kernel_slog(tables, p1, p2)
    lg = lg - _gauge(tables.proc, p1, p2) if sign else NEG_INF
    return ((-1.0) ** (p2.s - p1.s) * sign if lg != NEG_INF else 0.0, lg)


def kernel_matrix(proc: ProcessSpec, points: list[SpeciesPoint]) -> np.ndarray:
    """(signs, logs), a 2 x r x r array, of kernel_F between every two of the r
    points, from one set of tables; entries outside double range keep their logs."""
    _check_weights(proc, *points)
    tables = _Tables(proc, set(points))
    return np.array([[_entry_F(tables, pi, pj) for pj in points] for pi in points]).transpose(2, 0, 1)


def kernel_K(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> KernelValue:
    """Two-point correlation kernel K(s1,y1;s2,y2)."""
    _check_weights(proc, p1, p2)
    return KernelValue(slog_to_float(*_kernel_slog(_Tables(proc, {p1} if p1 == p2 else ()), p1, p2)))


def correlation(proc: ProcessSpec, points: list[SpeciesPoint]) -> float:
    """r-point correlation det[K(s_j,y_j;s_k,y_k)]; gauge and order invariant."""
    r = len(points)
    if not 1 <= r <= 12:
        raise ValueError("need 1 <= r <= 12 points")
    if len({(p.s, p.y) for p in points}) != r:
        raise ValueError("duplicate (species, position) pairs are not allowed")
    mat = np.frompyfunc(slog_to_float, 2, 1)(*kernel_matrix(proc, points)).astype(float)
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
