"""Classical weights, their orthogonal polynomials, and special functions.

Covers the Gaussian, Laguerre and Jacobi families in the normalizations
H_j(x), L_j^(a)(x) and P_j^(a,b)(1-2x), for any exponents (so shifted families
too), squared-norm constants, the orthonormal functions eta_k, and the Airy
evaluation needed by the scaling kernels.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import gammaln

GAUSSIAN = "gaussian"
LAGUERRE = "laguerre"
JACOBI = "jacobi"
KINDS = (GAUSSIAN, LAGUERRE, JACOBI)

# exponents a, b must stay this far above -1 or the norm constants blow up
PARAM_FLOOR = 1e-8

__all__ = [
    "GAUSSIAN",
    "LAGUERRE",
    "JACOBI",
    "KINDS",
    "EnsembleSpec",
    "ShiftedFamily",
    "eval_weight",
    "log_weight",
    "eval_poly",
    "log_norm_constant",
    "log_abs_e",
    "sign_e",
    "eval_eta",
    "eta_table",
    "log_poly_table",
    "eta_poly_tables",
    "family_constants",
    "gauss_weight_nodes",
    "airy",
]


@dataclass(frozen=True)
class EnsembleSpec:
    """One of the classical weights: which family plus its exponents.

    ``a`` is the Laguerre/Jacobi exponent, ``b`` the second Jacobi exponent;
    both are ignored for the Gaussian family.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind in (LAGUERRE, JACOBI) and self.a < -1.0 + PARAM_FLOOR:
            raise ValueError(f"exponent a={self.a} must be >= -1 + {PARAM_FLOOR}")
        if self.kind == JACOBI and self.b < -1.0 + PARAM_FLOOR:
            raise ValueError(f"exponent b={self.b} must be >= -1 + {PARAM_FLOOR}")

    def params(self) -> tuple[float, float]:
        """The exponents (a, b); (0, 0) for the Gaussian family."""
        if self.kind == GAUSSIAN:
            return (0.0, 0.0)
        return (self.a, self.b)

    def support(self) -> tuple[float, float]:
        if self.kind == GAUSSIAN:
            return (-math.inf, math.inf)
        if self.kind == LAGUERRE:
            return (0.0, math.inf)
        return (0.0, 1.0)


def ShiftedFamily(base: EnsembleSpec, shift: int = 0) -> EnsembleSpec:
    """The classical family with its exponents raised by a nonnegative integer.

    Shift s sends a -> a+s (Laguerre), and a -> a+s, b -> b+s (Jacobi); it has
    no effect on the Gaussian family.  Shift 0 is the base family.
    """
    if shift < 0 or shift != int(shift):
        raise ValueError(f"shift must be a nonnegative integer, got {shift}")
    if shift == 0 or base.kind == GAUSSIAN:
        return base
    return EnsembleSpec(base.kind, base.a + shift, base.b + shift)


def eval_weight(fam: EnsembleSpec, x):
    """Weight w(x) = exp(log_weight(fam, x)); exactly 0 outside the support."""
    w = np.exp(log_weight(fam, x))
    return w if np.ndim(w) else float(w)


def log_weight(fam: EnsembleSpec, x):
    """log w(x) at a float or an array of points, with -inf outside the
    support; at an endpoint a factor with exponent 0 gives 0, any other +-inf."""
    a, b = fam.params()
    lo, hi = fam.support()
    if isinstance(x, float):
        # the same operations on Python floats, without numpy's per-call cost
        if x < lo or x > hi or x == math.inf:
            return -math.inf
        if fam.kind == GAUSSIAN:
            return float(-x * x)
        return float(_xlogy(a, x) + (-x if fam.kind == LAGUERRE else _xlogy(b, 1.0 - x)))
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # log(x < 0) and inf - inf, both masked
        if fam.kind == GAUSSIAN:
            lw = -x * x
        else:
            lw = special.xlogy(a, x) + (-x if fam.kind == LAGUERRE else special.xlogy(b, 1.0 - x))
        lw = np.where((x < lo) | (x > hi) | (x == math.inf), -math.inf, lw)
    return lw if lw.ndim else float(lw)


def _xlogy(a: float, x: float) -> float:
    """special.xlogy on floats: 0 for a == 0 unless x is NaN, where x >= 0."""
    if a == 0.0 and x == x:
        return 0.0
    return a * (math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan)


def _coeffs(fam: EnsembleSpec, kmax: int):
    """Arrays (A, B, C), k = 0..kmax-1, of p_{k+1} = (A_k x + B_k) p_k - C_k p_{k-1}.

    C_0 = 0, so the recurrence starts from p_0 = 1 alone.
    """
    if kmax < 0:
        raise ValueError("degree must be >= 0")
    a, b = fam.params()
    k = np.arange(kmax, dtype=float)
    if fam.kind == GAUSSIAN:
        A, B, C = np.full(kmax, 2.0), np.zeros(kmax), 2.0 * k
    elif fam.kind == LAGUERRE:
        A, B, C = -1.0 / (k + 1.0), (2.0 * k + 1.0 + a) / (k + 1.0), (k + a) / (k + 1.0)
    else:
        # P_k^(a,b)(u) at u = 1 - 2x; d vanishes at k = 0 when a + b is 0 or -1
        s = 2.0 * k + a + b
        d = (k + 1.0) * (k + a + b + 1.0) * s
        d[:1] = 1.0
        A = -(s + 1.0) * (s + 2.0) * s / d
        B = 0.5 * (s + 1.0) * (a * a - b * b + s * (s + 2.0)) / d
        C = (k + a) * (k + b) * (s + 2.0) / d
        A[:1], B[:1] = -(a + b + 2.0), a + 1.0
    C[:1] = 0.0
    return A, B, C


def _recurrence(coeffs, x, offset):
    """Yield (u_k, offset_k) for k = 0..len(A) over an array x, where
    exp(offset_k) u_k is the k-th term of t_{k+1} = (A_k x + B_k) t_k - C_k t_{k-1}
    from t_0 = exp(offset); u_0 = 1, or 0 where exp(offset) is.  There x is
    taken as 0: every u_k stays 0 for any finite x, and an infinite x would
    give inf * 0 = NaN.

    Whenever max(|u_k|, |u_{k-1}|) leaves [1e-250, 1e250] the pair is divided
    by it and its log moves into the offset, so no term over- or underflows.
    _float_rows runs the same steps on Python floats.
    """
    u = np.where(offset == -np.inf, 0.0, np.ones_like(x))
    x = np.where(u == 0.0, 0.0, x)
    u_prev = 0.0
    yield u, offset
    # a memoryview iterates as Python floats, without a list of them
    for a, b, c in zip(*map(memoryview, coeffs)):
        u_prev, u = u, (a * x + b) * u - c * u_prev
        mag = np.maximum(np.abs(u), np.abs(u_prev))
        fix = (mag > 1e250) | ((mag < 1e-250) & (mag != 0.0))
        if fix.any():
            mag = np.where(fix, mag, 1.0)
            u, u_prev, offset = u / mag, u_prev / mag, offset + np.log(mag)
        yield u, offset


def _float_rows(coeffs, x: float, offset: float, *more: float):
    """(u_k, offset_k) of _recurrence at one float x, by the same operations on
    Python floats, so with the same bits; offset_k is one float until a rescale.
    Each start offset in more gets its own offset_k from the same run, added
    to the tuple: the same rescalings, accumulated in the same order."""
    u, u_prev = (0.0 if offset == -math.inf else 1.0), 0.0
    x = x if u else 0.0
    us, logs, starts = array("d", [u]), [], [0]
    for a, b, c in zip(*map(memoryview, coeffs)):
        u_prev, u = u, (a * x + b) * u - c * u_prev
        # |u_prev| <= 1e250 since the step before, so the pair is in range while |u| is
        if not 1e-250 <= abs(u) <= 1e250:
            mag = max(abs(u), abs(u_prev))
            if mag > 1e250 or (mag < 1e-250 and mag != 0.0):
                u, u_prev = u / mag, u_prev / mag
                logs.append(float(np.log(mag)))
                starts.append(len(us))
        us.append(u)
    if not logs:
        return (np.frombuffer(us), float(offset), *map(float, more))
    counts = np.diff(starts + [len(us)])
    return (np.frombuffer(us),
            *(np.repeat(list(itertools.accumulate(logs, initial=float(off))), counts) for off in (offset, *more)))


def _exp_or_zero(offset, val):
    """exp(offset) * val: 0 where the weight vanishes (offset -inf) or the
    value falls below double range, and NaN where an input is NaN."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lg = offset + np.log(np.abs(val))
        return np.where((val == 0.0) | (lg < -745.0) | (offset == -np.inf), 0.0, np.sign(val) * np.exp(lg))


def eval_poly(fam: EnsembleSpec, j: int, x):
    """p_j(x) by three-term recurrence: H_j, L_j^(a) or P_j^(a,b)(1-2x)."""
    if np.ndim(x) == 0:
        u, offset = _float_rows(_coeffs(fam, j), float(x), 0.0)
        return float(u[-1] * np.exp(np.atleast_1d(offset)[-1]))
    u, offset = collections.deque(_recurrence(_coeffs(fam, j), np.asarray(x, dtype=float), 0.0), maxlen=1).pop()
    return u * np.exp(offset)


def log_norm_constant(fam: EnsembleSpec, j):
    """log of the squared norm N_j = integral of w * p_j**2 over the support.

    j is a degree or an integer array of degrees; a degree gives a float.
    """
    j = np.asarray(j, dtype=float)
    if (j < 0.0).any():
        raise ValueError("degree must be >= 0")
    if j.ndim == 0:
        j = float(j)
    a, b = fam.params()
    if fam.kind == GAUSSIAN:
        lg = j * math.log(2.0) + gammaln(j + 1.0) + 0.5 * math.log(math.pi)
    elif fam.kind == LAGUERRE:
        lg = gammaln(j + a + 1.0) - gammaln(j + 1.0)
    else:
        # (2j + a + b + 1) Gamma(j + a + b + 1) = Gamma(j + a + b + 2) (1 + j / (j + a + b + 1)),
        # which stays finite at j = 0 for a + b <= -1; (j == 0) only guards 0/0
        lg = (gammaln(j + a + 1.0) + gammaln(j + b + 1.0) - gammaln(j + 1.0)
              - gammaln(j + a + b + 2.0) - np.log1p(j / (j + a + b + 1.0 + (j == 0))))
    return lg if np.ndim(lg) else float(lg)


def log_abs_e(kind: str, j):
    """log |e_j| for j a degree or an integer array of degrees, where
    p_j = (e_j w)^{-1} d^j/dy^j (w Q^j) with Q = 1, y, y(1-y): e_j = (-1)^j
    (Gaussian, sign in sign_e), else j!.  On [0, 1] the Jacobi e_j is j!: the
    2^j of the [-1, 1] convention cancels against the substitution u = 1-2y."""
    if np.ndim(j):
        return gammaln(np.asarray(j, dtype=float) + 1.0) * (kind != GAUSSIAN)
    return 0.0 if kind == GAUSSIAN else math.lgamma(j + 1.0)


def sign_e(kind: str, j: int) -> float:
    return -1.0 if (kind == GAUSSIAN and j % 2) else 1.0


# the most families whose constants family_constants keeps, and the longest
# log |e_k| table of each kind
FAMILY_MEMO = 128
_LOG_ABS_E: dict[str, np.ndarray] = {}


def family_constants(fam: EnsembleSpec, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only arrays of the family's constants to degree kmax at least: the
    rows a, b, c of the recurrence on p_k / sqrt(N_k), log N_k and log |e_k|
    (one table per kind, which may run further).  They are kept per family and
    rebuilt only to reach a higher degree; each entry depends on its own
    degree alone, so a longer build starts with the same bits."""
    if kmax < 0:
        raise ValueError("degree must be >= 0")
    held = _held_constants(fam)
    if held[0] is None or len(held[0][1]) <= kmax:
        if len(_LOG_ABS_E.get(fam.kind, ())) <= kmax:
            _LOG_ABS_E[fam.kind] = log_abs_e(fam.kind, np.arange(kmax + 1))
        # rows a, b, c, log N in one block, allocated before the temporaries:
        # a kept family then pins less of the heap they free
        block = np.empty((4, kmax + 1))
        A, B, C = _coeffs(fam, kmax)
        block[3] = logn = log_norm_constant(fam, np.arange(kmax + 1))
        # p_k / sqrt(N_k) takes A_k, B_k times sqrt(N_k/N_{k+1}), C_k times sqrt(N_{k-1}/N_{k+1})
        r1 = np.exp(0.5 * (logn[:-1] - logn[1:]))
        C[1:] *= np.exp(0.5 * (logn[:-2] - logn[2:]))
        block[0, :kmax], block[1, :kmax], block[2, :kmax] = A * r1, B * r1, C
        block.flags.writeable = _LOG_ABS_E[fam.kind].flags.writeable = False
        held[0] = block[:3, :kmax], block[3], _LOG_ABS_E[fam.kind]
    return held[0]


@functools.lru_cache(maxsize=FAMILY_MEMO)
def _held_constants(fam: EnsembleSpec) -> list:
    return [None]


def log_poly_table(fam: EnsembleSpec, kmax: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log(|p_k(x)| / sqrt(N_k))) for k = 0..kmax.

    No weight enters, so every entry is finite at any finite x, inside the
    support or outside it; sign 0 (log -inf) marks an exact zero.
    """
    coeffs, logn, _ = family_constants(fam, kmax)
    return _log_rows(*_float_rows(coeffs[:, :kmax], float(x), -0.5 * logn[0]))


def _log_rows(u, offset):
    with np.errstate(divide="ignore"):
        return np.sign(u), offset + np.log(np.abs(u))


def eta_table(fam: EnsembleSpec, kmax: int, x) -> np.ndarray:
    """All eta_k(x) = sqrt(w(x)/N_k) p_k(x) for k = 0..kmax.

    The recurrence on p_k / sqrt(N_k) starts from the offset log sqrt(w(x) / N_0),
    so no norm constant is ever formed in linear scale, entries deep in the
    weight's tail come out right, and those below double range emerge as 0.
    Returns an array of shape (kmax+1,) + shape(x).
    """
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    coeffs, logn, _ = family_constants(fam, kmax)
    coeffs, offset = coeffs[:, :kmax], 0.5 * log_weight(fam, x) - 0.5 * logn[0]
    if isinstance(x, float):
        return _exp_or_zero(*_float_rows(coeffs, x, offset)[::-1])
    out = np.empty((kmax + 1,) + x.shape)
    # the rows are converted as they come, so no second table of offsets is held
    for k, (u, off) in enumerate(_recurrence(coeffs, x, offset)):
        out[k] = _exp_or_zero(off, u)
    return out


def eta_poly_tables(fam: EnsembleSpec, kmax: int, x: float):
    """eta_table(fam, kmax, x) and log_poly_table(fam, kmax, x), bit for bit,
    from one recurrence where the weight is nonzero at x: there the two runs
    differ only in their start offsets.  Where it vanishes the eta run steps
    x as 0, and the two run apart."""
    x = float(x)
    coeffs, logn, _ = family_constants(fam, kmax)
    coeffs, offset = coeffs[:, :kmax], 0.5 * log_weight(fam, x) - 0.5 * logn[0]
    if offset == -math.inf:
        return eta_table(fam, kmax, x), log_poly_table(fam, kmax, x)
    u, eta_off, poly_off = _float_rows(coeffs, x, offset, -0.5 * logn[0])
    return _exp_or_zero(eta_off, u), _log_rows(u, poly_off)


def eval_eta(fam: EnsembleSpec, k: int, x):
    """Orthonormal function eta_k(x) = sqrt(w(x)/N_k) p_k(x)."""
    val = eta_table(fam, k, x)[k]
    return val if val.ndim else float(val)


def gauss_weight_nodes(fam: EnsembleSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights for the family's weight on its natural support.

    Exact for polynomial integrands of degree <= 2m-1 against w(x)dx.
    """
    a, b = fam.params()
    if fam.kind == GAUSSIAN:
        x, w = special.roots_hermite(m)
        return x, w
    if fam.kind == LAGUERRE:
        x, w = special.roots_genlaguerre(m, a)
        return x, w
    u, w = special.roots_jacobi(m, a, b)
    return (1.0 - u) / 2.0, w * 2.0 ** (-a - b - 1.0)


def airy(x: float) -> tuple[float, float]:
    """(Ai(x), Ai'(x)); |x| must be <= 50."""
    if abs(x) > 50.0:
        raise ValueError(f"airy argument {x} outside [-50, 50]")
    ai, aip, _, _ = special.airy(x)
    return float(ai), float(aip)
