"""Classical weights, their orthogonal polynomials, and special functions.

Covers the Gaussian, Laguerre and Jacobi families in the normalizations
H_j(x), L_j^(a)(x) and P_j^(a,b)(1-2x), plus parameter-shifted variants,
squared-norm constants, the orthonormal functions eta_k, and the Airy and
Bessel-J evaluations needed by the scaling kernels.
"""

from __future__ import annotations

import collections
import math
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

_LOG_DBL_MAX = math.log(np.finfo(float).max)

__all__ = [
    "GAUSSIAN",
    "LAGUERRE",
    "JACOBI",
    "KINDS",
    "EnsembleSpec",
    "ShiftedFamily",
    "RodriguesData",
    "eval_weight",
    "log_weight",
    "eval_poly",
    "norm_constant",
    "log_norm_constant",
    "rodrigues_constants",
    "log_abs_e",
    "sign_e",
    "eval_eta",
    "eta_table",
    "log_poly_table",
    "gauss_weight_nodes",
    "airy",
    "bessel_j",
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

    def support(self) -> tuple[float, float]:
        if self.kind == GAUSSIAN:
            return (-math.inf, math.inf)
        if self.kind == LAGUERRE:
            return (0.0, math.inf)
        return (0.0, 1.0)


@dataclass(frozen=True)
class ShiftedFamily:
    """A classical family with its exponents shifted by a nonnegative integer.

    Shift s sends a -> a+s (Laguerre), and a -> a+s, b -> b+s (Jacobi); it has
    no effect on the Gaussian family.  Shift 0 is the base family.
    """

    base: EnsembleSpec
    shift: int = 0

    def __post_init__(self):
        if self.shift < 0 or self.shift != int(self.shift):
            raise ValueError(f"shift must be a nonnegative integer, got {self.shift}")

    @property
    def kind(self) -> str:
        return self.base.kind

    def params(self) -> tuple[float, float]:
        """Effective (a, b) after the shift."""
        if self.base.kind == GAUSSIAN:
            return (0.0, 0.0)
        return (self.base.a + self.shift, self.base.b + self.shift)

    def support(self) -> tuple[float, float]:
        return self.base.support()


@dataclass(frozen=True)
class RodriguesData:
    """The constant e_j and the polynomial Q(y) of a Rodrigues representation.

    ``q_coeffs`` are (c0, c1, c2) with Q(y) = c0 + c1*y + c2*y**2.
    """

    e_j: float
    q_coeffs: tuple[float, float, float]

    def q(self, y):
        c0, c1, c2 = self.q_coeffs
        return c0 + y * (c1 + y * c2)


def _as_family(fam) -> ShiftedFamily:
    if isinstance(fam, EnsembleSpec):
        return ShiftedFamily(fam, 0)
    return fam


def eval_weight(fam, x):
    """Weight w(x) = exp(log_weight(fam, x)); exactly 0 outside the support."""
    w = np.exp(log_weight(fam, x))
    return w if np.ndim(w) else float(w)


def log_weight(fam, x):
    """log w(x) at a float or an array of points, with -inf outside the
    support; at an endpoint a factor with exponent 0 gives 0, any other +-inf."""
    fam = _as_family(fam)
    a, b = fam.params()
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support()
    with np.errstate(invalid="ignore"):  # log(x < 0) and inf - inf, both masked
        if fam.kind == GAUSSIAN:
            lw = -x * x
        else:
            lw = special.xlogy(a, x) + (-x if fam.kind == LAGUERRE else special.xlogy(b, 1.0 - x))
        lw = np.where((x < lo) | (x > hi) | (x == math.inf), -math.inf, lw)
    return lw if lw.ndim else float(lw)


def _coeffs(fam, kmax: int):
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
    """Yield (u_k, offset_k) for k = 0..len(A), where exp(offset_k) u_k is the
    k-th term of t_{k+1} = (A_k x + B_k) t_k - C_k t_{k-1} from t_0 = exp(offset);
    u_0 = 1, or 0 where exp(offset) is.  There x is taken as 0: every u_k
    stays 0 for any finite x, and an infinite x would give inf * 0 = NaN.

    Whenever max(|u_k|, |u_{k-1}|) leaves [1e-250, 1e250] the pair is divided
    by it and its log moves into the offset, so no term over- or underflows.
    Scalar x runs on Python floats, array x on numpy rows; both round alike.
    """
    if np.ndim(x) == 0:
        x, offset, rescale = float(x), float(offset), _rescale_float
        u = 0.0 if offset == -math.inf else 1.0
        x = x if u else 0.0
    else:
        u, rescale = np.where(offset == -np.inf, 0.0, np.ones_like(x)), _rescale_rows
        x = np.where(u == 0.0, 0.0, x)
    u_prev = 0.0
    yield u, offset
    # a memoryview iterates as Python floats, without a list of them
    for a, b, c in zip(*map(memoryview, coeffs)):
        u_prev, u = u, (a * x + b) * u - c * u_prev
        u, u_prev, offset = rescale(u, u_prev, offset)
        yield u, offset


def _rescale_float(u, u_prev, offset):
    if 1e-250 <= abs(u) <= 1e250:
        return u, u_prev, offset  # |u_prev| <= 1e250 since the step before, so mag is in range
    mag = max(abs(u), abs(u_prev))
    if mag > 1e250 or (mag < 1e-250 and mag != 0.0):
        return u / mag, u_prev / mag, offset + float(np.log(mag))
    return u, u_prev, offset


def _rescale_rows(u, u_prev, offset):
    mag = np.maximum(np.abs(u), np.abs(u_prev))
    fix = (mag > 1e250) | ((mag < 1e-250) & (mag != 0.0))
    if fix.any():
        mag = np.where(fix, mag, 1.0)
        return u / mag, u_prev / mag, offset + np.log(mag)
    return u, u_prev, offset


# a recurrence row at scalar x as one record
_ROW = [("u", float), ("offset", float)]


def _exp_or_zero(offset, val):
    """exp(offset) * val: 0 where the weight vanishes (offset -inf) or the
    value falls below double range, and NaN where an input is NaN."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lg = offset + np.log(np.abs(val))
        return np.where((val == 0.0) | (lg < -745.0) | (offset == -np.inf), 0.0, np.sign(val) * np.exp(lg))


def eval_poly(fam, j: int, x):
    """p_j(x) by three-term recurrence: H_j, L_j^(a) or P_j^(a,b)(1-2x)."""
    rows = _recurrence(_coeffs(_as_family(fam), j), np.asarray(x, dtype=float), 0.0)
    u, offset = collections.deque(rows, maxlen=1).pop()
    val = u * np.exp(offset)
    return val if np.ndim(val) else float(val)


def log_poly(fam, j: int, x: float) -> tuple[float, float]:
    """(sign, log|p_j(x)|); immune to overflow: entry j of log_poly_table with
    the norm put back."""
    fam = _as_family(fam)
    sign, lg = log_poly_table(fam, j, x)
    if sign[j] == 0.0:
        return (0.0, -math.inf)
    return (float(sign[j]), float(lg[j]) + 0.5 * log_norm_constant(fam, j))


def log_norm_constant(fam, j):
    """log of the squared norm N_j = integral of w * p_j**2 over the support.

    j is a degree or an integer array of degrees; a degree gives a float.
    """
    fam = _as_family(fam)
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


def norm_constant(fam, j: int) -> float:
    """N_j in linear scale; raises OverflowError once it exceeds double range."""
    lg = log_norm_constant(fam, j)
    if lg > _LOG_DBL_MAX:
        raise OverflowError(
            f"norm constant overflows double precision at degree {j}; "
            "use log_norm_constant"
        )
    return math.exp(lg)


def rodrigues_constants(spec: EnsembleSpec, j: int) -> RodriguesData:
    """The pair (e_j, Q) with p_j = (e_j w)^{-1} d^j/dy^j (w Q^j).

    On [0,1] the Jacobi constant is j! (the extra 2^j of the [-1,1]
    convention cancels against the argument substitution); this is the value
    consistent with p_j = P_j^(a,b)(1-2y) and the norms of this module.
    """
    if j < 0:
        raise ValueError("degree must be >= 0")
    if spec.kind == GAUSSIAN:
        return RodriguesData(float((-1) ** j), (1.0, 0.0, 0.0))
    if spec.kind == LAGUERRE:
        return RodriguesData(math.factorial(j), (0.0, 1.0, 0.0))
    return RodriguesData(math.factorial(j), (0.0, 1.0, -1.0))


def log_abs_e(kind: str, j):
    """log |e_j| for the Rodrigues constant of the family; j a degree or an
    integer array of degrees."""
    if np.ndim(j):
        return gammaln(np.asarray(j, dtype=float) + 1.0) * (kind != GAUSSIAN)
    return 0.0 if kind == GAUSSIAN else math.lgamma(j + 1.0)


def sign_e(kind: str, j: int) -> float:
    return -1.0 if (kind == GAUSSIAN and j % 2) else 1.0


def _normalized_rows(fam, kmax: int, x, offset):
    """_recurrence rows for k = 0..kmax, run on p_k / sqrt(N_k) from
    exp(offset) / sqrt(N_0), so no norm constant is ever formed in linear scale."""
    A, B, C = _coeffs(fam, kmax)
    logn = log_norm_constant(fam, np.arange(kmax + 1))
    # p_k / sqrt(N_k) takes A_k, B_k times sqrt(N_k/N_{k+1}), C_k times sqrt(N_{k-1}/N_{k+1})
    r1 = np.exp(0.5 * (logn[:-1] - logn[1:]))
    C[1:] *= np.exp(0.5 * (logn[:-2] - logn[2:]))
    return _recurrence((A * r1, B * r1, C), x, offset - 0.5 * logn[0])


def log_poly_table(fam, kmax: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log(|p_k(x)| / sqrt(N_k))) for k = 0..kmax.

    No weight enters, so every entry is finite at any finite x, inside the
    support or outside it; sign 0 (log -inf) marks an exact zero.
    """
    t = np.fromiter(_normalized_rows(_as_family(fam), kmax, float(x), 0.0), dtype=_ROW, count=kmax + 1)
    with np.errstate(divide="ignore"):
        return np.sign(t["u"]), t["offset"] + np.log(np.abs(t["u"]))


def eta_table(fam, kmax: int, x) -> np.ndarray:
    """All eta_k(x) = sqrt(w(x)/N_k) p_k(x) for k = 0..kmax.

    The normalized recurrence starts from the offset log sqrt(w(x)), so
    entries deep in the weight's tail come out right while those below
    double range emerge as 0.  Returns an array of shape (kmax+1,) + shape(x).
    """
    fam = _as_family(fam)
    x = np.asarray(x, dtype=float)
    rows = _normalized_rows(fam, kmax, x, 0.5 * log_weight(fam, x))
    # a scalar's column is converted in one numpy call; an array's rows are
    # converted as they come, so no second table of offsets is held
    if x.ndim == 0:
        t = np.fromiter(rows, dtype=_ROW, count=kmax + 1)
        return _exp_or_zero(t["offset"], t["u"])
    out = np.empty((kmax + 1,) + x.shape)
    for k, (u, off) in enumerate(rows):
        out[k] = _exp_or_zero(off, u)
    return out


def eval_eta(fam, k: int, x):
    """Orthonormal function eta_k(x) = sqrt(w(x)/N_k) p_k(x)."""
    val = eta_table(fam, k, x)[k]
    return val if val.ndim else float(val)
def gauss_weight_nodes(fam, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights for the family's weight on its natural support.

    Exact for polynomial integrands of degree <= 2m-1 against w(x)dx.
    """
    fam = _as_family(fam)
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


def bessel_j(nu: float, x: float) -> float:
    """Bessel J_nu(x) for nu >= 0, x >= 0."""
    if nu < 0.0:
        raise ValueError("order nu must be >= 0")
    if x < 0.0:
        raise ValueError("argument x must be >= 0")
    return float(special.jv(nu, x))
