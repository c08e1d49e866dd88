"""Limit kernels (Airy, extended Airy, bulk bead, hard-edge Bessel) and
gauge-free evaluation of the finite-N kernel under the edge/bulk scalings.

Conjugation prefactors of the finite-N statements blow up in double precision
and cancel in every determinant, so convergence checks work exclusively with
gauge-invariant combinations: diagonals, (j,k)(k,j) products, and small
determinants.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from . import orthopoly as op
from .kernel import ProcessSpec, SpeciesPoint, kernel_F
from .numerics import NumericError, gl_nodes

__all__ = [
    "SOFT_FIXED",
    "BULK",
    "HARD_EDGE",
    "SOFT_DRIFT",
    "REGIMES",
    "LimitQuery",
    "airy_kernel",
    "extended_airy",
    "bead_kernel",
    "bead_kernel_alt",
    "hard_edge_kernel",
    "scaled_finite_kernel",
    "realized_offsets",
    "limit_kernel",
    "convergence_report",
    "report_to_json",
    "report_to_csv",
]

SOFT_FIXED = "soft"
BULK = "bulk"
HARD_EDGE = "hard"
SOFT_DRIFT = "soft-drift"
REGIMES = (SOFT_FIXED, BULK, HARD_EDGE, SOFT_DRIFT)


@dataclass(frozen=True)
class LimitQuery:
    """A scaling-regime evaluation request.

    offsets are the species displacements c_i (integers in the fixed regimes,
    reals under SOFT_DRIFT); positions are the scaled coordinates Y_i / X_i.
    """

    regime: str
    ensemble: op.EnsembleSpec
    N: int
    offsets: tuple[float, ...]
    positions: tuple[float, ...]

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if len(self.offsets) != len(self.positions):
            raise ValueError("offsets and positions must pair up")
        if self.regime in (SOFT_FIXED, BULK) and self.ensemble.kind == op.JACOBI:
            raise ValueError("soft/bulk scalings are set up for gaussian and laguerre")
        if self.regime == HARD_EDGE and self.ensemble.kind != op.LAGUERRE:
            raise ValueError("hard-edge scaling is set up for the laguerre family")
        if self.regime == BULK and self.ensemble.kind != op.GAUSSIAN:
            raise ValueError("bulk scaling is set up for the gaussian family")


def airy_kernel(x: float, y: float) -> float:
    """Airy kernel; ratio form away from the diagonal, and near it its Taylor
    expansion about the midpoint m to O(h^4) in h = y - x."""
    if abs(x) > 20 or abs(y) > 20:
        raise ValueError("arguments limited to [-20, 20]")
    if abs(x - y) >= 1e-4:
        ax, axp = op.airy(x)
        ay, ayp = op.airy(y)
        return (ax * ayp - ay * axp) / (x - y)
    m, h = 0.5 * (x + y), y - x
    ai, aip = op.airy(m)
    taylor2 = ai * aip / 3.0 - 2.0 / 3.0 * (m * m * ai * ai - m * aip * aip)
    return aip * aip - m * ai * ai + 0.25 * h * h * taylor2


def _airy_integral(tau: float, x: float, y: float, d: float = 1.0) -> float:
    """int_0^inf e^(-tau u) Ai(x + d u) Ai(y + d u) du for d = +-1.  Raises
    NumericError when quad's error estimate exceeds the requested accuracy."""
    # e^(-tau u) is capped at e^700 to keep inf * 0 out of quad's
    # infinite-range map.  The cap binds only for tau < 0 past u = 700/|tau|
    # >= 70, which extended_airy integrates only while the whole-line
    # integral is at most 100, so the integrand has long decayed there
    f = lambda u: math.exp(min(-tau * u, 700.0)) * special.airy(x + d * u)[0] * special.airy(y + d * u)[0]
    epsabs, epsrel = 1e-13, 1e-11
    val, err = integrate.quad(f, 0.0, np.inf, epsabs=epsabs, epsrel=epsrel, limit=1000, full_output=1)[:2]
    if not err <= max(epsabs, epsrel * abs(val)):
        raise NumericError(f"Airy integral at tau={tau}, x={x}, y={y}: error estimate {err:.1e}")
    return val


def extended_airy(tau_x: float, x: float, tau_y: float, y: float) -> float:
    """Two-time Airy-process kernel entry."""
    if abs(tau_x) > 5 or abs(tau_y) > 5:
        raise ValueError("time offsets limited to [-5, 5]")
    tau = tau_y - tau_x
    if tau >= 0:
        return _airy_integral(tau, x, y)
    # -int_{-inf}^0 e^(t u) Ai(x+u) Ai(y+u) du with t = -tau.  Over the whole
    # line the integral is Gaussian (Prahofer-Spohn 2002), so the half line is
    # that minus [0, inf), which decays super-exponentially.  Where that
    # difference or the integral over [0, inf) cancels (a Gaussian above 100,
    # x or y far below 0), e^(t u) decays fast enough to integrate (-inf, 0]
    t = -tau
    line = math.exp(t**3 / 12.0 - t * (x + y) / 2.0 - (x - y) ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    try:
        if line <= 100.0:
            return _airy_integral(tau, x, y) - line
    except NumericError:
        pass
    return -_airy_integral(t, x, y, -1.0)


def _exp_integral_imag(n: int, w: float) -> complex:
    """E_n(i w) = int_1^inf exp(-i w t) / t^n dt for real w != 0, n >= 1:
    upward recurrence from E_1 for |w| < 1, where it is stable, and the
    continued fraction of DLMF 8.19.17 (modified Lentz) otherwise."""
    z = complex(0.0, w)
    if abs(w) < 1.0:
        e = complex(special.exp1(z))
        for k in range(1, n):
            e = (cmath.exp(-z) - z * e) / k
        return e
    b, c = z + n, 1e300
    d = h = 1.0 / b
    for i in range(1, 1000):
        an = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1.0) <= 4e-16:
            return h * cmath.exp(-z)
    raise NumericError(f"continued fraction for E_{n}(i {w}) did not converge")


def bead_kernel(cx: int, x: float, cy: int, y: float) -> float:
    """Bulk (bead) kernel between integer species offsets."""
    m = cy - cx
    u = x - y
    beta = math.pi * u
    phi = -0.5 * math.pi * m
    if m >= 0:
        if abs(m) <= 6:
            c = _poly_osc_integral_01(m, beta)
            return ((-1j) ** m * c).real
        nodes, wts = gl_nodes(0.0, 1.0, 48)
        return float(np.dot(wts, nodes**m * np.cos(beta * nodes + phi)))
    if u == 0.0:
        # cos(pi m / 2) vanishes for odd m; otherwise the plain power integral
        return math.cos(phi) / (m + 1) if m <= -2 else 0.0
    return -((-1j) ** m * _exp_integral_imag(-m, -beta)).real


def _poly_osc_integral_01(m: int, beta: float) -> complex:
    """int_0^1 s^m e^(i beta s) ds; series for small beta, recursion otherwise."""
    if abs(beta) < max(2.0, 0.5 * m):
        tot = 0.0j
        term = 1.0 + 0.0j
        k = 0
        while True:
            add = term / (m + k + 1)
            tot += add
            if abs(add) < 1e-18 * max(1.0, abs(tot)) and k > 4:
                return tot
            k += 1
            term *= 1j * beta / k
    ib = 1j * beta
    c = (cmath.exp(ib) - 1.0) / ib
    for j in range(1, m + 1):
        c = (cmath.exp(ib) - j * c) / ib
    return c


def bead_kernel_alt(cx: int, x: float, cy: int, y: float) -> float:
    """Alternate bead form; same determinants as bead_kernel (gauge differs)."""
    m = cy - cx
    beta = math.pi * (x - y)
    if m >= 0:
        nodes, wts = gl_nodes(-1.0, 1.0, 64)
        vals = (1j * nodes) ** m * np.exp(1j * beta * nodes)
        return 0.5 * float(np.dot(wts, vals).real)
    n = -m
    if x == y:
        return -math.cos(0.5 * math.pi * m) / (m + 1) if n >= 2 else 0.0
    # the two half-lines are complex conjugates of each other
    c = _power_tail_integral(m, beta)
    return -((1j) ** m * c).real


def _power_tail_integral(m: int, beta: float) -> complex:
    """int_1^inf s^m e^(i beta s) ds for integer m <= -1, by panel quadrature
    up to T plus an integration-by-parts asymptotic tail."""
    ab = abs(beta)
    T = max(60.0, 60.0 / ab)
    width = min(math.pi / ab, 0.5)
    edges = np.arange(1.0, T + width, width)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes, wts = gl_nodes(float(lo), float(hi), 16)
        total += complex(np.dot(wts, nodes ** float(m) * np.exp(1j * beta * nodes)))
    T = float(edges[-1])
    # tail: repeated integration by parts in e^(i beta s)
    ib = 1j * beta
    term = -(T ** float(m)) * cmath.exp(1j * beta * T) / ib
    tail = 0.0 + 0.0j
    mm = float(m)
    for _ in range(6):
        tail += term
        term *= -mm / (ib * T)
        mm -= 1.0
    return total + tail


def hard_edge_kernel(a: float, cx: int, x: float, cy: int, y: float) -> float:
    """Hard-edge kernel between species offsets; Bessel orders a+cx, a+cy.
    For m = cy - cx < 0 the integral over [1, inf) is the Weber-Schafheitlin
    integral over [0, inf) minus the head on [0, 1]."""
    if a <= -1:
        raise ValueError("need a > -1")
    if x < 0 or y < 0:
        raise ValueError("hard-edge coordinates are nonnegative")
    if a + min(cx, cy) < 0:
        raise ValueError("Bessel order a + c must be >= 0")
    m = cy - cx
    sx, sy = math.sqrt(x), math.sqrt(y)
    nodes, wts = gl_nodes(0.0, 1.0, 64)
    head = float(np.dot(wts, 2.0 * nodes ** (m + 1.0) * special.jv(a + cx, nodes * sx)
                        * special.jv(a + cy, nodes * sy)))
    if m >= 0:
        return 0.25 * head
    lam = -(m + 1.0)
    if x == y and (lam == 0.0 or x == 0.0):
        # at lam = 0 the integral jumps across x = y: take the mean of the
        # one-sided limits, as at the jump of the indicator kernel
        whole = 0.5 / sx if x > 0.0 else 0.0
    elif sy <= sx:
        whole = _weber_schafheitlin(lam, a + cx, sx, a + cy, sy)
    else:
        whole = _weber_schafheitlin(lam, a + cy, sy, a + cx, sx)
    return 0.25 * (head - 2.0 * whole)


def _weber_schafheitlin(lam: float, mu: float, p: float, nu: float, q: float) -> float:
    """int_0^inf J_mu(p t) J_nu(q t) t^(-lam) dt for 0 <= q <= p, p > 0 and
    mu + nu + 1 > lam >= 0 (DLMF 10.22.56); at q = p hyp2f1 gives Gauss's sum."""
    A = 0.5 * (nu + mu - lam + 1.0)
    return (q**nu * special.gamma(A) * special.rgamma(0.5 * (mu - nu + lam + 1.0))
            / (2.0**lam * p ** (nu - lam + 1.0) * special.gamma(nu + 1.0))
            * special.hyp2f1(A, 0.5 * (nu - mu - lam + 1.0), nu + 1.0, (q / p) ** 2))


# ---------------------------------------------------------------------------
# finite-N scaling maps
# ---------------------------------------------------------------------------


def _resolve(q: LimitQuery):
    """Map (offsets, positions) to model species/coordinates plus the scale."""
    kind, N = q.ensemble.kind, q.N
    pairs = list(zip(q.offsets, q.positions))
    if kind == op.GAUSSIAN:
        scale = 1.0 / (math.sqrt(2.0) * N ** (1.0 / 6.0))
    else:
        scale = 2.0 * (2.0 * N) ** (1.0 / 3.0)
    if q.regime == SOFT_FIXED:
        edge = math.sqrt(2.0 * N) if kind == op.GAUSSIAN else 4.0 * N + 2.0 * q.ensemble.a
        pts = [(N - int(c), edge + Y * scale) for c, Y in pairs]
    elif q.regime in (BULK, HARD_EDGE):
        scale = math.pi / math.sqrt(2.0 * N) if q.regime == BULK else 1.0 / (4.0 * N)
        pts = [(N - int(c), Y * scale) for c, Y in pairs]
    elif kind == op.GAUSSIAN:  # SOFT_DRIFT
        pts = []
        for c, Y in pairs:
            s = int(round(N + 2.0 * c * N ** (2.0 / 3.0)))
            pts.append((s, math.sqrt(2.0 * s) + Y / (math.sqrt(2.0) * s ** (1.0 / 6.0))))
    elif kind == op.LAGUERRE:
        pts = []
        for c, Y in pairs:
            s = int(round(N - 2.0 * c * (2.0 * N) ** (2.0 / 3.0)))
            # species s has effective exponent a + N - s; its edge is
            # (sqrt(s) + sqrt(s + a + N - s))^2, which the 4s + 2(a+N-s)
            # form only matches to within O(1) of the fluctuation scale
            a_eff = q.ensemble.a + N - s
            pts.append((s, (math.sqrt(s) + math.sqrt(s + a_eff)) ** 2 + scale * Y))
    else:
        raise ValueError("soft drift needs the gaussian or laguerre family")
    for s, _ in pts:
        if not 1 <= s <= N:
            raise ValueError(f"mapped species {s} lands outside [1, {N}]")
    return pts, scale


def realized_offsets(q: LimitQuery) -> tuple[float, ...]:
    """Offsets implied by the rounded species indices actually used."""
    N = q.N
    if q.regime != SOFT_DRIFT:
        return tuple(float(N - s) for s, _ in _resolve(q)[0])
    if q.ensemble.kind == op.GAUSSIAN:
        return tuple((s - N) / (2.0 * N ** (2.0 / 3.0)) for s, _ in _resolve(q)[0])
    return tuple((N - s) / (2.0 * (2.0 * N) ** (2.0 / 3.0)) for s, _ in _resolve(q)[0])


def scaled_finite_kernel(q: LimitQuery, j: int, k: int) -> float:
    """Gauge-free scaled finite-N kernel between query points j and k.

    Diagonal entries carry no gauge; off-diagonal entries report the geometric
    mean magnitude of the (j,k),(k,j) pair signed by the pair product, which
    is exactly the gauge-invariant content of the pair (the sign of a single
    entry is itself gauge).
    """
    pts, scale = _resolve(q)
    proc = ProcessSpec(q.ensemble, q.N)
    pj = SpeciesPoint(*pts[j])
    pk = SpeciesPoint(*pts[k])
    # F's diagonal is K's, and F_jk F_kj = K_jk K_kj
    fjk = kernel_F(proc, pj, pk)
    if j == k:
        return scale * fjk
    fkj = kernel_F(proc, pk, pj)
    if fjk == 0.0 or fkj == 0.0:
        return 0.0
    mag = scale * math.sqrt(abs(fjk)) * math.sqrt(abs(fkj))
    return mag if (fjk > 0.0) == (fkj > 0.0) else -mag


def limit_kernel(q: LimitQuery, j: int, k: int) -> float:
    """The predicted limit for scaled_finite_kernel(q, j, k), gauge-freed the
    same way (geometric mean of the (j,k),(k,j) pair off the diagonal)."""
    if q.regime == SOFT_FIXED or j == k:
        # the Airy kernel is gauge-free and may be negative, which the
        # geometric mean below would turn into |K|
        return _limit_entry_raw(q, j, k)
    vjk, vkj = _limit_entry_raw(q, j, k), _limit_entry_raw(q, k, j)
    if vjk == 0.0 or vkj == 0.0:
        return 0.0
    return math.copysign(math.sqrt(abs(vjk * vkj)), vjk * vkj)


def convergence_report(regime: str, ensemble: op.EnsembleSpec, n_list, offsets,
                       positions, *, pairs=None, mode: str = "entry") -> dict:
    """Tabulate |scaled finite-N value - limit| across N with an order estimate.

    mode "entry" compares gauge-free kernel entries at the given index pairs;
    mode "det2" compares the 2x2 determinant built from the first two points.
    """
    n_list = list(n_list)
    if len(n_list) < 3:
        raise ValueError("need at least 3 values of N")
    offsets = tuple(offsets)
    positions = tuple(positions)
    if pairs is None:
        pairs = [(i, i) for i in range(len(offsets))]
    rows = []
    for N in n_list:
        q = LimitQuery(regime, ensemble, N, offsets, positions)
        if mode == "det2":
            fin = _det2(lambda a, b: scaled_finite_kernel(q, a, b))
            lim = _det2(lambda a, b: _limit_entry_raw(q, a, b))
            errs = [abs(fin - lim)]
            vals, lims = [fin], [lim]
        else:
            vals = [scaled_finite_kernel(q, a, b) for a, b in pairs]
            lims = [limit_kernel(q, a, b) for a, b in pairs]
            errs = [abs(v - l) for v, l in zip(vals, lims)]
        rows.append({"N": N, "values": vals, "limits": lims, "max_error": max(errs)})
    errors = [r["max_error"] for r in rows]
    orders = [math.log(e0 / e1) / math.log(n1 / n0)
              for e0, e1, n0, n1 in zip(errors, errors[1:], n_list, n_list[1:]) if e1 > 0 and e0 > 0]
    return {
        "regime": regime,
        "ensemble": ensemble.kind,
        "a": ensemble.a,
        "b": ensemble.b,
        "N_list": n_list,
        "offsets": list(offsets),
        "positions": list(positions),
        "mode": mode,
        "rows": rows,
        "errors": errors,
        "order_estimate": (sum(orders) / len(orders)) if orders else None,
        "converged": all(a > b for a, b in zip(errors, errors[1:])),
    }


def _det2(entry) -> float:
    return entry(0, 0) * entry(1, 1) - entry(0, 1) * entry(1, 0)


def _limit_entry_raw(q: LimitQuery, a: int, b: int) -> float:
    """Raw (possibly gauge-carrying) limit entry; only determinants of these
    are compared, so the internal gauge is irrelevant."""
    if q.regime == SOFT_FIXED:
        return airy_kernel(q.positions[a], q.positions[b])
    if q.regime == BULK:
        return bead_kernel(int(q.offsets[a]), q.positions[a], int(q.offsets[b]), q.positions[b])
    if q.regime == HARD_EDGE:
        return hard_edge_kernel(q.ensemble.a, int(q.offsets[a]), q.positions[a],
                                int(q.offsets[b]), q.positions[b])
    sgn = -1.0 if q.ensemble.kind == op.GAUSSIAN else 1.0
    return extended_airy(sgn * q.offsets[a], q.positions[a], sgn * q.offsets[b], q.positions[b])


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def report_to_csv(report: dict) -> str:
    lines = ["N,max_error," + ",".join(f"value_{i}" for i in range(len(report["rows"][0]["values"])))]
    for r in report["rows"]:
        lines.append(f'{r["N"]},{r["max_error"]:.17g},' + ",".join(f"{v:.17g}" for v in r["values"]))
    return "\n".join(lines) + "\n"
