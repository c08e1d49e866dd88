"""Limit kernels (Airy, extended Airy, bulk bead, hard-edge Bessel) and
gauge-free evaluation of the finite-N kernel under the edge/bulk scalings.

Conjugation prefactors of the finite-N statements blow up in double precision
and cancel in every determinant, so convergence checks work exclusively with
gauge-invariant combinations: diagonals, (j,k)(k,j) products, and small
determinants.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import orthopoly as op
from .kernel import ProcessSpec, SpeciesPoint, kernel_F, kernel_matrix
from .numerics import NumericError, clenshaw_curtis, gl_nodes, slog_to_float

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
    "report_to_csv",
]

SOFT_FIXED = "soft"
BULK = "bulk"
HARD_EDGE = "hard"
SOFT_DRIFT = "soft-drift"
REGIMES = (SOFT_FIXED, BULK, HARD_EDGE, SOFT_DRIFT)
# the families whose finite-N process each regime's scaling map is set up for
REGIME_FAMILIES = {
    SOFT_FIXED: (op.GAUSSIAN, op.LAGUERRE),
    BULK: (op.GAUSSIAN,),
    HARD_EDGE: (op.LAGUERRE,),
    SOFT_DRIFT: (op.GAUSSIAN, op.LAGUERRE),
}


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
        if self.ensemble.kind not in REGIME_FAMILIES[self.regime]:
            raise ValueError(f"{self.regime} scaling is set up for "
                             f"{' and '.join(REGIME_FAMILIES[self.regime])}, not {self.ensemble.kind}")


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


# _airy_integral's rule: nested Clenshaw-Curtis rules of AIRY_NODES and
# 2 AIRY_NODES intervals on panels of [0, U].  The integrand is at most e^L(u)
# (_airy_panels); U is where L has fallen AIRY_DROP below its top, and a panel
# spans at most AIRY_SPAN of L, AIRY_PHASE radians of the two factors'
# oscillation and AIRY_WIDTH in u, up to AIRY_MAX_PANELS panels.  The two
# rules must agree to max(AIRY_ABS, AIRY_REL |value|)
AIRY_NODES = 32
AIRY_DROP, AIRY_SPAN, AIRY_PHASE, AIRY_WIDTH, AIRY_MAX_PANELS = 40.0, 40.0, 16.0, 20.0, 256
AIRY_ABS, AIRY_REL = 1e-13, 1e-11


def _airy_integral(tau: float, x: float, y: float, d: float = 1.0) -> float:
    """int_0^inf e^(-tau u) Ai(x + d u) Ai(y + d u) du for d = +-1, by the
    panel rule above in one airy call; raises NumericError when the coarse
    and the fine rule differ by more than the requested accuracy."""
    edges = _airy_panels(tau, x, y, d)
    fine, wf = clenshaw_curtis(2 * AIRY_NODES)
    wc = clenshaw_curtis(AIRY_NODES)[1]
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half * (fine + 1.0)).ravel()
    ai = special.airy(x + d * u if x == y else np.concatenate([x + d * u, y + d * u]))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        f = (np.exp(-tau * u) * ai[:u.size] * ai[-u.size:]).reshape(half.shape[0], -1) * half
        val, coarse = float((f @ wf).sum()), float((f[:, ::2] @ wc).sum())
    if not abs(val - coarse) <= max(AIRY_ABS, AIRY_REL * abs(val)):
        raise NumericError(f"Airy integral at tau={tau}, x={x}, y={y}, d={d}: the {AIRY_NODES}- and "
                           f"{2 * AIRY_NODES}-interval rules differ by {abs(val - coarse):.1e}")
    return val


def _airy_panels(tau, x, y, d):
    """Panel edges on [0, U] for _airy_integral.  With z = max(0, x + d u)
    and likewise for y, |Ai(z)| <= min(1, e^(-(2/3) z^(3/2))) bounds the
    integrand by e^L, L(u) = -tau u - (2/3) (z_x^(3/2) + z_y^(3/2)), which is
    concave: it rises to one top and falls from there on."""
    def L(u):  # (L, L')
        zx, zy = max(0.0, x + d * u), max(0.0, y + d * u)
        return -tau * u - (zx * math.sqrt(zx) + zy * math.sqrt(zy)) / 1.5, -tau - d * (math.sqrt(zx) + math.sqrt(zy))

    # the top solves sqrt(x + w) + sqrt(y + w) = c, u = d w, c = -d tau; past
    # c^2 = |x - y| only the larger of x + w, y + w is positive there
    top, c, delta = 0.0, -d * tau, x - y
    if c > 0.0:
        top = max(0.0, d * (((c + delta / c) / 2.0) ** 2 - x if c * c >= abs(delta) else c * c - max(x, y)))
    level = L(top)[0] - AIRY_DROP
    # Newton on L(u) = level from past the top, where L' < 0: L is concave, so
    # every step after the first lands at or past the root, and U errs long
    U = max(top, -min(x, y) if d > 0 else 0.0) + 1.0
    for _ in range(16):
        val, slope = L(U)
        if val <= level and val - level >= 1e-3 * slope:
            break
        U -= (val - level) / slope

    def rate(u):  # radians per unit u of Ai(x + d u) Ai(y + d u) where it oscillates
        return math.sqrt(max(0.0, -(x + d * u))) + math.sqrt(max(0.0, -(y + d * u)))

    def span(a, b):  # the range of L over [a, b]
        return L(min(max(top, a), b))[0] - min(L(a)[0], L(b)[0])

    edges = [0.0]
    while edges[-1] < U:
        if len(edges) > AIRY_MAX_PANELS:
            raise NumericError(f"Airy integral at tau={tau}, x={x}, y={y}, d={d}: "
                               f"more than {AIRY_MAX_PANELS} panels up to u={U:.3g}")
        a = edges[-1]
        b = min(U, a + AIRY_WIDTH)
        while (b - a) * max(rate(a), rate(b)) > AIRY_PHASE or span(a, b) > AIRY_SPAN:
            b = a + 0.75 * (b - a)
        edges.append(b)
    return np.array(edges)


def extended_airy(tau_x: float, x: float, tau_y: float, y: float) -> float:
    """Two-time Airy-process kernel entry."""
    if abs(tau_x) > 5 or abs(tau_y) > 5:
        raise ValueError("time offsets limited to [-5, 5]")
    tau = tau_y - tau_x
    if tau >= 0:
        return _airy_integral(tau, x, y)
    # -int_{-inf}^0 e^(t u) Ai(x+u) Ai(y+u) du with t = -tau.  Over the whole
    # line the integral is Gaussian (Prahofer-Spohn 2002), so the half line is
    # that minus [0, inf), which decays super-exponentially; held to 1e-11 of
    # itself, about the Gaussian, it serves a Gaussian up to 100 and an entry
    # down to 1e-2 of it.  Elsewhere e^(t u) decays fast enough to integrate
    # (-inf, 0], with the difference as the fallback where that rule fails
    t = -tau
    line = math.exp(t**3 / 12.0 - t * (x + y) / 2.0 - (x - y) ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    diff = None
    if line <= 100.0:
        with contextlib.suppress(NumericError):
            diff = _airy_integral(tau, x, y) - line
            if abs(diff) >= 1e-2 * line:
                return diff
    try:
        return -_airy_integral(t, x, y, -1.0)
    except NumericError:
        if diff is None:
            raise
        return diff


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
    if m >= 0:
        return ((-1j) ** m * _poly_osc_integral_01(m, beta)).real
    if u == 0.0:
        # cos(pi m / 2) vanishes for odd m; otherwise the plain power integral
        return math.cos(0.5 * math.pi * m) / (m + 1) if m <= -2 else 0.0
    return -((-1j) ** m * _exp_integral_imag(-m, -beta)).real


def _poly_osc_integral_01(m: int, beta: float) -> complex:
    """int_0^1 s^m e^(i beta s) ds.  For small beta the series about s = 1,
    e^(i beta) sum_k (-i beta)^k m! / (m + k + 1)!, whose terms shrink from
    the first on; the upward recursion otherwise."""
    ib = 1j * beta
    if abs(beta) < max(2.0, 0.5 * m):
        tot, term, j = 0.0j, 1.0 / (m + 1), m + 1
        while abs(term) > 1e-17 * abs(tot):
            tot += term
            j += 1
            term *= -ib / j
        return cmath.exp(ib) * tot
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


def _rate(q: LimitQuery):
    """Species per unit offset, s = N - rate c: 1 outside SOFT_DRIFT, whose
    offsets are whole, and the drift's N^(2/3) scale under it."""
    if q.regime != SOFT_DRIFT:
        return 1
    return -2.0 * q.N ** (2.0 / 3.0) if q.ensemble.kind == op.GAUSSIAN else 2.0 * (2.0 * q.N) ** (2.0 / 3.0)


def _resolve(q: LimitQuery):
    """Map (offsets, positions) to model species/coordinates plus the scale."""
    kind, N, rate = q.ensemble.kind, q.N, _rate(q)
    species = [int(round(N - rate * (c if q.regime == SOFT_DRIFT else int(c)))) for c in q.offsets]
    for s in species:
        if not 1 <= s <= N:
            raise ValueError(f"mapped species {s} lands outside [1, {N}]")
    scale = 1.0 / (math.sqrt(2.0) * N ** (1.0 / 6.0)) if kind == op.GAUSSIAN else 2.0 * (2.0 * N) ** (1.0 / 3.0)
    if q.regime == SOFT_FIXED:
        edge = math.sqrt(2.0 * N) if kind == op.GAUSSIAN else 4.0 * N + 2.0 * q.ensemble.a
        ys = [edge + Y * scale for Y in q.positions]
    elif q.regime in (BULK, HARD_EDGE):
        scale = math.pi / math.sqrt(2.0 * N) if q.regime == BULK else 1.0 / (4.0 * N)
        ys = [Y * scale for Y in q.positions]
    elif kind == op.GAUSSIAN:  # SOFT_DRIFT
        ys = [math.sqrt(2.0 * s) + Y / (math.sqrt(2.0) * s ** (1.0 / 6.0)) for s, Y in zip(species, q.positions)]
    else:  # SOFT_DRIFT, laguerre: LimitQuery admits no other family
        # species s has effective exponent a + N - s; its edge is
        # (sqrt(s) + sqrt(s + a + N - s))^2, which the 4s + 2(a+N-s)
        # form only matches to within O(1) of the fluctuation scale
        ys = [(math.sqrt(s) + math.sqrt(s + (q.ensemble.a + N - s))) ** 2 + scale * Y
              for s, Y in zip(species, q.positions)]
    return list(zip(species, ys)), scale


def realized_offsets(q: LimitQuery) -> tuple[float, ...]:
    """Offsets implied by the rounded species indices actually used, (N - s) / rate."""
    # + 0.0 keeps an offset of 0 unsigned where the rate is negative
    return tuple((q.N - s) / _rate(q) + 0.0 for s, _ in _resolve(q)[0])


def scaled_finite_kernel(q: LimitQuery, j: int, k: int) -> float:
    """Gauge-free scaled finite-N kernel between query points j and k.

    Diagonal entries carry no gauge; off-diagonal entries report the geometric
    mean magnitude of the (j,k),(k,j) pair signed by the pair product, which
    is exactly the gauge-invariant content of the pair (the sign of a single
    entry is itself gauge).  The pair is formed from the entries' logs, which
    stay in range where the entries themselves do not.
    """
    pts, scale = _resolve(q)
    proc = ProcessSpec(q.ensemble, q.N)
    pj, pk = SpeciesPoint(*pts[j]), SpeciesPoint(*pts[k])
    if j == k:  # F's diagonal is K's
        return scale * kernel_F(proc, pj, pj)
    signs, logs = kernel_matrix(proc, [pj, pk])
    # a pair holding a zero entry has sign 0 and is 0, whatever the other log
    return scale * slog_to_float(signs.item(0, 1) * signs.item(1, 0), 0.5 * (logs.item(0, 1) + logs.item(1, 0)))


def limit_kernel(q: LimitQuery, j: int, k: int) -> float:
    """The predicted limit for scaled_finite_kernel(q, j, k), gauge-freed the
    same way in every regime (geometric mean of the (j,k),(k,j) pair off the
    diagonal, signed by its product)."""
    if j == k:
        return _limit_entry_raw(q, j, k)
    prod = _limit_entry_raw(q, j, k) * _limit_entry_raw(q, k, j)
    return math.copysign(math.sqrt(abs(prod)), prod) if prod else 0.0


def convergence_report(regime: str, ensemble: op.EnsembleSpec, n_list, offsets,
                       positions, *, pairs=None) -> dict:
    """Tabulate |scaled finite-N value - limit| across N with an order estimate,
    comparing gauge-free kernel entries at the given index pairs."""
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
        "mode": "entry",
        "rows": rows,
        "errors": errors,
        "order_estimate": (sum(orders) / len(orders)) if orders else None,
        "converged": all(a > b for a, b in zip(errors, errors[1:])),
    }


def _limit_entry_raw(q: LimitQuery, a: int, b: int) -> float:
    """Raw (possibly gauge-carrying) limit entry; only its gauge-free
    combinations are compared, so the internal gauge is irrelevant."""
    if q.regime == SOFT_FIXED:
        return airy_kernel(q.positions[a], q.positions[b])
    if q.regime == BULK:
        return bead_kernel(int(q.offsets[a]), q.positions[a], int(q.offsets[b]), q.positions[b])
    if q.regime == HARD_EDGE:
        return hard_edge_kernel(q.ensemble.a, int(q.offsets[a]), q.positions[a],
                                int(q.offsets[b]), q.positions[b])
    sgn = -1.0 if q.ensemble.kind == op.GAUSSIAN else 1.0
    return extended_airy(sgn * q.offsets[a], q.positions[a], sgn * q.offsets[b], q.positions[b])


def report_to_csv(report: dict) -> str:
    lines = ["N,max_error," + ",".join(f"value_{i}" for i in range(len(report["rows"][0]["values"])))]
    for r in report["rows"]:
        lines.append(f'{r["N"]},{r["max_error"]:.17g},' + ",".join(f"{v:.17g}" for v in r["values"]))
    return "\n".join(lines) + "\n"
