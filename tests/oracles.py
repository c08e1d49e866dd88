"""Independent evaluation routes used as test oracles.

The production kernel assembles K from weighted functions and quadratures of
the tail integrals.  Here the same quantities are computed through different
formulas: the symmetric-gauge entry for s >= t as a plain-float bilinear sum,
and for s < t as a finite bilinear part minus a chain convolution of the
closed-form kernels kappa(u) - chi_{v>u}, evaluated with panelized
Gauss-Legendre rules whose prefix integrals are taken exactly on the panel
interpolants.
"""

import math

import numpy as np
from scipy import special

from minorkern import orthopoly as op
from minorkern.kernel import ProcessSpec, SpeciesPoint


def kappa_tail(spec, shift, u):
    """Normalized tail integral of the shifted weight: int_u^inf w / N_0."""
    a, b = spec.a + shift, spec.b + shift
    u = np.asarray(u, dtype=float)
    if spec.kind == op.GAUSSIAN:
        return 0.5 * special.erfc(u)
    if spec.kind == op.LAGUERRE:
        return special.gammaincc(a + 1.0, np.maximum(u, 0.0))
    # the complement I_{1-u}(b+1, a+1), not 1 - I_u(a+1, b+1), which cancels near u = 1
    return special.betainc(b + 1.0, a + 1.0, np.clip(1.0 - u, 0.0, 1.0))


class PanelGrid:
    """Composite Gauss-Legendre grid with exact interpolant prefix integrals."""

    def __init__(self, edges, order=24):
        self.order = order
        xg, wg = np.polynomial.legendre.leggauss(order)
        self.xg = xg
        edges = np.asarray(edges, dtype=float)
        self.edges = edges
        self.half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        self.nodes = (mid[:, None] + self.half[:, None] * xg[None, :]).ravel()
        self.weights = (self.half[:, None] * wg[None, :]).ravel()
        # discrete Legendre transform: values at GL nodes -> coefficients
        k = np.arange(order)
        P = np.polynomial.legendre.legvander(xg, order - 1)  # (node, deg)
        self.to_coef = ((2 * k + 1) / 2.0)[:, None] * (P * wg[:, None]).T
        # antiderivative of the interpolant, evaluated back at the nodes:
        # int_{-1}^{xi} P_k = (P_{k+1}(xi) - P_{k-1}(xi)) / (2k+1) for k >= 1,
        # boundary terms at -1 cancel; k = 0 integrates to xi + 1
        Pext = np.polynomial.legendre.legvander(xg, order)
        self.prefix_mat = np.empty((order, order))
        self.prefix_mat[:, 0] = xg + 1.0
        for kk in range(1, order):
            self.prefix_mat[:, kk] = (Pext[:, kk + 1] - Pext[:, kk - 1]) / (2 * kk + 1)

    def integrate(self, vals):
        return float(np.dot(self.weights, vals))

    def prefix(self, vals):
        """Prefix integral int_{lo}^{node} of the panel interpolants, all nodes."""
        m = self.order
        v = vals.reshape(-1, m)
        coef = v @ self.to_coef.T
        panel_totals = 2.0 * coef[:, 0] * self.half
        base = np.concatenate([[0.0], np.cumsum(panel_totals)])[:-1]
        inner = (coef @ self.prefix_mat.T) * self.half[:, None]
        return (base[:, None] + inner).ravel()

    def value_at_edge(self, vals, edge_idx):
        """Prefix integral up to a panel edge."""
        m = self.order
        v = vals.reshape(-1, m)
        coef = v @ self.to_coef.T
        panel_totals = 2.0 * coef[:, 0] * self.half
        return float(np.sum(panel_totals[:edge_idx]))


def _grid_for(spec, N, kinks, n_panels=160, order=24):
    lo, hi = spec.support()
    if spec.kind == op.GAUSSIAN:
        lo, hi = -9.5, 9.5
    elif spec.kind == op.LAGUERRE:
        hi = 60.0 + 3.0 * (spec.a + N)
    if spec.kind == op.JACOBI:
        # cosine clustering absorbs the endpoint derivative singularities
        base = 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n_panels + 1)))
    else:
        base = np.linspace(lo, hi, n_panels + 1)
        base = lo + (hi - lo) * (np.linspace(0, 1, n_panels + 1))
    edges = np.unique(np.concatenate([base, np.clip(np.asarray(kinks, float), lo, hi)]))
    return PanelGrid(edges, order)


def f_entry_series(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> float:
    """Symmetric-gauge kernel entry from the bilinear-series route.

    For s >= t this is the finite sum evaluated in plain floats; for s < t the
    infinite part is resummed through the chain convolution of the closed-form
    transition kernels.
    """
    s, x = p1.s, p1.y
    t, y = p2.s, p2.y
    spec = proc.ensemble
    N = proc.N
    if s >= t:
        return _bilinear_sum(proc, s, t, x, y, range(1, t + 1))
    A = _bilinear_sum(proc, s, t, x, y, range(1, s + 1))
    return A - _chain_G(proc, s, t, x, y)


def _bilinear_sum(proc, s, t, x, y, ks):
    spec = proc.ensemble
    eta_x = op.eta_table(proc.family(s), s - 1, x)
    eta_y = op.eta_table(proc.family(t), t - 1, y)
    tot = 0.0
    for k in ks:
        sg1, lg1 = _log_gamma_coef(spec, proc.N - s, s - k)
        sg2, lg2 = _log_gamma_coef(spec, proc.N - t, t - k)
        tot += sg1 * sg2 * math.exp(lg1 - lg2) * float(eta_x[s - k]) * float(eta_y[t - k])
    return tot


def _log_gamma_coef(spec, shift, j):
    """(sign, log) of gamma_j = e_j * sqrt(N_j) for the shifted family."""
    lg = op.log_abs_e(spec.kind, j) + 0.5 * op.log_norm_constant(op.ShiftedFamily(spec, shift), j)
    return op.sign_e(spec.kind, j), lg


def _chain_G(proc, s, t, x, y):
    """G^(s,t)(x,y) = (phi~_{s+1} * ... * phi~_t)(x,y) in the symmetric gauge."""
    spec = proc.ensemble
    N = proc.N
    denom = math.exp(0.5 * op.log_weight(proc.family(s), x))
    wy = math.exp(0.5 * op.log_weight(proc.family(t), y))
    if t - s == 1:
        red = float(kappa_tail(spec, N - t, np.asarray(x))) - (1.0 if y > x else 0.0)
        return wy * red / denom
    grid = _grid_for(spec, N, [x, y])
    u = grid.nodes
    psi = (kappa_tail(spec, N - s - 1, np.full_like(u, x)) - (u > x)) / denom
    y_edge = int(np.searchsorted(grid.edges, y))
    for lvl in range(1, t - s):
        shift = N - (s + lvl + 1)
        kap = kappa_tail(spec, shift, u)
        g_hi = psi * kap            # integrated from v to hi
        g_lo = psi * (kap - 1.0)    # integrated from lo to v
        if lvl < t - s - 1:
            pre_hi = grid.prefix(g_hi)
            pre_lo = grid.prefix(g_lo)
            psi = (grid.integrate(g_hi) - pre_hi) + pre_lo
        else:
            tail = grid.integrate(g_hi) - grid.value_at_edge(g_hi, y_edge)
            head = grid.value_at_edge(g_lo, y_edge)
            return wy * (tail + head)
    raise AssertionError("unreachable")


def f_entry_direct(proc: ProcessSpec, p1: SpeciesPoint, p2: SpeciesPoint) -> float:
    """Plain-float route for s >= t: weights, polynomials and norms directly."""
    s, x = p1.s, p1.y
    t, y = p2.s, p2.y
    if s < t:
        raise ValueError("direct route needs s >= t")
    spec = proc.ensemble
    fam_s, fam_t = proc.family(s), proc.family(t)
    ws = op.eval_weight(fam_s, x)
    wt = op.eval_weight(fam_t, y)
    tot = 0.0
    for k in range(1, t + 1):
        e_ratio = math.exp(op.log_abs_e(spec.kind, s - k) - op.log_abs_e(spec.kind, t - k))
        e_ratio *= op.sign_e(spec.kind, s - k) * op.sign_e(spec.kind, t - k)
        nrm = math.exp(op.log_norm_constant(fam_t, t - k))
        tot += (
            e_ratio
            * op.eval_poly(fam_s, s - k, x)
            * op.eval_poly(fam_t, t - k, y)
            / nrm
        )
    return math.sqrt(ws * wt) * tot
