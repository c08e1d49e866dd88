"""Independent oracles and statistical comparison machinery.

brute_force_marginal integrates the joint interlaced density directly with
nested Gauss-Legendre rules (no kernel formulas involved), at N <= 3.
empirical_density and compare link Monte Carlo output to predicted densities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from . import orthopoly as op
from .kernel import ProcessSpec, SpeciesPoint
from .numerics import gauss_legendre

__all__ = [
    "SUP_NORM",
    "ComparisonReport",
    "DensityEstimate",
    "brute_force_marginal",
    "empirical_density",
    "compare",
    "ks_two_sample",
    "sidak_z",
    "sup_norm_bound",
    "support_box",
]

SUP_NORM = "sup-norm"
KOLMOGOROV_SMIRNOV = "ks"
CHI_SQUARE = "chi2"

# asymptotic 1% Kolmogorov-Smirnov coefficient: sqrt(-ln(alpha/2)/2)
KS_COEFF_1PCT = math.sqrt(-math.log(0.005) / 2.0)

# default per-bin sup-norm bound: family-wise false-alarm rate and the
# absolute floor below which no bin is held
SUP_NORM_ALPHA = 0.01
SUP_NORM_FLOOR = 0.02


@dataclass(frozen=True)
class ComparisonReport:
    test: str
    statistic: float
    threshold: float
    draws: int
    seed: int
    passed: bool


@dataclass(frozen=True)
class DensityEstimate:
    """Histogram estimate of a species one-point function, total mass = species."""

    edges: np.ndarray
    density: np.ndarray
    draws: int
    species: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


# ---------------------------------------------------------------------------
# brute-force quadrature of the joint density
# ---------------------------------------------------------------------------


def support_box(spec: op.EnsembleSpec, N: int) -> tuple[float, float]:
    """(lo, hi) of the truncated integration box of brute_force_marginal: it
    carries all but ~1e-15 of the mass of every species for N <= 3."""
    if spec.kind == op.GAUSSIAN:
        return (-6.5, 6.5)
    if spec.kind == op.LAGUERRE:
        return (0.0, 45.0 + 6.0 * (spec.a + N))
    return (0.0, 1.0)


def _base_edges(spec: op.EnsembleSpec, N: int) -> list[float]:
    lo, hi = support_box(spec, N)
    if spec.kind == op.JACOBI:
        return [0.0, 0.02, 0.12, 0.5, 0.88, 0.98, 1.0]
    return list(np.linspace(lo, hi, 6))


def _nested_nodes(lo, hi, edges, n: int):
    """Panelized GL nodes/weights on [lo, hi] (arrays ok), split at the edges.

    Returns (nodes, weights) with one new trailing axis; empty segments get
    zero weight.
    """
    xg, wg = gauss_legendre(n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    cuts = [-np.inf] + list(edges) + [np.inf]
    nodes, weights = [], []
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        s_lo = np.maximum(lo, c0)
        s_hi = np.minimum(hi, c1)
        half = np.maximum(0.5 * (s_hi - s_lo), 0.0)
        mid = 0.5 * (s_hi + s_lo)
        nodes.append(mid[..., None] + half[..., None] * xg)
        weights.append(half[..., None] * wg)
    return np.concatenate(nodes, axis=-1), np.concatenate(weights, axis=-1)


def _gap_moments(lo, hi, kind: str, cut=None):
    """Exact integrals over (lo, hi): kind "one"/"x" with an optional one-sided
    cut ("above": x > cut, "below": x < cut)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if cut is not None:
        side, c = cut
        if side == "above":
            lo = np.maximum(lo, c)
        else:
            hi = np.minimum(hi, c)
    width = np.maximum(hi - lo, 0.0)
    return width if kind == "one" else 0.5 * width * (hi + lo) * (hi > lo)


def _lower_integral(spec, N, tops, pins1, pins2):
    """Integral over species < N given top-species values, with pinned targets.

    tops is the list [t_1 > t_2 > ...] of broadcast arrays.  pins1/pins2 are
    the pinned positions in species 1 and 2 (only N <= 3 is supported, so
    deeper species do not occur).
    """
    if N == 1:
        return 1.0
    if N == 2:
        t1, t2 = tops
        if pins1:
            (y1,) = pins1
            return ((t2 < y1) & (y1 < t1)).astype(float)
        return _gap_moments(t2, t1, "one")
    t1, t2, t3 = tops
    # species 2 lives in the gaps (t2, t1) and (t3, t2); species 1 sits
    # between the two species-2 points, which splits into separable factors
    if pins1:
        (y1,) = pins1
        terms = [(("one", ("above", y1)), ("one", ("below", y1)), 1.0)]
    else:
        terms = [(("x", None), ("one", None), 1.0), (("one", None), ("x", None), -1.0)]
    total = 0.0
    ps = sorted(pins2, reverse=True)
    for (ka, ca), (kb, cb), sign in terms:
        # slot u in (t2, t1), slot v in (t3, t2); pins placed by ordering
        if len(ps) == 2:
            ya, yb = ps
            mask = ((t2 < ya) & (ya < t1) & (t3 < yb) & (yb < t2)).astype(float)
            total = total + sign * mask * _point_factor(ka, ca, ya) * _point_factor(kb, cb, yb)
        elif len(ps) == 1:
            (ya,) = ps
            in_u = ((t2 < ya) & (ya < t1)).astype(float)
            in_v = ((t3 < ya) & (ya < t2)).astype(float)
            term_u = in_u * _point_factor(ka, ca, ya) * _gap_moments(t3, t2, kb, cb)
            term_v = in_v * _gap_moments(t2, t1, ka, ca) * _point_factor(kb, cb, ya)
            total = total + sign * (term_u + term_v)
        else:
            total = total + sign * _gap_moments(t2, t1, ka, ca) * _gap_moments(t3, t2, kb, cb)
    return total


def _point_factor(kind, cut, y):
    ok = 1.0
    if cut is not None:
        side, c = cut
        ok = float(y > c) if side == "above" else float(y < c)
    return ok * (y if kind == "x" else 1.0)


def _joint_integral(spec: op.EnsembleSpec, N: int, pins: dict) -> float:
    """Quadrature of the unnormalized joint density with pinned targets."""
    box_lo, box_hi = support_box(spec, N)
    pinvals = sorted(v for vals in pins.values() for v in vals)
    edges = sorted(set(_base_edges(spec, N)) | set(pinvals))
    n_nodes = {op.GAUSSIAN: 20, op.LAGUERRE: 24, op.JACOBI: 16}[spec.kind]
    top_pins = sorted(pins.get(N, []), reverse=True)
    pins1 = sorted(pins.get(1, [])) if N > 1 else []
    pins2 = sorted(pins.get(2, [])) if N > 2 else []

    total = 0.0
    # choose which ordered top slots carry the pinned values
    for slots in itertools.combinations(range(N), len(top_pins)):
        tops: list = []
        wts: list = []
        pin_iter = iter(top_pins)
        for j in range(N):
            hi = box_hi if j == 0 else tops[j - 1]
            if j in slots:
                y = next(pin_iter)
                mask = (np.asarray(hi) > y) if j > 0 else np.asarray(True)
                tops.append(np.asarray(y))
                wts.append(np.where(mask, 1.0, 0.0))
            else:
                nodes, weights = _nested_nodes(box_lo, hi, edges, n_nodes)
                tops = [np.asarray(t)[..., None] for t in tops]
                wts = [np.asarray(w)[..., None] for w in wts]
                tops.append(nodes)
                wts.append(weights)
        shape = np.broadcast_shapes(*[np.shape(t) for t in tops])
        tops_b = [np.broadcast_to(t, shape) for t in tops]
        f = np.ones(shape)
        for w in wts:
            f = f * w
        for j in range(N):
            # only at non-zero weight: an empty panel's nodes sit on the support's ends, where w may be infinite
            f = np.multiply(f, op.eval_weight(spec, tops_b[j]), out=np.zeros(shape), where=f != 0.0)
            for k in range(j + 1, N):
                f = f * (tops_b[j] - tops_b[k])
        f = f * _lower_integral(spec, N, tops_b, pins1, pins2)
        total += float(np.sum(f))
    return total


@lru_cache(maxsize=64)
def _normalization(spec: op.EnsembleSpec, N: int) -> float:
    return _joint_integral(spec, N, {})


def brute_force_marginal(proc: ProcessSpec, targets: list[SpeciesPoint]) -> float:
    """Correlation at the targets by direct quadrature of the joint density.

    Relative accuracy about 1e-4; restricted to N <= 3 and at most 5
    integrated-out dimensions.
    """
    if proc.N > 3:
        raise ValueError("brute force is limited to N <= 3")
    n_vars = proc.N * (proc.N + 1) // 2
    if n_vars - len(targets) > 5:
        raise ValueError("more than 5 integrated-out dimensions")
    pins: dict[int, list[float]] = {}
    for t in targets:
        if not 1 <= t.s <= proc.N:
            raise ValueError(f"species {t.s} outside [1, {proc.N}]")
        pins.setdefault(t.s, []).append(t.y)
    for s, vals in pins.items():
        if len(vals) > s:
            raise ValueError(f"more targets than particles in species {s}")
    val = _joint_integral(proc.ensemble, proc.N, pins)
    return val / _normalization(proc.ensemble, proc.N)


# ---------------------------------------------------------------------------
# empirical densities and comparisons
# ---------------------------------------------------------------------------


def empirical_density(positions, draws: int, species: int, edges) -> DensityEstimate:
    """Histogram estimate of rho_1(species, .) from pooled sampled positions.

    positions holds every species coordinate over all draws; the estimate is
    normalized per draw, so its total mass is the particle count (= species).
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    positions = np.asarray(positions, dtype=float).ravel()
    if positions.size == 0:
        raise ValueError("no positions for this species")
    edges = np.asarray(edges, dtype=float)
    counts, _ = np.histogram(positions, bins=edges)
    return DensityEstimate(edges, counts / (draws * np.diff(edges)), draws, species)


def sidak_z(alpha: float, bins: int) -> float:
    """Two-sided normal quantile that holds the family-wise false-alarm rate
    at alpha over `bins` independent bins (Sidak correction)."""
    per_bin = -math.expm1(math.log1p(-alpha) / bins)
    return float(-special.ndtri(0.5 * per_bin))


def sup_norm_bound(predicted, widths, draws: int, *,
                   family_bins: int | None = None) -> np.ndarray:
    """Per-bin tolerance max(0.02, z* sigma_b) for a histogram density estimate.

    sigma_b = sqrt(rho_b / (draws * width_b)) is the Poisson standard error of
    the bin density, taken from the predicted bin density rho_b; determinantal
    counts are sub-Poisson (Var N_B <= E N_B), so it bounds the true one.  z*
    is sidak_z(0.01, family_bins), family_bins defaulting to the bins given.
    """
    pred = np.maximum(np.asarray(predicted, dtype=float), 0.0)
    sigma = np.sqrt(pred / (draws * np.asarray(widths, dtype=float)))
    z = sidak_z(SUP_NORM_ALPHA, pred.size if family_bins is None else family_bins)
    return np.maximum(SUP_NORM_FLOOR, z * sigma)


def compare(predicted, estimate: DensityEstimate, test: str, *,
            threshold: float | None = None, seed: int = 0,
            family_bins: int | None = None) -> ComparisonReport:
    """Compare a predicted grid function with a density estimate.

    predicted is stated on the estimate's bin centers.  sup-norm with a
    threshold reports max |pred - density| against it.  Without one it holds
    each bin to sup_norm_bound (family-wise false-alarm rate 1% over
    family_bins, default the bins compared) and reports max |dev_b| / tol_b
    against 1.  ks and chi2 default to their 1% critical values.
    """
    pred = np.asarray(predicted, dtype=float)
    if pred.shape != estimate.centers.shape:
        raise ValueError("grid mismatch between prediction and estimate")
    widths = np.diff(estimate.edges)
    if test == SUP_NORM:
        dev = np.abs(pred - estimate.density)
        if threshold is None:
            tol = sup_norm_bound(pred, widths, estimate.draws, family_bins=family_bins)
            stat, thr = float(np.max(dev / tol)), 1.0
        else:
            stat, thr = float(np.max(dev)), threshold
    elif test == KOLMOGOROV_SMIRNOV:
        mass_p = np.cumsum(pred * widths)
        mass_e = np.cumsum(estimate.density * widths)
        scale = max(mass_p[-1], 1e-300)
        stat = float(np.max(np.abs(mass_p - mass_e)) / scale)
        n_eff = estimate.draws * estimate.species
        thr = KS_COEFF_1PCT / math.sqrt(n_eff) if threshold is None else threshold
    elif test == CHI_SQUARE:
        exp_counts = pred * widths * estimate.draws
        obs_counts = estimate.density * widths * estimate.draws
        keep = exp_counts >= 5.0
        stat = float(np.sum((obs_counts[keep] - exp_counts[keep]) ** 2 / exp_counts[keep]))
        dof = max(int(np.sum(keep)) - 1, 1)
        thr = float(2.0 * special.gammaincinv(dof / 2.0, 0.99)) if threshold is None else threshold
    else:
        raise ValueError(f"unknown test {test!r}")
    return ComparisonReport(test, stat, thr, estimate.draws, seed, stat < thr)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic, the largest gap between the two empirical
    CDFs, and its asymptotic 1% critical value."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    m, n = len(a), len(b)
    if not (m and n and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("KS needs two nonempty samples of finite values")
    # the gap can only peak at a sample point, where both ECDFs are right-continuous
    both = np.concatenate([a, b])
    stat = float(np.max(np.abs(np.searchsorted(a, both, side="right") / m
                               - np.searchsorted(b, both, side="right") / n)))
    crit = KS_COEFF_1PCT * math.sqrt((m + n) / (m * n))
    return stat, crit
