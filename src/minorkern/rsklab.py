"""Lattice models: site sampling, last passage times, RSK shapes, and the
discrete multi-block joint weight with its continuum (Jacobi) limit.

The discrete joint weight is implemented in the h-variable form.  Two details
differ from the common typeset version of the formula, both fixed here and
cross-checked in the tests against an independent product-of-Schur-functions
evaluation and against normalization: the interlacing condition between
consecutive h-vectors is strict/weak as induced by the partition interlacing
(h_1^(s) > h_1^(s-1) >= h_2^(s) > ...), and the constant carries
z^(-C(n2+p,2)-C(n2,2)) prod_s alpha_s^(-(n2+s-1)).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import interlaced
from .samplers import (
    LUE_UPDATE,
    SecularProblem,
    draw_streams,
    sample_lue_batch,
    secular_roots,
)
from .validate import ks_two_sample

__all__ = [
    "Geometric",
    "ExponentialHomogeneous",
    "ExponentialJacobi",
    "ExponentialInhomogeneous",
    "LatticeConfig",
    "ShapeSequence",
    "sample_lattice",
    "sample_lattice_batch",
    "last_passage",
    "rsk_shape_sequence",
    "eval_discrete_joint",
    "eval_jacobi_limit_pdf",
    "jacobi_limit_pdf_y",
    "specialized_weight_form",
    "sample_wishart_chain_inhomogeneous",
    "lpp_eigenvalue_bridge_test",
]


@dataclass(frozen=True)
class Geometric:
    """Geometric sites: parameter z^2 t^(i+j-2) in the first n2 columns and
    alpha_s z t^(i-1) in extra column s."""

    z: float
    t: float
    alphas: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExponentialHomogeneous:
    rate: float = 1.0


@dataclass(frozen=True)
class ExponentialJacobi:
    """Exponential sites with rates i+j-2+2a (first n2 columns) and
    i-1+a+a_s (extra column s)."""

    a: float
    a_s: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExponentialInhomogeneous:
    """Exponential sites with rate pi_i + pihat_j."""

    pis: tuple[float, ...]
    pihats: tuple[float, ...]


@dataclass(frozen=True)
class LatticeConfig:
    """Grid shape n1 x (n2 + p) plus the site weight model."""

    n1: int
    n2: int
    p: int
    model: object

    def __post_init__(self):
        if self.n1 < self.n2 + self.p:
            raise ValueError("need n1 >= n2 + p")
        m = self.model
        if isinstance(m, Geometric):
            if not 0 < m.t < 1 or not 0 < m.z:
                raise ValueError("need t in (0,1) and z > 0")
            if len(m.alphas) != self.p:
                raise ValueError("need one alpha per extra column")
            if not ((self._sites > 0) & (self._sites < 1)).all():
                raise ValueError("site parameters z^2 t^(i+j-2) and alpha_s z t^(i-1) must lie in (0,1)")
        elif not (self._sites > 0).all():
            raise ValueError("need a positive rate at every site")

    def cols(self) -> int:
        return self.n2 + self.p

    @functools.cached_property
    def _sites(self) -> np.ndarray:
        """The (n1, n2 + p) grid of site parameters q_ij (Geometric) or of
        exponential rates, row i from the bottom, column j."""
        m, n2 = self.model, self.n2
        i = np.arange(self.n1)[:, None]  # i - 1
        j = np.arange(n2)[None, :]  # j - 1, first n2 columns
        if isinstance(m, Geometric):
            return np.hstack([m.z**2 * m.t ** (i + j), np.asarray(m.alphas) * m.z * m.t**i])
        if isinstance(m, ExponentialHomogeneous):
            return np.full((self.n1, self.cols()), m.rate)
        if isinstance(m, ExponentialJacobi):
            if len(m.a_s) < self.p:
                raise ValueError("need one a_s per extra column")
            return np.hstack([i + j + 2 * m.a, i + m.a + np.asarray(m.a_s[: self.p])])
        if isinstance(m, ExponentialInhomogeneous):
            if len(m.pis) < self.n1 or len(m.pihats) < self.cols():
                raise ValueError("rate vectors shorter than the grid")
            return np.add.outer(np.asarray(m.pis[: self.n1]), np.asarray(m.pihats[: self.cols()]))
        raise TypeError(f"unknown weight model {type(m).__name__}")


@dataclass(frozen=True)
class ShapeSequence:
    """Shapes mu^(0)..mu^(p) of the nested sub-blocks, with h-variables."""

    shapes: tuple[tuple[int, ...], ...]
    n2: int

    def h(self, s: int) -> list[int]:
        """h_j^(s) = mu_j^(s) + (n2 + s) - j, padded to length n2 + s."""
        mu = list(self.shapes[s]) + [0] * (self.n2 + s)
        return [mu[j] + self.n2 + s - (j + 1) for j in range(self.n2 + s)]

    def interlaced(self) -> bool:
        return all(interlaced(self.h(s), self.h(s - 1), weak=True) for s in range(1, len(self.shapes)))


def sample_lattice(cfg: LatticeConfig, seed: int, draw: int = 0) -> np.ndarray:
    """One grid of independent site values, row i from the bottom, column j;
    row `draw` of sample_lattice_batch."""
    return sample_lattice_batch(cfg, 1, seed, start=draw)[0]


def sample_lattice_batch(cfg: LatticeConfig, draws: int, seed: int, start: int = 0) -> np.ndarray:
    """Grids (draws, n1, n2 + p) of draws start, ..., start + draws - 1, one
    generator call per draw on its own stream."""
    geometric = isinstance(cfg.model, Geometric)
    param = 1.0 - cfg._sites if geometric else 1.0 / cfg._sites
    out = np.empty((draws,) + param.shape)
    for gen, grid in zip(draw_streams(seed, start, draws), out):
        grid[...] = gen.geometric(param) - 1 if geometric else gen.exponential(param)
    return out


def last_passage(grid: np.ndarray, m: int, n: int) -> float:
    """Maximal up/right path sum from (1,1) to (m,n): last_passage_batch of the one grid."""
    grid = np.asarray(grid)
    if not (1 <= m <= grid.shape[0] and 1 <= n <= grid.shape[1]):
        raise ValueError("endpoint outside the grid")
    return float(last_passage_batch(grid[None, :m, :n])[0])


def last_passage_batch(grids: np.ndarray) -> np.ndarray:
    """l(m, n) for a stack of grids (draws, m, n)."""
    d, m, n = grids.shape
    l = np.zeros((d, m + 1, n + 1))
    l[:, 0, :] = -np.inf
    l[:, :, 0] = -np.inf
    l[:, 0, 1] = 0.0
    l[:, 1, 0] = 0.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            l[:, i, j] = grids[:, i - 1, j - 1] + np.maximum(l[:, i - 1, j], l[:, i, j - 1])
    return l[:, m, n]


def _rsk_shape(grid: np.ndarray) -> tuple[int, ...]:
    """Shape of the insertion tableau of the biword read row-by-row (bottom
    row first, columns left to right)."""
    rows: list[list[int]] = []
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            for _ in range(int(grid[i, j])):
                v = j
                for row in rows:
                    k = bisect.bisect_right(row, v)
                    if k == len(row):
                        row.append(v)
                        v = None
                        break
                    row[k], v = v, row[k]
                if v is not None:
                    rows.append([v])
    return tuple(len(r) for r in rows)


def rsk_shape_sequence(grid: np.ndarray, p: int) -> ShapeSequence:
    """Shapes of the principal n1 x (n2+s) sub-blocks, s = 0..p."""
    grid = np.asarray(grid)
    if np.any(grid < 0) or not np.issubdtype(grid.dtype, np.integer):
        grid = grid.astype(int)
    cols = grid.shape[1]
    n2 = cols - p
    if n2 < 1:
        raise ValueError("need p < number of columns")
    shapes = tuple(_rsk_shape(grid[:, : n2 + s]) for s in range(p + 1))
    return ShapeSequence(shapes, n2)


@functools.lru_cache(maxsize=128)
def _log_qpoch(t: float, l: int) -> float:
    """log (t; t)_l, memoized: the joint weight asks for the same few per config."""
    return float(np.sum(np.log1p(-t ** np.arange(1, l + 1))))


def eval_discrete_joint(cfg: LatticeConfig, seq: ShapeSequence) -> float:
    """Probability that the nested sub-blocks have the given shape sequence."""
    if not isinstance(cfg.model, Geometric):
        raise ValueError("the discrete joint weight needs a Geometric model")
    n1, n2, p = cfg.n1, cfg.n2, cfg.p
    z, t, alphas = cfg.model.z, cfg.model.t, cfg.model.alphas
    if len(seq.shapes) != p + 1 or seq.n2 != n2:
        raise ValueError("shape sequence does not match the lattice config")
    if len([m for m in seq.shapes[p] if m > 0]) > n2 + p:
        return 0.0
    if not seq.interlaced():
        return 0.0
    hs = [seq.h(s) for s in range(p + 1)]
    lz, lt = math.log(z), math.log(t)
    lg = (sum(hs[p]) + sum(hs[0])) * lz
    for s in range(1, p + 1):
        lg += (sum(hs[s]) - sum(hs[s - 1])) * math.log(alphas[s - 1])
    for h in hs[p]:
        lg += _log_qpoch(t, h + n1 - n2 - p) - _log_qpoch(t, h)
    for hvec in (hs[p], hs[0]):
        for i in range(len(hvec)):
            for j in range(i + 1, len(hvec)):
                # h strictly decreasing, so t^{h_j} > t^{h_i}
                lg += hvec[j] * lt + math.log1p(-(t ** (hvec[i] - hvec[j])))
    return math.exp(lg + _log_discrete_constant(n1, n2, p, z, t, tuple(alphas)))


@functools.lru_cache(maxsize=16)
def _log_discrete_constant(n1, n2, p, z, t, alphas) -> float:
    """The joint weight's normalizing log constant, memoized per config."""
    lz, lt = math.log(z), math.log(t)
    lg = -(_binom2(n2 + p) + _binom2(n2)) * lz
    for s in range(1, p + 1):
        lg -= (n2 + s - 1) * math.log(alphas[s - 1])
    q = n1 - n2 - p
    lg -= lt * sum(j * (j - 1) for j in range(1, q + 1))
    lg -= lt * (n2 + p) * (q * (q + 1) // 2)
    lg -= lt * sum((j - 1) * (n2 - j) for j in range(1, n2 + 1))
    lg -= sum(_log_qpoch(t, l) for l in range(1, n2))
    lg -= lt * sum((j - 1) * (n2 + p - j) for j in range(1, n1 + 1))
    lg -= sum(_log_qpoch(t, l) for l in range(1, n1))
    lg += sum(_log_qpoch(t, l) for l in range(1, q))
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            lg += math.log1p(-(z**2) * t ** (i + j - 2))
        for al in alphas:
            lg += math.log1p(-al * z * t ** (i - 1))
    return lg


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def eval_jacobi_limit_pdf(n1: int, n2: int, p: int, a: float, a_s, points: dict[int, list[float]]) -> float:
    """Continuum limit density at interlaced positive points x_j^(s).

    points maps s = 0..p to the decreasing list [x_1^(s) > ... > x_{n2+s}^(s)].
    Interlacing violations return 0.
    """
    a_s = tuple(a_s)
    if len(a_s) != p:
        raise ValueError("need one a_s per extra level")
    for s in range(p + 1):
        if len(points[s]) != n2 + s:
            raise ValueError(f"level {s} needs {n2 + s} points")
    # x_1^(p) > ... > x_last^(p) > 0 and strict interlacing give the same for every level below
    top = points[p]
    if not (all(u > v for u, v in zip(top, [*top[1:], 0.0]))
            and all(interlaced(points[s], points[s - 1]) for s in range(1, p + 1))):
        return 0.0
    lg = _log_jacobi_limit_constant(n1, n2, p, a, a_s)
    lg -= a * (sum(points[p]) + sum(points[0]))
    for s in range(1, p + 1):
        lg -= a_s[s - 1] * (sum(points[s]) - sum(points[s - 1]))
    for x in points[p]:
        lg += (n1 - n2 - p) * math.log1p(-math.exp(-x))
    for lvl in (p, 0):
        xs = points[lvl]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                # x_i > x_j so exp(-x_j) > exp(-x_i)
                lg += math.log(math.exp(-xs[j]) - math.exp(-xs[i]))
    return math.exp(lg)


def _log_jacobi_limit_constant(n1, n2, p, a, a_s) -> float:
    lg = sum(math.lgamma(l + 1) for l in range(1, n1 - n2 - p))
    lg -= sum(math.lgamma(l + 1) for l in range(1, n1))
    lg -= sum(math.lgamma(l + 1) for l in range(1, n2))
    for s in range(1, p + 1):
        lg += math.lgamma(a_s[s - 1] + a + n1) - math.lgamma(a_s[s - 1] + a)
    for i in range(1, n1 + 1):
        lg += math.lgamma(2 * a + i + n2 - 1) - math.lgamma(2 * a + i - 1)
    return lg


def jacobi_limit_pdf_y(n1: int, n2: int, p: int, a: float, a_s, ypoints: dict[int, list[float]]) -> float:
    """Same density in the variables y = exp(-x), increasing in (0,1)."""
    points = {}
    for s, ys in ypoints.items():
        if any(not 0 < y < 1 for y in ys):
            return 0.0
        points[s] = [-math.log(y) for y in ys]
    jac = 1.0
    for ys in ypoints.values():
        for y in ys:
            jac /= y
    return eval_jacobi_limit_pdf(n1, n2, p, a, a_s, points) * jac


def specialized_weight_form(n1: int, n2: int, p: int, a: float, ypoints: dict[int, list[float]]) -> float:
    """Unnormalized weight-times-Vandermonde form at a_s = a - s.

    Equals w(y) = y^(2a-p-1) (1-y)^(n1-n2-p) on the top level, bare Vandermonde
    on level 0, and pure interlacing constraints in between.
    """
    top = ypoints[p]
    if not (all(u < v for u, v in zip([0.0, *top], [*top, 1.0]))
            and all(interlaced(ypoints[s][::-1], ypoints[s - 1][::-1]) for s in range(1, p + 1))):
        return 0.0
    val = 1.0
    for y in ypoints[p]:
        val *= y ** (2 * a - p - 1) * (1 - y) ** (n1 - n2 - p)
    for lvl in (p, 0):
        ys = ypoints[lvl]
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                val *= ys[j] - ys[i]
    return val


def sample_wishart_chain_inhomogeneous(p: int, pis, pihats, seed: int, draw: int = 0) -> dict[int, np.ndarray]:
    """Rank-one-update chain with exponential component intensities.

    Column n has squared component moduli exponential with rate pi_i +
    pihat_n; new eigenvalues come from the rank-one secular equation in the
    running eigenbasis.  Returns species n -> its n positive eigenvalues; row
    `draw` of sample_wishart_chain_batch.
    """
    batch = sample_wishart_chain_batch(p, pis, pihats, 1, seed, start=draw)
    return {n: v[0] for n, v in batch.items()}


def sample_wishart_chain_batch(p: int, pis, pihats, draws: int, seed: int,
                               start: int = 0) -> dict[int, np.ndarray]:
    """sample_wishart_chain_inhomogeneous over draws; species n -> array (draws, n)."""
    pis = np.asarray(pis, dtype=float)
    pihats = np.asarray(pihats, dtype=float)
    if len(pis) < p or len(pihats) < p:
        raise ValueError("need p intensities on each side")
    # per draw and column: p exponential moduli^2, then p uniform phases
    mods = np.empty((draws, p, p))
    phases = np.empty((draws, p, p))
    for gen, mod, phase in zip(draw_streams(seed, start, draws), mods, phases):
        for n in range(p):
            gen.standard_exponential(out=mod[n])
            gen.random(out=phase[n])
    # numpy's exponential(scale) and uniform(0, 2 pi) on the same variates
    mods *= 1.0 / (pis[:p] + pihats[:p, None])
    phases *= 2.0 * math.pi
    phases += 0.0
    xs = np.zeros((draws, p, p), dtype=complex)
    xs.imag = phases
    np.exp(xs, out=xs)
    xs *= np.sqrt(mods, out=mods)
    A = np.zeros((draws, p, p), dtype=complex)
    out: dict[int, np.ndarray] = {}
    for n in range(p):
        x = xs[:, n, :]
        if n == 0:
            eigs = np.sum(np.abs(x) ** 2, axis=1)[:, None]
        else:
            d_all, U = np.linalg.eigh(A)
            y = np.abs(np.einsum("dij,dj->di", U.conj().transpose(0, 2, 1), x)) ** 2
            eigs = secular_roots(SecularProblem(d_all[:, p - n:], y[:, p - n:], LUE_UPDATE,
                                                zero_pole_weight=np.sum(y[:, : p - n], axis=1)))
        A = A + x[:, :, None] * x.conj()[:, None, :]
        out[n + 1] = eigs
    return out


def lpp_eigenvalue_bridge_test(n: int, draws: int, seed: int, *, scale: float = 1.0) -> dict:
    """Compare l(n,n) under unit-rate exponential sites with the largest
    eigenvalue of the rank-one-update chain at matched scale.

    scale multiplies the site values (scale 1 is the matched convention);
    returns a JSON-ready report with the two-sample KS statistic against its
    1% critical value.
    """
    if n > 20:
        raise ValueError("bridge test limited to n <= 20")
    grids = np.empty((draws, n, n))
    for gen, grid in zip(draw_streams(seed, 0, draws), grids):
        gen.standard_exponential(out=grid)
    grids *= scale  # numpy's exponential(scale) on the same variates
    lpp = last_passage_batch(grids)
    lam = sample_lue_batch(n, n, draws, seed + 1)[n][:, -1]
    stat, crit = ks_two_sample(lpp, lam)
    return {
        "statistic": stat,
        "critical_value": crit,
        "draws": draws,
        "seed": seed,
        "pass": bool(stat < crit),
    }
