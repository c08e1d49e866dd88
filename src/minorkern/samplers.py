"""Seeded Monte Carlo samplers for the interlaced eigenvalue chains.

Three constructions: eigenvalues of nested principal minors of a Gaussian
Hermitian matrix, the rank-one-update Wishart chain, and repeated corank-1
projections of a classical ensemble draw.  Each draw owns a counter-based
RNG stream keyed by (seed, draw index), so batches are reproducible and
independent of evaluation order.

Convention: the Gaussian matrix has density proportional to exp(-tr M^2)
(diagonal sd 1/sqrt(2), off-diagonal parts sd 1/2), which makes the species-1
marginal exp(-x^2)/sqrt(pi) and matches the kernel module's weights.  Wishart
entries have unit-mean squared modulus (parts sd 1/sqrt(2)).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh as scipy_eigh

from . import orthopoly as op
from .numerics import NumericError

__all__ = [
    "InterlacedChain",
    "SecularProblem",
    "sample_gue_minor_chain",
    "sample_lue_chain",
    "sample_projection_chain",
    "sample_ensemble_eigs",
    "secular_roots",
    "interlaces",
    "chains_to_csv",
    "chains_from_csv",
]

GUE_BORDERED = "gue-bordered"
LUE_UPDATE = "lue-update"
PROJECTION = "projection"


def rng_stream(seed: int, draw: int = 0) -> np.random.Generator:
    """Counter-based generator for one draw; streams never overlap."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= draw < 2**128:
        raise ValueError(f"draw must be in [0, 2**128), got {draw}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=draw << 128))


@dataclass(frozen=True)
class InterlacedChain:
    """One draw of the multi-species configuration {x_j^(s)}.

    species maps s to the sorted (increasing) vector of its points; length s
    for full chains, n(s) <= s for truncated ones.
    """

    species: dict[int, np.ndarray]
    ensemble: str
    N: int
    seed: int
    draw: int = 0

    def top(self) -> int:
        return max(self.species)


@dataclass(frozen=True)
class SecularProblem:
    """Rational secular equation sum_i w_i/(x - p_i) = c(x), fixed by poles,
    weights and its form.

    GUE bordered: c(x) = x - border                      (n+1 roots)
    LUE update:   c(x) = 1, plus a pole at 0 of weight zero_pole_weight
                                                          (n+1 roots, poles > 0)
    projection:   c(x) = 0                               (n-1 interior roots)

    poles and weights have shape (n,) for one problem or (draws, n) for a
    stack of them; border and zero_pole_weight are scalars or one per draw.
    """

    poles: np.ndarray
    weights: np.ndarray
    form: str
    border: float = 0.0
    zero_pole_weight: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.poles, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.shape != w.shape or p.ndim not in (1, 2):
            raise ValueError("poles and weights must have matching shapes (n,) or (draws, n)")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
            raise ValueError("poles and weights must be finite")
        if np.any(np.nextafter(p[..., :-1], np.inf) >= p[..., 1:]):
            raise ValueError("poles must be strictly increasing, with a double between neighbours")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if self.form not in (GUE_BORDERED, LUE_UPDATE, PROJECTION):
            raise ValueError(f"unknown secular form {self.form!r}")
        if self.form == LUE_UPDATE:
            if p.shape[-1] and np.any(p[..., 0] <= 0):
                raise ValueError("LUE poles must be positive")
            if np.any(np.asarray(self.zero_pole_weight) <= 0):
                raise ValueError("zero-pole weight must be positive")


def secular_roots(prob: SecularProblem) -> np.ndarray:
    """All real roots, increasing along the last axis, for every stacked problem.

    sum_i w_i/(x - p_i) falls from +inf to -inf between consecutive poles and
    c(x) is nondecreasing, so each gap (and each exterior interval: above the
    last pole for LUE and bordered, below the first for bordered) holds one
    root.  All of them are bisected together until no bracket moves (adjacent
    doubles), or for at most 110 halvings.
    """
    p = np.asarray(prob.poles, dtype=float)
    w = np.asarray(prob.weights, dtype=float)
    one = p.ndim == 1
    p, w = np.atleast_2d(p), np.atleast_2d(w)
    draws = p.shape[0]
    border = np.broadcast_to(np.asarray(prob.border, dtype=float), (draws,))[:, None]
    if prob.form == LUE_UPDATE:
        w0 = np.broadcast_to(np.asarray(prob.zero_pole_weight, dtype=float), (draws,))
        p = np.concatenate([np.zeros((draws, 1)), p], axis=1)
        w = np.concatenate([w0[:, None], w], axis=1)
    if p.shape[1] == 0 and prob.form == GUE_BORDERED:
        return border[0].copy() if one else border.copy()

    def excess(x):
        # sum_i w_i/(x - p_i) - c(x) for candidates x of shape (draws, k)
        s = np.sum(w[:, None, :] / (x[:, :, None] - p[:, None, :]), axis=2)
        if prob.form == GUE_BORDERED:
            return s - (x - border)
        return s - 1.0 if prob.form == LUE_UPDATE else s

    scale = np.maximum(np.abs(p).max(axis=1, initial=0.0), 1.0)[:, None]
    eps = 1e-14 * scale
    gap_eps = np.minimum(eps, 0.25 * np.diff(p, axis=1))
    # never at a pole, even when the gap is only a few doubles wide
    lo = np.maximum(p[:, :-1] + gap_eps, np.nextafter(p[:, :-1], np.inf))
    hi = np.minimum(p[:, 1:] - gap_eps, np.nextafter(p[:, 1:], -np.inf))
    if prob.form != PROJECTION:
        step = np.maximum(np.sqrt(w.sum(axis=1, keepdims=True)), 1.0)
        top = _outer_end(lambda x: excess(x) > 0, p[:, -1:], step)
        lo, hi = np.hstack([lo, p[:, -1:] + eps]), np.hstack([hi, top])
    if prob.form == GUE_BORDERED:
        bottom = _outer_end(lambda x: excess(x) < 0, p[:, :1], -step)
        lo, hi = np.hstack([bottom, lo]), np.hstack([p[:, :1] - eps, hi])
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        up = excess(mid) >= 0
        new_lo, new_hi = np.where(up, mid, lo), np.where(up, hi, mid)
        # an unchanged bracket is a fixed point, so stopping here returns
        # the same roots as running every halving
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    roots = 0.5 * (lo + hi)
    return roots[0] if one else roots


def _outer_end(beyond, pole, step):
    """pole + step * 2**k with the least k where the root is not beyond it."""
    end = pole + step
    bad = beyond(end)
    for _ in range(120):
        if not np.any(bad):
            break
        step = np.where(bad, step * 2.0, step)
        end = np.where(bad, pole + step, end)
        bad = beyond(end)
    if np.any(bad):
        raise NumericError("exterior bracket expansion failed")
    return end


# ---------------------------------------------------------------------------
# matrix draws
# ---------------------------------------------------------------------------


def _gue_matrix(rng, N: int) -> np.ndarray:
    """Hermitian draw with density ~ exp(-tr M^2)."""
    iu = np.triu_indices(N, 1)
    m = np.zeros((N, N), dtype=complex)
    m[iu] = rng.normal(0.0, 0.5, len(iu[0])) + 1j * rng.normal(0.0, 0.5, len(iu[0]))
    m = m + m.conj().T
    m[np.diag_indices(N)] = rng.normal(0.0, 1.0 / math.sqrt(2.0), N)
    return m


def _complex_gaussian(rng, shape) -> np.ndarray:
    """Entries with unit-mean squared modulus (parts sd 1/sqrt(2))."""
    s = 1.0 / math.sqrt(2.0)
    return rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)


def sample_gue_minor_chain(N: int, seed: int, draw: int = 0) -> InterlacedChain:
    """Eigenvalues of all nested principal minors of one Gaussian draw; row
    `draw` of sample_gue_minor_batch."""
    batch = sample_gue_minor_batch(N, 1, seed, start=draw)
    return InterlacedChain(_first_row(batch), op.GAUSSIAN, N, seed, draw)


def sample_lue_chain(N: int, n_max: int, seed: int, draw: int = 0) -> InterlacedChain:
    """Rank-one-update Wishart chain; species n holds the n nonzero eigenvalues.
    Row `draw` of sample_lue_batch."""
    batch = sample_lue_batch(N, n_max, 1, seed, start=draw)
    return InterlacedChain(_first_row(batch), op.LAGUERRE, N, seed, draw)


def _first_row(batch: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    return {s: v[0] for s, v in batch.items()}


def sample_ensemble_eigs(ensemble: op.EnsembleSpec, n: int, seed: int, draw: int = 0) -> np.ndarray:
    """One eigenvalue draw of the unitary-invariant ensemble with weight w."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_stream(seed, draw)
    return _ensemble_eigs_rng(ensemble, n, rng)


def _ensemble_eigs_rng(ensemble, n, rng) -> np.ndarray:
    if ensemble.kind == op.GAUSSIAN:
        return np.linalg.eigvalsh(_gue_matrix(rng, n))
    if ensemble.kind == op.LAGUERRE:
        a = _integer_exponent(ensemble.a, "a")
        x = _complex_gaussian(rng, (n + a, n))
        return np.linalg.eigvalsh(x.conj().T @ x)
    a = _integer_exponent(ensemble.a, "a")
    b = _integer_exponent(ensemble.b, "b")
    x = _complex_gaussian(rng, (n + a, n))
    y = _complex_gaussian(rng, (n + b, n))
    w1 = x.conj().T @ x
    return scipy_eigh(w1, w1 + y.conj().T @ y, eigvals_only=True)


def _integer_exponent(v: float, name: str) -> int:
    if v < 0 or v != int(v):
        raise ValueError(f"matrix sampler needs a nonnegative integer exponent {name}, got {v}")
    return int(v)


def sample_projection_chain(ensemble: op.EnsembleSpec, n: int, depth: int,
                            seed: int, draw: int = 0) -> InterlacedChain:
    """Base ensemble draw followed by `depth` corank-1 random projections; row
    `draw` of sample_projection_batch."""
    batch = sample_projection_batch(ensemble, n, depth, 1, seed, start=draw)
    return InterlacedChain(_first_row(batch), ensemble.kind, n, seed, draw)


def interlaces(chain: InterlacedChain) -> bool:
    """Strict interlacing between every consecutive pair of species present."""
    keys = sorted(chain.species)
    for lo_s, hi_s in zip(keys[:-1], keys[1:]):
        if hi_s != lo_s + 1:
            continue
        lo_v, hi_v = chain.species[lo_s], chain.species[hi_s]
        if len(hi_v) != len(lo_v) + 1:
            continue
        if not (np.all(hi_v[:-1] < lo_v) and np.all(lo_v < hi_v[1:])):
            return False
    return True


# ---------------------------------------------------------------------------
# batched sampling (vectorized across draws, same per-draw streams)
# ---------------------------------------------------------------------------


def sample_gue_minor_batch(N: int, draws: int, seed: int, start: int = 0) -> dict[int, np.ndarray]:
    """Species -> array (draws, s) of sorted minor eigenvalues."""
    if not 1 <= N <= 400:
        raise ValueError("need 1 <= N <= 400")
    mats = np.empty((draws, N, N), dtype=complex)
    for d in range(draws):
        mats[d] = _gue_matrix(rng_stream(seed, start + d), N)
    return {s: np.linalg.eigvalsh(mats[:, :s, :s]) for s in range(1, N + 1)}


def sample_lue_batch(N: int, n_max: int, draws: int, seed: int, start: int = 0) -> dict[int, np.ndarray]:
    """Rank-one-update Wishart chain over draws; species n -> array (draws, n)."""
    if not 1 <= n_max <= N:
        raise ValueError("need 1 <= n_max <= N")
    xs = np.empty((draws, n_max, N), dtype=complex)
    for d in range(draws):
        rng = rng_stream(seed, start + d)
        for n in range(n_max):
            xs[d, n] = _complex_gaussian(rng, N)
    w = np.abs(xs) ** 2
    eigs = w[:, 0, :].sum(axis=1)[:, None]
    out = {1: eigs}
    for n in range(1, n_max):
        prob = SecularProblem(eigs, w[:, n, :n], LUE_UPDATE,
                              zero_pole_weight=w[:, n, n:].sum(axis=1))
        eigs = secular_roots(prob)
        out[n + 1] = eigs
    return out


def sample_projection_batch(ensemble: op.EnsembleSpec, n: int, depth: int,
                            draws: int, seed: int, start: int = 0) -> dict[int, np.ndarray]:
    """Corank-1 projection chain over draws; species m -> array (draws, m)."""
    if not 0 <= depth < n:
        raise ValueError("need 0 <= depth < n")
    sizes = range(n, n - depth, -1)
    base = np.empty((draws, n))
    gauss = [np.empty((draws, m), dtype=complex) for m in sizes]
    for d in range(draws):
        rng = rng_stream(seed, start + d)
        base[d] = np.sort(_ensemble_eigs_rng(ensemble, n, rng))
        for g, m in zip(gauss, sizes):
            g[d] = _complex_gaussian(rng, m)
    out = {n: base}
    eigs = base
    for g, m in zip(gauss, sizes):
        w = np.abs(g) ** 2
        w /= w.sum(axis=1, keepdims=True)
        eigs = secular_roots(SecularProblem(eigs, w, PROJECTION))
        out[m - 1] = eigs
    return out


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def chains_to_csv(batch: dict[int, np.ndarray], *, ensemble: str, N: int, seed: int) -> str:
    """One row per (draw, species, index, value), '#'-prefixed metadata header."""
    buf = io.StringIO()
    buf.write(f"# ensemble={ensemble}\n# N={N}\n# seed={seed}\n")
    buf.write("draw,species,index,value\n")
    draws = len(next(iter(batch.values())))
    for d in range(draws):
        for s in sorted(batch):
            row = batch[s][d]
            for i, v in enumerate(np.atleast_1d(row)):
                buf.write(f"{d},{s},{i},{v:.17g}\n")
    return buf.getvalue()


def chains_from_csv(text: str) -> tuple[dict[int, np.ndarray], dict[str, str]]:
    """Inverse of chains_to_csv."""
    meta: dict[str, str] = {}
    rows: dict[int, dict[int, dict[int, float]]] = {}
    for line in text.splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].strip().partition("=")
            meta[k.strip()] = v.strip()
            continue
        if not line or line.startswith("draw"):
            continue
        d, s, i, v = line.split(",")
        rows.setdefault(int(s), {}).setdefault(int(d), {})[int(i)] = float(v)
    batch = {}
    for s, by_draw in rows.items():
        draws = sorted(by_draw)
        batch[s] = np.array([[by_draw[d][i] for i in sorted(by_draw[d])] for d in draws])
    return batch, meta
