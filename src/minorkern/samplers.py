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

import math
from dataclasses import dataclass

import numpy as np

from . import orthopoly as op
from .numerics import NumericError, interlaced

__all__ = [
    "InterlacedChain",
    "SecularProblem",
    "LUE_UPDATE",
    "draw_streams",
    "sample_gue_minor_chain",
    "sample_lue_chain",
    "sample_projection_chain",
    "sample_ensemble_eigs",
    "sample_gue_minor_batch",
    "sample_lue_batch",
    "sample_projection_batch",
    "secular_roots",
    "interlaces",
    "chains_to_csv",
    "chains_from_csv",
]

LUE_UPDATE = "lue-update"
PROJECTION = "projection"

_BLOCK = 256  # draws per fill of normals: bounds the buffer a batch holds
_SOLVE_BLOCK = 4096  # (draw, root) pairs per secular solve: bounds its temporaries
_MAX_SWEEPS = 200  # rational or bisection steps per secular root
_SD = 1.0 / math.sqrt(2.0)  # sd of a unit complex Gaussian's parts, and of the GUE diagonal


def draw_streams(seed: int, start: int, draws: int):
    """Generators for draws start, ..., start + draws - 1 (ranges checked first): one Philox keyed
    by seed, re-keyed for draw d to the state of Generator(Philox(key=seed, counter=d << 128))."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= start <= start + draws <= 2**128:
        raise ValueError(f"draw must be in [0, 2**128), got {start if start < 0 else start + draws - 1}")
    bg = np.random.Philox(key=np.uint64(seed))
    gen = np.random.Generator(bg)
    state = bg.state  # zero buffer, buffer_pos 4, no cached uint32

    def rekey(d):
        state["state"]["counter"] = [0, 0, d & (2**64 - 1), d >> 64]
        bg.state = state
        return gen

    return map(rekey, range(start, start + draws))


def rng_stream(seed: int, draw: int = 0) -> np.random.Generator:
    """Counter-based generator for one draw; streams never overlap."""
    return next(draw_streams(seed, draw, 1))


@dataclass(frozen=True)
class InterlacedChain:
    """One draw of the multi-species configuration {x_j^(s)}: species maps s to
    the increasing vector of its points, of length s (n(s) <= s if truncated)."""

    species: dict[int, np.ndarray]
    ensemble: str
    N: int
    seed: int
    draw: int = 0


def interlaces(chain: InterlacedChain) -> bool:
    """Strict interlacing between every consecutive pair of species present."""
    sp = chain.species
    return all(interlaced(sp[s + 1][::-1], sp[s][::-1])
               for s in sp if s + 1 in sp and len(sp[s + 1]) == len(sp[s]) + 1)


@dataclass(frozen=True)
class SecularProblem:
    """Rational secular equation sum_i w_i/(x - p_i) = c, fixed by poles,
    weights and its form.

    LUE update:   c = 1, pole at 0 of weight zero_pole_weight   (n+1 roots, poles > 0)
    projection:   c = 0                                         (n-1 interior roots)

    poles and weights have shape (n,) for one problem or (draws, n) for a
    stack of them; zero_pole_weight is a scalar or one per draw.
    """

    poles: np.ndarray
    weights: np.ndarray
    form: str
    zero_pole_weight: float = 0.0

    def __post_init__(self):
        p, w = np.asarray(self.poles, dtype=float), np.asarray(self.weights, dtype=float)
        if p.shape != w.shape or p.ndim not in (1, 2):
            raise ValueError("poles and weights must have matching shapes (n,) or (draws, n)")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w)) and np.all(np.isfinite(self.zero_pole_weight))):
            raise ValueError("poles, weights and the zero-pole weight must be finite")
        if np.any(np.nextafter(p[..., :-1], np.inf) >= p[..., 1:]):
            raise ValueError("poles must be strictly increasing, with a double between neighbours")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if self.form not in (LUE_UPDATE, PROJECTION):
            raise ValueError(f"unknown secular form {self.form!r}")
        if self.form == LUE_UPDATE:
            if p.shape[-1] and np.any(p[..., 0] <= 0):
                raise ValueError("LUE poles must be positive")
            if np.any(np.asarray(self.zero_pole_weight) <= 0):
                raise ValueError("zero-pole weight must be positive")


def secular_roots(prob: SecularProblem) -> np.ndarray:
    """All real roots, increasing along the last axis, for every stacked problem.

    h(x) = c + sum_i w_i/(p_i - x) rises from -inf to +inf in each gap between
    poles, and for LUE from the last pole to twice the weights' sum past it.  A
    bisection picks the gap's pole nearer the root as origin; then safeguarded
    rational steps (Bunch-Nielsen-Sorensen 1978; Li 1993's middle way, as in
    LAPACK dlaed4) solve a model that matches the poles on each side of the gap
    by one pole in value and slope, and bisect when a step is not finite or
    leaves the bracket.  With m poles and H = sum |w_i/(x - p_i)| + c, a root is
    done at |h| <= m eps H / 8, at |h| <= 4 m eps H (the rounding error of h)
    once its step stalls, or when no double lies inside its bracket; a root
    still open after _MAX_SWEEPS steps raises NumericError.  Blocks of
    _SOLVE_BLOCK (draw, root) pairs bound the temporaries, and a root's
    arithmetic reads only its own row, so stacked, chunked and one-by-one
    solves agree bit for bit.
    """
    one = np.ndim(prob.poles) == 1
    p, w = np.atleast_2d(np.asarray(prob.poles, dtype=float), np.asarray(prob.weights, dtype=float))
    c = float(prob.form == LUE_UPDATE)
    if c:
        w0 = np.broadcast_to(np.asarray(prob.zero_pole_weight, dtype=float), (len(p),))
        p, w = np.hstack([np.zeros((len(p), 1)), p]), np.hstack([w0[:, None], w])
    roots = np.empty((len(p), max(p.shape[1] - 1 + int(c), 0)))
    block = max(_SOLVE_BLOCK // max(roots.shape[1], 1), 1)  # draws
    for lo in range(0, len(p), block):
        roots[lo:lo + block] = _solve_block(p[lo:lo + block], w[lo:lo + block], c)
    return roots[0] if one else roots


def _model(pt, wt, rows, k, o, tau, dk, dk1, c):
    """h at tau, the scale H of its rounding error, and C, s, S of the model
    C + s/(dk - x) + S/(dk1 - x) for gaps (k, k + 1) of rows `rows` of the
    poles pt (one pole per row of pt) and weights wt, with x, dk and dk1 taken
    from the origin o.  Pole j adds q_j = w_j/(p_j - o - tau)^2 to a slope and
    q_j times its distance from the gap's pole on its side to C, so the gap's
    own poles add nothing there to cancel.  Poles are added in order."""
    rows = rows.astype(np.intp)
    c1, c2, dpsi, dphi = np.zeros((4, len(tau)))
    step = dk - dk1  # the gap's pole on each side is dk1 + step * left: dk or dk1 is 0
    for j in range(len(pt)):
        left = j <= k
        delta = pt[j].take(rows) - o
        d = delta - tau
        q = wt[j].take(rows) / d / d
        e = (delta - (dk1 + step * left)) * q  # q_j times the distance from the gap's pole on its side
        el, ql = e * left, q * left
        c1 += el
        c2 += e - el
        dpsi += ql
        dphi += q - ql
    u, v = dk - tau, dk1 - tau
    s, S = dpsi * u * u, dphi * v * v
    psi, phi = c1 + s / u, c2 + S / v
    return c + psi + phi, c + phi - psi, c + c1 + c2, s, S


def _solve_block(p, w, c):
    """Roots of the problems with poles p (draws, m), the zero pole included."""
    draws, m = p.shape
    pt, wt = np.ascontiguousarray(p.T), np.ascontiguousarray(w.T)
    # one item per (draw, root); its bracket is the gap between poles k and r or,
    # above the last pole, twice the weights' sum, with a weightless pole at
    # twice that standing in for pole r
    roots = max(m - 1 + int(c), 0)
    rows, k = np.divmod(np.arange(draws * roots), max(roots, 1))
    inside, r = k < m - 1, np.minimum(k + 1, m - 1)
    pk, pr = p[rows, k], p[rows, r]
    gap = np.where(inside, pr - pk, 2.0 * w.sum(axis=1)[rows])
    far = np.where(inside, gap, 2.0 * gap)
    model = _model(pt, wt, rows, k, pk, 0.5 * gap, 0.0, far, c)
    shift = np.where(inside & (model[0] <= 0), gap, 0.0)  # the root is nearer pole r
    o = np.where(shift > 0, pr, pk)
    # per item: index, row, root, origin, bracket (a, b), iterate, gap poles, all relative to o
    small = np.stack([np.arange(k.size), rows, k, o, -shift, gap - shift, 0.5 * gap - shift, -shift, far - shift])
    # strictly between the poles, even where a root lies within a double of one
    lo, hi = np.nextafter(pk, np.inf), np.where(inside, np.nextafter(pr, -np.inf), np.inf)
    del rows, k, inside, r, pk, pr, gap, far, shift, o
    found = np.empty(len(lo))
    for _ in range(_MAX_SWEEPS):
        small = _advance(small, model, found, m)
        del model  # so that no sweep's temporaries live through the next evaluation
        if not small.shape[1]:
            break
        model = _model(pt, wt, *small[1:4], *small[6:], c)
    else:
        raise NumericError(f"secular solve: {np.sum(small[0] >= 0)} roots still open after {_MAX_SWEEPS} steps")
    return np.clip(found, lo, hi).reshape(draws, -1)


def _advance(small, model, found, m):
    """One step for every open item of small: narrow its bracket by the sign of
    h, record it in found if it is done, else move to the model's root, or to
    the bracket's midpoint when that root is not finite or not inside.  Returns
    the items to keep: every open one, in a width halved as far as they allow."""
    h, H, C, s, S = model
    at, _, _, o, a, b, tau, dk, dk1 = small
    a, b = np.where(h <= 0, tau, a), np.where(h > 0, tau, b)  # a NaN moves neither
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the model's root in the gap, solved from the origin (dk or dk1 is 0)
        qb, qc = C * (dk + dk1) + s + S, s * dk1 + S * dk
        disc = np.sqrt(np.abs(qb * qb - 4.0 * C * qc))
        new = np.where(qb > 0, 2.0 * qc / (qb + disc), (qb - disc) / (2.0 * C))
    step, mid = (new > a) & (new < b), 0.5 * (a + b)
    eps = np.finfo(float).eps
    done = (np.abs(h) <= np.where(step, eps * m / 8, eps * m * 4) * H) | (mid <= a) | (mid >= b)
    done &= at >= 0
    found[at[done].astype(np.intp)] = (o + tau)[done]
    small[0, done] = -1  # a done item stays put until its slot is dropped
    small[4], small[5], small[6] = a, b, np.where(small[0] >= 0, np.where(step, new, mid), tau)
    # drop done items by halving the width, so that widths repeat from block to
    # block and the allocator can reuse its blocks
    open_ = small[0] >= 0
    width = len(open_)
    while width and width // 2 >= open_.sum():
        width //= 2
    return small.take(np.argsort(~open_, kind="stable")[:width], axis=1) if width < len(open_) else small


# ---------------------------------------------------------------------------
# sampling: one fill of normals per draw, then matrix work per batch
# ---------------------------------------------------------------------------


def _normal_blocks(seed: int, start: int, draws: int, scale: np.ndarray, build, *outs) -> None:
    """build(z, *(the block's rows of outs)) per block of <= _BLOCK draws; row r of z is 0.0 + scale *
    (one standard_normal fill of the block's r-th draw's stream), i.e. numpy's normal(0.0, scale)."""
    streams = draw_streams(seed, start, draws)
    for lo in range(0, draws, _BLOCK):
        z = np.empty((min(_BLOCK, draws - lo), len(scale)))
        for row, gen in zip(z, streams):
            gen.standard_normal(out=row)
        z *= scale
        z += 0.0
        build(z, *(out[lo:lo + len(z)] for out in outs))


def _fill_gue(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m filled with Hermitian draws; parts per row: upper re, upper im (row-major), diagonal."""
    N = m.shape[-1]
    i, j = np.triu_indices(N, 1)
    re, im, diag = np.split(z, [len(i), 2 * len(i)], axis=1)
    m.real[:, i, j] = m.real[:, j, i] = re
    m.imag[:, i, j], m.imag[:, j, i] = im, -im
    m[:, range(N), range(N)] = diag
    return m


def _complex_parts(z: np.ndarray) -> np.ndarray:
    """Complex entries from rows holding all real parts, then all imaginary parts."""
    re, im = np.split(z, 2, axis=-1)
    return re + 1j * im


def _abs2(z: np.ndarray, out: np.ndarray) -> None:
    """out = |c|^2 for the complex entries c of _complex_parts(z)."""
    np.square(np.abs(_complex_parts(z), out=out), out=out)


def _chain(batch: dict[int, np.ndarray], kind: str, N: int, seed: int, draw: int) -> InterlacedChain:
    return InterlacedChain({s: v[0] for s, v in batch.items()}, kind, N, seed, draw)


def sample_gue_minor_chain(N: int, seed: int, draw: int = 0) -> InterlacedChain:
    """Row `draw` of sample_gue_minor_batch: all nested minors of one Gaussian draw."""
    return _chain(sample_gue_minor_batch(N, 1, seed, start=draw), op.GAUSSIAN, N, seed, draw)


def sample_lue_chain(N: int, n_max: int, seed: int, draw: int = 0) -> InterlacedChain:
    """Row `draw` of sample_lue_batch; species n holds the n nonzero eigenvalues."""
    return _chain(sample_lue_batch(N, n_max, 1, seed, start=draw), op.LAGUERRE, N, seed, draw)


def sample_projection_chain(ensemble: op.EnsembleSpec, n: int, depth: int,
                            seed: int, draw: int = 0) -> InterlacedChain:
    """Row `draw` of sample_projection_batch: a base draw, then `depth` corank-1 projections."""
    batch = sample_projection_batch(ensemble, n, depth, 1, seed, start=draw)
    return _chain(batch, ensemble.kind, n, seed, draw)


def sample_ensemble_eigs(ensemble: op.EnsembleSpec, n: int, seed: int, draw: int = 0) -> np.ndarray:
    """One increasing eigenvalue draw of the ensemble: sample_projection_batch's base."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sample_projection_batch(ensemble, n, 0, 1, seed, start=draw)[n][0]


def _ensemble_base(ensemble: op.EnsembleSpec, n: int):
    """Part sds of one base draw, and the map from a block of scaled parts to
    increasing eigenvalues.  Laguerre: X^H X, X of shape (n+a, n).  Jacobi:
    L^-1 X^H X L^-H, L L^H = X^H X + Y^H Y, Y of shape (n+b, n)."""
    if ensemble.kind == op.GAUSSIAN:
        return np.repeat([0.5, _SD], [n * (n - 1), n]), lambda z: np.linalg.eigvalsh(
            _fill_gue(z, np.empty((len(z), n, n), dtype=complex)))

    def gram(z, rows):
        x = _complex_parts(z).reshape(len(z), rows, n)
        return x.conj().transpose(0, 2, 1) @ x

    a = _integer_exponent(ensemble.a, "a")
    kx = 2 * (n + a) * n
    if ensemble.kind == op.LAGUERRE:
        return np.full(kx, _SD), lambda z: np.linalg.eigvalsh(gram(z, n + a))
    b = _integer_exponent(ensemble.b, "b")

    def jacobi(z):
        w1 = gram(z[:, :kx], n + a)
        chol = np.linalg.cholesky(w1 + gram(z[:, kx:], n + b))
        c = np.linalg.solve(chol, np.linalg.solve(chol, w1).conj().transpose(0, 2, 1))
        return np.linalg.eigvalsh(0.5 * (c + c.conj().transpose(0, 2, 1)))

    return np.full(kx + 2 * (n + b) * n, _SD), jacobi


def _integer_exponent(v: float, name: str) -> int:
    if v < 0 or v != int(v):
        raise ValueError(f"matrix sampler needs a nonnegative integer exponent {name}, got {v}")
    return int(v)


def sample_gue_minor_batch(N: int, draws: int, seed: int, start: int = 0) -> dict[int, np.ndarray]:
    """Species -> array (draws, s) of sorted minor eigenvalues."""
    if not 1 <= N <= 400:
        raise ValueError("need 1 <= N <= 400")
    mats = np.empty((draws, N, N), dtype=complex)
    _normal_blocks(seed, start, draws, np.repeat([0.5, _SD], [N * (N - 1), N]), _fill_gue, mats)
    return {s: np.linalg.eigvalsh(mats[:, :s, :s]) for s in range(1, N + 1)}


def sample_lue_batch(N: int, n_max: int, draws: int, seed: int, start: int = 0) -> dict[int, np.ndarray]:
    """Rank-one-update Wishart chain over draws; species n -> array (draws, n).
    Column n of a draw is N complex Gaussians, all real parts first."""
    if not 1 <= n_max <= N:
        raise ValueError("need 1 <= n_max <= N")
    w = np.empty((draws, n_max, N))
    _normal_blocks(seed, start, draws, np.full(2 * n_max * N, _SD),
                   lambda z, out: _abs2(z.reshape(len(z), n_max, 2 * N), out), w)
    out = {1: w[:, 0, :].sum(axis=1)[:, None]}
    for n in range(1, n_max):
        out[n + 1] = secular_roots(SecularProblem(out[n], w[:, n, :n], LUE_UPDATE,
                                                  zero_pole_weight=w[:, n, n:].sum(axis=1)))
    return out


def sample_projection_batch(ensemble: op.EnsembleSpec, n: int, depth: int,
                            draws: int, seed: int, start: int = 0) -> dict[int, np.ndarray]:
    """Corank-1 projection chain over draws; species m -> array (draws, m).
    A draw is its base draw, then m = n, n-1, ... complex projection weights."""
    if not 0 <= depth < n:
        raise ValueError("need 0 <= depth < n")
    base_scale, base_eigs = _ensemble_base(ensemble, n)
    sizes = range(n, n - depth, -1)
    base, *weights = [np.empty((draws, m)) for m in (n, *sizes)]
    cuts = np.cumsum([len(base_scale)] + [2 * m for m in sizes])

    def build(z, base_rows, *weight_rows):
        base_rows[:] = base_eigs(z[:, :cuts[0]])
        for w, lo, hi in zip(weight_rows, cuts, cuts[1:]):
            _abs2(z[:, lo:hi], w)

    scale = np.concatenate([base_scale, np.full(cuts[-1] - cuts[0], _SD)])
    _normal_blocks(seed, start, draws, scale, build, base, *weights)
    out = {n: base}
    for w, m in zip(weights, sizes):
        w /= w.sum(axis=1, keepdims=True)
        out[m - 1] = secular_roots(SecularProblem(out[m], w, PROJECTION))
    return out


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def chains_to_csv(batch: dict[int, np.ndarray], *, ensemble: str, N: int, seed: int) -> str:
    """One row per (draw, species, index, value), '#'-prefixed metadata header."""
    species = sorted(batch)
    keys = [f"{s},{i}," for s in species for i in range(batch[s].shape[1])]
    values = np.concatenate([batch[s] for s in species], axis=1)
    # joined draw by draw, so no list of every row's string is held at once
    return f"# ensemble={ensemble}\n# N={N}\n# seed={seed}\ndraw,species,index,value\n" + "".join(
        ["".join([f"{d},{k}{v:.17g}\n" for k, v in zip(keys, row.tolist())]) for d, row in enumerate(values)])


def chains_from_csv(text: str) -> tuple[dict[int, np.ndarray], dict[str, str]]:
    """Inverse of chains_to_csv."""
    lines = text.splitlines()
    meta = {k.strip(): v.strip() for k, _, v in (ln[1:].partition("=") for ln in lines if ln[:1] == "#")}
    rows = np.fromstring(",".join([ln for ln in lines if ln[:1].isdigit()]), sep=",").reshape(-1, 4)
    d, s, _, v = rows[np.lexsort(rows[:, [2, 1, 0]].T)].T  # by draw, species, index
    return {int(k): v[s == k].reshape(len(np.unique(d[s == k])), -1) for k in np.unique(s)}, meta
