"""kernel-eval: exact finite-N kernel entries, correlations and densities.

Loads orthopoly's eta recurrence and the kernel's tail quadratures; no
sampler runs.  A round draws fresh positions for a fixed make-up of
operations, for each of the Gaussian, Laguerre (a=1) and Jacobi (a=1/2, b=1)
processes:

* two-point entries kernel_F, two for every species relation and position
  stratum (bulk, near the top edge, in the weight's tail): same species,
  downward s1 > s2 and near upward 0 < s2-s1 < 12 at N = 10 and 50, far
  upward s2-s1 >= 12 (the bilinear series) at N = 30;
* two r-point correlations for each of r = 2, 3, 4 at N = 10, 30, 50, each
  with the kernel_K matrix of the same points.  Their species lie within a window of
  8 and their positions in the bulk: points at the edge or in the tail, or
  wider species spreads, meet the correlation cut-off fault recorded in
  CHANGES.md (a valid correlation returned as exactly 0);
* correlations at N = 2 and N = 3 that brute-force quadrature can check
  quickly (at N = 3 one point is always in species 3);
* one-point density grids (panel Gauss-Legendre nodes over the support) at
  N = 10, 30, 50.

Positions are placed relative to the zeros of the species' orthogonal
polynomial p_s (the zeros fill the bulk; the largest one sits at the edge).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from minorkern import kernel
from minorkern import orthopoly as op
from minorkern import validate

import oracles

from .common import TIMED, WARM_UP, rng

NAME = "kernel-eval"

ENSEMBLES = (op.EnsembleSpec(op.GAUSSIAN), op.EnsembleSpec(op.LAGUERRE, a=1.0),
             op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0))
STRATA = ("bulk", "edge", "tail")
RELATIONS = ("same", "down", "up_near", "up_far")
FAR_GAP = 12

# accuracy each check holds the program to
ORACLE_RTOL = 1e-8       # oracles.f_entry_*, relative to the entry's scale
BRUTE_RTOL = 1e-4        # validate.brute_force_marginal's own accuracy
GAUGE_RTOL = 1e-9        # relative to the product of the gauged rows' norms
MASS_TOL = 1e-6          # |integral of rho_1(s, .) - s|, relative to s

# species of one correlation lie within this many consecutive species
CORR_WINDOW = 8
# `entries`: (N, species relations, kernel_F entries per relation and
# position stratum) in a round.  A far entry costs about 0.04 s when the
# bilinear series is accepted; when it is not, which happens about one time
# in three at random positions, the finite sum takes over at a cost that
# grows like s2^2.  Far entries sit at N = 30, where that fallback costs
# little more than the series, so they do not dominate the spread of the
# round time.  `corr`: (r, N) of the correlations, each with the kernel_K
# matrix of its points.
FULL = dict(entries=((10, ("same", "down", "up_near"), 2), (50, ("same", "down", "up_near"), 2),
                     (30, ("up_far",), 2)),
            corr=((2, 10), (3, 30), (4, 50)) * 2, density_n=(10, 30, 50),
            small=((2, 2), (3, 2), (3, 3)), panels=96)
QUICK = dict(entries=((6, ("same", "down", "up_near"), 1), (14, RELATIONS, 1)),
             corr=((2, 6), (3, 14)), density_n=(6,), small=((2, 2),), panels=48)


@lru_cache(maxsize=None)
def _zeros(spec: op.EnsembleSpec, N: int, s: int) -> np.ndarray:
    """Sorted zeros of p_max(s,2) in the family of species s."""
    fam = kernel.ProcessSpec(spec, N).family(s)
    return np.sort(op.gauss_weight_nodes(fam, max(s, 2))[0])


def position(gen, spec: op.EnsembleSpec, N: int, s: int, stratum: str) -> float:
    z = _zeros(spec, N, s)
    top, gap = z[-1], z[-1] - z[-2]
    if stratum == "bulk":
        m = len(z) - 1
        return float(gen.uniform(z[m // 4], z[(3 * m + 3) // 4]))
    if stratum == "edge":
        lo, hi = top - 0.5 * gap, top + gap
    elif spec.kind == op.JACOBI:
        lo, hi = top + 0.4 * (1.0 - top), top + 0.9 * (1.0 - top)
    else:
        lo, hi = top + 3.0 * gap, top + 8.0 * gap
    if spec.kind == op.JACOBI:
        hi = min(hi, 1.0 - 1e-9)
    return float(gen.uniform(lo, hi))


def _pick(gen, lo: float, hi: float) -> int:
    """A whole number in [round(lo), round(hi)], at least 1."""
    return int(gen.integers(max(1, round(lo)), max(1, round(hi)) + 1))


def _relation_species(gen, N: int, relation: str) -> tuple[int, int]:
    """Species (s1, s2) for a relation, from ranges fixed as shares of N: an
    entry's cost grows with s2, so fixed ranges keep a round's cost steady
    from seed to seed."""
    if relation == "same":
        s = _pick(gen, 0.6 * N, 0.8 * N)
        return s, s
    if relation == "down":
        s1 = _pick(gen, 0.8 * N, N)
        return s1, max(1, s1 - _pick(gen, 0.2 * N, 0.4 * N))
    if relation == "up_near":
        gap = min(FAR_GAP - 1, _pick(gen, 0.1 * N, 0.2 * N))
        s1 = min(_pick(gen, 0.6 * N, 0.7 * N), N - gap)
        return s1, s1 + gap
    gap = max(FAR_GAP, _pick(gen, 0.5 * N, 0.6 * N))
    s1 = min(_pick(gen, 0.1 * N, 0.2 * N), N - gap)
    return s1, s1 + gap


def _small_species(gen, N: int, r: int) -> list[int]:
    """r species of a process with N <= 3, no species holding more points
    than it has particles (species s has s).  At N = 3 one point is in
    species 3: brute force then integrates out one dimension less, which
    makes it about 100 times cheaper."""
    while True:
        ss = sorted(int(s) for s in gen.integers(1, N + 1, r))
        if all(ss.count(s) <= s for s in set(ss)) and (N < 3 or 3 in ss):
            return ss


def density_nodes(gen, spec: op.EnsembleSpec, N: int, s: int, panels: int):
    """Panel Gauss-Legendre nodes/weights covering species s's support, with
    randomly moved interior panel edges (order 24 per panel)."""
    top = float(_zeros(spec, N, s)[-1])
    if spec.kind == op.JACOBI:
        # cosine clustering absorbs the endpoint power singularities
        t = np.linspace(0.0, 1.0, panels + 1)
        t[1:-1] += gen.uniform(-0.3, 0.3, panels - 1) / panels
        edges = 0.5 * (1.0 - np.cos(math.pi * t))
    else:
        # the density is below 1e-25 of its bulk value past hi
        if spec.kind == op.GAUSSIAN:
            lo, hi = -(abs(top) + 8.0), abs(top) + 8.0
        else:
            lo, hi = 0.0, top + 10.0 * math.sqrt(top) + 30.0
        edges = np.linspace(lo, hi, panels + 1)
        edges[1:-1] += gen.uniform(-0.3, 0.3, panels - 1) * (hi - lo) / panels
    xg, wg = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


class Workload:
    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.size = QUICK if quick else FULL
        self.ops_per_round = len(self._plan(rng(seed, NAME, TIMED, 0)))
        self.small = []

    def _plan(self, gen) -> list[tuple]:
        """The round's operations as (kind, spec, N, payload) tuples."""
        plan = []
        size = self.size
        for spec in ENSEMBLES:
            for N, relations, repeats in size["entries"]:
                for relation in relations:
                    for stratum in STRATA * repeats:
                        s1, s2 = _relation_species(gen, N, relation)
                        p1 = kernel.SpeciesPoint(s1, position(gen, spec, N, s1, stratum))
                        p2 = kernel.SpeciesPoint(s2, position(gen, spec, N, s2, stratum))
                        plan.append(("entry", spec, N, (p1, p2)))
            for r, N in size["corr"]:
                lo = max(1, min(_pick(gen, 0.7 * N, 0.8 * N), N - CORR_WINDOW + 1))
                ss = gen.integers(lo, min(lo + CORR_WINDOW - 1, N) + 1, r)
                pts = [kernel.SpeciesPoint(int(s), position(gen, spec, N, int(s), "bulk"))
                       for s in ss]
                gauge = gen.uniform(0.5, 2.0, N + 1)
                plan.append(("correlation", spec, N, pts))
                plan.append(("kernel_K", spec, N, (pts, gauge)))
            for N, r in size["small"]:
                pts = [kernel.SpeciesPoint(s, position(gen, spec, N, s, "bulk"))
                       for s in _small_species(gen, N, r)]
                plan.append(("small", spec, N, pts))
            for N in size["density_n"]:
                s = int(gen.integers(1, N + 1))
                plan.append(("density", spec, N, (s,) + density_nodes(
                    gen, spec, N, s, size["panels"])))
        return plan

    @staticmethod
    def _op(kind, spec, N, payload):
        proc = kernel.ProcessSpec(spec, N)
        if kind == "entry":
            return lambda: kernel.kernel_F(proc, *payload)
        if kind in ("correlation", "small"):
            return lambda: kernel.correlation(proc, payload)
        if kind == "kernel_K":
            pts = payload[0]
            return lambda: np.array([[kernel.kernel_K(proc, a, b).value for b in pts] for a in pts])
        return lambda: kernel.density(proc, payload[0], payload[1])

    def warm_up_ops(self):
        plan = self._plan(rng(self.seed, NAME, WARM_UP))
        # one operation of each kind and size is enough to fill lazy caches
        seen, ops = set(), []
        for kind, spec, N, payload in plan:
            key = (kind, spec.kind, N)
            if key not in seen:
                seen.add(key)
                ops.append((f"warm-up {kind}", self._op(kind, spec, N, payload)))
        return ops

    def round_ops(self, r: int):
        self.plan = self._plan(rng(self.seed, NAME, TIMED, r))
        return [(f"{kind} {spec.kind} N={N}", self._op(kind, spec, N, payload))
                for kind, spec, N, payload in self.plan]

    def check_round(self, r: int, outputs) -> list[str]:
        """Oracle, gauge and mass checks now; brute force after the run."""
        problems = []
        for i, ((kind, spec, N, payload), out) in enumerate(zip(self.plan, outputs)):
            if out is None:
                continue
            tag = f"round {r} {kind} {spec.kind} N={N}"
            proc = kernel.ProcessSpec(spec, N)
            if kind == "entry":
                err = entry_error(proc, *payload, out)
                if not err <= ORACLE_RTOL:
                    problems.append(f"{tag} {payload}: oracle error {err:.3g} > {ORACLE_RTOL}")
            elif kind == "kernel_K" and outputs[i - 1] is not None:
                # the plan puts each kernel_K matrix right after the
                # correlation of the same points
                err = gauge_error(proc, payload[0], payload[1], out, outputs[i - 1])
                if not err <= GAUGE_RTOL:
                    problems.append(f"{tag}: gauged determinant error {err:.3g} > {GAUGE_RTOL}")
            elif kind == "small":
                self.small.append((r, spec, N, payload, out))
            elif kind == "density":
                s, _, weights = payload
                mass = float(np.dot(weights, out))
                if not abs(mass - s) <= MASS_TOL * s:
                    problems.append(f"{tag} species {s}: mass {mass!r}")
        return problems

    def final_checks(self) -> list[str]:
        problems = []
        for r, spec, N, pts, got in self.small:
            ref = validate.brute_force_marginal(kernel.ProcessSpec(spec, N), pts)
            err = relative_error(got, ref, abs(ref))
            if not err <= BRUTE_RTOL:
                problems.append(f"round {r} {spec.kind} N={N} {pts}: brute force "
                                f"{ref!r} vs correlation {got!r}")
        return problems


def relative_error(got: float, ref: float, scale: float) -> float:
    return abs(got - ref) / scale if scale > 0 else (0.0 if got == ref else math.inf)


@contextmanager
def _oracle_grid_covering(spec, N, points):
    """Let oracles.f_entry_series integrate past the given points.

    Its quadrature grid ends at |y| = 9.5 (Gaussian) or y = 60 + 3(a+N)
    (Laguerre); beyond that its chain convolution misses the tail and the
    oracle is wrong (checked against 60-digit mpmath).  Inside this context
    the grid reaches past the outermost point at the same panel density.
    """
    original = oracles._grid_for
    top = max(points)

    def grid_for(spec_, N_, kinks, n_panels=160, order=24):
        if spec_.kind == op.GAUSSIAN:
            lo, hi, ext = -9.5, 9.5, top + 8.0
        elif spec_.kind == op.LAGUERRE:
            lo, hi = 0.0, 60.0 + 3.0 * (spec_.a + N_)
            ext = top + 40.0 + 4.0 * math.sqrt(top)
        else:
            return original(spec_, N_, kinks, n_panels, order)
        if ext <= hi:
            return original(spec_, N_, kinks, n_panels, order)
        base = np.linspace(lo, ext, math.ceil(n_panels * (ext - lo) / (hi - lo)) + 1)
        edges = np.unique(np.concatenate([base, np.clip(np.asarray(kinks, float), lo, ext)]))
        return oracles.PanelGrid(edges, order)

    oracles._grid_for = grid_for
    try:
        yield
    finally:
        oracles._grid_for = original


def entry_error(proc, p1, p2, got) -> float:
    """Error of a kernel_F entry against the tests' independent routes,
    relative to the entry's scale: the larger of |entry| and the geometric
    mean of the two diagonal entries (the size of the terms that cancel)."""
    if p1.s < p2.s:
        with _oracle_grid_covering(proc.ensemble, proc.N, (p1.y, p2.y)):
            ref = oracles.f_entry_series(proc, p1, p2)
    else:
        ref = oracles.f_entry_direct(proc, p1, p2)
    diag = math.sqrt(abs(oracles.f_entry_direct(proc, p1, p1) * oracles.f_entry_direct(proc, p2, p2)))
    return relative_error(got, ref, max(abs(ref), diag))


def gauge_error(proc, pts, c, kmat, corr) -> float:
    """|det(c(s)/c(t)-gauged kernel_K matrix) - correlation| relative to the
    product of the gauged rows' norms (Hadamard's bound on the determinant)."""
    cs = np.array([c[p.s] for p in pts])
    gauged = kmat * cs[:, None] / cs[None, :]
    scale = float(np.prod(np.linalg.norm(gauged, axis=1)))
    return relative_error(float(np.linalg.det(gauged)), corr, scale)
