import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from minorkern.rsklab import (
    ExponentialHomogeneous,
    ExponentialInhomogeneous,
    ExponentialJacobi,
    Geometric,
    LatticeConfig,
    ShapeSequence,
    eval_discrete_joint,
    eval_jacobi_limit_pdf,
    jacobi_limit_pdf_y,
    last_passage,
    last_passage_batch,
    lpp_eigenvalue_bridge_test,
    rsk_shape_sequence,
    sample_lattice,
    sample_wishart_chain_batch,
    sample_wishart_chain_inhomogeneous,
    specialized_weight_form,
)
from minorkern import rsklab
from minorkern.rsklab import _rsk_shape
from minorkern.samplers import rng_stream, sample_lue_batch
from minorkern.validate import ks_two_sample


def partitions_upto(rows, maxpart):
    def rec(r, hi):
        if r == 0:
            yield ()
            return
        for first in range(hi + 1):
            for rest in rec(r - 1, first):
                yield (first,) + rest
    return list(rec(rows, maxpart))


GEO = LatticeConfig(3, 1, 1, Geometric(z=0.3, t=0.5, alphas=(0.4,)))


class TestLattice:
    def test_geometric_zero_probability(self):
        cfg = LatticeConfig(2, 1, 0, Geometric(z=0.4, t=0.5))
        q = 0.4**2  # site (1,1) parameter
        draws = 40000
        zeros = sum(sample_lattice(cfg, seed=1, draw=d)[0, 0] == 0 for d in range(draws))
        p = zeros / draws
        se = math.sqrt((1 - q) * q / draws)
        assert abs(p - (1 - q)) < 4 * se

    def test_exponential_nonnegative(self):
        cfg = LatticeConfig(3, 2, 1, ExponentialJacobi(a=0.5, a_s=(0.3,)))
        grid = sample_lattice(cfg, seed=2)
        assert grid.shape == (3, 3) and np.all(grid >= 0)

    def test_inhomogeneous_site_mean(self):
        pis, pihats = (0.7, 1.2), (0.4, 0.9)
        cfg = LatticeConfig(2, 2, 0, ExponentialInhomogeneous(pis, pihats))
        draws = 30000
        vals = np.array([sample_lattice(cfg, seed=3, draw=d)[1, 0] for d in range(draws)])
        mean = 1.0 / (pis[1] + pihats[0])
        assert abs(vals.mean() - mean) < 4 * vals.std() / math.sqrt(draws)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeConfig(1, 1, 1, Geometric(z=0.5, t=0.5, alphas=(0.5,)))
        with pytest.raises(ValueError):
            LatticeConfig(2, 1, 1, Geometric(z=1.2, t=0.5, alphas=(0.5,)))
        with pytest.raises(ValueError):
            LatticeConfig(2, 1, 1, ExponentialInhomogeneous((1.0, 1.0), (-2.0, 0.5)))

    @pytest.mark.parametrize("cfg", [
        LatticeConfig(3, 1, 1, Geometric(z=0.3, t=0.5, alphas=(0.4,))),
        LatticeConfig(4, 2, 1, ExponentialJacobi(a=0.5, a_s=(0.3,))),
    ], ids=["geometric", "exponential-jacobi"])
    def test_draws_match_per_cell_reference(self, cfg):
        # one site at a time, row by row, from the same stream
        m = cfg.model
        for d in range(50):
            rng = rng_stream(11, d)
            ref = np.empty((cfg.n1, cfg.cols()))
            for i in range(1, cfg.n1 + 1):
                for j in range(1, cfg.cols() + 1):
                    if isinstance(m, Geometric):
                        q = m.z**2 * m.t ** (i + j - 2) if j <= cfg.n2 else m.alphas[j - cfg.n2 - 1] * m.z * m.t ** (i - 1)
                        ref[i - 1, j - 1] = rng.geometric(1.0 - q) - 1
                    else:
                        rate = (i + j - 2 + 2 * m.a) if j <= cfg.n2 else (i - 1 + m.a + m.a_s[j - cfg.n2 - 1])
                        ref[i - 1, j - 1] = rng.exponential(1.0 / rate)
            assert np.array_equal(sample_lattice(cfg, seed=11, draw=d), ref)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            LatticeConfig(2, 1, 0, ExponentialJacobi(a=0.0))
        with pytest.raises(ValueError):
            LatticeConfig(2, 1, 1, ExponentialJacobi(a=0.5))


class TestLastPassage:
    def test_single_cell(self):
        assert last_passage(np.array([[3.7]]), 1, 1) == 3.7

    def test_two_by_two_example(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert last_passage(g, 2, 2) == 8.0

    def test_monotone_in_endpoint(self):
        rng = np.random.default_rng(4)
        g = rng.exponential(1.0, (5, 5))
        for m in range(2, 6):
            assert last_passage(g, m, 5) >= last_passage(g, m - 1, 5)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        grids = rng.exponential(1.0, (20, 4, 6))
        batch = last_passage_batch(grids)
        for d in (0, 7, 19):
            assert batch[d] == pytest.approx(last_passage(grids[d], 4, 6))


def max_antichain(cells):
    """Largest antichain in the coordinatewise partial order."""
    best = 0
    cells = list(cells)
    for r in range(1, len(cells) + 1):
        for sub in itertools.combinations(cells, r):
            if all(not ((a[0] <= b[0] and a[1] <= b[1]) or (b[0] <= a[0] and b[1] <= a[1]))
                   for a, b in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


def disjoint_path_sums(grid):
    """Greene-style oracle: max weight over unions coverable by l chains."""
    n1, n2 = grid.shape
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    out = {}
    for l in range(1, max(n1, n2) + 1):
        best = 0
        for r in range(len(cells) + 1):
            for sub in itertools.combinations(cells, r):
                if sum(grid[c] for c in sub) <= best:
                    continue
                if max_antichain(sub) <= l:
                    best = sum(grid[c] for c in sub)
        out[l] = best
    return out


class TestRsk:
    def test_zero_matrix(self):
        seq = rsk_shape_sequence(np.zeros((2, 2), dtype=int), 1)
        assert seq.shapes == ((), ())

    def test_identity_pattern_example(self):
        grid = np.array([[1, 0], [0, 1]])
        seq = rsk_shape_sequence(grid, 1)
        assert seq.shapes[1] == (2,)
        assert seq.interlaced()

    def test_first_row_equals_last_passage(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n1, n2 = rng.integers(1, 5), rng.integers(1, 5)
            g = rng.integers(0, 4, (n1, n2))
            sh = _rsk_shape(g)
            mu1 = sh[0] if sh else 0
            assert mu1 == last_passage(g.astype(float), n1, n2)

    @pytest.mark.parametrize("trial", range(20))
    def test_row_lengths_from_disjoint_paths(self, trial):
        rng = np.random.default_rng(100 + trial)
        g = rng.integers(0, 3, (3, 3))
        sh = list(_rsk_shape(g)) + [0] * 3
        sums = disjoint_path_sums(g)
        for l in (1, 2, 3):
            assert sum(sh[:l]) == sums[l]

    def test_sampled_interlacing(self):
        for d in range(400):
            seq = rsk_shape_sequence(sample_lattice(GEO, seed=7, draw=d), 1)
            assert seq.interlaced()


def schur(mu, xs):
    n = len(xs)
    mu = list(mu) + [0] * (n - len(mu))
    num = np.array([[x ** (mu[j] + n - 1 - j) for j in range(n)] for x in xs])
    den = np.array([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return np.linalg.det(num) / np.linalg.det(den)


def e1_oracle(cfg, mus):
    """Joint shape-sequence weight from the product-of-Schur construction."""
    n1, n2, p = cfg.n1, cfg.n2, cfg.p
    z, t, alphas = cfg.model.z, cfg.model.t, cfg.model.alphas
    a = [z * t**i for i in range(n1)]
    b = [z * t**j for j in range(n2)] + list(alphas)
    pref = 1.0
    for ai in a:
        for bj in b:
            pref *= 1 - ai * bj
    val = pref * schur(mus[p], a) * schur(mus[0], b[:n2])
    for s in range(1, p + 1):
        m = list(mus[s]) + [0] * 8
        k = list(mus[s - 1]) + [0] * 8
        for i in range(7):
            if not (m[i] >= k[i] >= m[i + 1]):
                return 0.0
        val *= b[n2 + s - 1] ** (sum(mus[s]) - sum(mus[s - 1]))
    return val


class TestDiscreteJoint:
    def test_interlacing_violation_is_zero(self):
        seq = ShapeSequence(((3,), (1, 0)), 1)
        assert eval_discrete_joint(GEO, seq) == 0.0

    def test_normalization(self):
        tot = sum(
            eval_discrete_joint(GEO, ShapeSequence((mu0, mu1), 1))
            for mu0 in partitions_upto(1, 15)
            for mu1 in partitions_upto(2, 15)
        )
        assert tot == pytest.approx(1.0, abs=1e-6)

    def test_matches_schur_product_oracle(self):
        for mu0 in partitions_upto(1, 5):
            for mu1 in partitions_upto(2, 5):
                got = eval_discrete_joint(GEO, ShapeSequence((mu0, mu1), 1))
                ref = e1_oracle(GEO, {0: mu0, 1: mu1})
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-16)

    def test_matches_oracle_two_extra_columns(self):
        cfg = LatticeConfig(4, 1, 2, Geometric(z=0.25, t=0.4, alphas=(0.35, 0.2)))
        rng = np.random.default_rng(8)
        count = 0
        for _ in range(200):
            mu0 = tuple(sorted(rng.integers(0, 5, 1), reverse=True))
            mu1 = tuple(sorted(rng.integers(0, 5, 2), reverse=True))
            mu2 = tuple(sorted(rng.integers(0, 5, 3), reverse=True))
            got = eval_discrete_joint(cfg, ShapeSequence((mu0, mu1, mu2), 1))
            ref = e1_oracle(cfg, {0: mu0, 1: mu1, 2: mu2})
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-16)
            count += got > 0
        assert count > 20

    def test_memoized_constants_give_bitwise_equal_weights(self, monkeypatch):
        cfg = LatticeConfig(4, 1, 2, Geometric(z=0.25, t=0.4, alphas=(0.35, 0.2)))
        cases = [(GEO, ShapeSequence((mu0, mu1), 1)) for mu0 in partitions_upto(1, 12)
                 for mu1 in partitions_upto(2, 12)]
        cases += [(cfg, ShapeSequence((mu0, mu1, mu2), 1)) for mu0 in partitions_upto(1, 3)
                  for mu1 in partitions_upto(2, 3) for mu2 in partitions_upto(3, 3)]
        cached = [eval_discrete_joint(c, s) for c, s in cases]
        for name in ("_log_qpoch", "_log_discrete_constant"):
            monkeypatch.setattr(rsklab, name, getattr(rsklab, name).__wrapped__)
        fresh = [eval_discrete_joint(c, s) for c, s in cases]
        assert cached == fresh and sum(w > 0 for w in fresh) > 100

    def test_empirical_frequencies(self):
        draws = 30000
        freq = {}
        for d in range(draws):
            seq = rsk_shape_sequence(sample_lattice(GEO, seed=9, draw=d), 1)
            key = (seq.shapes[0], seq.shapes[1])
            freq[key] = freq.get(key, 0) + 1
        checked = 0
        for key, cnt in freq.items():
            prob = eval_discrete_joint(GEO, ShapeSequence(key, 1))
            if prob * draws < 100:
                continue
            z = (cnt / draws - prob) / math.sqrt(prob * (1 - prob) / draws)
            assert abs(z) < 4.5
            checked += 1
        assert checked >= 3


class TestJacobiLimit:
    def test_violated_ordering_is_zero(self):
        assert eval_jacobi_limit_pdf(3, 1, 1, 0.8, (0.5,), {0: [2.0], 1: [1.0, 0.5]}) == 0.0

    def test_normalization_single_level(self):
        f = lambda x: eval_jacobi_limit_pdf(3, 1, 0, 0.7, (), {0: [x]})
        val, _ = integrate.quad(f, 0, 80, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_y_form_change_of_variables(self):
        pts = {0: [1.3], 1: [2.0, 0.4]}
        ypts = {s: [math.exp(-x) for x in xs] for s, xs in pts.items()}
        jac = math.exp(sum(sum(xs) for xs in pts.values()))
        v_x = eval_jacobi_limit_pdf(4, 1, 1, 0.8, (0.5,), pts)
        v_y = jacobi_limit_pdf_y(4, 1, 1, 0.8, (0.5,), ypts)
        assert v_y == pytest.approx(v_x * jac, rel=1e-12)

    def test_y_form_direct_formula(self):
        # independent evaluation of the y-variable density
        n1, n2, p, a, a1 = 4, 1, 1, 0.8, 0.5
        ypts = {0: [0.3], 1: [0.15, 0.6]}
        got = jacobi_limit_pdf_y(n1, n2, p, a, (a1,), ypts)
        from minorkern.rsklab import _log_jacobi_limit_constant

        y0, (y1a, y1b) = ypts[0][0], sorted(ypts[1])
        const = math.exp(_log_jacobi_limit_constant(n1, n2, p, a, (a1,)))
        direct = (
            const
            * (y1a * y1b) ** (a - 1.0) * ((1 - y1a) * (1 - y1b)) ** (n1 - n2 - p)
            * y0**a
            * (y1a * y1b) ** a1 / y0 ** (a1 + 1.0)
            * (y1b - y1a)
        )
        assert got == pytest.approx(direct, rel=1e-12)

    def test_specialized_weight_form_reduction(self):
        # at a_s = a - s the interior levels become pure constraints
        n1, n2, p, a = 5, 1, 1, 1.2
        ypts = {0: [0.35], 1: [0.2, 0.7]}
        a_s = (a - 1,)
        full = jacobi_limit_pdf_y(n1, n2, p, a, a_s, ypts)
        kw = specialized_weight_form(n1, n2, p, a, ypts)
        # ratio must be a configuration-independent constant
        ypts2 = {0: [0.52], 1: [0.1, 0.8]}
        full2 = jacobi_limit_pdf_y(n1, n2, p, a, a_s, ypts2)
        kw2 = specialized_weight_form(n1, n2, p, a, ypts2)
        assert full / kw == pytest.approx(full2 / kw2, rel=1e-10)

    def test_discrete_to_continuum_first_order(self):
        n1, n2, p, a, a1 = 4, 1, 1, 0.8, 0.5
        pts = {0: [1.1], 1: [1.9, 0.6]}
        cont = eval_jacobi_limit_pdf(n1, n2, p, a, (a1,), pts)
        errs = []
        for L in (50, 100, 200):
            cfg = LatticeConfig(n1, n2, p, Geometric(
                z=math.exp(-a / L), t=math.exp(-1.0 / L), alphas=(math.exp(-a1 / L),)))
            mus = {}
            for s, xs in pts.items():
                mus[s] = tuple(round(x * L) - (n2 + s) + (j + 1) for j, x in enumerate(xs))
            val = eval_discrete_joint(cfg, ShapeSequence((mus[0], mus[1]), n2))
            val *= L ** ((1 + p) * (n2 + p / 2.0))
            errs.append(abs(val - cont))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 1.7 <= r <= 2.3


class TestWishartChain:
    def test_determinism_and_positivity(self):
        a = sample_wishart_chain_inhomogeneous(4, [0.5] * 4, [0.5] * 4, seed=21)
        b = sample_wishart_chain_inhomogeneous(4, [0.5] * 4, [0.5] * 4, seed=21)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])
            assert np.all(a[n] > 0)

    def test_interlacing(self):
        for d in range(200):
            ch = sample_wishart_chain_inhomogeneous(5, [0.4] * 5, [0.6] * 5, seed=22, draw=d)
            for n in range(1, 5):
                lo, hi = ch[n], ch[n + 1]
                assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])

    def test_batch_matches_single(self):
        batch = sample_wishart_chain_batch(4, [0.5] * 4, [0.5] * 4, 20, seed=23)
        single = sample_wishart_chain_inhomogeneous(4, [0.5] * 4, [0.5] * 4, seed=23, draw=11)
        for n in single:
            np.testing.assert_array_equal(batch[n][11], single[n])

    def test_chunked_batch_equals_slice(self):
        pis, pihats = [0.4, 0.5, 0.7, 0.3], [0.6, 0.2, 0.5, 0.8]
        whole = sample_wishart_chain_batch(4, pis, pihats, 12, seed=31)
        chunk = sample_wishart_chain_batch(4, pis, pihats, 5, seed=31, start=7)
        for n in whole:
            np.testing.assert_array_equal(chunk[n], whole[n][7:12])

    def test_homogeneous_limit_matches_lue_chain(self):
        p, draws = 4, 20000
        lam = sample_wishart_chain_batch(p, [0.5] * p, [0.5] * p, draws, seed=24)[p][:, -1]
        lam_lue = sample_lue_batch(p, p, draws, seed=25)[p][:, -1]
        stat, crit = ks_two_sample(lam, lam_lue)
        assert stat < crit


class TestBridge:
    def test_single_site_is_exponential_match(self):
        rep = lpp_eigenvalue_bridge_test(1, 20000, seed=26)
        assert rep["pass"]

    def test_moderate_size_passes(self):
        rep = lpp_eigenvalue_bridge_test(6, 20000, seed=27)
        assert rep["pass"] and rep["statistic"] < rep["critical_value"]

    def test_negative_control_scale_mismatch(self):
        rep = lpp_eigenvalue_bridge_test(6, 20000, seed=28, scale=2.0)
        assert not rep["pass"]


class TestLatticeBatch:
    CONFIGS = [GEO, LatticeConfig(4, 2, 1, ExponentialJacobi(a=0.5, a_s=(0.3,))),
               LatticeConfig(3, 1, 2, ExponentialInhomogeneous((1.0, 2.0, 3.0), (0.5, 0.25, 0.1)))]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["geometric", "exponential-jacobi", "inhomogeneous"])
    def test_scalar_is_batch_row(self, cfg):
        batch = rsklab.sample_lattice_batch(cfg, 40, seed=12, start=5)
        assert batch.shape == (40, cfg.n1, cfg.cols()) and batch.dtype == float
        for d in range(40):
            assert sample_lattice(cfg, seed=12, draw=5 + d).tobytes() == batch[d].tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["geometric", "exponential-jacobi", "inhomogeneous"])
    def test_chunked_reruns_are_bitwise(self, cfg):
        whole = rsklab.sample_lattice_batch(cfg, 30, seed=2**63 + 1)
        chunks = [rsklab.sample_lattice_batch(cfg, n, seed=2**63 + 1, start=lo) for lo, n in ((0, 7), (7, 16), (23, 7))]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    def test_ranges_checked(self):
        with pytest.raises(ValueError):
            rsklab.sample_lattice_batch(GEO, 3, seed=-1)
        with pytest.raises(ValueError):
            rsklab.sample_lattice_batch(GEO, 2, seed=0, start=2**128 - 1)
        assert rsklab.sample_lattice_batch(GEO, 0, seed=0).shape == (0, 3, 2)
