import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh as scipy_eigh

from minorkern import orthopoly as op
from minorkern import samplers
from minorkern.numerics import NumericError
from minorkern.rsklab import sample_wishart_chain_batch
from minorkern.samplers import (
    LUE_UPDATE,
    PROJECTION,
    InterlacedChain,
    SecularProblem,
    chains_from_csv,
    chains_to_csv,
    draw_streams,
    interlaces,
    rng_stream,
    sample_ensemble_eigs,
    sample_gue_minor_batch,
    sample_gue_minor_chain,
    sample_lue_batch,
    sample_lue_chain,
    sample_projection_batch,
    sample_projection_chain,
    secular_roots,
)

GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG2 = op.EnsembleSpec(op.LAGUERRE, a=2.0)
JAC = op.EnsembleSpec(op.JACOBI, a=1.0, b=1.0)


class TestSecular:
    def test_lue_quadratic_closed_form(self):
        prob = SecularProblem(np.array([1.0]), np.array([0.5]), LUE_UPDATE,
                              zero_pole_weight=0.5)
        roots = secular_roots(prob)
        expect = [1 - math.sqrt(0.5), 1 + math.sqrt(0.5)]
        np.testing.assert_allclose(roots, expect, rtol=1e-12)

    def test_projection_interlaces_poles(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            poles = np.sort(rng.normal(0, 2, n))
            while np.any(np.diff(poles) < 1e-9):
                poles = np.sort(rng.normal(0, 2, n))
            w = rng.uniform(0.1, 1, n)
            w /= w.sum()
            roots = secular_roots(SecularProblem(poles, w, PROJECTION))
            assert len(roots) == n - 1
            assert np.all(poles[:-1] < roots) and np.all(roots < poles[1:])

    def test_residual_small(self):
        poles = np.array([0.5, 1.5, 4.0])
        w = np.array([0.2, 0.7, 0.4])
        prob = SecularProblem(poles, w, LUE_UPDATE, zero_pole_weight=0.3)
        for r in secular_roots(prob):
            val = 1 - 0.3 / r - np.sum(w / (r - poles))
            assert abs(val) < 1e-10

    def test_merges_degenerate_poles(self):
        # nearly coincident poles still bound a gap that holds one root: a
        # chain level has exactly one point fewer than the level above
        two_doubles_up = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        w = np.array([0.3, 0.3, 0.4])
        for second in (1.0 + 1e-14, two_doubles_up):
            poles = np.array([1.0, second, 2.0])
            roots = secular_roots(SecularProblem(poles, w, PROJECTION))
            assert len(roots) == 2
            assert np.all(poles[:-1] < roots) and np.all(roots < poles[1:])

    def test_stacked_problems_match_one_by_one(self):
        rng = np.random.default_rng(2)
        poles = np.sort(rng.uniform(0.1, 5.0, (6, 4)), axis=1)
        w = rng.uniform(0.1, 1.0, (6, 4))
        rng.normal(size=6)  # unused: w0 is drawn after it
        w0 = rng.uniform(0.1, 1.0, 6)
        for form in (LUE_UPDATE, PROJECTION):
            stacked = secular_roots(SecularProblem(poles, w, form, zero_pole_weight=w0))
            for d in range(6):
                one = secular_roots(SecularProblem(poles[d], w[d], form,
                                                   zero_pole_weight=w0[d]))
                np.testing.assert_array_equal(stacked[d], one)

    def test_validation(self):
        with pytest.raises(ValueError):
            SecularProblem(np.array([2.0, 1.0]), np.array([1.0, 1.0]), PROJECTION)
        with pytest.raises(ValueError):
            SecularProblem(np.array([1.0]), np.array([-1.0]), PROJECTION)
        with pytest.raises(ValueError):
            SecularProblem(np.array([1.0]), np.array([1.0]), "other")
        # stacked problems are checked along the last axis, row by row
        with pytest.raises(ValueError):
            SecularProblem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((2, 2)), PROJECTION)
        with pytest.raises(ValueError):
            SecularProblem(np.array([[1.0, 2.0], [1.0, 2.0]]), np.ones((2, 2)), LUE_UPDATE,
                           zero_pole_weight=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            SecularProblem(np.array([1.0, np.nan]), np.ones(2), PROJECTION)
        # no double lies strictly between these poles, so no root can interlace
        with pytest.raises(ValueError):
            SecularProblem(np.array([1.0, np.nextafter(1.0, 2.0)]), np.ones(2), PROJECTION)


def _h_exact(poles, w, c, x):
    return c + sum(Fraction(wi) / (Fraction(pi) - Fraction(x)) for pi, wi in zip(poles, w))


def _certified(poles, w, c, x, lo, hi):
    """|h(x)| <= 4 m eps (sum |w_i/(x - p_i)| + c) in exact arithmetic, or h
    changes sign between x and a neighbouring double (a pole counts with the
    sign h takes next to it: -inf above lo, +inf below hi)."""
    hx = _h_exact(poles, w, c, x)
    size = c + sum(abs(Fraction(wi) / (Fraction(pi) - Fraction(x))) for pi, wi in zip(poles, w))
    if abs(hx) <= 4 * len(poles) * Fraction(np.finfo(float).eps) * size:
        return True
    for nb in (np.nextafter(x, -np.inf), np.nextafter(x, np.inf)):
        sign = -1 if nb <= lo else 1 if nb >= hi else np.sign(float(_h_exact(poles, w, c, nb)))
        if sign * hx <= 0:
            return True
    return False


def _doubles_up(x, k):
    for _ in range(k):
        x = np.nextafter(x, np.inf)
    return x


def _hard_case(name):
    rng = np.random.default_rng(5)
    draws = 24
    if name == "poles-doubles-apart":  # one, then two doubles between neighbouring poles
        base = rng.uniform(0.5, 3.0, draws)
        poles = np.stack([base, _doubles_up(base, 2), base + 1.0, _doubles_up(base + 1.0, 3), base + 2.0], axis=1)
        return poles, rng.uniform(0.1, 1.0, poles.shape), rng.uniform(0.1, 1.0, draws)
    if name == "weights-1e-12-to-1e3":
        poles = np.sort(rng.uniform(0.1, 10.0, (draws, 6)), axis=1)
        return poles, 10.0 ** rng.uniform(-12, 3, (draws, 6)), 10.0 ** rng.uniform(-12, 3, draws)
    if name == "tiny-zero-pole-weight":
        poles = np.sort(rng.uniform(0.1, 10.0, (draws, 6)), axis=1)
        return poles, rng.uniform(0.1, 1.0, (draws, 6)), 10.0 ** rng.uniform(-300, -12, draws)
    poles = np.sort(10.0 ** rng.uniform(-6, 6, (draws, 7)), axis=1)  # poles-1e-6-to-1e6
    return poles, rng.uniform(0.1, 1.0, (draws, 7)), rng.uniform(0.1, 1.0, draws)


class TestSecularHardCases:
    @pytest.mark.parametrize("name, form", [
        ("poles-doubles-apart", LUE_UPDATE), ("poles-doubles-apart", PROJECTION),
        ("weights-1e-12-to-1e3", LUE_UPDATE), ("weights-1e-12-to-1e3", PROJECTION),
        ("tiny-zero-pole-weight", LUE_UPDATE),
        ("poles-1e-6-to-1e6", LUE_UPDATE), ("poles-1e-6-to-1e6", PROJECTION)])
    def test_interlaced_certified_and_bitwise_stable(self, name, form):
        poles, w, w0 = _hard_case(name)
        if form == PROJECTION:
            w = w / w.sum(axis=1, keepdims=True)
        roots = secular_roots(SecularProblem(poles, w, form, zero_pole_weight=w0))
        one = np.array([secular_roots(SecularProblem(poles[d], w[d], form, zero_pole_weight=w0[d]))
                        for d in range(len(poles))])
        thirds = np.concatenate([secular_roots(SecularProblem(poles[c], w[c], form, zero_pole_weight=w0[c]))
                                 for c in np.array_split(np.arange(len(poles)), 3)])
        np.testing.assert_array_equal(roots, one)
        np.testing.assert_array_equal(roots, thirds)
        for d in range(len(poles)):
            p, wd, c = list(poles[d]), list(w[d]), 0.0
            if form == LUE_UPDATE:
                p, wd, c = [0.0] + p, [w0[d]] + wd, 1.0
            ends = p + [np.inf] * (form == LUE_UPDATE)
            assert len(roots[d]) == len(ends) - 1
            for j, x in enumerate(roots[d]):
                assert ends[j] < x < ends[j + 1]
                assert _certified(p, wd, c, x, ends[j], ends[j + 1]), (d, j, x)

    def test_solve_blocks_do_not_change_roots(self, monkeypatch):
        poles, w, w0 = _hard_case("poles-1e-6-to-1e6")
        whole = secular_roots(SecularProblem(poles, w, LUE_UPDATE, zero_pole_weight=w0))
        monkeypatch.setattr(samplers, "_SOLVE_BLOCK", 5)
        np.testing.assert_array_equal(
            secular_roots(SecularProblem(poles, w, LUE_UPDATE, zero_pole_weight=w0)), whole)

    def test_open_root_after_cap_raises(self, monkeypatch):
        monkeypatch.setattr(samplers, "_MAX_SWEEPS", 1)
        poles, w, w0 = _hard_case("weights-1e-12-to-1e3")
        with pytest.raises(NumericError, match="still open"):
            secular_roots(SecularProblem(poles, w, LUE_UPDATE, zero_pole_weight=w0))


def test_nonfinite_zero_pole_weight_rejected():
    for w0 in (np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="zero-pole weight must be finite"):
            SecularProblem(np.array([[1.0, 2.0], [1.0, 2.0]]), np.ones((2, 2)), LUE_UPDATE, zero_pole_weight=w0)


class TestStreams:
    @pytest.mark.parametrize("seed, draw", [(-1, 0), (2**64, 0), (0, -1)])
    def test_invalid_seed_or_draw(self, seed, draw):
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*"):
            rng_stream(seed, draw)

    def test_range_ends_accepted(self):
        rng_stream(0, 0)
        rng_stream(2**64 - 1, 2**128 - 1)

    @pytest.mark.parametrize("seed, first", [(7, 0), (7, 2**64), (7, 2**128 - 2), (2**64 - 1, 5)])
    def test_rekeyed_streams_equal_fresh_generators(self, seed, first):
        # each draw leaves a partial buffer (an odd count of 32-bit words),
        # which re-keying for the next draw must discard
        def variates(g):
            return g.standard_normal(5), g.integers(0, 2**32, 3, dtype=np.uint32), g.exponential(1.0, 2)

        for d, gen in zip(range(first, first + 2), draw_streams(seed, first, 2)):
            for a, b in zip(variates(gen), variates(_fresh(seed, d))):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(rng_stream(seed, first).standard_normal(4),
                                      _fresh(seed, first).standard_normal(4))

    @pytest.mark.parametrize("seed, start, draws", [(0, 2**128 - 1, 2), (0, -1, 1), (2**64, 0, 1)])
    def test_draw_streams_checks_ranges_when_called(self, seed, start, draws):
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*"):
            draw_streams(seed, start, draws)


def _projection_batch(ensemble):
    return lambda draws, seed, start: sample_projection_batch(ensemble, 4, 2, draws, seed, start)


BATCH_SAMPLERS = {
    "gue-minor": lambda draws, seed, start: sample_gue_minor_batch(4, draws, seed, start),
    "lue-chain": lambda draws, seed, start: sample_lue_batch(5, 3, draws, seed, start),
    "projection-gaussian": _projection_batch(GAUSS),
    "projection-jacobi": _projection_batch(JAC),
}


@pytest.mark.parametrize("name", sorted(BATCH_SAMPLERS))
def test_chunked_batch_equals_slice(name):
    sampler = BATCH_SAMPLERS[name]
    whole = sampler(12, 31, 0)
    chunk = sampler(5, 31, 7)
    for s in whole:
        np.testing.assert_array_equal(chunk[s], whole[s][7:12])


ALL_BATCH_SAMPLERS = {
    **BATCH_SAMPLERS,
    "wishart": lambda draws, seed, start: sample_wishart_chain_batch(
        3, [0.5, 1.0, 1.5], [0.5, 0.5, 0.5], draws, seed, start),
}


@pytest.mark.parametrize("name", sorted(ALL_BATCH_SAMPLERS))
def test_batch_range_checked_before_any_draw(name, monkeypatch):
    made = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(k) or philox(*a, **k))
    with pytest.raises(ValueError, match=r"draw must be in \[0, 2\*\*128\)"):
        ALL_BATCH_SAMPLERS[name](2, 0, 2**128 - 1)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        ALL_BATCH_SAMPLERS[name](2, -1, 0)
    assert made == []


@pytest.mark.parametrize("name", sorted(ALL_BATCH_SAMPLERS))
def test_zero_draws_give_empty_species(name):
    sampler = ALL_BATCH_SAMPLERS[name]
    empty, one = sampler(0, 3, 0), sampler(1, 3, 0)
    assert list(empty) == list(one)
    for s, v in empty.items():
        assert v.shape == (0, s)


# Reference builders that draw one part at a time: a fresh generator per draw
# and one normal(0, sd) call per part, one matrix per draw.  The batched
# samplers must reproduce them bit for bit (Jacobi: to roundoff, since its
# pencil is whitened instead of solved by scipy's generalized eigh).

def _fresh(seed, draw):
    return np.random.Generator(np.random.Philox(key=seed, counter=draw << 128))


def _ref_gue(rng, N):
    iu = np.triu_indices(N, 1)
    m = np.zeros((N, N), dtype=complex)
    m[iu] = rng.normal(0.0, 0.5, len(iu[0])) + 1j * rng.normal(0.0, 0.5, len(iu[0]))
    m = m + m.conj().T
    m[np.diag_indices(N)] = rng.normal(0.0, 1.0 / math.sqrt(2.0), N)
    return m


def _ref_complex(rng, shape):
    sd = 1.0 / math.sqrt(2.0)
    return rng.normal(0.0, sd, shape) + 1j * rng.normal(0.0, sd, shape)


def _ref_base(ensemble, n, rng):
    if ensemble.kind == op.GAUSSIAN:
        return np.linalg.eigvalsh(_ref_gue(rng, n))
    x = _ref_complex(rng, (n + int(ensemble.a), n))
    if ensemble.kind == op.LAGUERRE:
        return np.linalg.eigvalsh(x.conj().T @ x)
    y = _ref_complex(rng, (n + int(ensemble.b), n))
    w1 = x.conj().T @ x
    return scipy_eigh(w1, w1 + y.conj().T @ y, eigvals_only=True)


def _ref_projection(ensemble, n, depth, draws, seed, start):
    sizes = range(n, n - depth, -1)
    base = np.empty((draws, n))
    gauss = [np.empty((draws, m), dtype=complex) for m in sizes]
    for d in range(draws):
        rng = _fresh(seed, start + d)
        base[d] = np.sort(_ref_base(ensemble, n, rng))
        for g, m in zip(gauss, sizes):
            g[d] = _ref_complex(rng, m)
    out = {n: base}
    for g, m in zip(gauss, sizes):
        w = np.abs(g) ** 2
        w /= w.sum(axis=1, keepdims=True)
        out[m - 1] = secular_roots(SecularProblem(out[m], w, PROJECTION))
    return out


class TestSameDrawsAsPerDrawReference:
    DRAWS, SEED, START = 200, 19, 7

    def test_gue_minors(self):
        mats = np.array([_ref_gue(_fresh(self.SEED, self.START + d), 4) for d in range(self.DRAWS)])
        batch = sample_gue_minor_batch(4, self.DRAWS, self.SEED, self.START)
        for s in range(1, 5):
            np.testing.assert_array_equal(batch[s], np.linalg.eigvalsh(mats[:, :s, :s]))

    def test_lue_chain(self):
        N, n_max = 4, 3
        xs = np.array([[_ref_complex(rng, N) for _ in range(n_max)]
                       for rng in (_fresh(self.SEED, self.START + d) for d in range(self.DRAWS))])
        w = np.abs(xs) ** 2
        expect = {1: w[:, 0, :].sum(axis=1)[:, None]}
        for n in range(1, n_max):
            expect[n + 1] = secular_roots(SecularProblem(
                expect[n], w[:, n, :n], LUE_UPDATE, zero_pole_weight=w[:, n, n:].sum(axis=1)))
        batch = sample_lue_batch(N, n_max, self.DRAWS, self.SEED, self.START)
        for s in expect:
            np.testing.assert_array_equal(batch[s], expect[s])

    @pytest.mark.parametrize("ensemble, n, depth", [(GAUSS, 3, 2), (LAG2, 5, 3)], ids=["gauss", "lag2"])
    def test_projection(self, ensemble, n, depth):
        expect = _ref_projection(ensemble, n, depth, self.DRAWS, self.SEED, self.START)
        batch = sample_projection_batch(ensemble, n, depth, self.DRAWS, self.SEED, self.START)
        assert list(batch) == list(expect)
        for s in expect:
            np.testing.assert_array_equal(batch[s], expect[s])

    @pytest.mark.parametrize("ensemble", [JAC, op.EnsembleSpec(op.JACOBI, a=0.0, b=2.0)],
                             ids=["jac11", "jac02"])
    def test_jacobi_whitening_matches_generalized_eigh(self, ensemble):
        expect = _ref_projection(ensemble, 4, 0, self.DRAWS, self.SEED, self.START)[4]
        base = sample_projection_batch(ensemble, 4, 0, self.DRAWS, self.SEED, self.START)[4]
        np.testing.assert_allclose(base, expect, rtol=0, atol=1e-14)


class TestGueMinorChain:
    def test_deterministic_per_seed(self):
        a = sample_gue_minor_chain(4, seed=42)
        b = sample_gue_minor_chain(4, seed=42)
        for s in a.species:
            np.testing.assert_array_equal(a.species[s], b.species[s])

    def test_seed_changes_draw(self):
        a = sample_gue_minor_chain(3, seed=1)
        b = sample_gue_minor_chain(3, seed=2)
        assert not np.array_equal(a.species[3], b.species[3])

    def test_single_species(self):
        c = sample_gue_minor_chain(1, seed=5)
        assert list(c.species) == [1] and c.species[1].shape == (1,)

    def test_interlacing(self):
        for d in range(200):
            assert interlaces(sample_gue_minor_chain(5, seed=7, draw=d))

    @pytest.mark.parametrize("species", [
        {1: [5.0], 2: [0.0, 1.0]},
        {2: [0.0, 2.0], 3: [-1.0, 1.0, 1.5]},
        {1: [1.0], 2: [1.0, 2.0]},
    ], ids=["outside", "inner-order", "touching"])
    def test_interlacing_rejects_broken_chain(self, species):
        chain = InterlacedChain({s: np.array(v) for s, v in species.items()}, "gaussian", 3, 0)
        assert not interlaces(chain)

    def test_trace_moment(self):
        draws = 20000
        batch = sample_gue_minor_batch(2, draws, seed=3)
        tr = batch[2].sum(axis=1)
        se = tr.std() / math.sqrt(draws)
        assert abs(tr.mean()) < 3 * se

    def test_batch_matches_single(self):
        batch = sample_gue_minor_batch(4, 50, seed=9)
        for d in (0, 13, 49):
            single = sample_gue_minor_chain(4, seed=9, draw=d)
            for s in single.species:
                np.testing.assert_array_equal(batch[s][d], single.species[s])

    def test_size_limit(self):
        with pytest.raises(ValueError):
            sample_gue_minor_chain(0, seed=1)


class TestLueChain:
    def test_species_one_mean(self):
        N, draws = 6, 20000
        batch = sample_lue_batch(N, 1, draws, seed=4)
        v = batch[1][:, 0]
        se = v.std() / math.sqrt(draws)
        assert abs(v.mean() - N) < 3 * se

    def test_positivity_and_interlacing(self):
        for d in range(200):
            c = sample_lue_chain(6, 4, seed=11, draw=d)
            assert all((v > 0).all() for v in c.species.values())
            assert interlaces(c)

    def test_marginal_matches_dense_wishart(self):
        # species n of the chain is a Wishart spectrum with a = N - n
        N, n, draws = 6, 4, 20000
        lam_chain = sample_lue_batch(N, n, draws, seed=5)[n][:, -1]
        rng = np.random.Generator(np.random.Philox(key=77))
        s = 1 / math.sqrt(2)
        lam_dense = np.empty(draws)
        for d in range(draws):
            x = rng.normal(0, s, (N, n)) + 1j * rng.normal(0, s, (N, n))
            lam_dense[d] = np.linalg.eigvalsh(x.conj().T @ x)[-1]
        se = math.hypot(lam_chain.std(), lam_dense.std()) / math.sqrt(draws)
        assert abs(lam_chain.mean() - lam_dense.mean()) < 3 * se

    def test_batch_matches_single(self):
        batch = sample_lue_batch(5, 3, 40, seed=6)
        for d in (0, 39):
            single = sample_lue_chain(5, 3, seed=6, draw=d)
            for s in single.species:
                np.testing.assert_array_equal(batch[s][d], single.species[s])


class TestProjectionChain:
    def test_zero_depth_is_base_draw(self):
        c = sample_projection_chain(GAUSS, 4, 0, seed=2)
        assert list(c.species) == [4]
        np.testing.assert_allclose(c.species[4], np.sort(sample_ensemble_eigs(GAUSS, 4, seed=2)))

    def test_interlacing_bulk(self):
        for d in range(300):
            assert interlaces(sample_projection_chain(GAUSS, 5, 3, seed=8, draw=d))

    def test_jacobi_in_unit_interval(self):
        for d in range(100):
            c = sample_projection_chain(JAC, 4, 2, seed=3, draw=d)
            for v in c.species.values():
                assert np.all((v > 0) & (v < 1))

    def test_batch_matches_single(self):
        for ensemble in (GAUSS, JAC):
            batch = sample_projection_batch(ensemble, 4, 2, 30, seed=5)
            for d in (0, 7, 29):
                single = sample_projection_chain(ensemble, 4, 2, seed=5, draw=d)
                for s in single.species:
                    np.testing.assert_array_equal(batch[s][d], single.species[s])

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            sample_projection_chain(GAUSS, 3, 3, seed=1)


class TestEnsembleEigs:
    def test_gaussian_mean(self):
        vals = np.array([sample_ensemble_eigs(GAUSS, 1, seed=1, draw=d)[0] for d in range(20000)])
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se
        # scale convention: density exp(-x^2)/sqrt(pi) has variance 1/2
        assert vals.var() == pytest.approx(0.5, abs=0.02)

    def test_laguerre_positive(self):
        v = sample_ensemble_eigs(op.EnsembleSpec(op.LAGUERRE, a=2.0), 4, seed=9)
        assert np.all(v > 0)

    def test_jacobi_support(self):
        v = sample_ensemble_eigs(JAC, 5, seed=10)
        assert np.all((v > 0) & (v < 1))

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ValueError):
            sample_ensemble_eigs(op.EnsembleSpec(op.LAGUERRE, a=0.5), 3, seed=1)


class TestCsv:
    def test_exact_text(self):
        batch = {1: np.array([[0.1], [-2.5]]),
                 2: np.array([[1e-300, 1 / 3], [-0.0, 7.0]]),
                 3: np.array([[2.0**-1074, 1e300, -1.5e-7], [3.0, 4.0, 5.0]])}
        assert chains_to_csv(batch, ensemble="gaussian", N=3, seed=12) == (
            "# ensemble=gaussian\n# N=3\n# seed=12\ndraw,species,index,value\n"
            "0,1,0,0.10000000000000001\n"
            "0,2,0,1e-300\n0,2,1,0.33333333333333331\n"
            "0,3,0,4.9406564584124654e-324\n0,3,1,1.0000000000000001e+300\n0,3,2,-1.4999999999999999e-07\n"
            "1,1,0,-2.5\n"
            "1,2,0,-0\n1,2,1,7\n"
            "1,3,0,3\n1,3,1,4\n1,3,2,5\n")

    def test_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(3)
        batch = {s: rng.normal(size=(6, s)) * 10.0 ** rng.integers(-300, 300, (6, s)) for s in (1, 2, 3)}
        batch[2][1, 0] = -0.0
        back, _ = chains_from_csv(chains_to_csv(batch, ensemble="jacobi", N=3, seed=0))
        assert list(back) == [1, 2, 3]
        for s in batch:
            assert back[s].shape == batch[s].shape and back[s].tobytes() == batch[s].tobytes()

    def test_round_trip(self):
        batch = sample_lue_batch(4, 3, 5, seed=13)
        text = chains_to_csv(batch, ensemble="laguerre", N=4, seed=13)
        back, meta = chains_from_csv(text)
        assert meta == {"ensemble": "laguerre", "N": "4", "seed": "13"}
        for s in batch:
            np.testing.assert_allclose(back[s], batch[s], rtol=0, atol=0)

    def test_row_count(self):
        batch = sample_gue_minor_batch(3, 7, seed=1)
        text = chains_to_csv(batch, ensemble="gaussian", N=3, seed=1)
        data_rows = [l for l in text.splitlines() if l and not l.startswith(("#", "draw"))]
        assert len(data_rows) == 7 * (1 + 2 + 3)
