import numpy as np
import pytest
from scipy import stats

from minorkern import orthopoly as op
from minorkern.kernel import ProcessSpec, SpeciesPoint, correlation
from minorkern.validate import (
    CHI_SQUARE,
    KOLMOGOROV_SMIRNOV,
    SUP_NORM,
    brute_force_marginal,
    compare,
    empirical_density,
    ks_two_sample,
    sidak_z,
    sup_norm_bound,
)

GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG = op.EnsembleSpec(op.LAGUERRE, a=1.0)
JAC = op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0)


class TestBruteForce:
    def test_single_species_no_integration(self):
        v = brute_force_marginal(ProcessSpec(GAUSS, 1), [SpeciesPoint(1, 0.0)])
        assert v == pytest.approx(0.5641895835, rel=1e-6)

    @pytest.mark.parametrize("spec,pts", [
        (GAUSS, (-0.9, 0.0, 0.7)),
        (LAG, (0.5, 2.0, 4.5)),
        (JAC, (0.2, 0.5, 0.8)),
    ], ids=["gauss", "lag", "jac"])
    def test_oracle_closure_n2(self, spec, pts):
        proc = ProcessSpec(spec, 2)
        for s in (1, 2):
            for y in pts:
                bf = brute_force_marginal(proc, [SpeciesPoint(s, y)])
                kd = correlation(proc, [SpeciesPoint(s, y)])
                assert bf == pytest.approx(kd, rel=1e-4)

    def test_species_one_normalized(self):
        proc = ProcessSpec(LAG, 2)
        grid = np.linspace(0.01, 45.0, 350)
        vals = [brute_force_marginal(proc, [SpeciesPoint(1, float(y))]) for y in grid]
        mass = float(np.trapezoid(vals, grid))
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_two_point_gaussian_n2(self):
        proc = ProcessSpec(GAUSS, 2)
        for (a, b) in [(0.0, 0.5), (0.3, -0.2), (1.0, 1.5), (-0.7, 0.4)]:
            bf = brute_force_marginal(proc, [SpeciesPoint(1, a), SpeciesPoint(2, b)])
            kd = correlation(proc, [SpeciesPoint(1, a), SpeciesPoint(2, b)])
            assert bf == pytest.approx(kd, abs=5e-4, rel=5e-4)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            brute_force_marginal(ProcessSpec(GAUSS, 4), [SpeciesPoint(1, 0.0)])
        with pytest.raises(ValueError):
            # zero targets at N=3 leaves six integrated-out dimensions
            brute_force_marginal(ProcessSpec(GAUSS, 3), [])

    def test_too_many_targets_in_species(self):
        with pytest.raises(ValueError):
            brute_force_marginal(ProcessSpec(GAUSS, 2),
                                 [SpeciesPoint(1, 0.0), SpeciesPoint(1, 1.0)])


class TestEmpiricalDensity:
    def test_single_chain_mass(self):
        est = empirical_density(np.array([0.3]), 1, 1, np.linspace(-1, 1, 11))
        widths = np.diff(est.edges)
        assert float(np.sum(est.density * widths)) == pytest.approx(1.0)

    def test_mass_equals_species(self):
        rng = np.random.default_rng(0)
        draws, s = 500, 3
        pos = rng.normal(0, 1, (draws, s))
        est = empirical_density(pos, draws, s, np.linspace(-5, 5, 41))
        widths = np.diff(est.edges)
        assert float(np.sum(est.density * widths)) == pytest.approx(s)

    def test_empty_species_rejected(self):
        with pytest.raises(ValueError):
            empirical_density(np.array([]), 10, 1, np.linspace(0, 1, 5))


class TestCompare:
    def _est(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(0, 1 / np.sqrt(2), (20000, 1))
        return empirical_density(pos, 20000, 1, np.linspace(-3, 3, 41))

    def test_identical_passes_with_zero_statistic(self):
        est = self._est()
        rep = compare(est.density, est, SUP_NORM, threshold=0.02)
        assert rep.statistic == 0.0 and rep.passed

    def test_shifted_fails(self):
        est = self._est()
        rep = compare(est.density + 0.1, est, SUP_NORM, threshold=0.02)
        assert not rep.passed

    def test_grid_mismatch(self):
        est = self._est()
        with pytest.raises(ValueError):
            compare(est.density[:-1], est, SUP_NORM)

    def test_sup_norm_symmetric_verdict(self):
        est = self._est()
        pred = est.density + 0.005
        a = compare(pred, est, SUP_NORM, threshold=0.02)
        flipped = empirical_density(np.array([0.0]), 1, 1, est.edges)
        # swapping roles keeps |difference| identical
        b_stat = float(np.max(np.abs(est.density - pred)))
        assert a.statistic == pytest.approx(b_stat)

    def test_ks_against_true_density(self):
        est = self._est()
        centers = est.centers
        pred = np.exp(-centers**2) / np.sqrt(np.pi)
        rep = compare(pred, est, KOLMOGOROV_SMIRNOV)
        assert rep.passed

    def test_chi_square_runs(self):
        est = self._est()
        centers = est.centers
        pred = np.exp(-centers**2) / np.sqrt(np.pi)
        rep = compare(pred, est, CHI_SQUARE)
        assert rep.statistic > 0 and rep.passed

    def test_unknown_test_name(self):
        est = self._est()
        with pytest.raises(ValueError):
            compare(est.density, est, "anderson")

    @staticmethod
    def _peaked():
        # null histogram of N(0, 0.1^2) at 20k draws: the density peaks near 4,
        # where one bin's standard error (~0.1) is far above 0.02
        rng = np.random.default_rng(5)
        draws = 20000
        return empirical_density(rng.normal(0.0, 0.1, draws), draws, 1,
                                 np.linspace(-0.5, 0.5, 51))

    @staticmethod
    def _normal_bins(edges, loc):
        return np.diff(stats.norm.cdf(edges, loc, 0.1)) / np.diff(edges)

    def test_default_sup_norm_bound_passes_null_histogram(self):
        est = self._peaked()
        pred = self._normal_bins(est.edges, 0.0)
        assert pred.max() > 3.9
        assert not compare(pred, est, SUP_NORM, threshold=0.02).passed
        rep = compare(pred, est, SUP_NORM)
        assert rep.passed and rep.threshold == 1.0

    def test_default_sup_norm_bound_rejects_shifted_prediction(self):
        est = self._peaked()
        assert not compare(self._normal_bins(est.edges, 0.05), est, SUP_NORM).passed

    def test_sup_norm_bound_values(self):
        # 645 bins at alpha = 0.01: the two-sided Sidak quantile is 4.32
        assert sidak_z(0.01, 645) == pytest.approx(4.32, abs=5e-3)
        tol = sup_norm_bound(np.array([0.0, 0.5, 4.5]), np.full(3, 0.04), 10**6,
                             family_bins=645)
        assert tol[:2] == pytest.approx([0.02, 0.02])
        assert tol[2] == pytest.approx(sidak_z(0.01, 645) * np.sqrt(4.5 / 4e4))


class TestKsTwoSample:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(3)
        stat, crit = ks_two_sample(rng.normal(0, 1, 20000), rng.normal(0, 1, 20000))
        assert stat < crit

    def test_different_distributions_fail(self):
        rng = np.random.default_rng(4)
        stat, crit = ks_two_sample(rng.normal(0, 1, 20000), rng.normal(0.2, 1, 20000))
        assert stat > crit

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0, 2.0], []),
                                      ([0.5, np.nan], [1.0]), ([1.0], [2.0, -np.inf])])
    def test_empty_or_non_finite_sample_raises(self, a, b):
        with pytest.raises(ValueError):
            ks_two_sample(a, b)
