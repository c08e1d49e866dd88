import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from minorkern import orthopoly as op
from minorkern.kernel import (
    ProcessSpec,
    SpeciesPoint,
    correlation,
    density,
    kernel_F,
    kernel_K,
    phi_cap,
    phi_conv,
    psi,
)
from oracles import f_entry_direct, f_entry_series
from test_tail_moments import up_entry_mp

GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG = op.EnsembleSpec(op.LAGUERRE, a=1.0)
JAC = op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0)
ALL = [GAUSS, LAG, JAC]
IDS = ["gauss", "lag", "jac"]


class TestPhiConv:
    def test_vanishes_for_reversed_levels(self):
        assert phi_conv(3, 2, 0.0, 1.0) == 0.0
        assert phi_conv(3, 3, 0.0, 1.0) == 0.0

    def test_adjacent_is_indicator(self):
        assert phi_conv(1, 2, 0.0, 3.0) == 1.0
        assert phi_conv(1, 2, 3.0, 0.0) == 0.0

    def test_two_step(self):
        assert phi_conv(1, 3, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("n1,n2,n3", [(1, 2, 3), (1, 3, 5), (2, 4, 6), (1, 2, 6)])
    def test_semigroup(self, n1, n2, n3):
        x, y = -0.3, 1.7
        val, _ = integrate.quad(lambda z: phi_conv(n1, n2, x, z) * phi_conv(n2, n3, z, y), x, y)
        assert val == pytest.approx(phi_conv(n1, n3, x, y), abs=1e-10)


def psi_defining(proc, n, m, x):
    """Convolution definition of Psi, integrated directly against the base
    weight and polynomial (no Rodrigues shortcuts)."""
    N = proc.N
    spec = proc.ensemble
    base = op.ShiftedFamily(spec, 0)
    deg = N - n + m
    lo, hi = spec.support()
    lo = max(lo, x)
    if spec.kind == op.GAUSSIAN:
        lo, hi = max(x, -12.0), 12.0
    elif spec.kind == op.LAGUERRE:
        hi = 90.0
    f = lambda y: op.eval_weight(base, y) * op.eval_poly(base, deg, y) * (y - x) ** (N - n - 1)
    v, _ = integrate.quad(f, lo, hi, limit=400)
    return v / math.factorial(N - n - 1)


class TestPsi:
    def test_gaussian_signs_cancel(self):
        assert psi(ProcessSpec(GAUSS, 3), 2, 0, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_top_species_definition(self):
        assert psi(ProcessSpec(GAUSS, 2), 2, 1, 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-13)

    def test_negative_index_quadrature(self):
        assert psi(ProcessSpec(GAUSS, 2), 1, -1, 0.0) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-10)

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    @pytest.mark.parametrize("n", [2, 4])
    def test_defining_integral_oracle(self, spec, n):
        N = 6
        proc = ProcessSpec(spec, N)
        x = {"gaussian": 0.6, "laguerre": 1.7, "jacobi": 0.4}[spec.kind]
        for m in range(n - N, n):
            assert psi(proc, n, m, x) == pytest.approx(
                psi_defining(proc, n, m, x), rel=1e-8, abs=1e-13)

    def test_species_bound(self):
        with pytest.raises(ValueError):
            psi(ProcessSpec(GAUSS, 2), 3, 0, 0.0)


class TestPhiCap:
    def test_gaussian_constant(self):
        proc = ProcessSpec(GAUSS, 4)
        for n in (1, 2, 4):
            assert phi_cap(proc, n, 0, 0.37) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)

    def test_gaussian_odd_zero(self):
        assert phi_cap(ProcessSpec(GAUSS, 3), 3, 1, 0.0) == 0.0

    def test_laguerre_shift_one(self):
        assert phi_cap(ProcessSpec(op.EnsembleSpec(op.LAGUERRE, a=0.0), 2), 1, 0, 1.3) == pytest.approx(-1.0, rel=1e-13)

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_biorthogonality(self, spec, n):
        N = 6
        proc = ProcessSpec(spec, N)
        fam = proc.family(n)
        nodes, wts = op.gauss_weight_nodes(fam, n + 4)
        for j in range(n):
            for k in range(n):
                vals = [phi_cap(proc, n, j, float(x)) * psi(proc, n, k, float(x))
                        / op.eval_weight(fam, float(x)) for x in nodes]
                val = float(np.dot(wts, vals))
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-9)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            phi_cap(ProcessSpec(GAUSS, 3), 2, 2, 0.0)


class TestKernel:
    def test_single_species_diagonal(self):
        v = kernel_K(ProcessSpec(GAUSS, 1), SpeciesPoint(1, 0.0), SpeciesPoint(1, 0.0))
        assert v.value == pytest.approx(1 / math.sqrt(math.pi), rel=1e-13)

    def test_top_species_mass(self):
        proc = ProcessSpec(GAUSS, 2)
        val, _ = integrate.quad(
            lambda y: kernel_K(proc, SpeciesPoint(2, y), SpeciesPoint(2, y)).value, -9, 9)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_mixed_species_series_example(self):
        # at the symmetric point every term of the finite sum carries an odd factor
        proc = ProcessSpec(GAUSS, 2)
        v = kernel_K(proc, SpeciesPoint(1, 0.0), SpeciesPoint(2, 0.0)).value
        assert v == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    def test_two_derivation_equivalence(self, spec):
        rng = np.random.default_rng(3)
        proc = ProcessSpec(spec, 8)
        lo, hi = {"gaussian": (-1.8, 1.8), "laguerre": (0.2, 8.0), "jacobi": (0.05, 0.95)}[spec.kind]
        for _ in range(12):
            s = int(rng.integers(1, 9))
            t = int(rng.integers(1, 9))
            x, y = rng.uniform(lo, hi, 2)
            got = kernel_F(proc, SpeciesPoint(s, x), SpeciesPoint(t, y))
            ref = (f_entry_series if s < t else f_entry_direct)(
                proc, SpeciesPoint(s, x), SpeciesPoint(t, y))
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-11)

    def test_far_entries_in_the_bulk_against_mpmath(self):
        # gaps 14, 14 and 13 with both points in the shared bulk, where a
        # bilinear series would also converge: every entry with s1 < s2 takes
        # the finite sum
        proc = ProcessSpec(GAUSS, 20)
        for (s, t, x, y) in [(2, 16, 0.5, -1.0), (4, 18, -0.9, 1.2), (6, 19, 0.0, 0.4)]:
            p1, p2 = SpeciesPoint(s, x), SpeciesPoint(t, y)
            scale = math.sqrt(abs(kernel_F(proc, p1, p1) * kernel_F(proc, p2, p2)))
            assert abs(kernel_F(proc, p1, p2) - up_entry_mp(GAUSS, 20, s, x, t, y)) < 1e-12 * scale

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    def test_far_entry_keeps_no_family_past_N(self, monkeypatch, spec):
        # every table of an entry stops at degree N - 1, so the memo of family
        # constants holds no longer family after a far entry
        op._held_constants.cache_clear()
        seen = set()
        constants = op.family_constants

        def recording(fam, kmax):
            seen.add(fam)
            return constants(fam, kmax)

        monkeypatch.setattr(op, "family_constants", recording)
        proc = ProcessSpec(spec, 30)
        lo, hi = {"gaussian": (0.3, 1.1), "laguerre": (12.0, 20.0), "jacobi": (0.4, 0.6)}[spec.kind]
        kernel_F(proc, SpeciesPoint(4, lo), SpeciesPoint(21, hi))
        assert seen
        assert all(len(op._held_constants(fam)[0][1]) <= 30 for fam in seen)

    def test_entry_builds_each_family_once(self, monkeypatch):
        # the families of species 10 and 14 (a = 41 and 37) are built once
        # each, to their tables' degrees, and the base family (a = 1), whose
        # log |e_k| the tables read, once to degree N - 1
        op._held_constants.cache_clear()
        built = []
        norms = op.log_norm_constant

        def recording(fam, j):
            built.append((fam.a, np.size(j)))
            return norms(fam, j)

        monkeypatch.setattr(op, "log_norm_constant", recording)
        kernel_F(ProcessSpec(LAG, 50), SpeciesPoint(10, 20.0), SpeciesPoint(14, 30.0))
        assert sorted(built) == [(1.0, 50), (37.0, 14), (41.0, 10)]


class TestCorrelation:
    def test_single_point_matches_kernel(self):
        proc = ProcessSpec(LAG, 3)
        p = SpeciesPoint(2, 1.3)
        assert correlation(proc, [p]) == pytest.approx(kernel_K(proc, p, p).value, rel=1e-12)

    def test_permutation_invariance(self):
        proc = ProcessSpec(GAUSS, 4)
        pts = [SpeciesPoint(1, 0.2), SpeciesPoint(3, -0.5), SpeciesPoint(4, 1.1)]
        base = correlation(proc, pts)
        assert correlation(proc, [pts[2], pts[0], pts[1]]) == pytest.approx(base, rel=1e-12)

    def test_duplicates_rejected(self):
        proc = ProcessSpec(GAUSS, 2)
        with pytest.raises(ValueError):
            correlation(proc, [SpeciesPoint(1, 0.0), SpeciesPoint(1, 0.0)])

    def test_point_count_bounds(self):
        proc = ProcessSpec(GAUSS, 2)
        with pytest.raises(ValueError):
            correlation(proc, [])

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    def test_gauge_invariance(self, spec):
        proc = ProcessSpec(spec, 4)
        rng = np.random.default_rng(11)
        lo, hi = {"gaussian": (-1.5, 1.5), "laguerre": (0.3, 9.0), "jacobi": (0.1, 0.9)}[spec.kind]
        for _ in range(5):
            ss = rng.integers(1, 5, 3)
            ys = rng.uniform(lo, hi, 3)
            pts = [SpeciesPoint(int(s), float(y)) for s, y in zip(ss, ys)]
            if len({(p.s, p.y) for p in pts}) != 3:
                continue
            base = correlation(proc, pts)
            c = rng.uniform(0.25, 4.0, 5)
            mat = np.array([[kernel_K(proc, pi, pj).value * c[pi.s] / c[pj.s] for pj in pts]
                            for pi in pts])
            assert float(np.linalg.det(mat)) == pytest.approx(base, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, y):
        with pytest.raises(ValueError, match="finite"):
            SpeciesPoint(1, y)

    def test_nonnegative_at_tiny_values(self):
        proc = ProcessSpec(GAUSS, 2)
        pts = [SpeciesPoint(2, 8.1), SpeciesPoint(2, 8.1000001)]
        assert correlation(proc, pts) >= 0.0

    @pytest.mark.parametrize("spec,N,pts", [
        (GAUSS, 50, [(10, 0.1), (20, -0.5), (30, 1.2), (40, 0.3)]),
        (GAUSS, 50, [(49, 0.3), (25, 0.33)]),
        (JAC, 50, [(27, 0.508), (30, 0.952), (26, 0.498), (33, 0.943)]),
    ], ids=["gauss-4pt", "gauss-2pt", "jac-4pt"])
    def test_zero_test_does_not_depend_on_the_gauge(self, spec, N, pts):
        # the rows of these F matrices differ in size by many orders, so the
        # product of their norms sits far above |det|
        proc = ProcessSpec(spec, N)
        pts = [SpeciesPoint(s, y) for s, y in pts]
        mat = np.array([[kernel_F(proc, a, b) for b in pts] for a in pts])
        got = correlation(proc, pts)
        assert got != 0.0
        assert got == float(np.linalg.det(mat))

    def test_zero_test_with_a_row_of_size_1e_19(self):
        # in the K gauge the rows are of size 1e-1, 1e-3 and 1e-19 and the
        # determinant is 1.1e-30, yet it is resolved in every gauge
        proc = ProcessSpec(LAG, 4)
        pts = [SpeciesPoint(3, 13.77), SpeciesPoint(3, 19.61), SpeciesPoint(1, 60.57)]
        mat = np.array([[kernel_F(proc, a, b) for b in pts] for a in pts])
        assert correlation(proc, pts) == float(np.linalg.det(mat)) != 0.0

    def test_two_points_in_species_one_vanish(self):
        # species 1 holds one particle
        proc = ProcessSpec(GAUSS, 5)
        assert correlation(proc, [SpeciesPoint(1, 0.1), SpeciesPoint(1, 0.3)]) == 0.0

    def test_point_where_the_weight_vanishes(self):
        # species 2 of N=5 has weight y^4 e^-y: no particle sits at 0, and the
        # F entry from there to species 4 divides by w = 0 and is infinite
        proc = ProcessSpec(LAG, 5)
        assert correlation(proc, [SpeciesPoint(2, 0.0), SpeciesPoint(4, 1.0)]) == 0.0

    def test_zero_weight_point_needs_no_determinant(self):
        # the F matrix is [[0, -inf], [0, 0.72]]: its zero column answers
        # before a determinant of a matrix holding -inf could warn
        proc = ProcessSpec(LAG, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts in ([(2, 0.0), (4, 1.0)], [(4, 1.0), (2, 0.0)], [(2, 0.0), (4, 1.0), (3, 2.5)]):
                assert correlation(proc, [SpeciesPoint(s, y) for s, y in pts]) == 0.0


# species of r points: down, same-species and near-up pairs among them
TABLE_SPECIES = {2: (4, 7), 3: (4, 7, 7), 4: (3, 5, 5, 8)}


@pytest.mark.parametrize("spec", ALL, ids=IDS)
@pytest.mark.parametrize("r", sorted(TABLE_SPECIES))
def test_correlation_builds_each_points_tables_once(spec, r, monkeypatch):
    proc = ProcessSpec(spec, 10)
    lo, hi = {"gaussian": (-1.5, 1.5), "laguerre": (2.0, 12.0), "jacobi": (0.2, 0.8)}[spec.kind]
    pts = [SpeciesPoint(s, float(y)) for s, y in zip(TABLE_SPECIES[r], np.linspace(lo, hi, r))]
    # the matrix of entries made one at a time
    expect = float(np.linalg.det(np.array([[kernel_F(proc, a, b) for b in pts] for a in pts])))
    built = {"eta": [], "poly": []}
    for name, attr in (("eta", "eta_table"), ("poly", "log_poly_table")):
        def counted(fam, kmax, x, _name=name, _fn=getattr(op, attr)):
            built[_name].append((fam, x))
            return _fn(fam, kmax, x)
        monkeypatch.setattr(op, attr, counted)
    got = correlation(proc, pts)
    for name, calls in built.items():
        assert len(calls) == len(set(calls)) <= r, f"{name} tables: {calls}"
    assert got == expect != 0.0


class TestZeroWeightPoints:
    """Where the weight of species s2 vanishes at y2, K is the same finite sum
    as anywhere, a polynomial in y2, and F is 0."""

    ZERO_AT_Y2 = [
        (LAG, (1, 1.0), (3, -0.5), -1.4404779368369283),
        (JAC, (2, 0.5), (4, 1.0), 0.12520243971082598),
        # s1 >= s2: 50-digit values of the finite sum, linear in y2 here; a
        # line fitted to the entry's values in the support agrees within 2.4e-15
        (LAG, (3, 0.7), (2, -0.5), -0.12873305679737604),
        (JAC, (3, 0.4), (2, 1.3), -70.70831736296496),
        (JAC, (2, 0.4), (2, 1.3), -3.506725552812316),
    ]
    ZERO_IDS = ["lag-outside-support", "jac-endpoint", "lag-down", "jac-down", "jac-same-species"]

    @pytest.mark.parametrize("spec,p1,p2,expect", ZERO_AT_Y2, ids=ZERO_IDS)
    def test_kernel_K_value(self, spec, p1, p2, expect):
        v = kernel_K(ProcessSpec(spec, 5), SpeciesPoint(*p1), SpeciesPoint(*p2)).value
        assert v == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("spec,p1,p2", [case[:3] for case in ZERO_AT_Y2], ids=ZERO_IDS)
    def test_kernel_F_vanishes(self, spec, p1, p2):
        assert kernel_F(ProcessSpec(spec, 5), SpeciesPoint(*p1), SpeciesPoint(*p2)) == 0.0

    @pytest.mark.parametrize("spec", [JAC, op.EnsembleSpec(op.LAGUERRE, a=0.0)], ids=["jac", "lag0"])
    def test_finite_at_zero(self, spec):
        N = 5
        proc = ProcessSpec(spec, N)
        for s1 in range(1, N + 1):
            for s2 in range(1, N + 1):
                for y1, y2 in [(0.0, 0.3), (0.3, 0.0), (0.0, 0.0)]:
                    v = kernel_K(proc, SpeciesPoint(s1, y1), SpeciesPoint(s2, y2)).value
                    assert math.isfinite(v)
                    # a row at 0 vanishes wherever species s1's weight does,
                    # apart from the jump midpoint of the indicator kernel
                    if y1 == 0.0 and s1 < N and not (s2 == s1 + 1 and y2 == 0.0):
                        assert abs(v) < 1e-13


class TestInfiniteWeightPoints:
    """Where the top species' weight is infinite, entries and correlations
    are not numbers: every kernel entry point raises instead of giving NaN."""

    LAG_NEG = ProcessSpec(op.EnsembleSpec(op.LAGUERRE, a=-0.5), 1)
    JAC_NEG = ProcessSpec(op.EnsembleSpec(op.JACOBI, a=-0.5, b=-0.3), 3)

    @pytest.mark.parametrize("proc,p1,p2", [
        (LAG_NEG, (1, 0.6453), (1, 0.0)),
        (LAG_NEG, (1, 0.0), (1, 0.0)),
        (JAC_NEG, (3, 0.4), (3, 1.0)),
        (JAC_NEG, (3, 0.0), (2, 0.4)),
    ], ids=["lag-column", "lag-diagonal", "jac-b-end", "jac-a-end-down"])
    def test_kernel_entries_raise(self, proc, p1, p2):
        for f in (kernel_K, kernel_F):
            with pytest.raises(ValueError, match="infinite"):
                f(proc, SpeciesPoint(*p1), SpeciesPoint(*p2))

    def test_correlation_raises(self):
        with pytest.raises(ValueError, match="infinite"):
            correlation(self.LAG_NEG, [SpeciesPoint(1, 0.0)])
        with pytest.raises(ValueError, match="infinite"):
            correlation(self.JAC_NEG, [SpeciesPoint(2, 0.5), SpeciesPoint(3, 1.0)])

    def test_lower_species_stay_finite(self):
        # species below the top carry exponents shifted up by N - s > 0
        v = kernel_K(self.JAC_NEG, SpeciesPoint(2, 0.0), SpeciesPoint(2, 1.0)).value
        assert math.isfinite(v)
        assert math.isfinite(correlation(self.JAC_NEG, [SpeciesPoint(2, 0.2), SpeciesPoint(3, 0.4)]))


class TestDensity:
    def test_single_point(self):
        assert density(ProcessSpec(GAUSS, 1), 1, [0.0])[0] == pytest.approx(0.5641895835, rel=1e-9)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_laguerre_zero_at_infinity(self, a):
        proc = ProcessSpec(op.EnsembleSpec(op.LAGUERRE, a=a), 3)
        assert density(proc, 2, [math.inf]).tolist() == [0.0]

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    def test_zero_at_both_infinities_without_warnings(self, spec):
        proc = ProcessSpec(spec, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1, 2, 3):
                assert density(proc, s, [math.inf, -math.inf]).tolist() == [0.0, 0.0]

    def test_species_n_is_christoffel_darboux(self):
        proc = ProcessSpec(LAG, 3)
        fam = op.ShiftedFamily(LAG, 0)
        ys = np.array([0.5, 2.0, 6.0])
        for y in ys:
            direct = sum(
                op.eval_weight(fam, float(y)) * op.eval_poly(fam, j, float(y)) ** 2
                / math.exp(op.log_norm_constant(fam, j))
                for j in range(3))
            assert density(proc, 3, [y])[0] == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("spec", ALL, ids=IDS)
    def test_mass_is_species_count(self, spec):
        N = 10
        proc = ProcessSpec(spec, N)
        if spec.kind == op.GAUSSIAN:
            grid = np.arange(-9.0, 9.0, 0.002)
        elif spec.kind == op.LAGUERRE:
            grid = np.arange(0.0, 75.0, 0.002)
        else:
            grid = np.arange(0.0, 1.0, 1e-5) + 5e-6
        for s in (1, 4, 10):
            rho = density(proc, s, grid)
            mass = float(np.trapezoid(rho, grid)) if hasattr(np, "trapezoid") else float(np.trapz(rho, grid))
            assert mass == pytest.approx(s, abs=2e-5)

    @pytest.mark.parametrize("spec,N", [(op.EnsembleSpec(op.JACOBI, a=1.0, b=1.0), 3),
                                        (JAC, 4)], ids=["jac11-N3", "jac-N4"])
    def test_jacobi_matches_jue_one_point(self, spec, N):
        # species s is an s-point JUE with weight y^a' (1-y)^b', a' = a+N-s,
        # b' = b+N-s; scipy's P_k^(alpha, beta)(2y-1) with alpha = b',
        # beta = a' is orthogonal for it with norm h_k below
        ys = np.linspace(0.005, 0.995, 67)
        proc = ProcessSpec(spec, N)
        for s in range(1, N + 1):
            al, be = spec.b + N - s, spec.a + N - s
            ref = np.zeros_like(ys)
            for k in range(s):
                log_h = (special.gammaln(k + al + 1) + special.gammaln(k + be + 1)
                         - special.gammaln(k + al + be + 1) - special.gammaln(k + 1)
                         - math.log(2 * k + al + be + 1))
                ref += special.eval_jacobi(k, al, be, 2 * ys - 1) ** 2 * math.exp(-log_h)
            ref *= ys ** be * (1 - ys) ** al
            np.testing.assert_allclose(density(proc, s, ys), ref, rtol=1e-10)

    def test_nonnegative(self):
        rho = density(ProcessSpec(JAC, 4), 3, np.linspace(0.01, 0.99, 45))
        assert np.all(rho >= -1e-12)
