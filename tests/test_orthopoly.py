import math
import warnings

import numpy as np
import pytest
import sympy
from scipy import special

from minorkern import orthopoly as op


GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG0 = op.EnsembleSpec(op.LAGUERRE, a=0.0)
LAG1 = op.EnsembleSpec(op.LAGUERRE, a=1.0)
JAC = op.EnsembleSpec(op.JACOBI, a=1.0, b=2.0)


def fam(spec, shift=0):
    return op.ShiftedFamily(spec, shift)


class TestWeight:
    def test_gaussian_value(self):
        assert op.eval_weight(fam(GAUSS), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_laguerre_outside_support(self):
        assert op.eval_weight(fam(LAG0), -0.5) == 0.0

    def test_jacobi_value(self):
        assert op.eval_weight(fam(JAC), 0.5) == pytest.approx(0.5 * 0.25, rel=1e-14)

    def test_jacobi_outside_support(self):
        assert op.eval_weight(fam(JAC), 1.2) == 0.0
        assert op.eval_weight(fam(JAC), -0.1) == 0.0

    def test_no_overflow_large_argument(self):
        assert op.eval_weight(fam(GAUSS), 1000.0) == 0.0
        assert op.eval_weight(fam(LAG1), 1000.0) == 0.0

    @pytest.mark.parametrize("spec", [GAUSS, LAG0, LAG1, JAC], ids=["gauss", "lag0", "lag1", "jac"])
    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_log_weight_at_infinity(self, spec, x):
        # outside the support or in the limit of the weight: -inf, never NaN
        assert op.log_weight(fam(spec), x) == -math.inf
        assert op.eval_weight(fam(spec), x) == 0.0

    @pytest.mark.parametrize("spec", [
        GAUSS, LAG0, LAG1, op.EnsembleSpec(op.LAGUERRE, a=-0.5), JAC,
        op.EnsembleSpec(op.JACOBI, a=-0.5, b=-0.3), op.EnsembleSpec(op.JACOBI, a=0.0, b=0.7),
    ], ids=["gauss", "lag0", "lag1", "lag-neg", "jac", "jac-neg", "jac-a0"])
    @pytest.mark.parametrize("shift", [0, 2])
    def test_array_is_scalar_elementwise(self, spec, shift):
        xs = np.array([0.0, -0.0, 1.0, math.inf, -math.inf, -0.7, 1.3, 1e-300, 0.25, 0.999, 3.5, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lw = op.log_weight(fam(spec, shift), xs)
            w = op.eval_weight(fam(spec, shift), xs)
            assert lw.shape == w.shape == xs.shape
            assert lw.tobytes() == np.array([op.log_weight(fam(spec, shift), float(x)) for x in xs]).tobytes()
            assert w.tobytes() == np.array([op.eval_weight(fam(spec, shift), float(x)) for x in xs]).tobytes()
        assert isinstance(op.log_weight(fam(spec, shift), 0.5), float)

    @pytest.mark.parametrize("spec,x,expect", [
        (LAG0, 0.0, 0.0), (LAG1, 0.0, -math.inf), (op.EnsembleSpec(op.LAGUERRE, a=-0.5), 0.0, math.inf),
        (JAC, 1.0, -math.inf), (op.EnsembleSpec(op.JACOBI, a=0.5, b=-0.5), 1.0, math.inf),
        (op.EnsembleSpec(op.JACOBI, a=0.0, b=0.0), 0.0, 0.0), (LAG1, -1e-300, -math.inf), (JAC, 1.0 + 1e-15, -math.inf),
    ])
    def test_endpoints_and_support(self, spec, x, expect):
        # at an endpoint a factor with exponent 0 is 1, any other 0 or inf
        assert op.log_weight(spec, x) == expect
        assert op.eval_weight(spec, x) == math.exp(expect)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            op.EnsembleSpec(op.LAGUERRE, a=-1.0)
        with pytest.raises(ValueError):
            op.EnsembleSpec(op.JACOBI, a=0.0, b=-1.0)
        with pytest.raises(ValueError):
            op.EnsembleSpec("hermite")


class TestPoly:
    def test_hermite_h2(self):
        assert op.eval_poly(fam(GAUSS), 2, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_laguerre_l1(self):
        assert op.eval_poly(fam(LAG0), 1, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_jacobi_p1_at_zero(self):
        legendre = op.EnsembleSpec(op.JACOBI, a=0.0, b=0.0)
        assert op.eval_poly(fam(legendre), 1, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            op.eval_poly(fam(GAUSS), -1, 0.0)

    @pytest.mark.parametrize("spec", [GAUSS, LAG1, JAC], ids=["gauss", "lag", "jac"])
    @pytest.mark.parametrize("j", range(7))
    def test_rodrigues_oracle(self, spec, j):
        # exact symbolic j-th derivative of w Q^j against the recurrence
        y = sympy.Symbol("y", positive=True)
        a, b = sympy.Rational(spec.a), sympy.Rational(spec.b)
        if spec.kind == op.GAUSSIAN:
            w, q = sympy.exp(-(y**2)), sympy.Integer(1)
        elif spec.kind == op.LAGUERRE:
            w, q = y**a * sympy.exp(-y), y
        else:
            w, q = y**a * (1 - y) ** b, y * (1 - y)
        rd = op.rodrigues_constants(spec, j)
        expr = sympy.diff(w * q**j, y, j) / (sympy.Rational(rd.e_j) * w)
        expr = sympy.simplify(expr)
        for x0 in (sympy.Rational(1, 3), sympy.Rational(3, 4), sympy.Rational(7, 5)):
            if spec.kind == op.JACOBI and x0 >= 1:
                continue
            exact = float(expr.subs(y, x0))
            got = op.eval_poly(fam(spec), j, float(x0))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestNorms:
    def test_gaussian_j0(self):
        assert op.norm_constant(fam(GAUSS), 0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_laguerre_a1_j2(self):
        assert op.norm_constant(fam(LAG1), 2) == pytest.approx(3.0, rel=1e-13)

    def test_jacobi_legendre_j0(self):
        legendre = op.EnsembleSpec(op.JACOBI, a=0.0, b=0.0)
        assert op.norm_constant(fam(legendre), 0) == pytest.approx(1.0, rel=1e-14)

    def test_log_consistency(self):
        for spec in (GAUSS, LAG1, JAC):
            for j in (0, 3, 17):
                lg = op.log_norm_constant(fam(spec), j)
                assert math.log(op.norm_constant(fam(spec), j)) == pytest.approx(lg, rel=1e-13)

    def test_linear_overflow_signals(self):
        with pytest.raises(OverflowError):
            op.norm_constant(fam(GAUSS), 200)
        # while the log accessor stays finite
        assert math.isfinite(op.log_norm_constant(fam(GAUSS), 200))

    @pytest.mark.parametrize("spec", [GAUSS, LAG1, JAC], ids=["gauss", "lag", "jac"])
    def test_norm_matches_quadrature(self, spec):
        f = fam(spec, 1) if spec.kind != op.GAUSSIAN else fam(spec)
        nodes, wts = op.gauss_weight_nodes(f, 24)
        for j in (0, 2, 5):
            p = op.eval_poly(f, j, nodes)
            assert float(np.dot(wts, p * p)) == pytest.approx(
                op.norm_constant(f, j), rel=1e-11)


    @pytest.mark.parametrize("spec", [GAUSS, LAG1, JAC, op.EnsembleSpec(op.JACOBI, a=-0.5, b=-0.5)],
                             ids=["gauss", "lag", "jac", "chebyshev"])
    def test_array_matches_scalar(self, spec):
        f = fam(spec, 2)
        degs = np.arange(400)
        got = op.log_norm_constant(f, degs)
        assert got.shape == degs.shape
        for j in degs:
            assert got[j] == pytest.approx(op.log_norm_constant(f, int(j)), rel=1e-14, abs=1e-14)
        with pytest.raises(ValueError):
            op.log_norm_constant(f, np.array([0, -1]))
        with pytest.raises(ValueError):
            op.log_norm_constant(f, -1)

    @pytest.mark.parametrize("a,b", [(-0.5, -0.5), (-0.7, -0.6)])
    def test_jacobi_degree_zero_for_a_plus_b_at_most_minus_one(self, a, b):
        # N_0 is the Beta integral B(a+1, b+1); the generic formula is 0 * inf here
        spec = op.EnsembleSpec(op.JACOBI, a=a, b=b)
        assert op.norm_constant(spec, 0) == pytest.approx(special.beta(a + 1.0, b + 1.0), rel=1e-13)


class TestLogPoly:
    @pytest.mark.parametrize("spec,x", [
        (LAG1, -3.0), (LAG1, 1e4),
        (op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0), -3.0),
        (op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0), 2.5),
        (GAUSS, 1e4),
    ], ids=["lag-neg", "lag-far", "jac-neg", "jac-right", "gauss-far"])
    def test_degree_250_outside_support_against_mpmath(self, spec, x):
        import mpmath

        j = 250
        sign, lg = op.log_poly(fam(spec), j, x)
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            if spec.kind == op.GAUSSIAN:
                p = mpmath.hermite(j, xm)
            elif spec.kind == op.LAGUERRE:
                p = mpmath.laguerre(j, spec.a, xm)
            else:
                p = mpmath.jacobi(j, spec.a, spec.b, 1 - 2 * xm)
            expect_sign, expect_log = float(mpmath.sign(p)), float(mpmath.log(abs(p)))
        assert sign == expect_sign
        assert lg == pytest.approx(expect_log, abs=1e-10)

    def test_degree_zero(self):
        assert op.log_poly(fam(JAC), 0, 5.0) == (1.0, 0.0)

    @pytest.mark.parametrize("spec,xs", [
        (GAUSS, [-40.0, 1e4]), (LAG1, [-3.0, -0.5, 1e4]), (JAC, [-3.0, -1e-3, 1.0 + 1e-3, 2.5]),
    ], ids=["gauss", "lag", "jac"])
    def test_table_finite_outside_support(self, spec, xs):
        for shift in (0, 4):
            for x in xs:
                sign, lg = op.log_poly_table(fam(spec, shift), 120, x)
                assert np.all(np.abs(sign) == 1.0)
                assert np.isfinite(lg).all()

    @pytest.mark.parametrize("spec,xs", [
        (GAUSS, [-2.5, 0.3, 4.0]), (LAG1, [0.2, 3.0, 40.0]), (JAC, [0.01, 0.4, 0.97]),
    ], ids=["gauss", "lag", "jac"])
    def test_table_is_eta_without_the_weight_inside_support(self, spec, xs):
        for shift in (0, 4):
            for x in xs:
                eta = op.eta_table(fam(spec, shift), 60, x)
                sign, lg = op.log_poly_table(fam(spec, shift), 60, x)
                half_logw = 0.5 * op.log_weight(fam(spec, shift), x)
                np.testing.assert_array_equal(sign, np.sign(eta))
                nz = eta != 0.0
                np.testing.assert_allclose(lg[nz], np.log(np.abs(eta[nz])) - half_logw, rtol=0, atol=1e-12)


class TestRodriguesConstants:
    def test_gaussian(self):
        rd = op.rodrigues_constants(GAUSS, 3)
        assert rd.e_j == -1.0 and rd.q_coeffs == (1.0, 0.0, 0.0)

    def test_laguerre(self):
        rd = op.rodrigues_constants(LAG0, 3)
        assert rd.e_j == 6.0 and rd.q(2.0) == 2.0

    def test_jacobi_consistent_constant(self):
        # on [0,1] the constant matching P_j^(a,b)(1-2y) is j!, not 2^j j!
        rd = op.rodrigues_constants(JAC, 2)
        assert rd.e_j == 2.0
        assert rd.q(0.25) == pytest.approx(0.1875)


class TestEta:
    @pytest.mark.parametrize("spec", [GAUSS, LAG0, LAG1, JAC], ids=["gauss", "lag0", "lag1", "jac"])
    def test_zero_at_infinity_without_warnings(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = op.eta_table(fam(spec, 1), 6, np.array([math.inf, -math.inf]))
            column = op.eta_table(fam(spec, 1), 6, math.inf)
        np.testing.assert_array_equal(rows, 0.0)
        np.testing.assert_array_equal(column, 0.0)

    def test_gaussian_k0(self):
        assert op.eval_eta(fam(GAUSS), 0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_gaussian_k1_zero(self):
        assert op.eval_eta(fam(GAUSS), 1, 0.0) == 0.0

    @pytest.mark.parametrize("spec,x", [(GAUSS, 0.0), (GAUSS, 1.3), (LAG1, 2.7), (JAC, 0.37)],
                             ids=["g0", "g13", "lag", "jac"])
    def test_high_degree_against_mpmath(self, spec, x):
        import mpmath

        with mpmath.workdps(60):
            k = 100
            got = op.eval_eta(fam(spec), k, x)
            a, b = spec.a, spec.b
            xm = mpmath.mpf(x)
            if spec.kind == op.GAUSSIAN:
                p = mpmath.hermite(k, xm)
                logn = k * mpmath.log(2) + mpmath.log(mpmath.factorial(k)) + 0.5 * mpmath.log(mpmath.pi)
                logw = -xm * xm
            elif spec.kind == op.LAGUERRE:
                p = mpmath.laguerre(k, a, xm)
                logn = mpmath.log(mpmath.gamma(k + a + 1) / mpmath.gamma(k + 1))
                logw = a * mpmath.log(xm) - xm
            else:
                p = mpmath.jacobi(k, a, b, 1 - 2 * xm)
                logn = (mpmath.log(mpmath.gamma(k + a + 1)) + mpmath.log(mpmath.gamma(k + b + 1))
                        - mpmath.log(mpmath.gamma(k + 1)) - mpmath.log(2 * k + a + b + 1)
                        - mpmath.log(mpmath.gamma(k + a + b + 1)))
                logw = a * mpmath.log(xm) + b * mpmath.log(1 - xm)
            expect = float(p * mpmath.exp(0.5 * (logw - logn)))
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-300)

    def test_table_matches_scalar(self):
        xs = np.array([-1.0, 0.2, 2.5])
        table = op.eta_table(fam(GAUSS), 30, xs)
        for i, x in enumerate(xs):
            assert table[17, i] == pytest.approx(op.eval_eta(fam(GAUSS), 17, float(x)), rel=1e-12)

    def test_deep_tail_no_underflow_poisoning(self):
        # eta_0 far underflows but high degrees must still come out right
        vals = op.eta_table(fam(LAG0), 450, 1650.0)
        assert vals[0] == 0.0
        assert np.isfinite(vals).all()
        assert np.max(np.abs(vals)) > 1e-8

    @pytest.mark.parametrize("spec", [GAUSS, LAG1, JAC], ids=["gauss", "lag", "jac"])
    @pytest.mark.parametrize("shift", [0, 2, 5])
    def test_orthonormality(self, spec, shift):
        f = fam(spec, shift)
        nodes, wts = op.gauss_weight_nodes(f, 40)
        logw = np.array([op.log_weight(f, x) for x in nodes])
        table = op.eta_table(f, 25, nodes)
        # eta_j eta_k / w integrates against w to delta_jk
        for j in range(0, 26, 5):
            for k in range(j, 26, 5):
                integrand = table[j] * table[k] * np.exp(-logw)
                val = float(np.dot(wts, integrand))
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)

    @pytest.mark.parametrize("f,lo,hi", [
        (fam(GAUSS), -45.0, 45.0),
        (fam(LAG1, 3), 0.0, 1700.0),
        (fam(op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0)), 0.0, 1.0),
    ], ids=["gauss", "lag", "jac"])
    def test_array_table_equals_scalar_tables(self, f, lo, hi):
        # the grids reach far enough into the tails that the recurrence rescales
        xs = np.linspace(lo, hi, 61)
        table = op.eta_table(f, 450, xs)
        stacked = np.stack([op.eta_table(f, 450, float(x)) for x in xs], axis=1)
        np.testing.assert_array_equal(table, stacked)
        assert np.isfinite(table).all() and np.count_nonzero(table) > table.size // 4

    def test_shift_consistency_exact(self):
        shifted = op.ShiftedFamily(op.EnsembleSpec(op.LAGUERRE, a=0.5), 3)
        base = op.ShiftedFamily(op.EnsembleSpec(op.LAGUERRE, a=3.5), 0)
        x = np.array([0.3, 1.7, 6.0])
        assert np.array_equal(op.eval_poly(shifted, 4, x), op.eval_poly(base, 4, x))
        assert op.norm_constant(shifted, 4) == op.norm_constant(base, 4)

    def test_shift_zero_reproduces_base(self):
        assert op.ShiftedFamily(JAC, 0).params() == (JAC.a, JAC.b)


def airy_maclaurin(x, terms=60):
    """Series solution of v'' = x v with the standard Ai initial data."""
    import mpmath

    with mpmath.workdps(40):
        c0 = mpmath.mpf(3) ** mpmath.mpf("-2/3") / mpmath.gamma(mpmath.mpf(2) / 3)
        c1 = -(mpmath.mpf(3) ** mpmath.mpf("-1/3")) / mpmath.gamma(mpmath.mpf(1) / 3)
        # a_{k+2} on the recurrence a_{k+2} = a_{k-1} / ((k+1)(k+2))
        coeffs = [c0, c1, mpmath.mpf(0)]
        for k in range(1, terms):
            coeffs.append(coeffs[k - 1] / ((k + 1) * (k + 2)))
        val = mpmath.mpf(0)
        dval = mpmath.mpf(0)
        xm = mpmath.mpf(x)
        for k, c in enumerate(coeffs):
            val += c * xm**k
            if k >= 1:
                dval += k * c * xm ** (k - 1)
        return float(val), float(dval)


class TestAiry:
    def test_value_at_zero_vs_series_oracle(self):
        ai, aip = op.airy(0.0)
        ai_ref, aip_ref = airy_maclaurin(0.0)
        assert ai == pytest.approx(ai_ref, abs=1e-13)
        assert aip == pytest.approx(aip_ref, abs=1e-13)
        assert ai == pytest.approx(0.3550280538878172, abs=1e-12)
        assert aip == pytest.approx(-0.2588194037928068, abs=1e-12)

    @pytest.mark.parametrize("x", [-3.5, -1.0, 0.5, 2.0, 4.0])
    def test_series_oracle_small_args(self, x):
        ai, aip = op.airy(x)
        ai_ref, aip_ref = airy_maclaurin(x)
        assert ai == pytest.approx(ai_ref, abs=1e-12)
        assert aip == pytest.approx(aip_ref, abs=1e-12)

    def test_right_axis_decay(self):
        a1, a5, a10 = (op.airy(v)[0] for v in (1.0, 5.0, 10.0))
        assert a10 < a5 < a1

    def test_ode_residual(self):
        # five-point central second difference at step 1e-3; the three-point
        # stencil's own truncation error would dominate the tolerance
        h = 1e-3
        for x in np.linspace(-10, 10, 41):
            f = [op.airy(x + k * h)[0] for k in (-2, -1, 0, 1, 2)]
            second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h**2)
            assert abs(second - x * op.airy(x)[0]) < 1e-8

    def test_range_error(self):
        with pytest.raises(ValueError):
            op.airy(60.0)


def bessel_series(nu, x, terms=120):
    import mpmath

    with mpmath.workdps(40):
        xm = mpmath.mpf(x) / 2
        tot = mpmath.mpf(0)
        for k in range(terms):
            tot += (-1) ** k * xm ** (2 * k + nu) / (mpmath.factorial(k) * mpmath.gamma(nu + k + 1))
        return float(tot)


class TestBesselJ:
    def test_trivial_values(self):
        assert op.bessel_j(0.0, 0.0) == 1.0
        assert op.bessel_j(1.0, 0.0) == 0.0

    def test_first_zero_bisection_oracle(self):
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_series(0, mid) > 0:
                lo = mid
            else:
                hi = mid
        zero = 0.5 * (lo + hi)
        assert abs(op.bessel_j(0.0, zero)) < 1e-12
        assert zero == pytest.approx(2.4048255576957728, abs=1e-10)
        assert abs(op.bessel_j(0.0, 2.4048256)) < 1e-6

    @pytest.mark.parametrize("nu,x", [(0.0, 1.0), (2.5, 7.0), (10.0, 3.0), (1.0, 19.0)])
    def test_against_series_oracle(self, nu, x):
        assert op.bessel_j(nu, x) == pytest.approx(bessel_series(nu, x), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            op.bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            op.bessel_j(1.0, -1.0)
