import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from minorkern import orthopoly as op
from minorkern import scaling
from minorkern.numerics import NumericError
from minorkern.scaling import (
    BULK,
    HARD_EDGE,
    SOFT_DRIFT,
    SOFT_FIXED,
    LimitQuery,
    airy_kernel,
    bead_kernel,
    bead_kernel_alt,
    convergence_report,
    extended_airy,
    hard_edge_kernel,
    limit_kernel,
    realized_offsets,
    scaled_finite_kernel,
)

GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG0 = op.EnsembleSpec(op.LAGUERRE, a=0.0)


def _gl16_mp():
    """16-point Gauss-Legendre (node, weight) pairs on [-1, 1] at 40 digits,
    by Newton's method on P_16 from the usual cosine guesses."""
    with mpmath.workdps(40):
        rule = []
        for k in range(1, 17):
            r = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (16 + mpmath.mpf(1) / 2))
            for _ in range(8):
                r -= mpmath.legendre(16, r) / mpmath.diff(lambda t: mpmath.legendre(16, t), r)
            rule.append((r, 2 / ((1 - r * r) * mpmath.diff(lambda t: mpmath.legendre(16, t), r) ** 2)))
        return rule


GL16_MP = _gl16_mp()


def airy_integral_mp(tau, x, y, d):
    """int_0^inf e^(-tau u) Ai(x + d u) Ai(y + d u) du at 30 digits: the
    16-point rule on panels of width at most 1 and 3 / (the oscillation
    rate), out to where the bound e^(-tau u) e^(-(2/3) z^(3/2)) per factor
    has fallen 75 below its largest value."""
    with mpmath.workdps(30):
        tau, x, y = mpmath.mpf(tau), mpmath.mpf(x), mpmath.mpf(y)

        def log_bound(u):
            zx, zy = max(0, x + d * u), max(0, y + d * u)
            return -tau * u - (zx**1.5 + zy**1.5) * 2 / 3

        def rate(u):
            return mpmath.sqrt(max(0, -(x + d * u))) + mpmath.sqrt(max(0, -(y + d * u)))

        U, top = 0, log_bound(0)
        while log_bound(U) >= top - 75 or (d > 0 and U < -min(x, y)):
            U += 1
            top = max(top, log_bound(U))
        f = lambda u: mpmath.exp(-tau * u) * mpmath.airyai(x + d * u) * mpmath.airyai(y + d * u)
        total, a = mpmath.mpf(0), mpmath.mpf(0)
        while a < U:
            r = max(rate(a), rate(a + 1))
            b = min(U, a + (min(1, 3 / r) if r > 0 else 1))
            total += sum(w * f((a + b) / 2 + (b - a) / 2 * n) for n, w in GL16_MP) * (b - a) / 2
            a = b
        return total


class TestAiryKernel:
    def test_diagonal_value(self):
        assert airy_kernel(0.0, 0.0) == pytest.approx(0.06698748377966, abs=1e-10)
        ai, aip = op.airy(0.0)
        assert airy_kernel(0.0, 0.0) == pytest.approx(aip**2, abs=1e-10)

    def test_symmetry(self):
        assert airy_kernel(1.0, 2.0) == pytest.approx(airy_kernel(2.0, 1.0), rel=1e-13)

    def test_ratio_vs_integral_forms(self):
        f = lambda u: special.airy(1.0 + u)[0] * special.airy(2.0 + u)[0]
        ref, _ = integrate.quad(f, 0, np.inf, epsabs=1e-14)
        assert airy_kernel(1.0, 2.0) == pytest.approx(ref, abs=1e-9)

    def test_near_diagonal_branch_consistency(self):
        a = airy_kernel(0.5, 0.5 + 9e-5)   # integral branch
        b = airy_kernel(0.5, 0.5 + 2e-4)   # ratio branch
        assert a == pytest.approx(b, abs=5e-5)

    def test_range_check(self):
        with pytest.raises(ValueError):
            airy_kernel(25.0, 0.0)

    @pytest.mark.parametrize("x", [-3.0, 0.0, 0.4273216401143463, 2.0])
    def test_diagonal_closed_form(self, x):
        import mpmath

        with mpmath.workdps(30):
            ref = float(mpmath.airyai(x, 1) ** 2 - x * mpmath.airyai(x) ** 2)
        assert airy_kernel(x, x) == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("x,h", [(0.5, 9e-5), (-2.0, 3e-5), (1.5, -6e-5)])
    def test_near_diagonal_expansion(self, x, h):
        import mpmath

        with mpmath.workdps(40):
            y = mpmath.mpf(x) + mpmath.mpf(h)
            ref = float((mpmath.airyai(x) * mpmath.airyai(y, 1) - mpmath.airyai(x, 1) * mpmath.airyai(y))
                        / (x - y))
        assert airy_kernel(x, float(y)) == pytest.approx(ref, abs=1e-15)


class TestExtendedAiry:
    def test_zero_offset_reduces_to_airy(self):
        for x, y in [(0.0, 0.0), (-1.0, 0.7), (1.3, 2.0)]:
            assert extended_airy(0.4, x, 0.4, y) == pytest.approx(airy_kernel(x, y), abs=1e-10)

    def test_symmetry_in_positions(self):
        assert extended_airy(0.0, 0.2, 1.0, 0.8) == pytest.approx(
            extended_airy(0.0, 0.8, 1.0, 0.2), rel=1e-10)

    def test_forward_value_dual_quadrature(self):
        got = extended_airy(0.0, 0.0, 1.0, 0.0)
        ref, _ = integrate.quad(lambda u: math.exp(-u) * special.airy(u)[0] ** 2, 0, 50)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_backward_branch_finite(self):
        v = extended_airy(1.0, 0.3, 0.0, -0.2)
        assert math.isfinite(v) and v != 0.0

    def test_offset_range(self):
        with pytest.raises(ValueError):
            extended_airy(0.0, 0.0, 6.0, 0.0)

    @pytest.mark.parametrize("tau_x,x,tau_y,y", [
        (1.0, 0.3, 0.0, -0.2), (0.0, 0.0, -0.5, 0.3), (0.5, -1.0, -1.5, 1.2), (3.0, 0.5, -3.0, 0.2),
    ])
    def test_backward_branch_vs_half_line_integral(self, tau_x, x, tau_y, y):
        import mpmath

        t = tau_x - tau_y
        with mpmath.workdps(20):
            f = lambda u: mpmath.exp(t * u) * mpmath.airyai(x + u) * mpmath.airyai(y + u)
            # beyond u = -30 / t, e^(t u) < 1e-13 and |Ai| < 1
            ref = -float(mpmath.quad(f, mpmath.linspace(-30.0 / t, 0.0, 16), method="gauss-legendre"))
        assert extended_airy(tau_x, x, tau_y, y) == pytest.approx(ref, abs=1e-10)

    def test_quadrature_error_estimate_is_checked(self, monkeypatch):
        # rules of 2 and 4 intervals per panel differ by far more than 1e-13
        monkeypatch.setattr(scaling, "AIRY_NODES", 2)
        with pytest.raises(NumericError):
            extended_airy(0.0, 0.2, 1.0, 0.8)
        # tau < 0: the forward integral raises, and so does the backward one
        with pytest.raises(NumericError):
            extended_airy(1.0, 0.2, 0.0, 0.8)
        with pytest.raises(NumericError):
            scaling._airy_integral(3.0, 0.2, 0.8, -1.0)

    @staticmethod
    def _reference(tau_x, x, tau_y, y):
        """(value, size): the entry at 30 digits by the route extended_airy
        takes, and the integral whose accuracy the rule certifies."""
        tau, t = tau_y - tau_x, tau_x - tau_y
        if tau >= 0:
            val = airy_integral_mp(tau, x, y, 1)
            return val, abs(val)
        line = math.exp(t**3 / 12 - t * (x + y) / 2 - (x - y) ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)
        if line <= 100:
            with mpmath.workdps(30):
                val = airy_integral_mp(tau, x, y, 1) - mpmath.exp(
                    t**3 / 12 - t * (x + y) / 2 - (x - y) ** 2 / (4 * t)) / mpmath.sqrt(4 * mpmath.pi * t)
            return val, abs(val) + line
        val = -airy_integral_mp(t, x, y, -1)
        return val, abs(val)

    def test_seeded_sweep_against_mpmath(self):
        # tau_x, tau_y in [-5, 5] and x, y in [-8, 8], five of each route:
        # tau >= 0; tau < 0 over [0, inf) less the whole line; tau < 0 over
        # (-inf, 0].  Held to the accuracy quad was asked for: 1e-13, or 1e-11
        # of the integral the rule takes
        rng = np.random.default_rng(2027)
        routes = {}
        while min(map(len, routes.values()), default=0) < 5 or len(routes) < 3:
            tx, ty, x, y = (float(v) for v in rng.uniform([-5, -5, -8, -8], [5, 5, 8, 8]))
            t = tx - ty
            line = math.exp(t**3 / 12 - t * (x + y) / 2 - (x - y) ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t) if t > 0 else 0
            route = "forward" if t <= 0 else "less-line" if line <= 100 else "backward"
            if len(routes.setdefault(route, [])) < 5:
                routes[route].append((tx, x, ty, y))
        for case in (c for cases in routes.values() for c in cases):
            val, size = self._reference(*case)
            assert abs(extended_airy(*case) - float(val)) <= max(1e-13, 1e-11 * float(size)), case

    @pytest.mark.parametrize("tau_x,x,tau_y,y", [(4.8415, -2.064, -4.8415, -2.651), (4.8595, -6.212, -4.8595, -5.421)],
                             ids=["tau-9.683", "tau-9.719"])
    def test_strongly_negative_tau_against_mpmath(self, tau_x, x, tau_y, y):
        # tau near -10: over [0, inf) the integrand peaks sharply near u = tau^2/4
        val, size = self._reference(tau_x, x, tau_y, y)
        assert abs(extended_airy(tau_x, x, tau_y, y) - float(val)) <= max(1e-13, 1e-11 * float(size))


class TestBeadKernel:
    def test_equal_species_diagonal(self):
        assert bead_kernel(2, 0.7, 2, 0.7) == pytest.approx(1.0, rel=1e-12)

    def test_equal_species_sine(self):
        u = 0.37
        assert bead_kernel(0, 0.9, 0, 0.9 - u) == pytest.approx(
            math.sin(math.pi * u) / (math.pi * u), rel=1e-12)

    def test_adjacent_equal_positions_vanish(self):
        assert bead_kernel(0, 0.4, 1, 0.4) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_closed_form_vs_quadrature(self, m):
        u = 0.37
        f = lambda s: s**m * math.cos(math.pi * u * s - math.pi * m / 2)
        ref, _ = integrate.quad(f, 0, 1, epsabs=1e-14)
        assert bead_kernel(0, u, m, 0.0) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("m", [-2, -5])
    def test_negative_branch_vs_quadrature(self, m):
        u = 0.61
        f = lambda s: s ** float(m) * math.cos(math.pi * u * s - math.pi * m / 2)
        ref, _ = integrate.quad(f, 1, 3000, limit=3000)
        assert bead_kernel(0, u, m, 0.0) == pytest.approx(-ref, abs=5e-7)

    def test_large_offset_quadrature_path(self):
        v = bead_kernel(0, 0.3, 8, -0.2)
        f = lambda s: s**8 * np.cos(math.pi * 0.5 * s - math.pi * 4)
        ref, _ = integrate.quad(f, 0, 1)
        assert v == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("m,u", [(12, 60.0), (10, 30.0), (40, 13.0)])
    def test_large_offset_far_from_the_diagonal_vs_mpmath(self, m, u):
        # |beta| >= m/2 takes the upward recursion; a 48-node rule was 80% off
        # at (12, 60)
        import mpmath

        beta = math.pi * u
        with mpmath.workdps(40):
            ref = float(mpmath.quad(lambda s: s**m * mpmath.cos(mpmath.mpf(beta) * s - mpmath.pi * m / 2),
                                    mpmath.linspace(0, 1, 80)))
        assert bead_kernel(0, u, m, 0.0) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("m", range(-12, -6))
    @pytest.mark.parametrize("x,y", [(0.2, 0.0), (0.61, 0.0), (0.2, -9.0), (-1.3, 2.4)])
    def test_far_negative_offsets_vs_expint(self, m, x, y):
        import mpmath

        # -int_1^inf s^m cos(beta s - pi m / 2) ds, with int_1^inf s^-n e^(i beta s) ds = E_n(-i beta)
        beta = math.pi * (x - y)
        with mpmath.workdps(30):
            ref = -float(mpmath.re(mpmath.exp(-0.5j * mpmath.pi * m) * mpmath.expint(-m, -1j * beta)))
        assert bead_kernel(0, x, m, y) == pytest.approx(ref, abs=1e-12)


class TestBeadAlt:
    def test_equal_species_equal_positions(self):
        assert bead_kernel_alt(1, 0.4, 1, 0.4) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("r", [2, 3])
    def test_determinant_equality(self, r):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(40):
            cs = rng.integers(-3, 4, r)
            xs = rng.uniform(-2.0, 2.0, r)
            m1 = np.array([[bead_kernel(int(cs[i]), xs[i], int(cs[j]), xs[j])
                            for j in range(r)] for i in range(r)])
            m2 = np.array([[bead_kernel_alt(int(cs[i]), xs[i], int(cs[j]), xs[j])
                            for j in range(r)] for i in range(r)])
            worst = max(worst, abs(np.linalg.det(m1) - np.linalg.det(m2)))
        assert worst < (1e-8 if r == 2 else 1e-7)


class TestHardEdge:
    def test_origin_value(self):
        assert hard_edge_kernel(0.0, 0, 0.0, 0, 0.0) == pytest.approx(0.25, rel=1e-12)

    def test_equal_species_christoffel_darboux(self):
        a, x, y = 0.0, 1.0, 4.0
        cd = (special.jv(a, math.sqrt(x)) * math.sqrt(y) * special.jvp(a, math.sqrt(y))
              - special.jv(a, math.sqrt(y)) * math.sqrt(x) * special.jvp(a, math.sqrt(x))) / (2 * (x - y))
        assert hard_edge_kernel(a, 0, x, 0, y) == pytest.approx(cd, abs=1e-8)

    def test_symmetry_equal_species(self):
        assert hard_edge_kernel(0.5, 1, 2.0, 1, 5.0) == pytest.approx(
            hard_edge_kernel(0.5, 1, 5.0, 1, 2.0), rel=1e-10)

    def test_negative_branch_vs_oscillatory_oracle(self):
        import mpmath

        a, x, y = 0.0, 2.0, 3.0
        period = 2 * math.pi / (math.sqrt(x) + math.sqrt(y))
        f = lambda v: 2 * mpmath.besselj(1, v * math.sqrt(x)) * mpmath.besselj(0, v * math.sqrt(y))
        with mpmath.workdps(20):
            ref = float(mpmath.quadosc(f, [1, mpmath.inf], period=period))
        assert hard_edge_kernel(a, 1, x, 0, y) == pytest.approx(-0.25 * ref, abs=1e-7)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hard_edge_kernel(-1.5, 0, 1.0, 0, 1.0)
        with pytest.raises(ValueError):
            hard_edge_kernel(0.0, -1, 1.0, 0, 1.0)
        with pytest.raises(ValueError):
            hard_edge_kernel(0.0, 0, -1.0, 0, 1.0)

    def test_equal_positions_adjacent_species(self):
        # d/dv J_0(v sqrt 2)^2 = -2 sqrt 2 J_0 J_1, and the integral over
        # [0, inf) is 1 / (2 sqrt 2) at the jump
        expect = -special.j0(math.sqrt(2.0)) ** 2 / (4.0 * math.sqrt(2.0))
        assert expect == pytest.approx(-0.05526587351675155, abs=1e-16)
        assert hard_edge_kernel(0.0, 1, 2.0, 0, 2.0) == pytest.approx(expect, abs=1e-12)

    def test_equal_positions_two_species_apart(self):
        import mpmath

        # int_0^inf t^-1 J_3(t) J_1(t) dt = 0, so only the head on [0, 1] is left
        with mpmath.workdps(30):
            r2 = mpmath.sqrt(2)
            head = mpmath.quad(lambda v: 2 / v * mpmath.besselj(3, v * r2) * mpmath.besselj(1, v * r2), [0, 1])
        assert float(head / 4) == pytest.approx(0.004047823155597023, abs=1e-16)
        assert hard_edge_kernel(0.0, 3, 2.0, 1, 2.0) == pytest.approx(0.004047823155597023, abs=1e-12)

    def test_half_integer_orders_vs_oscillatory_oracle(self):
        import mpmath

        # J_(3/2) and J_(1/2) are elementary (DLMF 10.16.1), which keeps quadosc fast
        x, y = 2.2, 3.2
        with mpmath.workdps(20):
            sx, sy = mpmath.sqrt(x), mpmath.sqrt(y)

            def f(v):
                p, q = v * sx, v * sy
                return 4 / (mpmath.pi * mpmath.sqrt(p * q)) * (mpmath.sin(p) / p - mpmath.cos(p)) * mpmath.sin(q)

            ref = -float(mpmath.quadosc(f, [1, mpmath.inf], omega=sx + sy)) / 4
        assert hard_edge_kernel(0.5, 1, x, 0, y) == pytest.approx(ref, abs=1e-12)

    def test_both_positions_at_the_origin(self):
        assert hard_edge_kernel(0.0, 1, 0.0, 0, 0.0) == 0.0
        assert hard_edge_kernel(0.5, 2, 0.0, 0, 0.0) == 0.0


class TestScaledFinite:
    def test_soft_edge_gaussian_sequence(self):
        lim = airy_kernel(0.0, 0.0)
        errs = []
        for N in (25, 50, 100):
            q = LimitQuery(SOFT_FIXED, GAUSS, N, (0,), (0.0,))
            errs.append(abs(scaled_finite_kernel(q, 0, 0) - lim))
        assert errs[0] > errs[1] > errs[2]

    def test_bulk_density_near_one(self):
        q = LimitQuery(BULK, GAUSS, 100, (0,), (0.0,))
        assert scaled_finite_kernel(q, 0, 0) == pytest.approx(1.0, abs=0.01)

    def test_hard_edge_diagonal_exact_quarter(self):
        q = LimitQuery(HARD_EDGE, LAG0, 60, (0,), (0.0,))
        assert scaled_finite_kernel(q, 0, 0) == pytest.approx(0.25, abs=1e-10)

    def test_out_of_model_species(self):
        with pytest.raises(ValueError):
            q = LimitQuery(SOFT_FIXED, GAUSS, 20, (25,), (0.0,))
            scaled_finite_kernel(q, 0, 0)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            LimitQuery("weird", GAUSS, 50, (0,), (0.0,))
        with pytest.raises(ValueError):
            LimitQuery(HARD_EDGE, GAUSS, 50, (0,), (0.0,))
        with pytest.raises(ValueError):
            LimitQuery(BULK, LAG0, 50, (0,), (0.0,))

    def test_soft_drift_rejects_jacobi(self):
        # the drift map is set up for the gaussian and laguerre chains only
        with pytest.raises(ValueError, match="soft-drift"):
            LimitQuery(SOFT_DRIFT, op.EnsembleSpec(op.JACOBI, 0.5, 1.0), 50, (0.0, 0.5), (0.0, 0.3))

    def test_realized_offsets_roundtrip(self):
        q = LimitQuery(SOFT_DRIFT, LAG0, 200, (0.0, 0.5), (0.0, 0.3))
        rc = realized_offsets(q)
        assert rc[0] == 0.0
        assert rc[1] == pytest.approx(0.5, abs=0.01)


class TestConvergenceReport:
    def test_soft_edge_report(self):
        rep = convergence_report(SOFT_FIXED, GAUSS, (25, 50, 100), (0,), (0.0,))
        assert rep["converged"]
        assert rep["errors"][0] > rep["errors"][-1]
        assert rep["order_estimate"] is not None

    def test_requires_three_sizes(self):
        with pytest.raises(ValueError):
            convergence_report(SOFT_FIXED, GAUSS, (50, 100), (0,), (0.0,))

    def test_flags_non_convergence(self, monkeypatch):
        # bug-injection fixture: a constant offset never converges
        orig = scaling.scaled_finite_kernel

        def broken(q, j, k):
            return orig(q, j, k) + 0.5

        monkeypatch.setattr(scaling, "scaled_finite_kernel", broken)
        rep = convergence_report(SOFT_FIXED, GAUSS, (25, 50, 100), (0,), (0.0,))
        assert not rep["converged"]

    def test_json_and_csv_writers(self):
        rep = convergence_report(SOFT_FIXED, GAUSS, (25, 50, 100), (0,), (0.0,))
        # the report holds plain JSON types, so json.dumps writes it as it is
        assert '"regime"' in json.dumps(rep, sort_keys=True)
        csv = scaling.report_to_csv(rep)
        assert csv.splitlines()[0].startswith("N,max_error")
        assert len(csv.strip().splitlines()) == 4
