"""Tail moments integral_x (y-x)^m w(y) dy of the near-up kernel entries:
closed forms for the Gaussian and integer-exponent Laguerre weights, a
positive hypergeometric series for the Jacobi weights, quad for Laguerre with
a non-integer exponent at x > 0, and the accuracy of a cancelling near-up
entry."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

import minorkern.kernel as kernel_mod
from minorkern import orthopoly as op
from minorkern.kernel import ProcessSpec, SpeciesPoint, correlation, kernel_F, kernel_K, psi
from minorkern.numerics import NumericError
from oracles import f_entry_series


def gauss_moment_mp(m, x):
    """log of (sqrt(pi)/2) m! i^m erfc(x), with i^m erfc(x) =
    e^{-x^2/2} U(m+1/2, x sqrt 2) / sqrt(2^(m-1) pi) (DLMF 7.18.10)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return float(mpmath.log(mpmath.sqrt(mpmath.pi) / 2 * mpmath.factorial(m)) - x * x / 2
                     + mpmath.log(mpmath.pcfu(m + mpmath.mpf(1) / 2, x * mpmath.sqrt(2)))
                     - mpmath.log(mpmath.sqrt(2 ** (m - 1) * mpmath.pi)))


def laguerre_moment_mp(a, m, x):
    """log of integral_max(x,0)^inf (y-x)^m y^a e^-y dy: Tricomi U for x > 0
    (DLMF 13.4.4), quadrature for x <= 0."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x > 0:
            return float((m + a + 1) * mpmath.log(x) - x + mpmath.log(mpmath.factorial(m))
                         + mpmath.log(mpmath.hyperu(m + 1, m + a + 2, x)))
        f = lambda y: (y - x) ** m * y ** a * mpmath.exp(-y)
        return float(mpmath.log(mpmath.quad(f, [0, 10, 40, 120, mpmath.inf])))


GAUSS_X = [-3.4, -1.2, -1e-3, 0.0, 0.2, 0.5, 0.5000001, 0.74, 1.3, 3.0, 8.7, 28.4]


@pytest.mark.parametrize("x", GAUSS_X)
def test_gaussian_moments_match_mpmath(x):
    got = kernel_mod._gauss_tail_moments(34, x)
    for m in (0, 1, 2, 5, 12, 21, 33):
        assert abs(got[m] - gauss_moment_mp(m, x)) < 1e-11, m


@pytest.mark.parametrize("a", [0, 1, 7, 33])
@pytest.mark.parametrize("x", [-2.5, -0.3, 0.0, 0.4, 3.8, 41.0, 332.0])
def test_laguerre_moments_match_mpmath(a, x):
    for m in (0, 1, 6, 33):
        got = kernel_mod._log_tail_integral(op.ShiftedFamily(op.EnsembleSpec(op.LAGUERRE, a=float(a))), m, x)
        assert abs(got - laguerre_moment_mp(a, m, x)) < 1e-11, m


def test_laguerre_non_integer_exponent_closed_below_zero():
    # for x <= 0 the binomial sum needs no integer exponent
    fam = op.ShiftedFamily(op.EnsembleSpec(op.LAGUERRE, a=-0.5), 2)
    for m, x in [(0, 0.0), (3, -0.7), (9, -2.0)]:
        assert abs(kernel_mod._log_tail_integral(fam, m, x) - laguerre_moment_mp(1.5, m, x)) < 1e-11


def test_continued_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(kernel_mod, "CF_MAX_DEPTH", 60)
    with pytest.raises(NumericError, match="continued fraction"):
        kernel_mod._gauss_tail_moments(30, 0.8)


def _forbid_quad(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("quad called")
    monkeypatch.setattr(kernel_mod.integrate, "quad", no_quad)


NEAR_UP = [(2, 6, "lo"), (3, 9, "mid"), (5, 15, "hi"), (1, 10, "mid")]


@pytest.mark.parametrize("spec,pos", [
    (op.EnsembleSpec(op.GAUSSIAN), {"lo": -1.9, "mid": 0.3, "hi": 2.6}),
    (op.EnsembleSpec(op.LAGUERRE, a=1.0), {"lo": 9.0, "mid": 16.0, "hi": 27.0}),
], ids=["gauss", "lag1"])
def test_near_up_entries_run_no_quad(monkeypatch, spec, pos):
    proc = ProcessSpec(spec, 16)
    refs = []
    for s1, s2, where in NEAR_UP:
        p1, p2 = SpeciesPoint(s1, pos[where]), SpeciesPoint(s2, pos["mid"])
        refs.append((p1, p2, f_entry_series(proc, p1, p2)))
    _forbid_quad(monkeypatch)
    for p1, p2, ref in refs:
        assert kernel_F(proc, p1, p2) == pytest.approx(ref, rel=1e-8, abs=1e-11)
    assert math.isfinite(psi(proc, 3, -5, pos["lo"]))


@pytest.mark.parametrize("spec,pts", [
    (op.EnsembleSpec(op.LAGUERRE, a=-0.5), [(2, 1.3, 6, 2.0), (1, 0.6, 5, 4.1)]),
], ids=["lag-half"])
def test_other_weights_keep_quad(monkeypatch, spec, pts):
    calls = []
    quad = integrate.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(kernel_mod.integrate, "quad", counting)
    proc = ProcessSpec(spec, 8)
    for s1, y1, s2, y2 in pts:
        p1, p2 = SpeciesPoint(s1, y1), SpeciesPoint(s2, y2)
        assert kernel_F(proc, p1, p2) == pytest.approx(f_entry_series(proc, p1, p2), rel=1e-8, abs=1e-11)
    assert calls


JAC = op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0)


def test_jacobi_entries_run_no_quad(monkeypatch):
    proc = ProcessSpec(JAC, 8)
    pairs = [(SpeciesPoint(s1, y1), SpeciesPoint(s2, y2)) for s1, y1, s2, y2 in [(2, 0.3, 6, 0.5), (1, 0.7, 5, 0.2)]]
    refs = [f_entry_series(proc, p1, p2) for p1, p2 in pairs]
    p1, p2 = pairs[0]
    det = (f_entry_series(proc, p1, p1) * f_entry_series(proc, p2, p2)
           - refs[0] * f_entry_series(proc, p2, p1))
    _forbid_quad(monkeypatch)
    for (p1, p2), ref in zip(pairs, refs):
        assert kernel_F(proc, p1, p2) == pytest.approx(ref, rel=1e-8, abs=1e-11)
    assert math.isfinite(kernel_K(proc, *pairs[0]).value)
    assert correlation(proc, list(pairs[0])) == pytest.approx(det, rel=1e-8)
    assert math.isfinite(psi(proc, 3, -5, 0.3))
    # the top species has no tail moment (every shift is negative)
    assert psi(proc, 8, -2, 0.0) == 0.0


def jacobi_moment_mp(a, b, m, x):
    """log of integral_x^1 (y-x)^m y^a (1-y)^b dy from mpmath's hyp2f1: the
    Euler-Pfaff form in 1-x for 0 < x < 1, and for x < 0 the terminating
    (-x)^m B(a+1, b+1) 2F1(-m, a+1; a+b+2; 1/x)."""
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        if x >= 1:
            return -math.inf
        if x == 0:
            return float(mpmath.log(mpmath.beta(a + m + 1, b + 1)))
        if x < 0:
            return float(m * mpmath.log(-x) + mpmath.log(mpmath.beta(a + 1, b + 1))
                         + mpmath.log(mpmath.hyp2f1(-m, a + 1, a + b + 2, 1 / x)))
        return float((m + b + 1) * mpmath.log(1 - x) + (m + a + 1) * mpmath.log(x)
                     + mpmath.log(mpmath.beta(m + 1, b + 1))
                     + mpmath.log(mpmath.hyp2f1(m + a + b + 2, m + 1, m + b + 2, 1 - x)))


@pytest.mark.parametrize("base", [(0.5, 1.0), (-0.5, -0.3)], ids=["half-one", "neg"])
@pytest.mark.parametrize("x", [-0.7, 0.0, 1e-8, 1e-3, 0.03, 0.3, 0.5, 0.9, 1 - 1e-9, 1.0, 1.2])
def test_jacobi_moments_match_mpmath(base, x):
    # shifts 0..60 and m up to 33 on one call, as a near-up entry asks for them.
    # at x = 1e-8 every row passes the series' term cap and takes the
    # difference route, at x = 1e-3 17 of the 25 rows do, and at x = 0.03 the
    # series certifies each row; shift 0 of the second base has term ratios
    # that rise to 1 - x
    q = np.array([0, 1, 7, 30, 60] * 5)
    m = np.repeat([0, 1, 5, 17, 33], 5)
    got = kernel_mod._jacobi_tail_moments(base[0] + q, base[1] + q, m, x)
    for qq, mm, g in zip(q, m, got):
        ref = jacobi_moment_mp(base[0] + qq, base[1] + qq, mm, x)
        assert g == ref or abs(g - ref) < 1e-11, (qq, mm)


def test_jacobi_series_past_its_cap_raises(monkeypatch):
    # at x = 1/2 the difference route cancels by about e^60 for m = 33
    monkeypatch.setattr(kernel_mod, "HYP_MAX_TERMS", 64)
    with pytest.raises(NumericError, match="Jacobi tail moments"):
        kernel_mod._jacobi_tail_moments(np.array([20.5]), np.array([21.0]), np.array([33]), 0.5)


def test_jacobi_near_up_entries_of_one_row_run_no_quad(monkeypatch):
    # the eleven near-up entries of the timing in CHANGES.md (N=50, s1=30,
    # gaps 1-11); only their path is held here, not their time
    _forbid_quad(monkeypatch)
    proc = ProcessSpec(JAC, 50)
    vals = [kernel_F(proc, SpeciesPoint(30, 0.4), SpeciesPoint(30 + g, 0.55)) for g in range(1, 12)]
    assert all(math.isfinite(v) for v in vals) and all(vals)


def up_entry_mp(spec, N, s1, y1, s2, y2):
    """kernel_F entry for s1 < s2 at 50 digits: -phi + sum over l of
    Psi_{s1-l}(y1) Phi_{s2-l}(y2), with Psi from its defining convolution
    (1/k!) integral_x w(y) p_{N-s1+j}(y) (y-x)^k dy, k = N-s1-1, and
    Phi_j = (e_{sig+j}/e_j) p_j / N_j in the family of shift sig = N-s2
    (H_j with e_j = (-1)^j; L_j^(a) or P_j^(a,b)(1-2y) with e_j = j!), in
    the sqrt-weight gauge."""
    with mpmath.workdps(50):
        a, b, y1, y2 = mpmath.mpf(spec.a), mpmath.mpf(spec.b), mpmath.mpf(y1), mpmath.mpf(y2)
        k, sig = N - s1 - 1, N - s2
        if spec.kind == op.GAUSSIAN:
            def w(sh, y):
                return mpmath.exp(-y * y)

            def p(j, sh, y):
                return mpmath.hermite(j, y)

            def norm(j, sh):
                return 2 ** j * mpmath.factorial(j) * mpmath.sqrt(mpmath.pi)

            def e_ratio(j):
                return (-1) ** sig

            panels = [y1, y1 + 0.5, y1 + 1, y1 + 2, y1 + 4, y1 + 8, mpmath.inf]
        elif spec.kind == op.LAGUERRE:
            def w(sh, y):
                return y ** (a + sh) * mpmath.exp(-y)

            def p(j, sh, y):
                return mpmath.laguerre(j, a + sh, y)

            def norm(j, sh):
                return mpmath.gamma(j + a + sh + 1) / mpmath.factorial(j)

            panels = [y1, y1 + 5, y1 + 20, y1 + 60, mpmath.inf]
        else:
            def w(sh, y):
                return y ** (a + sh) * (1 - y) ** (b + sh)

            def p(j, sh, y):
                return mpmath.jacobi(j, a + sh, b + sh, 1 - 2 * y)

            def norm(j, sh):
                aa, bb = a + sh, b + sh
                return (mpmath.gamma(j + aa + 1) * mpmath.gamma(j + bb + 1)
                        / (mpmath.factorial(j) * (2 * j + aa + bb + 1) * mpmath.gamma(j + aa + bb + 1)))

            panels = mpmath.linspace(y1, 1, 8)
        if spec.kind != op.GAUSSIAN:
            def e_ratio(j):
                return mpmath.factorial(sig + j) / mpmath.factorial(j)

        def psi_mp(j):
            f = lambda y: w(0, y) * p(N - s1 + j, 0, y) * (y - y1) ** k
            return mpmath.quad(f, panels) / mpmath.factorial(k)

        def phi_mp(j):
            return (-1) ** sig * e_ratio(j) * p(j, sig, y2) / norm(j, sig)

        m = s2 - s1 - 1
        phi_conv = (y2 - y1) ** m / mpmath.factorial(m) if y2 > y1 else 0
        kval = -phi_conv + mpmath.fsum(psi_mp(s1 - l) * phi_mp(s2 - l) for l in range(1, s2 + 1))
        return float((-1) ** (s2 - s1) * kval * mpmath.sqrt(w(N - s2, y2) / w(N - s1, y1)))


def test_cancelling_near_up_entry_against_mpmath():
    # the K-gauge terms reach 33 and cancel to -1.1e-8, so rounding of the
    # terms (about 1e-15 each) sets the error: measured 3.9e-8 of the scale
    proc = ProcessSpec(op.EnsembleSpec(op.LAGUERRE, a=0.0), 9)
    p1, p2 = SpeciesPoint(1, 0.31681), SpeciesPoint(7, 2.24375)
    ref = up_entry_mp(proc.ensemble, 9, 1, 0.31681, 7, 2.24375)
    got = kernel_F(proc, p1, p2)
    scale = max(abs(got), math.sqrt(abs(kernel_F(proc, p1, p1) * kernel_F(proc, p2, p2))))
    assert abs(got - ref) / scale < 1e-7
    # a well-conditioned entry of the same process is exact to roundoff
    p3 = SpeciesPoint(3, 4.2)
    ref = up_entry_mp(proc.ensemble, 9, 3, 4.2, 7, 2.24375)
    assert kernel_F(proc, p3, p2) == pytest.approx(ref, rel=1e-12)


def test_jacobi_entry_next_to_the_endpoint():
    # 4e-5 below y = 1 the Beta tail 1 - betainc cancels to roundoff, which
    # would put the chain oracle 1.2e-3 off; it takes the complement instead
    proc = ProcessSpec(op.EnsembleSpec(op.JACOBI, a=0.5, b=1.0), 10)
    p1, p2 = SpeciesPoint(7, 0.9999598632196777), SpeciesPoint(8, 0.9036619696303904)
    ref = up_entry_mp(proc.ensemble, 10, 7, p1.y, 8, p2.y)
    assert kernel_F(proc, p1, p2) == pytest.approx(ref, rel=1e-12)
    assert f_entry_series(proc, p1, p2) == pytest.approx(ref, rel=1e-12)


def test_far_entry_whose_series_cancels_takes_the_finite_sum():
    # the bilinear series' terms reach e^13.8 times the sum, which left it
    # 1.1e-8 off; the finite sum is exact to roundoff here
    proc = ProcessSpec(op.EnsembleSpec(op.GAUSSIAN), 30)
    p1, p2 = SpeciesPoint(3, 9.8172009678519), SpeciesPoint(21, 10.12687340619569)
    assert kernel_mod._series_slog(proc, p1, p2) is None
    assert kernel_F(proc, p1, p2) == pytest.approx(up_entry_mp(proc.ensemble, 30, 3, p1.y, 21, p2.y), rel=1e-12)
