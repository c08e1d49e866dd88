"""Moments of the kernel entries with s1 < s2: the upper moments
integral_x^hi (y-x)^m w(y) dy (closed forms for the Gaussian and
integer-exponent Laguerre weights, a positive hypergeometric series for the
Jacobi weights, certified Gauss-Laguerre rules for Laguerre with a
non-integer exponent at x > 0, none of them quad) and
the lower moments integral_lo^x (reflection for the Gaussian weight, Kummer's
series for Laguerre, the mirror series for Jacobi, none of them quad); and the
accuracy of those entries against a 50-digit reference, wherever y1 lies,
which holds the rule that takes the side of y1 whose finite sum cancels less;
and the entries with s1 >= s2, whose finite sum needs no moment, against a
50-digit sum of eta products."""

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
    ms = [0, 1, 6, 33]
    got = kernel_mod._laguerre_tail_moments(np.full(4, float(a)), np.array(ms), x)
    for m, g in zip(ms, got):
        assert abs(g - laguerre_moment_mp(a, m, x)) < 1e-11, m


def test_laguerre_non_integer_exponent_closed_below_zero():
    # for x <= 0 the binomial sum needs no integer exponent
    for m, x in [(0, 0.0), (3, -0.7), (9, -2.0)]:
        got = kernel_mod._laguerre_tail_moments(np.array([1.5]), np.array([m]), x)[0]
        assert abs(got - laguerre_moment_mp(1.5, m, x)) < 1e-11


def test_continued_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(kernel_mod, "CF_MAX_DEPTH", 60)
    with pytest.raises(NumericError, match="continued fraction"):
        kernel_mod._gauss_tail_moments(30, 0.8)


def _forbid_quad(monkeypatch):
    # the package imports no scipy.integrate, so a quad would have to come from there
    def no_quad(*args, **kwargs):
        raise AssertionError("quad called")
    assert not hasattr(kernel_mod, "integrate")
    monkeypatch.setattr(integrate, "quad", no_quad)


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
def test_other_weights_run_no_quad(monkeypatch, spec, pts):
    proc = ProcessSpec(spec, 8)
    pairs = [(SpeciesPoint(s1, y1), SpeciesPoint(s2, y2)) for s1, y1, s2, y2 in pts]
    refs = [f_entry_series(proc, p1, p2) for p1, p2 in pairs]
    _forbid_quad(monkeypatch)
    for (p1, p2), ref in zip(pairs, refs):
        assert kernel_F(proc, p1, p2) == pytest.approx(ref, rel=1e-8, abs=1e-11)


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


def poly_table_mp(kind, al, be, y, n):
    """H_j(y), L_j^(al)(y) or P_j^(al,be)(1-2y) for j = 0..n-1 (at least two)
    by their three-term recurrences (DLMF 18.9.1)."""
    if kind == op.GAUSSIAN:
        out = [mpmath.mpf(1), 2 * y]
        for j in range(1, n - 1):
            out.append(2 * y * out[j] - 2 * j * out[j - 1])
    elif kind == op.LAGUERRE:
        out = [mpmath.mpf(1), 1 + al - y]
        for j in range(1, n - 1):
            out.append(((2 * j + 1 + al - y) * out[j] - (j + al) * out[j - 1]) / (j + 1))
    else:
        t, s = 1 - 2 * y, al + be
        out = [mpmath.mpf(1), (al + 1) + (s + 2) * (t - 1) / 2]
        for j in range(1, n - 1):
            c = 2 * j + s
            out.append(((c + 1) * ((c + 2) * c * t + al * al - be * be) * out[j]
                        - 2 * (j + al) * (j + be) * (c + 2) * out[j - 1]) / (2 * (j + 1) * (j + s + 1) * c))
    return out


def family_mp(spec):
    """(w, norm, e) at the working precision: the weight w(sh, y) and the
    squared norm norm(j, sh) of the family of shift sh, and the Rodrigues
    constant e(j): H_j with e_j = (-1)^j, L_j^(a) or P_j^(a,b)(1-2y) with
    e_j = j!."""
    a, b = mpmath.mpf(spec.a), mpmath.mpf(spec.b)
    if spec.kind == op.GAUSSIAN:
        def w(sh, y):
            return mpmath.exp(-y * y)

        def norm(j, sh):
            return 2 ** j * mpmath.factorial(j) * mpmath.sqrt(mpmath.pi)

        def e(j):
            return (-1) ** j

        return w, norm, e
    if spec.kind == op.LAGUERRE:
        def w(sh, y):
            return y ** (a + sh) * mpmath.exp(-y)

        def norm(j, sh):
            return mpmath.gamma(j + a + sh + 1) / mpmath.factorial(j)
    else:
        def w(sh, y):
            return y ** (a + sh) * (1 - y) ** (b + sh)

        def norm(j, sh):
            aa, bb = a + sh, b + sh
            return (mpmath.gamma(j + aa + 1) * mpmath.gamma(j + bb + 1)
                    / (mpmath.factorial(j) * (2 * j + aa + bb + 1) * mpmath.gamma(j + aa + bb + 1)))
    return w, norm, mpmath.factorial


def up_entry_mp(spec, N, s1, y1, s2, y2):
    """kernel_F entry for s1 < s2 at 50 digits: -phi + sum over l of
    Psi_{s1-l}(y1) Phi_{s2-l}(y2), with Psi from its defining convolution
    (1/k!) integral_x w(y) p_{N-s1+j}(y) (y-x)^k dy, k = N-s1-1, and
    Phi_j = (e_{sig+j}/e_j) p_j / N_j in the family of shift sig = N-s2,
    in the sqrt-weight gauge."""
    with mpmath.workdps(50):
        a, b, y1, y2 = mpmath.mpf(spec.a), mpmath.mpf(spec.b), mpmath.mpf(y1), mpmath.mpf(y2)
        k, sig = N - s1 - 1, N - s2
        w, norm, e = family_mp(spec)
        panels = ([y1, y1 + 0.5, y1 + 1, y1 + 2, y1 + 4, y1 + 8, mpmath.inf] if spec.kind == op.GAUSSIAN
                  else [y1, y1 + 5, y1 + 20, y1 + 60, mpmath.inf] if spec.kind == op.LAGUERRE
                  else mpmath.linspace(y1, 1, 8))
        nodes = {}

        def psi_mp(j):
            # the quadratures of the Psi share their nodes, so each node's
            # integrands come from one recurrence
            def f(y):
                if y not in nodes:
                    c = w(0, y) * (y - y1) ** k
                    nodes[y] = [c * v for v in poly_table_mp(spec.kind, a, b, y, N)]
                return nodes[y][N - s1 + j]
            return mpmath.quad(f, panels) / mpmath.factorial(k)

        phi_poly = poly_table_mp(spec.kind, a + sig, b + sig, y2, N)

        def phi_mp(j):
            return (-1) ** sig * e(sig + j) / e(j) * phi_poly[j] / norm(j, sig)

        m = s2 - s1 - 1
        phi_conv = (y2 - y1) ** m / mpmath.factorial(m) if y2 > y1 else 0
        kval = -phi_conv + mpmath.fsum(psi_mp(s1 - l) * phi_mp(s2 - l) for l in range(1, s2 + 1))
        return float((-1) ** (s2 - s1) * kval * mpmath.sqrt(w(N - s2, y2) / w(N - s1, y1)))


def down_entry_mp(spec, N, s1, y1, s2, y2):
    """kernel_F entry for s1 >= s2 at 50 digits: the sum over k = 1..s2 of
    gamma_{s1-k}/gamma_{s2-k} eta_{s1-k}(y1) eta_{s2-k}(y2), with
    gamma_j = e_j sqrt(N_j) and eta_j = sqrt(w/N_j) p_j in the family of
    each point's species."""
    with mpmath.workdps(50):
        a, b, y1, y2 = mpmath.mpf(spec.a), mpmath.mpf(spec.b), mpmath.mpf(y1), mpmath.mpf(y2)
        sh1, sh2 = N - s1, N - s2
        w, norm, e = family_mp(spec)
        p1 = poly_table_mp(spec.kind, a + sh1, b + sh1, y1, s1)
        p2 = poly_table_mp(spec.kind, a + sh2, b + sh2, y2, s2)
        total = mpmath.fsum(e(s1 - k) / e(s2 - k) * p1[s1 - k] * p2[s2 - k] / norm(s2 - k, sh2)
                            for k in range(1, s2 + 1))
        return float(total * mpmath.sqrt(w(sh1, y1) * w(sh2, y2)))


def test_reference_polynomials_match_mpmath():
    # up_entry_mp evaluates its polynomials by recurrence, so that the
    # quadratures of one entry share each node's table
    with mpmath.workdps(50):
        for y in (mpmath.mpf("0.3"), mpmath.mpf("-2.7"), mpmath.mpf("13.1")):
            for j, v in enumerate(poly_table_mp(op.GAUSSIAN, 0, 0, y, 30)):
                assert abs(v / mpmath.hermite(j, y) - 1) < 1e-40
            for j, v in enumerate(poly_table_mp(op.LAGUERRE, mpmath.mpf(2.5), 0, y, 30)):
                assert abs(v / mpmath.laguerre(j, 2.5, y) - 1) < 1e-40
        for y in (mpmath.mpf("0.01"), mpmath.mpf("0.3"), mpmath.mpf("0.97")):
            for al, be in [(0.5, 1.0), (-0.5, -0.3), (-0.4, -0.6)]:
                for j, v in enumerate(poly_table_mp(op.JACOBI, mpmath.mpf(al), mpmath.mpf(be), y, 30)):
                    assert abs(v / mpmath.jacobi(j, al, be, 1 - 2 * y) - 1) < 1e-40


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
    # a bilinear series' terms reach e^13.8 times the sum, which leaves it
    # 1.1e-8 off; the finite sum is exact to roundoff here
    proc = ProcessSpec(op.EnsembleSpec(op.GAUSSIAN), 30)
    p1, p2 = SpeciesPoint(3, 9.8172009678519), SpeciesPoint(21, 10.12687340619569)
    assert kernel_F(proc, p1, p2) == pytest.approx(up_entry_mp(proc.ensemble, 30, 3, p1.y, 21, p2.y), rel=1e-12)


GAUSS = op.EnsembleSpec(op.GAUSSIAN)
LAG0, LAG1, LAG_HALF, LAG_PLUS_HALF = (op.EnsembleSpec(op.LAGUERRE, a=a) for a in (0.0, 1.0, -0.5, 0.5))


def scaled_error(spec, N, s1, y1, s2, y2):
    """|kernel_F - its 50-digit reference| over the entry's scale max(|F|, sqrt|F11 F22|)."""
    proc = ProcessSpec(spec, N)
    p1, p2 = SpeciesPoint(s1, y1), SpeciesPoint(s2, y2)
    ref = (up_entry_mp if s1 < s2 else down_entry_mp)(spec, N, s1, y1, s2, y2)
    scale = max(abs(ref), math.sqrt(abs(kernel_F(proc, p1, p1) * kernel_F(proc, p2, p2))))
    return abs(kernel_F(proc, p1, p2) - ref) / scale


@pytest.mark.parametrize("spec,N,s1,y1,s2,y2", [
    # y1 below the bulk of species s1, where the terms over [y1, hi] cancel
    # to roundoff: 2.5e3, 2.8, 1.4e-6, 7.7e-8, 1.4e-3 and 3.4e-4 relative
    # before the side rule
    (LAG1, 16, 2, 0.4, 6, 3.5),
    (LAG0, 10, 1, 0.0908, 7, 2.885),
    (LAG0, 9, 1, 0.31681, 7, 2.24375),
    (LAG1, 16, 1, 3.5, 9, 3.5),
    (LAG_HALF, 12, 2, 0.3, 7, 1.5),
    (JAC, 10, 2, 0.02, 6, 0.4),
    # here the lower side's terms are 4e4 times its sum and the upper side's
    # are not: the rule keeps the upper side
    (GAUSS, 12, 6, 2.5, 9, 1.0),
    # a far entry below the bulk: 1.6e8 of scale from the bilinear series
    (LAG0, 24, 2, 0.616, 18, 35.875),
], ids=["lag1-below", "lag0-below", "lag0-found", "lag1-mid", "lag-half-below", "jac-below",
        "gauss-upper-side", "lag0-far-below"])
def test_up_entries_below_the_bulk_against_mpmath(spec, N, s1, y1, s2, y2):
    assert scaled_error(spec, N, s1, y1, s2, y2) < 1e-12


def _bulk(proc, s):
    """The extreme zeros of p_{s+1} in the family of species s."""
    z = op.gauss_weight_nodes(proc.family(s), s + 1)[0]
    return float(z.min()), float(z.max())


def _place(rng, kind, lo, hi, where):
    u = rng.uniform(0.02, 0.6)
    if where == "in":
        return rng.uniform(lo, hi)
    if kind == op.GAUSSIAN:
        return lo - 5 * u if where == "below" else hi + 5 * u
    if where == "below":
        return lo * u
    return hi * (1 + 2 * u) if kind == op.LAGUERRE else hi + (1 - hi) * u


def test_seeded_sweep_of_up_entries_against_mpmath():
    # for each of five weights, y1 below, in and above the bulk of species
    # s1 <= 3 and y2 in the bulk of species s2; two near entries (N 6-10) and
    # one far (N 15-17, gap >= 12) per place: 45 entries
    rng = np.random.default_rng(2025)
    errors = {}
    for spec in (GAUSS, LAG0, LAG1, LAG_HALF, JAC):
        for where in ("below", "in", "above"):
            for far in (False, False, True):
                N = int(rng.integers(15, 18)) if far else int(rng.integers(6, 11))
                s1 = int(rng.integers(1, 4))
                s2 = s1 + (int(rng.integers(12, N - s1 + 1)) if far else int(rng.integers(1, N - s1 + 1)))
                proc = ProcessSpec(spec, N)
                y1 = _place(rng, spec.kind, *_bulk(proc, s1), where)
                y2 = rng.uniform(*_bulk(proc, s2))
                errors[spec, N, s1, y1, s2, y2] = scaled_error(spec, N, s1, y1, s2, y2)
    worst = max(errors, key=errors.get)
    assert len(errors) == 45 and errors[worst] < 1e-12, (worst, errors[worst])


JAC_NEG = op.EnsembleSpec(op.JACOBI, a=-0.5, b=-0.3)


def test_seeded_sweep_of_down_entries_against_mpmath():
    # for each of five weights at N = 10 and 50, fifteen entries with
    # s1 >= s2: y1 below, in or above the bulk of species s1 and y2 in the
    # bulk of species s2; 150 entries
    rng = np.random.default_rng(2026)
    errors = {}
    for spec in (GAUSS, LAG1, LAG_HALF, JAC, JAC_NEG):
        for N in (10, 50):
            proc = ProcessSpec(spec, N)
            for _ in range(15):
                s2 = int(rng.integers(1, N + 1))
                s1 = int(rng.integers(s2, N + 1))
                y1 = _place(rng, spec.kind, *_bulk(proc, s1), ("below", "in", "above")[int(rng.integers(3))])
                y2 = rng.uniform(*_bulk(proc, s2))
                errors[spec, N, s1, y1, s2, y2] = scaled_error(spec, N, s1, y1, s2, y2)
    worst = max(errors, key=errors.get)
    assert len(errors) == 150 and errors[worst] < 1e-11, (worst, errors[worst])


def test_cancelling_down_entry_keeps_the_accuracy_of_its_terms():
    # y1 above the bulk, 2.2e-4 from the endpoint where the top species'
    # weight is singular: the terms reach e^9.1 times the sum, so their
    # rounding leaves the entry 8e-11 of its scale off, yet within 1e-13 of
    # the terms' size
    proc = ProcessSpec(JAC_NEG, 50)
    p1, p2 = SpeciesPoint(50, 0.9997770581379035), SpeciesPoint(45, 0.2620997144721804)
    ref = down_entry_mp(JAC_NEG, 50, 50, p1.y, 45, p2.y)
    cancel = kernel_mod._finite_sum(kernel_mod._Tables(proc), p1, p2, False)[2]
    assert abs(kernel_F(proc, p1, p2) - ref) < 1e-13 * abs(ref) * math.exp(cancel)


@pytest.mark.parametrize("x", GAUSS_X)
def test_gaussian_lower_moments_match_mpmath(x):
    # integral_-inf^x (u-x)^m e^{-u^2} du = (-1)^m times the upper moment at -x
    signs, logs = kernel_mod._psi_tails(ProcessSpec(GAUSS, 40), 1, 34, x, lower=True)
    m = np.arange(34)
    moments = logs + op.log_abs_e(op.GAUSSIAN, 38 - m) + np.array([math.lgamma(k + 1.0) for k in m])
    assert np.array_equal(signs, np.where(m % 2, -1.0, 1.0))
    for k in (0, 1, 2, 5, 12, 21, 33):
        assert abs(moments[k] - gauss_moment_mp(k, -x)) < 1e-11, k


def laguerre_lower_mp(a, m, x):
    """log of integral_0^x (x-y)^m y^a e^-y dy = B(a+1, m+1) x^(m+a+1) 1F1(a+1; m+a+2; -x)."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        return float(mpmath.log(mpmath.beta(a + 1, m + 1)) + (m + a + 1) * mpmath.log(x)
                     + mpmath.log(mpmath.hyp1f1(a + 1, m + a + 2, -x)))


@pytest.mark.parametrize("a", [0.0, 1.0, -0.5, 7.5])
@pytest.mark.parametrize("x", [1e-3, 0.4, 3.8, 41.0, 332.0])
def test_laguerre_lower_moments_match_mpmath(a, x):
    ms = [0, 1, 6, 33]
    got = kernel_mod._laguerre_lower_moments(np.full(4, a), np.array(ms), x)
    for m, g in zip(ms, got):
        assert abs(g - laguerre_lower_mp(a, m, x)) < 1e-11, m


def jacobi_lower_mp(a, b, m, x):
    """log of integral_0^x (x-y)^m y^a (1-y)^b dy = x^(m+a+1) B(a+1, m+1) 2F1(-b, a+1; m+a+2; x)."""
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        return float((m + a + 1) * mpmath.log(x) + mpmath.log(mpmath.beta(a + 1, m + 1))
                     + mpmath.log(mpmath.hyp2f1(-b, a + 1, m + a + 2, x)))


@pytest.mark.parametrize("base", [(0.5, 1.0), (-0.5, -0.3)], ids=["half-one", "neg"])
@pytest.mark.parametrize("x", [1e-8, 0.03, 0.5, 0.9])
def test_jacobi_lower_moments_match_mpmath(base, x):
    q = np.array([0, 1, 7, 30, 60] * 5)
    m = np.repeat([0, 1, 5, 17, 33], 5)
    got = kernel_mod._jacobi_lower_moments(base[0] + q, base[1] + q, m, x)
    for qq, mm, g in zip(q, m, got):
        assert abs(g - jacobi_lower_mp(base[0] + qq, base[1] + qq, mm, x)) < 1e-11, (qq, mm)


def test_lower_side_of_a_laguerre_half_entry_runs_no_quad(monkeypatch):
    # below the bulk the upper side (Gauss-Laguerre rules) cancels, and the
    # rule takes the lower side, whose moments are Kummer series; neither
    # side calls quad
    proc = ProcessSpec(LAG_HALF, 12)
    p1, p2 = SpeciesPoint(2, 0.3), SpeciesPoint(7, 1.5)
    ref = up_entry_mp(LAG_HALF, 12, 2, 0.3, 7, 1.5)
    _forbid_quad(monkeypatch)
    got = kernel_F(proc, p1, p2)
    tables = kernel_mod._Tables(proc)
    upper, lower = (kernel_mod._finite_sum(tables, p1, p2, side) for side in (False, True))
    assert upper[2] > kernel_mod.MAX_CANCEL >= lower[2]
    assert -lower[0] * math.exp(lower[1] - kernel_mod._gauge(proc, p1, p2)) == got
    scale = math.sqrt(kernel_F(proc, p1, p1) * kernel_F(proc, p2, p2))
    assert abs(got - ref) < 1e-12 * scale


@pytest.mark.parametrize("spec,N,s1,y1,s2,y2", [
    # y1 in and above the bulk of species s1, where the upper side is kept
    # and its moments come from the Gauss-Laguerre rules
    (LAG_HALF, 12, 3, 6.0, 8, 9.0),
    (LAG_HALF, 12, 1, 2.5, 11, 20.0),
    (LAG_HALF, 20, 9, 30.0, 14, 25.0),
    (LAG_HALF, 10, 4, 0.9, 6, 4.0),
    (LAG_PLUS_HALF, 12, 3, 6.0, 8, 9.0),
    (LAG_PLUS_HALF, 16, 2, 14.0, 13, 30.0),
    (LAG_PLUS_HALF, 20, 9, 30.0, 14, 25.0),
    (LAG_PLUS_HALF, 10, 4, 0.9, 6, 4.0),
], ids=["lag-minus-in", "lag-minus-far", "lag-minus-above", "lag-minus-low",
        "lag-plus-in", "lag-plus-far", "lag-plus-above", "lag-plus-low"])
def test_laguerre_half_near_up_entries_against_mpmath(monkeypatch, spec, N, s1, y1, s2, y2):
    _forbid_quad(monkeypatch)
    assert scaled_error(spec, N, s1, y1, s2, y2) < 1e-12


def test_laguerre_half_entries_of_one_row_run_no_quad(monkeypatch):
    # the eleven near-up entries of the timing in CHANGES.md (N=50, s1=30,
    # gaps 1-11); only their path is held here, not their time
    _forbid_quad(monkeypatch)
    proc = ProcessSpec(LAG_PLUS_HALF, 50)
    vals = [kernel_F(proc, SpeciesPoint(30, 60.0), SpeciesPoint(30 + g, 80.0)) for g in range(1, 12)]
    assert all(math.isfinite(v) for v in vals) and all(vals)


@pytest.mark.parametrize("a", [-0.5, 0.5, 7.5, 30.5])
@pytest.mark.parametrize("x", [1e-3, 0.05, 0.73, 3.8, 67.0, 332.0])
def test_laguerre_non_integer_moments_match_mpmath(a, x):
    # the Gauss-Laguerre rules; below x = 0.1 they leave the rows with a < 1
    # to the full moment minus the lower one
    ms = [0, 1, 6, 33]
    got = kernel_mod._laguerre_tail_moments(np.full(4, a), np.array(ms), x)
    for m, g in zip(ms, got):
        assert abs(g - laguerre_moment_mp(a, m, x)) < 1e-11, m


def test_laguerre_rule_that_does_not_certify_raises(monkeypatch):
    # rules of 2 and 4 nodes disagree, and at x = 20 the full moment minus the
    # lower one cancels by about e^30 for m = 10
    monkeypatch.setattr(kernel_mod, "LAG_NODES", (2, 4))
    with pytest.raises(NumericError, match="Laguerre tail moments"):
        kernel_mod._laguerre_tail_moments(np.array([0.5]), np.array([10]), 20.0)
    # an entry's upper side raises with it, and the entry is left to its lower side
    proc = ProcessSpec(LAG_PLUS_HALF, 50)
    with pytest.raises(NumericError):
        kernel_mod._finite_sum(kernel_mod._Tables(proc), SpeciesPoint(30, 60.0), SpeciesPoint(35, 80.0), False)
