import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anisodnl.model import (
    EPS_REG,
    CoefficientSpec,
    Exponents,
    ProblemSpec,
    check_admissibility,
    compute_bar_exponents,
    evaluate,
    flux,
    flux_slope,
    harmonic_mean,
    truncate,
    working_power,
)


def const_coeffs(n, value=1.0):
    def a(x, t, u):
        return np.full(np.shape(u), value)

    return CoefficientSpec(tuple([a] * n), max(value, 1.0 / value), 0.0)


def axis_flux(spec, j, x, t, u, xi):
    """The direct-mode axis-j flux a_j(x, t, u) |xi|^(p_j-2) xi."""
    a = evaluate(spec.coeffs.funcs[j], np.shape(u), x, t, u)
    return flux(a, xi, spec.exponents.p[j])


def simple_spec(p, m, sigma=3.0, coeffs=None):
    n = len(p)
    return ProblemSpec(
        box=tuple([1.0] * n), T=1.0,
        exponents=Exponents(p, m),
        coeffs=coeffs or const_coeffs(n),
        f=lambda x, t: np.zeros(np.shape(x[0])),
        g=lambda x, t: np.full(np.shape(x[0]), 0.5),
        u0=lambda x: np.full(np.shape(x[0]), 0.5),
        sigma=sigma, eps0=0.5)


class TestBarExponents:
    def test_harmonic_mean(self):
        assert harmonic_mean((3.0, 2.0)) == pytest.approx(2.4)
        assert harmonic_mean((1.7,)) == 1.7

    def test_isotropic(self):
        bar = compute_bar_exponents(Exponents((2.0, 2.0), (1.0, 1.0)))
        assert bar.p_bar == 2.0
        assert bar.p_bar_conj == 2.0
        assert bar.mu == 2.0

    def test_mixed(self):
        # hand check: 1/p_bar = (1/2)(1/2 + 1/4) = 3/8
        bar = compute_bar_exponents(Exponents((2.0, 4.0), (1.0, 1.0)))
        assert bar.p_bar == pytest.approx(8.0 / 3.0)
        assert bar.p_bar_conj == pytest.approx(8.0 / 5.0)

    def test_bar_identity(self):
        p = (2.3, 3.7, 2.9)
        bar = compute_bar_exponents(Exponents(p, (1.0, 1.0, 1.0)))
        assert 3.0 / bar.p_bar == pytest.approx(sum(1.0 / v for v in p),
                                                rel=1e-15)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Exponents((1.0, 2.0), (1.0, 1.0))

    @pytest.mark.parametrize("p, m", [
        ((math.nan,), (1.0,)), ((math.inf,), (1.0,)),
        ((2.0,), (math.nan,)), ((2.0,), (math.inf,))])
    def test_rejects_non_finite_exponents(self, p, m):
        with pytest.raises(ValueError, match="p_j and m_j must be finite"):
            Exponents(p, m)


@pytest.mark.parametrize("key, value, message", [
    ("box", (math.nan,), "box extents must be positive and finite"),
    ("box", (math.inf,), "box extents must be positive and finite"),
    ("T", math.nan, "time horizon must be positive and finite"),
    ("T", math.inf, "time horizon must be positive and finite"),
    ("sigma", math.nan, "sigma must be finite"),
    ("sigma", -math.inf, "sigma must be finite"),
    ("eps0", math.nan, "eps0 must be nonnegative and finite"),
    ("eps0", math.inf, "eps0 must be nonnegative and finite"),
])
def test_problem_rejects_non_finite_numbers(key, value, message):
    spec = simple_spec((2.0,), (1.0,))
    with pytest.raises(ValueError, match=message):
        replace(spec, **{key: value})


class TestCloseness:
    def test_pass_case(self):
        e = Exponents((3.0, 2.0), (1.0, 1.5))
        assert e.closeness_ok

    def test_fail_case(self):
        # m2 = 2 is not below p2' * m = 2
        e = Exponents((3.0, 2.0), (1.0, 2.0))
        assert not e.closeness_ok

    def test_equivalent_form(self):
        # m_j < p_j' m  <=>  (m_j - m)(p_j - 1) - m < 0
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = tuple(rng.uniform(1.1, 4.0, size=2))
            m = tuple(rng.uniform(1.0, 3.0, size=2))
            e = Exponents(p, m)
            mm = min(m)
            alt = all((mj - mm) * (pj - 1.0) - mm < 0.0
                      for mj, pj in zip(m, p))
            assert e.closeness_ok == alt


class TestEvaluate:
    def test_scalar_fills_shape(self):
        x = (np.zeros((3, 4)),)
        out = evaluate(lambda x, t: 2, (3, 4), x, 0.0)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert np.all(out == 2.0)
        assert not out.flags.writeable

    def test_full_shape_is_a_read_only_view(self):
        # a value that already has the shape comes back as a read-only
        # view of it, without a copy; writing to the evaluator's own
        # array stays possible
        values = np.arange(6.0).reshape(2, 3)
        out = evaluate(lambda x: values, (2, 3), (np.zeros((2, 3)),))
        assert np.shares_memory(out, values)
        assert not out.flags.writeable
        assert values.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0

    def test_rejects_shape_that_does_not_broadcast(self):
        with pytest.raises(ValueError):
            evaluate(lambda x: np.ones(3), (4,), (np.zeros(4),))


class TestTruncate:
    def test_clamp_above(self):
        assert truncate(3, 5.0) == 3.0

    def test_clamp_below(self):
        assert truncate(3, 0.1) == pytest.approx(1.0 / 3.0)

    def test_identity_on_band(self):
        assert truncate(3, 1.0) == 1.0

    def test_vectorized_range(self):
        s = np.linspace(-1.0, 10.0, 101)
        out = truncate(4, s)
        assert np.all(out >= 0.25) and np.all(out <= 4.0)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            truncate(0, 1.0)


class TestFlux:
    def test_linear_case(self):
        spec = simple_spec((2.0,), (1.0,))
        out = axis_flux(spec, 0, (np.array([0.5]),), 0.0,
                        np.array([1.0]), np.array([0.7]))
        assert out[0] == pytest.approx(0.7)

    def test_cubic_case(self):
        spec = simple_spec((3.0,), (1.0,))
        out = axis_flux(spec, 0, (np.array([0.5]),), 0.0,
                        np.array([1.0]), np.array([-2.0]))
        assert out[0] == pytest.approx(-4.0)

    def test_zero_input(self):
        # the p < 2 singularity is extended by 0
        spec = simple_spec((1.5,), (1.0,))
        out = axis_flux(spec, 0, (np.array([0.5]),), 0.0,
                        np.array([1.0]), np.array([0.0]))
        assert out[0] == 0.0

    def test_odd(self):
        spec = simple_spec((2.7,), (1.0,))
        xi = np.array([0.3, -0.3])
        out = axis_flux(spec, 0, (np.zeros(2),), 0.0, np.ones(2), xi)
        assert out[0] == pytest.approx(-out[1])

    def test_monotone_in_xi(self):
        rng = np.random.default_rng(1)
        for p in (1.5, 2.0, 3.0):
            spec = simple_spec((p,), (1.0,))
            xi = rng.uniform(-5, 5, size=400)
            eta = rng.uniform(-5, 5, size=400)
            x = (np.zeros(400),)
            u = np.ones(400)
            gap = (axis_flux(spec, 0, x, 0.0, u, xi)
                   - axis_flux(spec, 0, x, 0.0, u, eta)) * (xi - eta)
            assert np.all(gap >= 0.0)
            assert np.all(gap[xi != eta] > 0.0)


# face differences at and around 0, at the smallest subnormal and near the
# limits of the float range, of both signs; -0.0, where the flux is +0.0
EXTREME_DIFFERENCES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300,
                                -1e-300, 1e150, -1e150])


def errstate_flux(c, xi, p):
    """``flux`` with its arithmetic under an errstate that ignores every
    floating-point warning: the reference of the warning-free form."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(all="ignore"):
        mag = ((xi * xi + EPS_REG * EPS_REG) ** ((p - 2.0) / 2.0) if p < 2.0
               else np.abs(xi) ** (p - 2.0))
        return np.where(xi == 0.0, 0.0, c * mag * xi)


def errstate_flux_slope(c, xi, p):
    """``flux_slope`` under an errstate that ignores every warning."""
    D2, e2 = xi * xi, EPS_REG * EPS_REG
    with np.errstate(all="ignore"):
        if p < 2.0:
            return c * (D2 + e2) ** ((p - 4.0) / 2.0) * ((p - 1.0) * D2 + e2)
        return c * (D2 + e2) ** ((p - 2.0) / 2.0) * (p - 1.0)


@pytest.mark.parametrize("p", (1.1, 1.5, 2.0, 2.5, 4.0))
def test_flux_and_slope_raise_no_warning(p):
    # flux needs no errstate: for p < 2 the base of its power is at least
    # EPS_REG^2, for p >= 2 its power is non-negative.  Only a flux beyond
    # the float range warns, here |D|^(p - 1) = 1e450 at p = 4 and
    # |D| = 1e150, where it is an infinity of the sign of D
    c = np.full(EXTREME_DIFFERENCES.shape, 1.3)
    out_of_range = (np.abs(EXTREME_DIFFERENCES) == 1e150) & (p == 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = flux_slope(c, EXTREME_DIFFERENCES, p)
        fine = flux(c[~out_of_range], EXTREME_DIFFERENCES[~out_of_range], p)
    got = np.empty(EXTREME_DIFFERENCES.shape)
    got[~out_of_range] = fine
    if out_of_range.any():
        with pytest.warns(RuntimeWarning, match="overflow"):
            got[out_of_range] = flux(c[out_of_range],
                                     EXTREME_DIFFERENCES[out_of_range], p)
        assert np.all(np.isinf(got[out_of_range]))
    for value, ref in ((got, errstate_flux(c, EXTREME_DIFFERENCES, p)),
                       (slope, errstate_flux_slope(c, EXTREME_DIFFERENCES,
                                                   p))):
        assert value.tobytes() == ref.tobytes()


class TestFluxSlope:
    C = 1.3

    def central_difference(self, xi, p):
        h = 1e-4 * max(abs(xi), EPS_REG)
        return (flux(self.C, xi + h, p) - flux(self.C, xi - h, p)) / (2 * h)

    @pytest.mark.parametrize("p", (1.3, 1.5, 2.0))
    @pytest.mark.parametrize("xi", (0.0, 3e-9, -3e-9, 0.3, -0.3))
    def test_derivative_of_flux_up_to_two(self, p, xi):
        # the regularized p < 2 flux is smooth through 0, so its slope is
        # the derivative at every xi, the kink included
        assert flux_slope(self.C, xi, p) == pytest.approx(
            self.central_difference(xi, p), rel=1e-6)

    @pytest.mark.parametrize("xi", (1e-3, -1e-3, 0.3, -0.3))
    def test_derivative_of_flux_above_two(self, xi):
        # the slope of the regularized power leaves the derivative of
        # |xi|^(p-2) xi only for |xi| within a few EPS_REG of 0
        assert flux_slope(self.C, xi, 3.5) == pytest.approx(
            self.central_difference(xi, 3.5), rel=1e-6)

    def test_positive_at_zero_above_two(self):
        assert flux_slope(self.C, 0.0, 3.5) == pytest.approx(
            self.C * 2.5 * EPS_REG ** 1.5, rel=1e-12)


def kirchhoff(k, m, u):
    """Phi_k(u), the integral of m T_k(r)^(m-1) dr, written piecewise:
    u^m on [1/k, k] and its tangent lines at 1/k and k outside."""
    lo, hi = 1.0 / k, float(k)
    return np.where(u < lo, lo ** m + m * lo ** (m - 1) * (u - lo),
                    np.where(u > hi, hi ** m + m * hi ** (m - 1) * (u - hi),
                             np.abs(u) ** m))


def truncated_coefficient(a, k, m, p, u):
    """The paper's truncated coefficient a m^(p-1) T_k(u)^((m-1)(p-1))."""
    return a * m ** (p - 1) * np.clip(u, 1.0 / k, k) ** ((m - 1) * (p - 1))


class TestTruncatedFlux:
    # the truncated field a m^(p-1) T_k(u)^((m-1)(p-1)) |xi|^(p-2) xi is
    # the flux a |Phi_k'(u) xi|^(p-2) Phi_k'(u) xi on the Kirchhoff power
    def truncated_flux(self, k, m, p, u, xi):
        _, dw = working_power(k, m, u)
        return flux(1.0, dw * xi, p)

    def test_reduces_for_m_one(self):
        u = np.array([-0.4, 0.1, 7.0])
        xi = np.array([1.3, -0.2, 0.5])
        for k in (1, 2, 8):
            w, dw = working_power(k, 1.0, u)
            assert w is u and dw == 1.0
            np.testing.assert_array_equal(self.truncated_flux(k, 1.0, 3.0,
                                                              u, xi),
                                          flux(1.0, xi, 3.0))

    def test_plug_in(self):
        # k=2, m=2, p=2, a=1, u=5, xi=1: 2 * T_2(5)^1 * 1 = 4, and
        # Phi_2(5) = 2^2 + 2 * 2 * (5 - 2) = 16
        w, _ = working_power(2, 2.0, np.array([5.0]))
        assert w[0] == 16.0
        out = self.truncated_flux(2, 2.0, 2.0, np.array([5.0]),
                                  np.array([1.0]))
        assert out[0] == pytest.approx(4.0)

    def test_constant_below_band(self):
        xi = np.array([1.0])
        a = self.truncated_flux(4, 2.0, 2.0, np.array([0.1]), xi)
        b = self.truncated_flux(4, 2.0, 2.0, np.array([0.2]), xi)
        assert a[0] == pytest.approx(b[0])

    @pytest.mark.parametrize("m", (1.5, 2.0, 3.2))
    def test_kirchhoff_power_is_c1(self, m):
        # value and slope agree from both sides of 1/k and of k, and the
        # derivative is the central difference of the power everywhere
        # (at an edge Phi_k'' jumps, which moves the central difference by
        # O(s) relative)
        k, s = 4, 1e-7
        for edge in (1.0 / k, float(k)):
            w, dw = working_power(k, m, np.array([edge - s, edge, edge + s]))
            assert (w[2] - w[0]) / (2 * s) == pytest.approx(dw[1], rel=1e-6)
            assert dw[0] == pytest.approx(dw[2], rel=1e-6)
        u = np.linspace(-0.5, 6.0, 53)
        central = (working_power(k, m, u + s)[0]
                   - working_power(k, m, u - s)[0]) / (2 * s)
        np.testing.assert_allclose(working_power(k, m, u)[1], central,
                                   rtol=1e-6)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    @pytest.mark.parametrize("m", (1.5, 2.0, 3.2))
    def test_chain_rule_gives_truncated_coefficient(self, p, m):
        rng = np.random.default_rng(int(10 * p + m))
        k, a = 8, 1.7
        u = rng.uniform(-0.5, 2.0 * k, 200)
        # |xi| >= 0.1, where the p < 2 regularization moves no digit
        xi = rng.choice((-1.0, 1.0), 200) * rng.uniform(0.1, 3.0, 200)
        _, dw = working_power(k, m, u)
        np.testing.assert_allclose(
            flux(a, dw * xi, p),
            truncated_coefficient(a, k, m, p, u) * np.abs(xi) ** (p - 2) * xi,
            rtol=1e-12)


class TestWorkingPower:
    U = np.array([-0.4, 0.0, 0.3, 1.0, 2.7])

    @pytest.mark.parametrize("k, m", [(4, 1.0), (1, 1.0), (None, 1.0)])
    def test_identity_in_k_mode_and_for_m_one(self, k, m):
        # negative entries included: nothing is clamped
        w, dw = working_power(k, m, self.U)
        assert w is self.U
        assert dw == 1.0

    @pytest.mark.parametrize("k, m", [(4, 2.5), (2, 1.5), (16, 2.0),
                                      (16, 3.2)])
    def test_kirchhoff_power_in_k_mode(self, k, m):
        # the k-mode power of m > 1 is Phi_k: u^m on [1/k, k], edges
        # included, and its tangent lines outside, negative u too
        u = np.concatenate((self.U, np.linspace(-1.0, 2.0 * k, 401),
                            [1.0 / k, float(k)]))
        w, dw = working_power(k, m, u)
        np.testing.assert_allclose(w, kirchhoff(k, m, u), rtol=1e-13,
                                   atol=1e-13 * k ** m)
        np.testing.assert_allclose(
            dw, m * np.clip(u, 1.0 / k, k) ** (m - 1), rtol=1e-13)
        band = (u >= 1.0 / k) & (u <= k)
        np.testing.assert_allclose(w[band], u[band] ** m, rtol=1e-14)

    @pytest.mark.parametrize("m", (1.5, 2.0, 3.2))
    def test_direct_mode_clamps_at_zero(self, m):
        w, dw = working_power(None, m, self.U)
        np.testing.assert_array_equal(w, np.maximum(self.U, 0.0) ** m)
        assert w[0] == 0.0 and dw[0] == 0.0

    @pytest.mark.parametrize("m", (1.5, 2.0, 3.2))
    def test_direct_mode_derivative(self, m):
        u = self.U[self.U > 0.0]
        h = 1e-6
        central = (working_power(None, m, u + h)[0]
                   - working_power(None, m, u - h)[0]) / (2 * h)
        np.testing.assert_allclose(working_power(None, m, u)[1], central,
                                   rtol=1e-7)


class TestAdmissibility:
    def test_all_green(self):
        rep = check_admissibility(simple_spec((3.0, 2.0), (1.0, 1.5)))
        assert rep.all_passed

    def test_closeness_downgrade(self):
        rep = check_admissibility(simple_spec((3.0, 2.0), (1.0, 2.0)))
        assert not rep["closeness"].passed
        assert not rep.all_passed

    def test_zero_source_integrable(self):
        rep = check_admissibility(simple_spec((2.0,), (1.0,), sigma=7.0))
        assert rep["f_integrable"].passed
        assert rep["f_nonneg"].passed

    def test_sigma_margin(self):
        # N=2, p_bar=2 requires sigma > 2
        rep = check_admissibility(simple_spec((2.0, 2.0), (1.0, 1.0),
                                              sigma=1.9))
        assert not rep["sigma"].passed

    def test_nan_coefficient_fails_band_and_lipschitz(self):
        # a = 1 up to u = 5 and NaN above it: the band and the Lipschitz
        # slack are NaN at about half the samples, and a NaN margin fails
        def a(x, t, u):
            return np.where(np.asarray(u) > 5.0, np.nan, 1.0)

        spec = simple_spec((2.0,), (1.0,),
                           coeffs=CoefficientSpec((a,), 1.0, 0.0))
        rep = check_admissibility(spec)
        for name in ("ellipticity", "lipschitz"):
            assert not rep[name].passed
            assert math.isnan(rep[name].margin)
        assert not rep.all_passed

    @pytest.mark.parametrize("check, data", [
        # g = 0.5 = eps0 up to t = 0.1, below it afterwards
        ("g_condition", {"g": lambda x, t: np.full(np.shape(x[0]), 0.5)
                         - np.maximum(np.asarray(t) - 0.1, 0.0)}),
        # f >= 0 up to t = 0.9, negative afterwards
        ("f_nonneg", {"f": lambda x, t: np.full(np.shape(x[0]), 0.9)
                      - np.asarray(t)}),
        # a = 1 = lam up to t = 0.5, above the band afterwards
        ("ellipticity", {"coeffs": CoefficientSpec(
            (lambda x, t, u: 1.0 + np.maximum(np.asarray(t) - 0.5, 0.0)
             + 0.0 * np.asarray(u),), 1.0, 0.0)}),
    ])
    def test_time_dependent_data_audited_at_sampled_times(self, check, data):
        spec = replace(simple_spec((2.0,), (1.0,)), **data)
        # the first time drawn with seed 8 is 0.07, where all three data
        # are admissible: an audit at that one time would pass
        rep = check_admissibility(spec, seed=8)
        assert not rep[check].passed
        assert rep[check].margin < 0.0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Exponents((2.0, 2.0), (1.0,)),
                 "p and m must have the same length", id="Exponents-lengths"),
    pytest.param(lambda: Exponents((), ()), "at least one axis required",
                 id="Exponents-no-axis"),
    pytest.param(lambda: Exponents((2.0,), (0.5,)),
                 "all m_j must be at least 1", id="Exponents-m"),
    pytest.param(lambda: replace(const_coeffs(1), lam=0.0),
                 "lam must be positive", id="CoefficientSpec-lam"),
    pytest.param(lambda: replace(const_coeffs(1), lipschitz_c=-1.0),
                 "lipschitz_c must be nonnegative",
                 id="CoefficientSpec-lipschitz"),
    pytest.param(lambda: replace(simple_spec((2.0,), (1.0,)),
                                 box=(1.0, 1.0)),
                 "box dimension must match exponents", id="ProblemSpec-box"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
