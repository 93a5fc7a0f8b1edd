import math
from dataclasses import replace

import numpy as np
import pytest

from anisodnl.model import (
    CoefficientSpec,
    Exponents,
    ProblemSpec,
    check_admissibility,
    compute_bar_exponents,
    eval_flux,
    eval_flux_truncated,
    truncate,
    truncated_growth_constant,
    truncated_coercivity_constant,
    truncated_lipschitz_bound,
)


def const_coeffs(n, value=1.0):
    def a(x, t, u):
        return np.full(np.shape(u), value)

    return CoefficientSpec(tuple([a] * n), max(value, 1.0 / value), 0.0)


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

    def test_sobolev_conjugate(self):
        bar = compute_bar_exponents(Exponents((2.0, 2.0, 2.0),
                                              (1.0, 1.0, 1.0)))
        assert bar.p_bar == 2.0
        assert bar.p_bar_star == pytest.approx(6.0)

    def test_unbounded_marker(self):
        bar = compute_bar_exponents(Exponents((3.0, 3.0), (1.0, 1.0)))
        assert math.isinf(bar.p_bar_star)

    def test_bar_identity(self):
        p = (2.3, 3.7, 2.9)
        bar = compute_bar_exponents(Exponents(p, (1.0, 1.0, 1.0)))
        assert 3.0 / bar.p_bar == pytest.approx(sum(1.0 / v for v in p),
                                                rel=1e-15)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Exponents((1.0, 2.0), (1.0, 1.0))


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
        out = eval_flux(spec, 0, (np.array([0.5]),), 0.0,
                        np.array([1.0]), np.array([0.7]))
        assert out[0] == pytest.approx(0.7)

    def test_cubic_case(self):
        spec = simple_spec((3.0,), (1.0,))
        out = eval_flux(spec, 0, (np.array([0.5]),), 0.0,
                        np.array([1.0]), np.array([-2.0]))
        assert out[0] == pytest.approx(-4.0)

    def test_zero_input(self):
        # the p < 2 singularity is extended by 0
        spec = simple_spec((1.5,), (1.0,))
        out = eval_flux(spec, 0, (np.array([0.5]),), 0.0,
                        np.array([1.0]), np.array([0.0]))
        assert out[0] == 0.0

    def test_odd(self):
        spec = simple_spec((2.7,), (1.0,))
        xi = np.array([0.3, -0.3])
        out = eval_flux(spec, 0, (np.zeros(2),), 0.0, np.ones(2), xi)
        assert out[0] == pytest.approx(-out[1])

    def test_monotone_in_xi(self):
        rng = np.random.default_rng(1)
        for p in (1.5, 2.0, 3.0):
            spec = simple_spec((p,), (1.0,))
            xi = rng.uniform(-5, 5, size=400)
            eta = rng.uniform(-5, 5, size=400)
            x = (np.zeros(400),)
            u = np.ones(400)
            gap = (eval_flux(spec, 0, x, 0.0, u, xi)
                   - eval_flux(spec, 0, x, 0.0, u, eta)) * (xi - eta)
            assert np.all(gap >= 0.0)
            assert np.all(gap[xi != eta] > 0.0)


class TestTruncatedFlux:
    def test_reduces_for_m_one(self):
        spec = simple_spec((3.0,), (1.0,))
        x = (np.array([0.5]),)
        u = np.array([7.0])
        xi = np.array([1.3])
        for k in (1, 2, 8):
            assert eval_flux_truncated(spec, k, 0, x, 0.0, u, xi) \
                == pytest.approx(eval_flux(spec, 0, x, 0.0, u, xi))

    def test_plug_in(self):
        # k=2, m=2, p=2, a=1, u=5, xi=1: 2 * T_2(5)^1 * 1 = 4
        spec = simple_spec((2.0,), (2.0,))
        out = eval_flux_truncated(spec, 2, 0, (np.array([0.5]),), 0.0,
                                  np.array([5.0]), np.array([1.0]))
        assert out[0] == pytest.approx(4.0)

    def test_constant_below_band(self):
        spec = simple_spec((2.0,), (2.0,))
        x = (np.array([0.5]),)
        xi = np.array([1.0])
        a = eval_flux_truncated(spec, 4, 0, x, 0.0, np.array([0.1]), xi)
        b = eval_flux_truncated(spec, 4, 0, x, 0.0, np.array([0.2]), xi)
        assert a[0] == pytest.approx(b[0])

    def test_growth_and_coercivity(self):
        spec = simple_spec((2.5,), (1.8,))
        k = 4
        bk = truncated_growth_constant(spec, k, 0)
        ck = truncated_coercivity_constant(spec, k)
        rng = np.random.default_rng(2)
        u = rng.uniform(0.0, 10.0, size=500)
        xi = rng.uniform(-3.0, 3.0, size=500)
        x = (np.zeros(500),)
        F = eval_flux_truncated(spec, k, 0, x, 0.0, u, xi)
        p = spec.exponents.p[0]
        assert np.all(np.abs(F) <= bk * np.abs(xi) ** (p - 1.0) + 1e-12)
        assert np.all(F * xi >= ck * np.abs(xi) ** p - 1e-12)

    def test_lipschitz_in_u(self):
        def a(x, t, u):
            uu = np.maximum(np.asarray(u, dtype=float), 0.0)
            return 1.0 + 0.5 * uu / (1.0 + uu)

        coeffs = CoefficientSpec((a,), 1.5, 0.5)
        spec = simple_spec((2.0,), (1.5,), coeffs=coeffs)
        k = 4
        c = truncated_lipschitz_bound(spec, k, 0)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 10.0, size=500)
        v = rng.uniform(0.0, 10.0, size=500)
        xi = np.ones(500)
        x = (np.zeros(500),)
        Fu = eval_flux_truncated(spec, k, 0, x, 0.0, u, xi)
        Fv = eval_flux_truncated(spec, k, 0, x, 0.0, v, xi)
        assert np.all(np.abs(Fu - Fv) <= c * np.abs(u - v) + 1e-12)


class TestAdmissibility:
    def test_all_green(self):
        rep = check_admissibility(simple_spec((3.0, 2.0), (1.0, 1.5)))
        assert rep.all_passed
        assert rep.cascade_capable

    def test_closeness_downgrade(self):
        rep = check_admissibility(simple_spec((3.0, 2.0), (1.0, 2.0)))
        assert not rep["closeness"].passed
        assert not rep.cascade_capable

    def test_zero_source_integrable(self):
        rep = check_admissibility(simple_spec((2.0,), (1.0,), sigma=7.0))
        assert rep["f_integrable"].passed
        assert rep["f_nonneg"].passed

    def test_sigma_margin(self):
        # N=2, p_bar=2 requires sigma > 2
        rep = check_admissibility(simple_spec((2.0, 2.0), (1.0, 1.0),
                                              sigma=1.9))
        assert not rep["sigma"].passed

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
