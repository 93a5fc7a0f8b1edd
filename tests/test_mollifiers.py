import math

import numpy as np
import pytest

from anisodnl.analysis import (
    exp_mollify,
    exp_mollify_eval,
    series_lp_norm,
    steklov,
    steklov_eval,
)
from anisodnl.discretization import Grid, ScalarField, TimeSeries


def scalar_series(values, times):
    g = Grid((1.0,), (3,))
    return TimeSeries([ScalarField(g, np.full(3, float(v)), float(t))
                       for v, t in zip(values, times)])


def smooth_series(nt=129):
    times = np.linspace(0.0, 1.0, nt)
    return scalar_series(np.sin(2 * np.pi * times) + 2.0, times), times


class TestSteklov:
    def test_constant(self):
        times = np.linspace(0, 1, 17)
        s = scalar_series(np.full(17, 4.2), times)
        out = steklov(s, 0.25)
        assert all(np.allclose(f.values, 4.2) for f in out.fields)

    def test_affine(self):
        # window mean of v(t) = t is t + h/2, exactly
        times = np.linspace(0, 1, 17)
        s = scalar_series(times, times)
        h = 0.25
        out = steklov(s, h)
        for f in out.fields:
            assert np.allclose(f.values, f.t + h / 2.0)

    def test_valid_window_restriction(self):
        times = np.linspace(0, 1, 17)
        s = scalar_series(times, times)
        out = steklov(s, 0.25)
        assert out.times[-1] <= 1.0 - 0.25 + 1e-15

    def test_rejects_large_window(self):
        times = np.linspace(0, 1, 9)
        s = scalar_series(times, times)
        with pytest.raises(ValueError):
            steklov(s, 2.0)

    @pytest.mark.parametrize("h", [0.0, -0.25])
    def test_eval_rejects_nonpositive_window(self, h):
        # neither the mean over [0.25, 0.5] for h = -0.25 nor NaN for h = 0
        times = np.linspace(0, 1, 17)
        s = scalar_series(times, times)
        with pytest.raises(ValueError):
            steklov_eval(s, h, 0.5)

    def test_derivative_identity_affine(self):
        times = np.linspace(0, 1, 17)
        s = scalar_series(times, times)
        out = steklov(s, 0.25)
        arr = out.values_array()[:, 0]
        secants = np.diff(arr) / np.diff(out.times)
        assert np.allclose(secants, 1.0)

    def test_derivative_identity_piecewise_linear(self):
        # exact identity d/dt [v]_h = (v(t+h) - v(t))/h, probed between
        # knots with the exact evaluator
        rng = np.random.default_rng(5)
        nt = 65
        times = np.linspace(0, 1, nt)
        vals = rng.uniform(0, 2, nt)
        s = scalar_series(vals, times)
        dt = times[1] - times[0]
        h = 16 * dt
        for i in range(3, 40, 7):
            t = times[i] + dt / 2.0
            eps = dt / 8.0
            d = (steklov_eval(s, h, t + eps)
                 - steklov_eval(s, h, t - eps)) / (2 * eps)
            rhs = (np.interp(t + h, times, vals)
                   - np.interp(t, times, vals)) / h
            assert d[0] == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_contraction(self, p):
        s, _ = smooth_series()
        out = steklov(s, 0.125)
        # compare on the common valid window
        n_in = series_lp_norm(TimeSeries(
            [f for f in s.fields if f.t <= out.times[-1]]), p)
        assert series_lp_norm(out, p) <= n_in * (1 + 1e-12)


class TestExponentialMollifier:
    def test_constant_closed_form(self):
        times = np.linspace(0, 1, 33)
        s = scalar_series(np.full(33, 3.0), times)
        h = 0.1
        out = exp_mollify(s, h)
        for f in out.fields:
            expect = 3.0 * (1.0 - math.exp(-f.t / h))
            assert f.values[0] == pytest.approx(expect, abs=1e-10)

    def test_h_halving_trend(self):
        s, times = smooth_series()
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            out = exp_mollify(s, h)
            errs.append(max(abs(a.values[0] - b.values[0])
                            for a, b in zip(out.fields[64:], s.fields[64:])))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.4])
    def test_contraction(self, p):
        s, _ = smooth_series()
        out = exp_mollify(s, 0.1)
        assert series_lp_norm(out, p) <= series_lp_norm(s, p) * (1 + 1e-12)

    def test_ode_identity(self):
        s, times = smooth_series(257)
        h = 0.1
        dt = times[1] - times[0]
        vals = s.values_array()[:, 0]
        worst = 0.0
        for i in range(5, 250, 13):
            t = times[i] + dt / 2.0
            eps = 1e-7
            wd = (exp_mollify_eval(s, h, t + eps)
                  - exp_mollify_eval(s, h, t - eps)) / (2 * eps)
            w = exp_mollify_eval(s, h, t)
            v = np.interp(t, times, vals)
            worst = max(worst, abs(wd[0] - (v - w[0]) / h))
        assert worst < 1e-8

    def test_rejects_nonpositive_h(self):
        times = np.linspace(0, 1, 9)
        s = scalar_series(times, times)
        with pytest.raises(ValueError):
            exp_mollify(s, 0.0)
        with pytest.raises(ValueError):
            exp_mollify_eval(s, 0.0, 0.5)

    def test_eval_single_sample_is_zero(self):
        s = scalar_series([3.0], [0.0])
        np.testing.assert_array_equal(exp_mollify_eval(s, 0.1, 0.0),
                                      np.zeros(3))


class TestEvaluatorsMatchSeries:
    """The pointwise evaluators agree with the series forms at every
    valid sample time."""

    @staticmethod
    def _series():
        # nonuniform times, a field that varies in space and time
        times = np.cumsum(np.r_[0.0, np.linspace(0.02, 0.06, 24)])
        g = Grid((1.0,), (4,))
        x = g.axis_coords(0)
        return TimeSeries([
            ScalarField(g, 2.0 + np.sin(3.0 * t + x) + t * x, float(t))
            for t in times])

    def test_steklov_eval(self):
        s = self._series()
        h = 0.17
        out = steklov(s, h)
        assert len(out) >= 10
        for f in out.fields:
            np.testing.assert_allclose(
                steklov_eval(s, h, f.t), f.values,
                rtol=1e-14, atol=0.0)

    def test_exp_mollify_eval(self):
        # exp_mollify_eval continues exp_mollify's recursion, so it returns
        # exp_mollify's value at every sample that opens an interval; at the
        # last sample the partial-interval update spans the whole interval
        s = self._series()
        h = 0.13
        out = exp_mollify(s, h)
        for f in out.fields[:-1]:
            np.testing.assert_array_equal(exp_mollify_eval(s, h, f.t),
                                          f.values)
        last = out.fields[-1]
        np.testing.assert_allclose(exp_mollify_eval(s, h, last.t),
                                   last.values, rtol=1e-14, atol=0.0)
