import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisodnl.analysis import (
    VPM_CHUNK,
    _time_integral,
    b_quantity,
    b_sandwich_constant,
    comparison_check,
    degiorgi_constants,
    energy_check,
    exp_mollify_eval,
    fast_geometric_iterate,
    gradient_power_norms,
    level_sequence,
    measure_levels,
    ordering_excess,
    power_inequality_constant,
    select_q_vector,
    series_lp_norm,
    vpm_distance,
)
from anisodnl.discretization import (Grid, ScalarField, TimeSeries,
                                     face_diff_power, integrate)
from anisodnl.model import CoefficientSpec, Exponents, ProblemSpec

# Frozen by the pre-build sweep (b_sandwich_constant / power_inequality_constant
# with pad=0, n=400); see also the CLI calibrate verb.
SANDWICH_FIXTURES = {1.0: 2.0, 1.5: 2.5, 2.0: 3.0, 3.0: 4.0}
POWER_FIXTURES = {1.5: 1.4142135623730956, 2.0: 2.0, 3.0: 4.0}


def const_spec(p, m, sigma=3.0, f_val=0.0, data=0.5, T=1.0):
    n = len(p)

    def a(x, t, u):
        return np.full(np.shape(u), 1.0)

    return ProblemSpec(
        box=tuple([1.0] * n), T=T,
        exponents=Exponents(p, m),
        coeffs=CoefficientSpec(tuple([a] * n), 1.0, 0.0),
        f=lambda x, t: np.full(np.shape(x[0]), f_val),
        g=lambda x, t: np.full(np.shape(x[0]), data),
        u0=lambda x: np.full(np.shape(x[0]), data),
        sigma=sigma, eps0=data)


class TestBQuantity:
    def test_diagonal(self):
        u = np.linspace(0, 5, 11)
        for m in (1.0, 1.7, 3.0):
            assert np.allclose(b_quantity(u, u, m), 0.0)

    def test_m1_closed_form(self):
        assert b_quantity(2.0, 1.0, 1.0) == pytest.approx(0.5)
        u = np.linspace(0, 4, 17)
        v = np.linspace(4, 0, 17)
        assert np.allclose(b_quantity(u, v, 1.0), 0.5 * (u - v) ** 2)

    def test_m2_plug_in(self):
        # (27 - 1)/3 - 1*(3 - 1) = 26/3 - 2 = 20/3
        assert b_quantity(3.0, 1.0, 2.0) == pytest.approx(20.0 / 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            b_quantity(-1.0, 1.0, 2.0)

    @given(st.floats(0, 20), st.floats(0, 20), st.floats(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, u, v, m):
        assert b_quantity(u, v, m) >= -1e-12 * max(u, v, 1.0) ** (m + 1)


class TestSandwich:
    @pytest.mark.parametrize("m", sorted(SANDWICH_FIXTURES))
    def test_frozen_constant(self, m):
        assert b_sandwich_constant(m, pad=0.0) \
            == pytest.approx(SANDWICH_FIXTURES[m], rel=1e-9)

    def test_m1_exact(self):
        assert b_sandwich_constant(1.0, pad=0.0) == 2.0

    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0])
    def test_holds_on_fresh_samples(self, m):
        c = b_sandwich_constant(m)
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 10, 20000)
        v = rng.uniform(0, 10, 20000)
        gap = b_quantity(u, v, m)
        ref = (v ** ((m + 1) / 2) - u ** ((m + 1) / 2)) ** 2
        assert np.all(gap <= c * ref + 1e-12)
        assert np.all(ref <= c * gap + 1e-12)


class TestPowerInequality:
    @pytest.mark.parametrize("g", sorted(POWER_FIXTURES))
    def test_frozen_constant(self, g):
        assert power_inequality_constant(g, pad=0.0) \
            == pytest.approx(POWER_FIXTURES[g], rel=1e-9)

    def test_b_zero_slice(self):
        # |a|^g equals ||a|^{g-1} a| exactly, so c = 1 suffices there
        a = np.linspace(-5, 5, 41)
        g = 2.5
        assert np.allclose(np.abs(a) ** g,
                           np.abs(np.abs(a) ** (g - 1) * a))

    @pytest.mark.parametrize("g", [1.5, 2.0, 3.0])
    def test_holds_on_fresh_samples(self, g):
        c = power_inequality_constant(g)
        rng = np.random.default_rng(13)
        a = rng.uniform(-10, 10, 20000)
        b = rng.uniform(-10, 10, 20000)
        lhs = np.abs(a - b) ** g
        rhs = np.abs(np.abs(a) ** (g - 1) * a - np.abs(b) ** (g - 1) * b)
        assert np.all(lhs <= c * rhs + 1e-12)


class TestFastGeometric:
    def test_below_threshold_converges(self):
        ys, conv, thr = fast_geometric_iterate(1.0, 2.0, 1.0, 0.25, 60)
        assert thr == pytest.approx(0.5)
        assert ys[1] == pytest.approx(0.0625)
        assert conv

    def test_at_threshold(self):
        ys, conv, thr = fast_geometric_iterate(1.0, 2.0, 1.0, 0.5, 200)
        # equality recursion from the threshold: Y_j = 2^-(j+1)
        assert np.allclose(ys[:8], 0.5 ** np.arange(1, 9) * 2 ** 0)
        assert conv

    def test_zero_start(self):
        ys, conv, _ = fast_geometric_iterate(3.0, 2.0, 0.5, 0.0, 10)
        assert np.all(ys == 0.0) and conv

    def test_above_threshold_diverges(self):
        ys, conv, thr = fast_geometric_iterate(1.0, 2.0, 1.0, 0.9, 40)
        assert not conv and ys[-1] > 1.0


class TestQVector:
    def test_keeps_p_when_pbar_below_dim(self):
        assert select_q_vector((2.0, 2.0), 2) == (2.0, 2.0)

    def test_keeps_p_at_equality(self):
        # p_bar == N keeps q = p, needed for the plug-in delta value
        assert select_q_vector((2.0, 2.0), 2) == (2.0, 2.0)

    def test_lowers_q1_when_pbar_large(self):
        q = select_q_vector((3.0, 2.0), 2)
        assert q[1] == 2.0
        assert 1.0 < q[0] < 3.0
        q_bar = 2.0 / (1.0 / q[0] + 1.0 / q[1])
        assert q_bar < 2.0

    def test_one_dimension_falls_back_to_p(self):
        # the lowered entry would be 0.99, not above 1
        assert select_q_vector((3.0,), 1) == (3.0,)

    def test_lowered_vector_3d(self):
        # harmonic mean lowered to 0.99 N = 2.97: 1/q1 = 3/2.97 - 1/2
        q = select_q_vector((4.0, 4.0, 4.0), 3)
        assert q[1:] == (4.0, 4.0)
        assert q[0] == pytest.approx(1.0 / (3.0 / 2.97 - 0.5), rel=1e-14)


def linear_series(times, fn):
    """Series on three nodes of [0, 1] with values fn(x, t)."""
    g = Grid((1.0,), (3,))
    x = g.axis_coords(0)
    return TimeSeries([ScalarField(g, fn(x, t), float(t)) for t in times])


class TestSeriesPairs:
    TIMES = (0.0, 0.5, 1.0)

    def test_ordered_pair_has_no_excess(self):
        lo = linear_series(self.TIMES, lambda x, t: t * x)
        hi = linear_series(self.TIMES, lambda x, t: t * x + 0.5)
        assert ordering_excess(lo, hi) == -0.5

    def test_crossing_pair_gives_its_maximum(self):
        # t x - 1/4 peaks at 3/4 at (x, t) = (1, 1); its negative at
        # 1/4 at t = 0
        a = linear_series(self.TIMES, lambda x, t: t * x)
        b = linear_series(self.TIMES, lambda x, t: np.full_like(x, 0.25))
        assert ordering_excess(a, b) == 0.75
        assert ordering_excess(b, a) == 0.25

    def test_ordering_excess_rejects_other_times(self):
        # pairing by position would compare t = 0.5 with t = 0.1 and drop
        # t = 1, giving 2 and 1 instead of an error
        a = linear_series(self.TIMES, lambda x, t: np.zeros_like(x))
        b = linear_series((0.0, 0.1),
                          lambda x, t: np.full_like(x, -2.0 if t else 1.0))
        with pytest.raises(ValueError):
            ordering_excess(a, b)
        with pytest.raises(ValueError):
            ordering_excess(b, a)

    def test_vpm_distance_rejects_other_times(self):
        # equal lengths but other sample times: integrating over a's times
        # alone would make the distance asymmetric
        a = linear_series(self.TIMES, lambda x, t: t * x)
        b = linear_series((0.0, 0.1, 0.2), lambda x, t: x + t)
        with pytest.raises(ValueError):
            vpm_distance(a, b, (1.0,), (2.0,))


def per_sample_vpm_distance(a, b, m, p):
    """vpm_distance with every sample integrated on its own."""
    grid = a.grid
    pairs = [(fa.values, fb.values) for fa, fb in zip(a.fields, b.fields)]
    q_star = max(min(m) + 1.0, max(m))
    d = _time_integral(a.times, [integrate(grid, np.abs(u - v) ** q_star)
                                 for u, v in pairs]) ** (1.0 / q_star)
    for j, (mj, pj) in enumerate(zip(m, p)):
        d += _time_integral(a.times, [integrate(grid, np.abs(
            face_diff_power(grid, u, mj, j) - face_diff_power(grid, v, mj, j))
            ** pj, face_axis=j) for u, v in pairs]) ** (1.0 / pj)
    return d


@pytest.mark.parametrize("counts, m, p", [
    ((1025,), (2.3,), (2.0,)),
    ((65, 65), (1.2, 1.45), (3.1, 2.4)),
    ((17, 17, 17), (1.0, 1.3, 1.1), (1.7, 2.0, 2.6)),
], ids=["1d", "2d", "3d"])
def test_vpm_distance_chunks_keep_the_bits(counts, m, p):
    # 33 samples fill no whole number of chunks on these grids, so the last
    # stack is a short one; each sample keeps the bits it gets alone
    grid = Grid((1.0,) * len(counts), counts)
    per_chunk = VPM_CHUNK // math.prod(counts)
    assert 1 < per_chunk < 33 and 33 % per_chunk
    rng = np.random.default_rng(len(counts))
    times = np.linspace(0.0, 0.5, 33)
    a, b = (TimeSeries([ScalarField(grid, rng.uniform(0.05, 2.0, counts), t)
                        for t in times]) for _ in range(2))
    assert vpm_distance(a, b, m, p) == per_sample_vpm_distance(a, b, m, p)


class TestDeGiorgiConstants:
    def test_hand_checked_delta(self):
        spec = const_spec((2.0, 2.0), (1.0, 1.0), sigma=3.0)
        g = Grid((1.0, 1.0), (9, 9))
        rep = degiorgi_constants(spec, g)
        assert rep.dg_delta == pytest.approx(1.0 / 6.0)
        assert rep.q_bar == pytest.approx(2.0)

    def test_zero_source(self):
        spec = const_spec((2.0, 2.0), (1.0, 1.0))
        g = Grid((1.0, 1.0), (9, 9))
        rep = degiorgi_constants(spec, g)
        assert rep.K == 0.0
        assert rep.M == rep.M_star == 1.5
        assert rep.L == pytest.approx(2.0 * 1.5)

    def test_L_envelope_exponent(self):
        spec = const_spec((2.0,), (2.0,), sigma=4.0)
        g = Grid((1.0,), (9,))
        rep = degiorgi_constants(spec, g)
        assert rep.L == pytest.approx(2.0 ** (2.0 / 3.0) * rep.M)

    def test_delta_positive_sweep(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 100:
            n = int(rng.integers(1, 4))
            p = tuple(rng.uniform(1.5, 3.5, n))
            m = tuple(rng.uniform(1.0, 2.0, n))
            p_bar = 1.0 / (sum(1.0 / v for v in p) / n)
            sigma = (1.0 + n / p_bar) * rng.uniform(1.05, 3.0)
            spec = const_spec(p, m, sigma=sigma)
            g = Grid(tuple([1.0] * n), tuple([5] * n))
            rep = degiorgi_constants(spec, g)
            assert rep.dg_delta > 0.0
            count += 1

    def test_delta_decreases_toward_bound(self):
        deltas = []
        for sigma in (4.0, 3.0, 2.5, 2.2, 2.05, 2.01):
            spec = const_spec((2.0, 2.0), (1.0, 1.0), sigma=sigma)
            g = Grid((1.0, 1.0), (5, 5))
            deltas.append(degiorgi_constants(spec, g).dg_delta)
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 0.01

    def test_rejects_sigma_at_bound(self):
        spec = const_spec((2.0, 2.0), (1.0, 1.0), sigma=2.0)
        g = Grid((1.0, 1.0), (5, 5))
        with pytest.raises(ValueError):
            degiorgi_constants(spec, g)


class TestMeasureLevels:
    def _series(self, value, T=1.0, n=9):
        g = Grid((1.0,), (n,))
        times = np.linspace(0.0, T, 5)
        return TimeSeries([ScalarField(g, np.full(n, value), float(t))
                           for t in times])

    def test_bounded_series_empty_levels(self):
        s = self._series(2.0)
        Y, E = measure_levels(s, 3.0, 1.0, 2.0, 5)
        assert all(y == 0.0 for y in Y)
        assert all(e == 0.0 for e in E)

    def test_constant_series_closed_form(self):
        M, m, q_bar = 1.5, 1.0, 2.0
        val = 2.0 * M
        s = self._series(val)
        Y, E = measure_levels(s, M, m, q_bar, 3)
        levels = level_sequence(M, m, 3)
        # |Omega_T| = 1 and (m+1)/2 = 1 at m = 1, so
        # Y_j = ((2M)^1 - M_j^1)_+ ^ (2 m q/(m+1)) = (2M - M_j)^2
        for y, Mj in zip(Y, levels):
            expect = max(val - Mj, 0.0) ** (2 * m * q_bar / (m + 1))
            assert y == pytest.approx(expect)

    def test_levels_increase_to_limit(self):
        m = 1.5
        levels = level_sequence(2.0, m, 12)
        assert np.all(np.diff(levels) > 0)
        assert levels[-1] == pytest.approx(2.0 ** (2.0 / (m + 1.0)) * 2.0,
                                           rel=1e-3)

    def test_Y_decreasing(self):
        g = Grid((1.0,), (17,))
        rng = np.random.default_rng(19)
        times = np.linspace(0, 1, 6)
        s = TimeSeries([ScalarField(g, rng.uniform(0, 5, 17), float(t))
                        for t in times])
        Y, E = measure_levels(s, 1.0, 1.3, 1.8, 6)
        assert all(b <= a + 1e-15 for a, b in zip(Y, Y[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(E, E[1:]))

    def test_E_recursion_consistency(self):
        # |E_{j+1}| <= M^{-m q} 2^{(j+1) 2 m q/(m+1)} Y_j by construction
        g = Grid((1.0,), (33,))
        rng = np.random.default_rng(23)
        times = np.linspace(0, 1, 9)
        s = TimeSeries([ScalarField(g, rng.uniform(0, 6, 33), float(t))
                        for t in times])
        M, m, q_bar = 1.2, 1.4, 1.9
        Y, E = measure_levels(s, M, m, q_bar, 6)
        for j in range(len(Y) - 1):
            bound = (M ** (-m * q_bar)
                     * 2.0 ** ((j + 1) * 2 * m * q_bar / (m + 1)) * Y[j])
            assert E[j + 1] <= bound + 1e-12


def _flat(times):
    return linear_series(times, lambda x, t: np.full_like(x, 1.5))


def _zero(x, t):
    return np.zeros(np.shape(x[0]))


def _plane(times=(0.0, 0.5, 1.0)):
    """Series on a 5x5 grid of the unit square with values t x + y + 1."""
    g = Grid((1.0, 1.0), (5, 5))
    x, y = g.meshgrid()
    return TimeSeries([ScalarField(g, t * x + y + 1.0, t) for t in times])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: b_sandwich_constant(0.5), "m must be at least 1",
                 id="b_sandwich_constant"),
    pytest.param(lambda: power_inequality_constant(1.0),
                 "gamma must exceed 1", id="power_inequality_constant"),
    pytest.param(lambda: exp_mollify_eval(_flat((0.0, 1.0)), 0.5, 1.5),
                 "t outside the series time span", id="exp_mollify_eval"),
    pytest.param(lambda: fast_geometric_iterate(0.0, 2.0, 0.5, 0.1, 4),
                 "need C > 0, b > 1, delta > 0", id="fast_geometric-C"),
    pytest.param(lambda: fast_geometric_iterate(1.0, 1.0, 0.5, 0.1, 4),
                 "need C > 0, b > 1, delta > 0", id="fast_geometric-b"),
    pytest.param(lambda: fast_geometric_iterate(1.0, 2.0, 0.0, 0.1, 4),
                 "need C > 0, b > 1, delta > 0", id="fast_geometric-delta"),
    pytest.param(lambda: measure_levels(_flat((0.0, 1.0)), 0.5, 1.0, 2.0, 4),
                 "M must be at least 1", id="measure_levels"),
    pytest.param(lambda: energy_check(_flat((0.0, 1.0)),
                                      const_spec((2.0,), (1.0,)), 1.0, 2.0),
                 "level must not fall below the data bound",
                 id="energy_check"),
    pytest.param(lambda: comparison_check(_flat((0.0,)), _flat((0.0,)),
                                          _zero, _zero),
                 "need at least two sample times", id="comparison_check"),
    pytest.param(lambda: series_lp_norm(_flat((0.0, 1.0)), 0.0),
                 "p must be positive", id="series_lp_norm-0"),
    pytest.param(lambda: series_lp_norm(_flat((0.0, 1.0)), -1.0),
                 "p must be positive", id="series_lp_norm-negative"),
    # one (m, p) on a 2D pair would silently drop axis 1
    pytest.param(lambda: vpm_distance(_plane(), _plane(), (1.0,), (2.0,)),
                 "exponent count must match grid dimension",
                 id="vpm_distance-one"),
    pytest.param(lambda: vpm_distance(_plane(), _plane(), (1.0,) * 3,
                                      (2.0,) * 3),
                 "exponent count must match grid dimension",
                 id="vpm_distance-three"),
    pytest.param(lambda: gradient_power_norms(_plane(), 1.0, (2.0,)),
                 "exponent count must match grid dimension",
                 id="gradient_power_norms-one"),
    pytest.param(lambda: gradient_power_norms(_plane(), 1.0, (2.0,) * 3),
                 "exponent count must match grid dimension",
                 id="gradient_power_norms-three"),
    pytest.param(lambda: degiorgi_constants(
        const_spec((2.0, 2.0), (1.0, 1.0), f_val=np.nan),
        Grid((1.0, 1.0), (5, 5))),
        "field values must be finite", id="degiorgi_constants-f"),
    # a NaN g was dropped from the data bound, and a NaN u0 made it NaN
    pytest.param(lambda: degiorgi_constants(
        replace(const_spec((2.0, 2.0), (1.0, 1.0)),
                g=lambda x, t: np.full(np.shape(x[0]), np.nan)),
        Grid((1.0, 1.0), (5, 5))),
        "field values must be finite", id="degiorgi_constants-g"),
    pytest.param(lambda: degiorgi_constants(
        replace(const_spec((2.0, 2.0), (1.0, 1.0)),
                u0=lambda x: np.full(np.shape(x[0]), np.nan)),
        Grid((1.0, 1.0), (5, 5))),
        "field values must be finite", id="degiorgi_constants-u0"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
