"""Algebraic helpers, time mollifiers, level-set bookkeeping and the
inequality checkers (energy estimate, comparison principle).

Every space-time measure integrates in space by
``discretization.integrate`` (over a stack of fields where it can) and in
time by ``_time_integral``, the one trapezoid rule over sample times.

Naming note: the mollification window is always called h, and the
level-iteration exponent is dg_delta.  Both time mollifiers run forward
(causal) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .discretization import (
    Grid,
    ScalarField,
    TimeSeries,
    face_diff_power,
    face_mean,
    integrate,
)
from .model import ProblemSpec, evaluate, harmonic_mean

__all__ = [
    "b_quantity",
    "b_sandwich_constant",
    "power_inequality_constant",
    "steklov",
    "exp_mollify",
    "series_lp_norm",
    "fast_geometric_iterate",
    "DeGiorgiReport",
    "degiorgi_constants",
    "select_q_vector",
    "measure_levels",
    "EnergyReport",
    "energy_check",
    "ComparisonReport",
    "comparison_check",
    "ordering_excess",
    "gradient_power_norms",
    "vpm_distance",
]


# ---------------------------------------------------------------------------
# algebraic quantities

# points per axis of the calibration sweeps
SWEEP_POINTS = 400


def _sweep_pairs(lo: float, hi: float):
    """The off-diagonal pairs (s, r) of the SWEEP_POINTS grid on [lo, hi]^2."""
    s = np.linspace(lo, hi, SWEEP_POINTS)
    u, v = np.meshgrid(s, s, indexing="ij")
    mask = u != v
    return u[mask], v[mask]


def b_quantity(u, v, m: float):
    """Gap of the convex function s -> s^(m+1)/(m+1) between u and v.

    b[u, v] = (u^(m+1) - v^(m+1))/(m+1) - v^m (u - v).  Nonnegative for
    u, v >= 0 and zero exactly on the diagonal.  For m = 1 it reduces to
    (u - v)^2 / 2.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0) or np.any(v < 0):
        raise ValueError("b_quantity requires nonnegative arguments")
    return (u ** (m + 1.0) - v ** (m + 1.0)) / (m + 1.0) - v ** m * (u - v)


def b_sandwich_constant(m: float, pad: float = 0.1) -> float:
    """Constant c(m) comparing b[u, v] with |v^((m+1)/2) - u^((m+1)/2)|^2.

    Calibrated by a dense sweep over (u, v) in [0, 10]^2: the supremum of
    max(ratio, 1/ratio) over off-diagonal pairs, padded by the given
    fraction.  With pad = 0 and m = 1 the sweep returns exactly 2, since
    the ratio is identically 1/2.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m == 1.0:
        # closed form: b = (u - v)^2 / 2, so the ratio is identically 1/2
        # and the sharp constant is 2; the sweep agrees to rounding
        return 2.0 * (1.0 + pad)
    u, v = _sweep_pairs(0.0, 10.0)
    gap = b_quantity(u, v, m)
    ref = (v ** ((m + 1.0) / 2.0) - u ** ((m + 1.0) / 2.0)) ** 2
    ratio = gap / ref
    c = max(float(np.max(ratio)), float(1.0 / np.min(ratio)))
    return c * (1.0 + pad)


def power_inequality_constant(gamma: float, pad: float = 0.1) -> float:
    """Constant c(gamma) in |a - b|^gamma <= c ||a|^(gamma-1)a - |b|^(gamma-1)b|.

    Calibrated by a sweep over (a, b) in [-10, 10]^2, padded by the given
    fraction.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    a, b = _sweep_pairs(-10.0, 10.0)
    lhs = np.abs(a - b) ** gamma
    rhs = np.abs(np.abs(a) ** (gamma - 1.0) * a - np.abs(b) ** (gamma - 1.0) * b)
    return float(np.max(lhs / rhs)) * (1.0 + pad)


# ---------------------------------------------------------------------------
# time mollifiers


def _antiderivative_eval(times: np.ndarray, vals: np.ndarray,
                         V: np.ndarray, t: float) -> np.ndarray:
    """Exact antiderivative of the piecewise-linear interpolant at time t.

    vals has shape (ntimes, ...); V holds the cumulative exact integrals at
    the sample times.
    """
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(max(i, 0), len(times) - 2)
    dt = times[i + 1] - times[i]
    slope = (vals[i + 1] - vals[i]) / dt
    s = t - times[i]
    return V[i] + vals[i] * s + slope * s * s / 2.0


def _window_mean(series: TimeSeries, h: float) -> Callable:
    """Mean over a window [lo, hi] of width h of the piecewise-linear
    interpolant of the series, as a function of (lo, hi).

    The window integral is exact: the antiderivative is the cumulative
    trapezoid integral up to the enclosing sample plus the partial
    interval.
    """
    times = series.times
    vals = series.values_array()
    dts = np.diff(times)
    seg = (vals[:-1] + vals[1:]) / 2.0 * dts.reshape(
        (-1,) + (1,) * (vals.ndim - 1))
    V = np.concatenate([np.zeros((1,) + vals.shape[1:]),
                        np.cumsum(seg, axis=0)])

    def mean(lo: float, hi: float) -> np.ndarray:
        return (_antiderivative_eval(times, vals, V, hi)
                - _antiderivative_eval(times, vals, V, lo)) / h

    return mean


def steklov(series: TimeSeries, h: float) -> TimeSeries:
    """Sliding window time average of width h over [t, t + h], defined at
    the sample times in [t0, T - h].

    The stored series is treated as piecewise linear in time and the
    window integral is evaluated exactly, so the average of an affine
    series is exact and the discrete time derivative of the output equals
    the difference quotient (v(t + h) - v(t))/h.
    """
    times = series.times
    T1 = times[-1]
    if not 0.0 < h < T1 - times[0]:
        raise ValueError("window must lie inside the series time span")
    mean = _window_mean(series, h)
    return TimeSeries([ScalarField(series.grid, mean(t, t + h), float(t))
                       for t in times if t + h <= T1])


def steklov_eval(series: TimeSeries, h: float, t: float) -> np.ndarray:
    """Window average at an arbitrary time inside the valid window.

    Evaluates the same exact piecewise-linear quadrature as steklov(), so
    derivative identities can be probed between sample times.
    """
    times = series.times
    if h <= 0 or t < times[0] or t + h > times[-1]:
        raise ValueError("window must lie inside the series time span")
    return _window_mean(series, h)(t, t + h)


def _exp_interval(w, v_end, slope, dt: float, h: float):
    """Exponential mollification carried across one interval of length dt
    on which the input is linear with the given slope and ends at v_end;
    w is the value at the start of the interval."""
    E = math.exp(-dt / h)
    return E * w + v_end * (1.0 - E) - slope * (h * (1.0 - E) - dt * E)


def exp_mollify_eval(series: TimeSeries, h: float, t: float) -> np.ndarray:
    """Exponential mollification at an arbitrary time.

    Continues exp_mollify's recursion from the sample that opens the
    enclosing interval by the closed-form partial-interval update.
    """
    times = series.times
    if not times[0] <= t <= times[-1]:
        raise ValueError("t outside the series time span")
    w = exp_mollify(series, h).values_array()
    if len(times) == 1:
        return w[0]
    i = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
    vals = series.values_array()
    c = (vals[i + 1] - vals[i]) / (times[i + 1] - times[i])
    dt = t - times[i]
    return _exp_interval(w[i], vals[i] + c * dt, c, dt, h)


def exp_mollify(series: TimeSeries, h: float) -> TimeSeries:
    """Causal exponential smoothing with kernel exp((s - t)/h)/h.

    Computes w(t) = (1/h) * integral over [t0, t] of exp((s - t)/h) v(s) ds
    by an exact per-interval recursion for the piecewise-linear series, so a
    constant input c yields exactly c (1 - exp(-(t - t0)/h)).  The output
    satisfies the balance law dw/dt = (v - w)/h.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    times = series.times
    vals = series.values_array()
    w = np.zeros_like(vals)
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        c = (vals[i + 1] - vals[i]) / dt
        w[i + 1] = _exp_interval(w[i], vals[i + 1], c, dt, h)
    return TimeSeries([ScalarField(series.grid, w[i], float(times[i]))
                       for i in range(len(times))])


def _check_pair(a: TimeSeries, b: TimeSeries) -> None:
    """Raise ValueError unless a and b share grid, length and sample times."""
    if (a.grid != b.grid or len(a) != len(b)
            or not np.allclose(a.times, b.times)):
        raise ValueError("series must share grid and time axis")


def _time_integral(times: np.ndarray, per_time) -> float:
    """Trapezoid rule in time of one value per sample time."""
    return float(np.trapezoid(per_time, times))


def series_lp_norm(series: TimeSeries, p: float) -> float:
    """Space-time L^p norm of a series under trapezoid quadrature."""
    if p <= 0:
        raise ValueError("p must be positive")
    per_time = integrate(series.grid, np.abs(series.values_array()) ** p)
    return _time_integral(series.times, per_time) ** (1.0 / p)


# ---------------------------------------------------------------------------
# level-set iteration arithmetic


def fast_geometric_iterate(C: float, b: float, delta: float, Y0: float,
                           n: int) -> tuple[np.ndarray, bool, float]:
    """Iterate Y_{j+1} = C b^j Y_j^(1+delta) with equality.

    Returns the sequence (length n + 1), a convergence flag (final value
    below 1e-12 times the start) and the closed-form smallness threshold
    C^(-1/delta) b^(-1/delta^2) under which the sequence tends to zero.
    """
    if C <= 0 or b <= 1 or delta <= 0:
        raise ValueError("need C > 0, b > 1, delta > 0")
    threshold = C ** (-1.0 / delta) * b ** (-1.0 / delta ** 2)
    ys = np.empty(n + 1)
    ys[0] = Y0
    with np.errstate(over="ignore"):
        for j in range(n):
            ys[j + 1] = C * b ** j * ys[j] ** (1.0 + delta)
    converged = bool(Y0 == 0.0 or ys[-1] < 1e-12 * Y0)
    return ys, converged, threshold


def select_q_vector(p: Sequence[float], n_dim: int) -> tuple[float, ...]:
    """Auxiliary exponent vector for the level-set recursion.

    When the harmonic mean of p does not exceed the dimension the vector
    is p itself.  Otherwise the first entry is lowered so the harmonic
    mean becomes 0.99 times the dimension, which keeps it below p_1.  If
    the lowered entry is not above 1 (always so in one space dimension,
    where every entry exceeds the dimension) the vector falls back to p,
    since a smaller target would only lower it further; the embedding is
    unbounded there and any exponent vector is usable.
    """
    p = tuple(float(v) for v in p)
    p_bar = harmonic_mean(p)
    if p_bar <= n_dim:
        return p
    rest = sum(1.0 / pj for pj in p[1:])
    target = 0.99 * min(p_bar, float(n_dim))
    inv_q1 = n_dim / target - rest
    if inv_q1 > 0.0:
        q1 = 1.0 / inv_q1
        if 1.0 < q1 <= p[0]:
            return (q1,) + p[1:]
    return p


@dataclass
class DeGiorgiReport:
    """All constants of the level-set boundedness argument, plus any
    measured level quantities attached afterwards."""

    M_star: float
    K0: float
    q: tuple[float, ...]
    q_bar: float
    dg_delta: float
    Q: float
    b: float
    K: float
    M: float
    L: float
    c_struct: float
    levels: list[float] = field(default_factory=list)
    Y: list[float] = field(default_factory=list)
    E: list[float] = field(default_factory=list)


def level_sequence(M: float, m: float, j_max: int) -> np.ndarray:
    """Increasing levels M_j = M (2 - 2^-j)^(2/(m+1)) with limit
    2^(2/(m+1)) M."""
    j = np.arange(j_max + 1)
    return M * (2.0 - 2.0 ** (-j.astype(float))) ** (2.0 / (m + 1.0))


# sample times of the data norms in degiorgi_constants
DEGIORGI_TIMES = 33
# the one value that stands for every anonymous structure constant
C_STRUCT = 1.0


def degiorgi_constants(spec: ProblemSpec, grid: Grid) -> DeGiorgiReport:
    """Constant bookkeeping for the sup-bound of the truncated solutions.

    Data norms are measured on the supplied grid with trapezoid quadrature
    in space and at DEGIORGI_TIMES times.  All anonymous structure
    constants are represented by the single calibration value C_STRUCT.
    """
    bar = spec.bar()
    n = spec.dim
    m = spec.exponents.m_min
    mu = bar.mu
    sigma = spec.sigma

    q = select_q_vector(spec.exponents.p, n)
    q_bar = harmonic_mean(q)
    dg_delta = (n * q_bar / (n + mu)) * (
        1.0 / n - (1.0 / sigma) * (1.0 / n + 1.0 / bar.p_bar))
    if dg_delta <= 0.0:
        raise ValueError(
            "integrability exponent too small: level-set exponent <= 0")
    Q = (q_bar / (sigma * (n + mu))) * (1.0 + n / bar.p_bar)
    b = 2.0 ** (2.0 * m * q_bar * (1.0 + dg_delta) / (m + 1.0))

    ts = np.linspace(0.0, spec.T, DEGIORGI_TIMES)
    x = grid.meshgrid()
    f_abs, g_abs = (np.abs([evaluate(fn, grid.counts, x, float(t))
                            for t in ts]) for fn in (spec.f, spec.g))
    u0_abs = np.abs(evaluate(spec.u0, grid.counts, x))
    if not all(np.all(np.isfinite(v)) for v in (f_abs, g_abs, u0_abs)):
        raise ValueError("field values must be finite")
    M_star = max(float(np.max(u0_abs)), float(np.max(g_abs))) + 1.0
    int_f_sig = _time_integral(
        ts, integrate(grid, f_abs ** (sigma * bar.p_bar_conj)))
    int_f_pb = _time_integral(ts, integrate(grid, f_abs ** bar.p_bar_conj))
    omega_T = spec.volume * spec.T

    K = C_STRUCT * int_f_sig ** Q
    K0 = (C_STRUCT * int_f_pb ** (1.0 / bar.p_bar)
          + C_STRUCT * M_star ** m * omega_T ** (1.0 / bar.p_bar))
    M = max(M_star,
            C_STRUCT * (K0 ** (q_bar * dg_delta) * K)
            ** (1.0 / (m * q_bar * (1.0 + dg_delta))))
    L = 2.0 ** (2.0 / (m + 1.0)) * M
    return DeGiorgiReport(M_star=M_star, K0=K0, q=q, q_bar=q_bar,
                          dg_delta=dg_delta, Q=Q, b=b, K=K, M=M, L=L,
                          c_struct=C_STRUCT)


def _level_excess(v, M: float, m: float):
    """(v^((m+1)/2) - M^((m+1)/2))_+, the excess of v over the level M."""
    return np.maximum(v ** ((m + 1.0) / 2.0) - M ** ((m + 1.0) / 2.0), 0.0)


def measure_levels(series: TimeSeries, M: float, m: float, q_bar: float,
                   j_max: int) -> tuple[list[float], list[float]]:
    """Measured level quantities of a trajectory.

    For each level M_j returns the space-time integral
    Y_j = integral of (v^((m+1)/2) - M_j^((m+1)/2))_+ ^ (2 m q_bar/(m+1))
    and the measure E_j of the exceedance set {v > M_j}.
    """
    if M < 1.0:
        raise ValueError("M must be at least 1")
    levels = level_sequence(M, m, j_max)
    expo = 2.0 * m * q_bar / (m + 1.0)
    grid, times, v = series.grid, series.times, series.values_array()
    Ys = [_time_integral(times, integrate(
        grid, _level_excess(v, Mj, m) ** expo)) for Mj in levels]
    Es = [_time_integral(times, integrate(grid, v > Mj)) for Mj in levels]
    return Ys, Es


# ---------------------------------------------------------------------------
# energy estimate


@dataclass
class EnergyReport:
    sup_level_energy: float
    gradient_terms: tuple[float, ...]
    source_integral: float
    ratio: float


def energy_check(series: TimeSeries, spec: ProblemSpec, M: float,
                 M_star: float) -> EnergyReport:
    """Measure both sides of the Caccioppoli-type level energy bound.

    lhs = sup over time of the level energy
          integral (v^((m+1)/2) - M^((m+1)/2))_+^2 dx
        + sum_j space-time integral of
          v^((m_j - m)(p_j - 1)) |d_j (v^m - M^m)_+|^{p_j}
    rhs = space-time integral of |f|^{pbar'} over the set {v > M}
    and ratio = lhs/rhs (zero when both vanish).
    """
    if M < M_star:
        raise ValueError("level must not fall below the data bound")
    grid, times, v = series.grid, series.times, series.values_array()
    m = spec.exponents.m_min
    bar = spec.bar()
    x = grid.meshgrid()
    trunc = np.maximum(v ** m - M ** m, 0.0)
    grads = []
    for j, (mj, pj) in enumerate(zip(spec.exponents.m, spec.exponents.p)):
        D = face_diff_power(grid, trunc, 1.0, j)
        weight = face_mean(v, 1 + j) ** ((mj - m) * (pj - 1.0))
        grads.append(_time_integral(times, integrate(
            grid, np.abs(weight ** (1.0 / pj) * D) ** pj, face_axis=j)))
    f_abs = np.abs([evaluate(spec.f, grid.counts, x, float(t))
                    for t in times])
    rhs = _time_integral(times, integrate(
        grid, f_abs ** bar.p_bar_conj * (v > M)))
    energies = integrate(grid, _level_excess(v, M, m) ** 2)
    sup_energy = max([0.0] + energies.tolist())
    lhs = sup_energy + sum(grads)
    ratio = 0.0 if rhs == 0.0 and lhs == 0.0 else (math.inf if rhs == 0.0
                                                   else lhs / rhs)
    return EnergyReport(sup_level_energy=sup_energy,
                        gradient_terms=tuple(grads),
                        source_integral=rhs, ratio=ratio)


# ---------------------------------------------------------------------------
# comparison principle


@dataclass
class ComparisonReport:
    times: list[float]
    lhs: list[float]
    rhs: list[float]
    violation: float


def comparison_check(u: TimeSeries, v: TimeSeries, f_u: Callable,
                     f_v: Callable, zero_tol: float = 1e-7) -> ComparisonReport:
    """Check the ordering inequality between a subsolution and a
    supersolution trajectory.

    For every sample time s after the first one, t0, the inequality reads

      integral (u - v)_+ (s)
        <= int_{t0}^{s} integral_{ {v < u} union {u = v = 0} }
             (f_u 1_{u > 0} - f_v) dx dt
         + integral (u - v)_+ (t0).

    The indicator of {u = v = 0} uses the zero threshold zero_tol, since
    exact zeros do not occur in floating point.  Returns the two traces and
    the worst positive excess lhs - rhs.
    """
    _check_pair(u, v)
    tu = u.times
    if len(u) < 2:
        raise ValueError("need at least two sample times")
    grid = u.grid
    x = grid.meshgrid()

    src = []
    report = ComparisonReport(times=[], lhs=[], rhs=[], violation=0.0)
    for n, (fld_u, fld_v) in enumerate(zip(u.fields, v.fields)):
        uu, vv, t = fld_u.values, fld_v.values, float(tu[n])
        fu = evaluate(f_u, grid.counts, x, t)
        fv = evaluate(f_v, grid.counts, x, t)
        region = (vv < uu) | ((np.abs(uu) <= zero_tol)
                              & (np.abs(vv) <= zero_tol))
        src.append(integrate(grid, (fu * (uu > zero_tol) - fv) * region))
        lhs = float(integrate(grid, np.maximum(uu - vv, 0.0)))
        if n == 0:
            base = lhs
            continue
        rhs = base + _time_integral(tu[:n + 1], src)
        report.times.append(t)
        report.lhs.append(lhs)
        report.rhs.append(rhs)
        report.violation = max(report.violation, lhs - rhs)
    return report


def ordering_excess(lo: TimeSeries, hi: TimeSeries) -> float:
    """Largest pointwise lo - hi over the paired sample times; at most 0
    exactly when lo <= hi everywhere."""
    _check_pair(lo, hi)
    return max(float(np.max(a.values - b.values))
               for a, b in zip(lo.fields, hi.fields))


# ---------------------------------------------------------------------------
# norms and metrics

# most nodes that vpm_distance integrates in one stack of samples
VPM_CHUNK = 2 ** 15


def gradient_power_norms(series: TimeSeries, m: float,
                         p: Sequence[float]) -> tuple[float, ...]:
    """Per-axis space-time L^{p_j} norms of the face differences of u^m."""
    grid, v = series.grid, series.values_array()
    if len(p) != grid.dim:
        raise ValueError("exponent count must match grid dimension")
    return tuple(_time_integral(series.times, integrate(
        grid, np.abs(face_diff_power(grid, v, m, j)) ** pj, face_axis=j))
        ** (1.0 / pj) for j, pj in enumerate(p))


def vpm_distance(a: TimeSeries, b: TimeSeries, m: Sequence[float],
                 p: Sequence[float]) -> float:
    """Distance in the solution space metric.

    d(a, b) = || a - b ||_{L^{q*}} + sum_j || d_j a^{m_j} - d_j b^{m_j} ||_{p_j}
    with q* = max(min_j m_j + 1, max_j m_j), all norms over space-time.
    Consecutive samples are integrated as stacks of at most
    ``VPM_CHUNK`` nodes, so no whole trajectory is stacked (the cascade
    measures every pair of its members) and each sample keeps the bits
    it gets alone.
    """
    _check_pair(a, b)
    grid = a.grid
    if not len(m) == len(p) == grid.dim:
        raise ValueError("exponent count must match grid dimension")
    q_star = max(min(m) + 1.0, max(m))
    step = max(1, VPM_CHUNK // math.prod(grid.counts))
    # per sample time: the integral of the L^{q*} term, then one per axis
    per_time = np.empty((grid.dim + 1, len(a)))
    for i in range(0, len(a), step):
        u = np.stack([f.values for f in a.fields[i:i + step]])
        v = np.stack([f.values for f in b.fields[i:i + step]])
        # each difference is an array of its own: abs and power in place
        diff = u - v
        np.abs(diff, out=diff)
        diff **= q_star
        per_time[0, i:i + step] = integrate(grid, diff)
        for j, (mj, pj) in enumerate(zip(m, p)):
            diff = face_diff_power(grid, u, mj, j)
            diff -= face_diff_power(grid, v, mj, j)
            np.abs(diff, out=diff)
            diff **= pj
            per_time[j + 1, i:i + step] = integrate(grid, diff, face_axis=j)
    return sum(_time_integral(a.times, row) ** (1.0 / e)
               for row, e in zip(per_time, (q_star, *p)))
