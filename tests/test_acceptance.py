"""Acceptance gate: one test per verification criterion.

Each test prints a single PASS or FAIL line for its criterion; run with
``pytest -s`` to see the lines while the suite executes.  Criteria with a
runtime budget measure it with a monotonic clock and fail when exceeded.
Criteria 2-6 run the scenario functions of ``anisodnl.cli`` (the code
behind ``anisodnl run``) and judge by their violations, so each verdict
rule has one copy, the one the command line tool ships.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from anisodnl import cli
from anisodnl.analysis import (
    b_quantity,
    b_sandwich_constant,
    degiorgi_constants,
    energy_check,
    exp_mollify,
    exp_mollify_eval,
    fast_geometric_iterate,
    power_inequality_constant,
    series_lp_norm,
    steklov,
    steklov_eval,
)
from anisodnl.discretization import (
    Grid,
    ScalarField,
    TimeSeries,
    sobolev_troisi_gap,
)
from anisodnl.model import CoefficientSpec, Exponents, ProblemSpec
from anisodnl.presets import (
    PRESET_NAMES,
    get_preset,
    manufactured_1d_exact,
    manufactured_quartic_exact,
    preset_defaults,
)
from anisodnl.solver import SolverConfig, ordering_tolerance, solve_problem

NEWTON_TOL = 1e-9

# Frozen by the calibration sweep (anisodnl calibrate), matching the
# fixtures in test_discretization.py.
TROISI_FIXTURES = {
    ((33, 33), (2.0, 2.0)): 0.0557714316961782,
    ((33, 33), (3.0, 2.0)): 0.03552776602087543,
    ((65,), (2.0,)): 0.11147568426037813,
}


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def nonneg_data_presets():
    """Presets whose source, boundary and initial data are nonnegative."""
    names = []
    for name in PRESET_NAMES:
        spec = get_preset(name)
        grid = Grid(spec.box, preset_defaults(name)["grid"])
        x = grid.meshgrid()
        lo = np.inf
        for t in np.linspace(0.0, spec.T, 9):
            for fn in (spec.f, spec.g):
                vals = np.broadcast_to(
                    np.asarray(fn(x, float(t)), dtype=float), grid.counts)
                lo = min(lo, float(np.min(vals)))
        u0 = np.broadcast_to(np.asarray(spec.u0(x), dtype=float), grid.counts)
        lo = min(lo, float(np.min(u0)))
        if lo >= 0.0:
            names.append(name)
    return names


def test_criterion_1_lower_bound():
    worst = -np.inf
    slowest = 0.0
    for name in nonneg_data_presets():
        spec = get_preset(name)
        grid = Grid(spec.box, preset_defaults(name)["grid"])
        start = time.perf_counter()
        for k in (1, 2, 4, 8):
            cfg = SolverConfig(dt=spec.T / 32, k=k)
            ts, _ = solve_problem(spec, grid, cfg)
            tol = ordering_tolerance(cfg, spec.T)
            lo = min(float(np.min(f.values)) for f in ts.fields)
            worst = max(worst, (1.0 / k - tol) - lo)
        slowest = max(slowest, time.perf_counter() - start)
    ok = worst <= 0.0 and slowest < 60.0
    verdict(1, "lower bound", ok,
            f"worst shortfall {worst:.3e}, slowest preset {slowest:.1f}s")


def test_criterion_2_k_monotonicity():
    spec = get_preset("aniso-cascade")
    grid = Grid(spec.box, (33, 33))
    res, violations, _ = cli.cascade(spec, grid, SolverConfig(dt=spec.T / 32),
                                     [1, 2, 4, 8, 16])
    # distances for pairs starting at k = 2
    tail = res["distances"][1:]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    verdict(2, "k-monotonicity", not violations and decreasing,
            f"{violations or 'no ordering excess'}, "
            f"distances {['%.3e' % d for d in tail]}")


def test_criterion_3_constant_exactness():
    spec = get_preset("constant")
    grid = Grid(spec.box, (33, 33))
    # each call checks direct mode and k-mode at level k
    violations, dev = [], 0.0
    for k in (1, 2, 4, 8):
        res, found, _ = cli.constant(spec, grid, SolverConfig(
            dt=spec.T / 32, newton_tol=NEWTON_TOL, k=k))
        violations += found
        dev = max(dev, res["direct_deviation"], res["k_deviation"])
    verdict(3, "constant exactness", not violations,
            f"worst deviation {dev:.3e}")


def test_criterion_4_manufactured():
    # The scheme reproduces manufactured-1d to rounding at every
    # resolution, so a strict decrease cannot be observed and the scenario
    # accepts errors at the rounding floor.  The quartic's truncation
    # error is nonzero: its errors stay above the floor, where the
    # scenario accepts only a strict decrease.
    start = time.perf_counter()
    errs, violations = {}, []
    for name, exact in (("1d", manufactured_1d_exact),
                        ("quartic", manufactured_quartic_exact)):
        spec = get_preset(f"manufactured-{name}")
        res, found, _ = cli.manufactured(spec, exact, Grid(spec.box, (65,)),
                                         SolverConfig(dt=spec.T / 32), 3)
        errs[name] = res["l2_errors"]
        violations += found
    elapsed = time.perf_counter() - start
    ok = (not violations and min(errs["quartic"]) >= 1e-10
          and elapsed < 120.0)
    verdict(4, "manufactured consistency", ok,
            f"base errors {['%.2e' % e for e in errs['1d']]}, "
            f"quartic errors {['%.2e' % e for e in errs['quartic']]}, "
            f"{elapsed:.1f}s")


def test_criterion_5_comparison_uniqueness():
    rng = np.random.default_rng(19)
    violations = []
    for name, counts in (("aniso-cascade", (17, 17)),
                         ("porous-cascade", (33,))):
        spec = get_preset(name)
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / 16, k=4)
        # five draws from the one generator, in the scenario's order
        for _ in range(5):
            violations += cli.comparison(spec, grid, cfg, rng)[1]
    # uniqueness: same data, perturbed initial Newton guess
    spec = get_preset("aniso-cascade")
    grid = Grid(spec.box, (17, 17))
    cfg = SolverConfig(dt=spec.T / 16, k=4)
    a_ts, _ = solve_problem(spec, grid, cfg)
    b_ts, _ = solve_problem(spec, grid, replace(cfg, guess_offset=0.05))
    dev = max(float(np.max(np.abs(a.values - b.values)))
              for a, b in zip(a_ts.fields, b_ts.fields))
    ok = not violations and dev <= 10 * cfg.newton_tol
    verdict(5, "comparison and uniqueness", ok,
            f"{violations or 'no comparison violation'}, "
            f"guess deviation {dev:.3e}")


def test_criterion_6_k_uniform_bound():
    spec = get_preset("ortho-plaplace")
    ks = (2, 4, 8, 16)
    sups = {}
    for counts in ((17, 17), (33, 33)):
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / 32)
        vals = []
        for k in ks:
            ts, _ = solve_problem(spec, grid, replace(cfg, k=k))
            vals.append(max(float(np.max(f.values)) for f in ts.fields))
        sups[counts] = vals
    spread_k = max((max(v) - min(v)) / min(v) for v in sups.values())
    tops = [max(v) for v in sups.values()]
    spread_grid = (max(tops) - min(tops)) / min(tops)

    # level quantities on the finest cascade member
    j_max = 8
    res, violations, _ = cli.degiorgi(
        spec, Grid(spec.box, (33, 33)), SolverConfig(dt=spec.T / 32, k=16),
        j_max, level_M=5.5)
    decreasing = not violations
    rep = res["degiorgi"]
    Y, b, dg_delta = rep["Y"], rep["b"], rep["dg_delta"]
    # fit the envelope constant on indices with nonzero level mass
    ratios = [Y[j + 1] / (b ** j * Y[j] ** (1.0 + dg_delta))
              for j in range(j_max) if Y[j] > 0.0 and Y[j + 1] > 0.0]
    envelope_ok = True
    if ratios:
        K_hat = max(ratios) * (1.0 + 1e-9)
        env, _conv, _thr = fast_geometric_iterate(
            K_hat, b, dg_delta, Y[0], j_max)
        envelope_ok = all(y <= e * (1.0 + 1e-9)
                          for y, e in zip(Y[1:], env[1:]))
    ok = (spread_k < 0.05 and spread_grid < 0.05 and decreasing
          and envelope_ok)
    verdict(6, "k-uniform boundedness", ok,
            f"k-spread {spread_k:.3%}, grid spread {spread_grid:.3%}, "
            f"Y decreasing {decreasing}, envelope {envelope_ok}")


def test_criterion_7_energy_stability():
    spec = get_preset("manufactured-strong")
    grid = Grid(spec.box, (65,))
    M_star = 2.0
    ratios = []
    for k in (2, 4, 8):
        ts, _ = solve_problem(spec, grid,
                              SolverConfig(dt=spec.T / 32, k=k))
        for M in (2.0, 2.2):
            rep = energy_check(ts, spec, M, M_star)
            ratios.append(rep.ratio)
    finite = all(np.isfinite(r) and r > 0.0 for r in ratios)
    spread = (max(ratios) - min(ratios)) / min(ratios) if finite else np.inf
    ok = finite and spread <= 0.25
    verdict(7, "energy stability", ok,
            f"ratios {['%.4f' % r for r in ratios]}, spread {spread:.3%}")


def test_criterion_8_algebraic_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    ok = True
    detail = []
    for m in (1.0, 1.5, 2.0, 3.0):
        c = b_sandwich_constant(m)
        u = rng.uniform(0.0, 10.0, 100000)
        v = rng.uniform(0.0, 10.0, 100000)
        gap = b_quantity(u, v, m)
        ref = (v ** ((m + 1) / 2) - u ** ((m + 1) / 2)) ** 2
        if np.min(gap) < -1e-12:
            ok = False
            detail.append(f"b<0 at m={m}")
        if not (np.all(gap <= c * ref + 1e-10)
                and np.all(ref <= c * gap + 1e-10)):
            ok = False
            detail.append(f"sandwich fails at m={m}")
    for gamma in (1.5, 2.0, 3.0):
        c = power_inequality_constant(gamma)
        a = rng.uniform(-10.0, 10.0, 100000)
        b = rng.uniform(-10.0, 10.0, 100000)
        lhs = np.abs(a - b) ** gamma
        rhs = np.abs(np.abs(a) ** (gamma - 1) * a
                     - np.abs(b) ** (gamma - 1) * b)
        if not np.all(lhs <= c * rhs + 1e-10):
            ok = False
            detail.append(f"power inequality fails at gamma={gamma}")
    # m = 1 closed forms
    u = rng.uniform(0.0, 10.0, 100000)
    v = rng.uniform(0.0, 10.0, 100000)
    closed = 0.5 * (u - v) ** 2
    if not np.allclose(b_quantity(u, v, 1.0), closed, rtol=1e-12,
                       atol=1e-12):
        ok = False
        detail.append("m=1 closed form off")
    if b_sandwich_constant(1.0, pad=0.0) != 2.0:
        ok = False
        detail.append("m=1 constant not exactly 2")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        ok = False
        detail.append(f"too slow: {elapsed:.1f}s")
    verdict(8, "algebraic suite", ok,
            "; ".join(detail) if detail else f"{elapsed:.1f}s")


def _scalar_series(values, times):
    g = Grid((1.0,), (3,))
    return TimeSeries([ScalarField(g, np.full(3, float(v)), float(t))
                       for v, t in zip(values, times)])


def test_criterion_9_mollifier_suite():
    times = np.linspace(0.0, 1.0, 257)
    s = _scalar_series(np.sin(2 * np.pi * times) + 2.0, times)
    ok = True
    detail = []
    p_bar = 2.0 / (1.0 / 3.0 + 1.0 / 2.0)
    stek = steklov(s, 0.125)
    expo = exp_mollify(s, 0.1)
    for p in (1.0, 2.0, p_bar):
        n_in = series_lp_norm(s, p)
        n_in_window = series_lp_norm(TimeSeries(
            [f for f in s.fields if f.t <= stek.times[-1]]), p)
        if series_lp_norm(stek, p) > n_in_window * (1 + 1e-12):
            ok = False
            detail.append(f"window mean grew L{p:.2f}")
        if series_lp_norm(expo, p) > n_in * (1 + 1e-12):
            ok = False
            detail.append(f"exponential grew L{p:.2f}")
    # window-mean derivative identity on a piecewise linear series
    rng = np.random.default_rng(29)
    vals = rng.uniform(0.0, 2.0, 65)
    knots = np.linspace(0.0, 1.0, 65)
    pl = _scalar_series(vals, knots)
    dt = knots[1] - knots[0]
    h = 16 * dt
    worst_id = 0.0
    for i in range(3, 40, 7):
        t = knots[i] + dt / 2.0
        eps = dt / 8.0
        d = (steklov_eval(pl, h, t + eps)
             - steklov_eval(pl, h, t - eps)) / (2 * eps)
        rhs = (np.interp(t + h, knots, vals)
               - np.interp(t, knots, vals)) / h
        worst_id = max(worst_id, abs(float(d[0]) - rhs))
    if worst_id > 1e-10:
        ok = False
        detail.append(f"window derivative identity off by {worst_id:.2e}")
    # exponential mollifier of a constant: closed form c(1 - e^(-t/h))
    const = _scalar_series(np.full(33, 3.0), np.linspace(0.0, 1.0, 33))
    out = exp_mollify(const, 0.1)
    worst_cf = max(abs(float(f.values[0])
                       - 3.0 * (1.0 - np.exp(-f.t / 0.1)))
                   for f in out.fields)
    if worst_cf > 1e-10:
        ok = False
        detail.append(f"constant closed form off by {worst_cf:.2e}")
    # ODE identity for the exponential kernel on the smooth series
    s_vals = s.values_array()[:, 0]
    worst_ode = 0.0
    for i in range(5, 250, 13):
        t = times[i] + (times[1] - times[0]) / 2.0
        eps = 1e-7
        wd = (exp_mollify_eval(s, 0.1, t + eps)
              - exp_mollify_eval(s, 0.1, t - eps)) / (2 * eps)
        w = exp_mollify_eval(s, 0.1, t)
        v = np.interp(t, times, s_vals)
        worst_ode = max(worst_ode,
                        abs(float(wd[0]) - (v - float(w[0])) / 0.1))
    if worst_ode > 1e-8:
        ok = False
        detail.append(f"ODE identity off by {worst_ode:.2e}")
    verdict(9, "mollifier suite", ok,
            "; ".join(detail) if detail
            else f"identity {worst_id:.1e}, ode {worst_ode:.1e}")


def _const_spec(p, m, sigma):
    n = len(p)

    def a(x, t, u):
        return np.full(np.shape(u), 1.0)

    return ProblemSpec(
        box=tuple([1.0] * n), T=1.0,
        exponents=Exponents(p, m),
        coeffs=CoefficientSpec(tuple([a] * n), 1.0, 0.0),
        f=lambda x, t: np.zeros(np.shape(x[0])),
        g=lambda x, t: np.full(np.shape(x[0]), 0.5),
        u0=lambda x: np.full(np.shape(x[0]), 0.5),
        sigma=sigma, eps0=0.5)


def test_criterion_10_degiorgi_arithmetic():
    ok = True
    detail = []
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = tuple(rng.uniform(1.5, 3.5, n))
        m = tuple(rng.uniform(1.0, 2.0, n))
        p_bar = 1.0 / (sum(1.0 / v for v in p) / n)
        sigma = (1.0 + n / p_bar) * float(rng.uniform(1.05, 3.0))
        rep = degiorgi_constants(_const_spec(p, m, sigma),
                                 Grid(tuple([1.0] * n), tuple([5] * n)))
        if rep.dg_delta <= 0.0:
            ok = False
            detail.append("nonpositive exponent in sweep")
            break
    deltas = []
    for sigma in (4.0, 3.0, 2.5, 2.2, 2.05, 2.01):
        rep = degiorgi_constants(_const_spec((2.0, 2.0), (1.0, 1.0), sigma),
                                 Grid((1.0, 1.0), (5, 5)))
        deltas.append(rep.dg_delta)
    if not all(b < a for a, b in zip(deltas, deltas[1:])):
        ok = False
        detail.append("exponent not decreasing toward the bound")
    hand = degiorgi_constants(_const_spec((2.0, 2.0), (1.0, 1.0), 3.0),
                              Grid((1.0, 1.0), (5, 5))).dg_delta
    if abs(hand - 1.0 / 6.0) > 1e-12:
        ok = False
        detail.append(f"hand-checked value {hand} != 1/6")
    ys, conv, thr = fast_geometric_iterate(1.0, 2.0, 1.0, 0.5, 200)
    if not (conv and ys[-1] < 1e-12 and thr == pytest.approx(0.5)):
        ok = False
        detail.append("threshold iteration did not converge")
    verdict(10, "level-set arithmetic", ok,
            "; ".join(detail) if detail else f"hand check {hand:.6f}")


def test_criterion_11_sobolev_troisi():
    rng = np.random.default_rng(37)
    ok = True
    detail = []
    for (counts, p), C in TROISI_FIXTURES.items():
        grid = Grid(tuple([1.0] * len(counts)), counts)
        bmask = grid.boundary_mask()
        for _ in range(1000):
            v = rng.standard_normal(grid.counts)
            v[bmask] = 0.0
            amp = 10.0 ** rng.uniform(-2.0, 2.0)
            lhs, rhs = sobolev_troisi_gap(ScalarField(grid, amp * v), p)
            if lhs > C * rhs:
                ok = False
                detail.append(f"inequality fails for p={p}")
                break
    # homogeneity: scaling the field scales both sides by the same power
    grid = Grid((1.0, 1.0), (17, 17))
    v = rng.standard_normal(grid.counts)
    v[grid.boundary_mask()] = 0.0
    p = (3.0, 2.0)
    p_bar = 2.0 / (1.0 / 3.0 + 1.0 / 2.0)
    l1, _ = sobolev_troisi_gap(ScalarField(grid, v), p)
    l2, _ = sobolev_troisi_gap(ScalarField(grid, 3.0 * v), p)
    if abs(l2 / l1 - 3.0 ** p_bar) > 1e-12 * 3.0 ** p_bar:
        ok = False
        detail.append("homogeneity identity violated")
    verdict(11, "anisotropic embedding", ok,
            "; ".join(detail) if detail else "all fresh fields bounded")
