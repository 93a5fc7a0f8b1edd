import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from anisodnl.analysis import comparison_check, gradient_power_norms
from anisodnl.discretization import (
    Grid,
    ScalarField,
    divergence,
    face_diff_power,
    face_mean,
    integrate_power,
)
from anisodnl.model import (
    CoefficientSpec,
    Exponents,
    ProblemSpec,
    eval_flux,
    eval_flux_truncated,
)
from anisodnl.presets import (
    get_preset,
    make_bump,
    manufactured_1d_exact,
    manufactured_quartic_exact,
    shifted_problem,
)
from anisodnl.solver import (
    SolverConfig,
    StepFailure,
    _StepProblem,
    implicit_step,
    manufactured_rhs,
    ordering_tolerance,
    regularization_cascade,
    solve_problem,
)


def constant_problem(c=0.7, p=(3.0, 2.0), m=(1.0, 1.5)):
    n = len(p)

    def a(x, t, u):
        return np.full(np.shape(u), 1.0)

    return ProblemSpec(
        box=tuple([1.0] * n), T=0.2,
        exponents=Exponents(p, m),
        coeffs=CoefficientSpec(tuple([a] * n), 1.0, 0.0),
        f=lambda x, t: np.zeros(np.shape(x[0])),
        g=lambda x, t: np.full(np.shape(x[0]), c),
        u0=lambda x: np.full(np.shape(x[0]), c),
        sigma=3.0, eps0=c)


class TestConstantPreservation:
    def test_direct_mode(self):
        spec = constant_problem()
        grid = Grid(spec.box, (9, 9))
        cfg = SolverConfig(dt=spec.T / 4)
        ts, rep = solve_problem(spec, grid, cfg)
        assert len(ts) == 5
        for f in ts.fields:
            assert np.max(np.abs(f.values - 0.7)) <= cfg.newton_tol

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_k_mode(self, k):
        spec = constant_problem()
        grid = Grid(spec.box, (9, 9))
        cfg = SolverConfig(dt=spec.T / 4, k=k)
        ts, _ = solve_problem(spec, grid, cfg)
        for f in ts.fields:
            assert np.max(np.abs(f.values - (0.7 + 1.0 / k))) \
                <= cfg.newton_tol


def varcoeff_problem(dim):
    """Anisotropic problem with a u-dependent coefficient, in 1 to 3 D."""
    p = (3.0, 1.7, 2.5)[:dim]
    m = (1.2, 1.0, 1.4)[:dim]

    def a(x, t, u):
        uu = np.maximum(np.asarray(u, dtype=float), 0.0)
        return 1.0 + 0.5 * uu / (1.0 + uu)

    return ProblemSpec(
        box=(1.0, 0.8, 1.3)[:dim], T=0.2,
        exponents=Exponents(p, m),
        coeffs=CoefficientSpec(tuple([a] * dim), 1.5, 0.5),
        f=lambda x, t: np.full(np.shape(x[0]), 0.3),
        g=lambda x, t: 0.4 + 0.2 * x[0],
        u0=lambda x: np.full(np.shape(x[0]), 0.5),
        sigma=3.0, eps0=0.4)


class TestNewtonUpdate:
    @pytest.mark.parametrize("secant", [False, True])
    @pytest.mark.parametrize("counts", [(33,), (9, 13), (5, 6, 7), (3,)])
    def test_k_mode_banded_matches_sparse_lu(self, counts, secant):
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=0.01, k=4)
        rng = np.random.default_rng(len(counts))
        prob = _StepProblem(spec, grid, cfg, np.full(counts, 0.6), 0.01)
        u = rng.uniform(0.3, 1.5, counts)
        u[~prob.interior] = prob.bc[~prob.interior]
        R, faces = prob.residual(u)
        ref = spla.spsolve(prob.jacobian(faces, secant=secant), R.ravel())
        got = prob.update(faces, R, secant=secant)
        assert np.max(np.abs(got.ravel() - ref)) \
            <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[~prob.interior] == 0.0)

    @pytest.mark.parametrize("counts", [(17,), (7, 9), (5, 6, 7)])
    def test_direct_jacobian_matches_central_differences(self, counts):
        # constant coefficients, p_j >= 2, m_j >= 1 and u away from 0: the
        # Newton matrix is the exact Jacobian up to the slope regularization
        dim = len(counts)
        spec = constant_problem(0.7, (3.0, 2.0, 2.5)[:dim],
                                (1.5, 1.0, 2.0)[:dim])
        grid = Grid(spec.box, counts)
        u_prev = np.full(counts, 0.6)
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01), u_prev, 0.01)
        u = np.random.default_rng(dim).uniform(0.3, 1.5, counts)
        _, faces = prob.residual(u)
        J = prob.jacobian(faces).toarray()
        fd = np.empty_like(J)
        step = 1e-6
        for i in range(u.size):
            e = np.zeros(u.size)
            e[i] = step
            e = e.reshape(counts)
            fd[:, i] = ((prob.residual(u + e)[0] - prob.residual(u - e)[0])
                        / (2 * step)).ravel()
        np.testing.assert_allclose(J, fd, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("secant", [False, True])
    @pytest.mark.parametrize("counts", [(9,), (7, 9), (5, 6, 7)])
    def test_direct_jacobian_structure(self, counts, secant):
        # g = 0 and a clamped block of zeros: with m_j > 1 the faces at
        # zero nodes give zero entries, which must not be stored
        dim = len(counts)
        spec = constant_problem(0.0, (3.0, 2.0, 2.5)[:dim],
                                (1.5, 1.2, 2.0)[:dim])
        grid = Grid(spec.box, counts)
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01),
                            np.full(counts, 0.6), 0.01)
        u = np.random.default_rng(dim).uniform(0.3, 1.5, counts)
        u[prob.boundary] = 0.0
        u[(slice(1, 4),) * dim] = 0.0
        _, faces = prob.residual(u)
        J = prob.jacobian(faces, secant=secant)
        n = u.size
        assert J.nnz == np.count_nonzero(J.data)
        # row-major keys strictly increase: sorted, no duplicates
        row = np.repeat(np.arange(n), np.diff(J.indptr))
        assert np.all(np.diff(row * n + J.indices) > 0)
        bidx = np.flatnonzero(prob.boundary)
        assert np.all(np.diff(J.indptr)[bidx] == 1)
        assert np.array_equal(J.indices[J.indptr[bidx]], bidx)
        assert np.all(J.data[J.indptr[bidx]] == 1.0)

    @pytest.mark.parametrize("name, counts, ks, n_steps, iters", [
        ("aniso-cascade", (17, 17), [2, 4, 8, 16], 8, [29, 30, 31, 31]),
        ("porous-cascade", (65,), [1, 2, 4, 8, 16], 16,
         [16, 108, 135, 166, 194]),
    ])
    def test_k_mode_newton_counts(self, name, counts, ks, n_steps, iters):
        # counts recorded with the sparse LU update on the full system
        spec = get_preset(name)
        grid = Grid(spec.box, counts)
        res = regularization_cascade(
            spec, grid, SolverConfig(dt=spec.T / n_steps), ks)
        assert [r.total_iterations for r in res.reports] == iters

    @pytest.mark.parametrize("u0", [0.5, "bump"])
    def test_nan_coefficient_ends_in_step_failure(self, u0):
        # with constant u0 the residual stays finite and only the Newton
        # system holds NaN; with a bump the residual is NaN too
        spec = replace(
            varcoeff_problem(2),
            coeffs=CoefficientSpec(
                (lambda x, t, u: np.full(np.shape(u), np.nan),) * 2,
                1.0, 0.0),
            g=lambda x, t: np.full(np.shape(x[0]), 0.5),
            u0=(make_bump((1.0, 0.8), 0.3) if u0 == "bump"
                else lambda x: np.full(np.shape(x[0]), u0)))
        grid = Grid(spec.box, (9, 9))
        with pytest.raises(StepFailure) as exc:
            solve_problem(spec, grid, SolverConfig(dt=spec.T / 4, k=2))
        assert exc.value.step_index == 0
        assert len(exc.value.residual_history) >= 1

    def test_direct_mode_nan_coefficient_fails_at_first_iteration(self):
        # the residual of the constant start is finite (0.3, from f) and
        # only the Jacobian holds NaN: the step ends there, with no
        # singular-matrix warning per wasted iteration
        spec = replace(
            varcoeff_problem(2),
            coeffs=CoefficientSpec(
                (lambda x, t, u: np.full(np.shape(u), np.nan),) * 2,
                1.0, 0.0),
            g=lambda x, t: np.full(np.shape(x[0]), 0.5),
            u0=lambda x: np.full(np.shape(x[0]), 0.5))
        grid = Grid(spec.box, (9, 9))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StepFailure) as exc:
                solve_problem(spec, grid, SolverConfig(dt=spec.T / 4))
        assert exc.value.step_index == 0
        assert exc.value.residual_history == pytest.approx([0.3])
        assert not [w for w in caught
                    if issubclass(w.category, spla.MatrixRankWarning)]


def counted_coefficients(spec):
    """A copy of spec whose axis-j coefficient adds 1 to calls[j] on each
    call; returns (spec, calls)."""
    calls = [0] * spec.dim

    def counted(j, a):
        def a_j(x, t, u):
            calls[j] += 1
            return a(x, t, u)
        return a_j

    funcs = tuple(counted(j, a) for j, a in enumerate(spec.coeffs.funcs))
    return replace(spec, coeffs=replace(spec.coeffs, funcs=funcs)), calls


def reference_residual(spec, grid, k, u_prev, u, dt, t):
    """Step residual from the model's flux and the conservative divergence,
    with the rows of boundary nodes u - g (shifted by 1/k in k-mode)."""
    x = grid.meshgrid()
    fld = ScalarField(grid, u)
    fluxes = []
    for j in range(grid.dim):
        x_face = tuple(face_mean(c, j) for c in x)
        uf = face_mean(u, j)
        if k is None:
            xi = face_diff_power(fld, spec.exponents.m[j], j)
            fluxes.append(eval_flux(spec, j, x_face, t, uf, xi))
        else:
            xi = face_diff_power(fld, 1.0, j)
            fluxes.append(eval_flux_truncated(spec, k, j, x_face, t, uf, xi))
    R = (u - u_prev) / dt - spec.f(x, t) - divergence(grid, fluxes).values
    bc = spec.g(x, t) + (0.0 if k is None else 1.0 / k)
    boundary = grid.boundary_mask()
    R[boundary] = u[boundary] - bc[boundary]
    return R


class TestStepProblem:
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("k", [4, "direct"])
    @pytest.mark.parametrize("counts", [(9,), (7, 9), (5, 6, 7)])
    def test_residual_matches_model_flux(self, counts, k, clamped):
        # m = (1.2, 1.0, 1.4) and p = (3, 1.7, 2.5) per axis; a clamped
        # iterate holds a block of zeros, so some face differences vanish
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        dt, t = 0.01, 0.01
        prob = _StepProblem(spec, grid, SolverConfig(dt=dt, k=k),
                            np.full(counts, 0.6), t)
        u = np.random.default_rng(len(counts)).uniform(0.3, 1.5, counts)
        if clamped:
            u[(slice(1, 4),) * len(counts)] = 0.0
        ref = reference_residual(spec, grid, prob.k, np.full(counts, 0.6),
                                 u, dt, t)
        got, _ = prob.residual(u)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [4, "direct"])
    @pytest.mark.parametrize("counts", [(65,), (9, 13)])
    def test_one_face_pass_per_iterate(self, counts, k, monkeypatch):
        # the update at an iterate reuses the face data of its residual, so
        # each coefficient runs once per residual evaluation
        spec, calls = counted_coefficients(varcoeff_problem(len(counts)))
        grid = Grid(spec.box, counts)
        n_residuals = [0]
        residual = _StepProblem.residual

        def counted_residual(self, u):
            n_residuals[0] += 1
            return residual(self, u)

        monkeypatch.setattr(_StepProblem, "residual", counted_residual)
        u_n = ScalarField(grid, np.full(counts, 0.75))
        _, rep = implicit_step(u_n, 0.01, spec, SolverConfig(dt=0.01, k=k))
        assert rep.iterations >= 2
        assert calls == [n_residuals[0]] * len(counts)


class TestLowerBound:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_decaying_bump(self, k):
        spec = get_preset("porous-cascade")
        grid = Grid(spec.box, (33,))
        cfg = SolverConfig(dt=spec.T / 16, k=k)
        ts, _ = solve_problem(spec, grid, cfg)
        tol = ordering_tolerance(cfg, spec.T)
        lo = min(float(np.min(f.values)) for f in ts.fields)
        assert lo >= 1.0 / k - tol


class TestManufactured:
    def test_constant_gives_zero_source(self):
        spec = constant_problem()
        f = manufactured_rhs(lambda x, t: np.full(np.shape(x[0]), 2.0), spec)
        x = (np.linspace(0.2, 0.8, 5), np.linspace(0.2, 0.8, 5))
        assert np.allclose(f(x, 0.3), 0.0, atol=1e-9)

    def test_linear_time_gives_one(self):
        spec = constant_problem(p=(2.0, 2.0), m=(1.0, 1.0))
        f = manufactured_rhs(lambda x, t: np.full(np.shape(x[0]), 2.0 + t),
                             spec)
        x = (np.linspace(0.2, 0.8, 5), np.linspace(0.2, 0.8, 5))
        assert np.allclose(f(x, 0.3), 1.0, atol=1e-9)

    def test_hand_differentiated_oracle(self):
        # u = 1 + t x (1 - x), p = 2, m = 1: f = x(1 - x) + 2t
        spec = get_preset("manufactured-1d")
        f = manufactured_rhs(lambda x, t: 1.0 + t * x[0] * (1.0 - x[0]),
                             spec)
        x = (np.linspace(0.1, 0.9, 9),)
        got = f(x, 0.4)
        expect = x[0] * (1.0 - x[0]) + 0.8
        assert np.allclose(got, expect, atol=1e-8)

    def test_rejects_nonpositive(self):
        spec = constant_problem()
        f = manufactured_rhs(lambda x, t: x[0] - 0.5, spec)
        with pytest.raises(ValueError):
            f((np.array([0.2]), np.array([0.2])), 0.0)

    def test_one_step_accuracy(self):
        spec = get_preset("manufactured-quartic")
        grid = Grid(spec.box, (33,))
        cfg = SolverConfig(dt=1.0 / 16)
        ts, _ = solve_problem(spec, grid, cfg)
        x = grid.meshgrid()
        fin = ts.fields[-1]
        err = np.max(np.abs(fin.values - manufactured_quartic_exact(x, fin.t)))
        assert err < 5e-3

    @pytest.mark.parametrize("dt, n_full, n_steps",
                             [(0.25, 4, 4), (0.3, 3, 4), (0.4, 2, 3)])
    def test_shortened_last_step(self, dt, n_full, n_steps, monkeypatch):
        # the scheme reproduces u = 1 + t x (1 - x) to rounding, so a
        # last step shortened to end at T must use its own length
        spec = get_preset("manufactured-1d")
        grid = Grid(spec.box, (33,))
        step_dts = []
        step = implicit_step

        def recorded_step(u_n, t_next, spec, config):
            step_dts.append(config.dt)
            return step(u_n, t_next, spec, config)

        monkeypatch.setattr("anisodnl.solver.implicit_step", recorded_step)
        ts, _ = solve_problem(spec, grid, SolverConfig(dt=dt))
        fin = ts.fields[-1]
        assert fin.t == spec.T
        err = np.max(np.abs(fin.values
                            - manufactured_1d_exact(grid.meshgrid(), fin.t)))
        assert err < 1e-12
        # every full step keeps the configured dt bit for bit, and a
        # shortened last step spans the rest of [0, T]
        assert len(step_dts) == n_steps
        assert step_dts[:n_full] == [dt] * n_full
        assert step_dts[-1] == pytest.approx(spec.T - ts.fields[-2].t,
                                             rel=1e-14)

    def test_k_mode_source(self):
        # p = 2, m = 2, a = 1: the k-mode flux is 2 T_k(u) d_x u
        spec = constant_problem(p=(2.0,), m=(2.0,))
        x = (np.linspace(0.1, 0.9, 9),)
        t = 0.4
        exact = manufactured_1d_exact
        u = exact(x, t)
        # k = 4: u stays inside [1/4, 4], so T_k(u) = u
        got = manufactured_rhs(exact, spec, mode=4)(x, t)
        expect = (x[0] * (1.0 - x[0])
                  - 2.0 * (t * t * (1.0 - 2.0 * x[0]) ** 2 - 2.0 * t * u))
        assert np.allclose(got, expect, rtol=0.0, atol=1e-8)
        # k = 1: T_1 is identically 1
        got = manufactured_rhs(exact, spec, mode=1)(x, t)
        assert np.allclose(got, x[0] * (1.0 - x[0]) + 4.0 * t,
                           rtol=0.0, atol=1e-8)

    def test_dt_refinement_monotone(self):
        spec = get_preset("manufactured-quartic")
        grid = Grid(spec.box, (65,))
        errs = []
        for n in (8, 16, 32):
            cfg = SolverConfig(dt=1.0 / n)
            ts, _ = solve_problem(spec, grid, cfg)
            x = grid.meshgrid()
            fin = ts.fields[-1]
            e = ScalarField(grid,
                            fin.values - manufactured_quartic_exact(x, fin.t))
            errs.append(np.sqrt(integrate_power(e, 2.0)))
        assert errs[0] > errs[1] > errs[2]


class TestComparison:
    def test_ordered_data_ordered_solutions(self):
        spec = get_preset("aniso-cascade")
        grid = Grid(spec.box, (17, 17))
        cfg = SolverConfig(dt=spec.T / 8, k=4)
        lo_ts, _ = solve_problem(spec, grid, cfg)
        hi = shifted_problem(spec, 0.3, 0.1)
        hi_ts, _ = solve_problem(hi, grid, cfg)
        tol = ordering_tolerance(cfg, spec.T)
        worst = max(float(np.max(a.values - b.values))
                    for a, b in zip(lo_ts.fields, hi_ts.fields))
        assert worst <= tol
        rep = comparison_check(lo_ts, hi_ts, spec.f, hi.f,
                               zero_tol=10 * cfg.newton_tol)
        assert rep.violation <= tol

    def test_equal_trajectories_zero_violation(self):
        spec = get_preset("porous-cascade")
        grid = Grid(spec.box, (17,))
        cfg = SolverConfig(dt=spec.T / 8, k=2)
        ts, _ = solve_problem(spec, grid, cfg)
        rep = comparison_check(ts, ts, spec.f, spec.f)
        assert rep.violation == 0.0


class TestCascade:
    def test_constant_data_exact_shifts(self):
        spec = constant_problem(c=0.9)
        grid = Grid(spec.box, (9, 9))
        cfg = SolverConfig(dt=spec.T / 4)
        res = regularization_cascade(spec, grid, cfg, [1, 2, 4])
        for (ka, kb), excess in res.ordering_excess.items():
            assert excess == 0.0
        for ts, k in zip(res.series, res.ks):
            for f in ts.fields:
                assert np.max(np.abs(f.values - (0.9 + 1.0 / k))) \
                    <= cfg.newton_tol

    def test_rejects_unsorted_ks(self):
        spec = constant_problem()
        grid = Grid(spec.box, (9, 9))
        cfg = SolverConfig(dt=spec.T / 4)
        with pytest.raises(ValueError):
            regularization_cascade(spec, grid, cfg, [4, 2])

    def test_rejects_empty_ks(self):
        spec = constant_problem()
        grid = Grid(spec.box, (9, 9))
        cfg = SolverConfig(dt=spec.T / 4)
        with pytest.raises(ValueError, match="empty"):
            regularization_cascade(spec, grid, cfg, [])

    def test_rejects_closeness_violation(self):
        spec = constant_problem(m=(1.0, 2.0))
        grid = Grid(spec.box, (9, 9))
        cfg = SolverConfig(dt=spec.T / 4)
        with pytest.raises(ValueError):
            regularization_cascade(spec, grid, cfg, [1, 2])

    def test_distances_decrease(self):
        spec = get_preset("aniso-cascade")
        grid = Grid(spec.box, (17, 17))
        cfg = SolverConfig(dt=spec.T / 8)
        res = regularization_cascade(spec, grid, cfg, [2, 4, 8, 16])
        assert all(b < a for a, b in zip(res.distances, res.distances[1:]))

    def test_gradient_norms_uniformly_bounded(self):
        spec = get_preset("aniso-cascade")
        grid = Grid(spec.box, (17, 17))
        cfg = SolverConfig(dt=spec.T / 8)
        res = regularization_cascade(spec, grid, cfg, [4, 8, 16])
        m = spec.exponents.m_min
        norms = [max(gradient_power_norms(ts, m, spec.exponents.p))
                 for ts in res.series]
        assert max(norms) <= 2.0 * min(norms)


class TestRobustness:
    def test_uniqueness_wrt_newton_guess(self):
        spec = get_preset("aniso-cascade")
        grid = Grid(spec.box, (17, 17))
        cfg = SolverConfig(dt=spec.T / 8, k=4)
        a, _ = solve_problem(spec, grid, cfg)
        b, _ = solve_problem(spec, grid, replace(cfg, guess_offset=0.05))
        dev = max(float(np.max(np.abs(x.values - y.values)))
                  for x, y in zip(a.fields, b.fields))
        assert dev <= 10 * cfg.newton_tol

    def test_step_failure_reported(self):
        spec = get_preset("porous-cascade")
        grid = Grid(spec.box, (17,))
        cfg = SolverConfig(dt=spec.T / 4, k=4, newton_max=1,
                           newton_tol=1e-14, guess_offset=0.3)
        with pytest.raises(StepFailure) as exc:
            solve_problem(spec, grid, cfg)
        assert exc.value.step_index >= 0
        assert len(exc.value.residual_history) >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, k=0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, newton_max=-1)
