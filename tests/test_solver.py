import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import anisodnl.solver
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
)
from anisodnl.presets import (
    get_preset,
    make_bump,
    make_constant,
    manufactured_1d_exact,
    manufactured_quartic_exact,
    shifted_problem,
)
from anisodnl.solver import (
    SolverConfig,
    StepFailure,
    _Carry,
    _Layout,
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


def bump_problem(p, m, g, amplitude):
    """Unit coefficients, f = 0, constant boundary value g and a sine bump
    of the given amplitude as initial data on the unit box, T = 0.25."""
    dim = len(p)
    box = (1.0,) * dim
    bump = make_bump(box, amplitude)

    def a(x, t, u):
        return np.full(np.shape(u), 1.0)

    return ProblemSpec(
        box=box, T=0.25, exponents=Exponents(tuple(p), tuple(m)),
        coeffs=CoefficientSpec((a,) * dim, 1.0, 0.0), f=make_constant(0.0),
        g=make_constant(g), u0=lambda x: bump(x, 0.0), sigma=3.0,
        eps0=float(g))


def admissible_exponents(dim):
    """(p, m) with p_j in [1.3, 4], m_j in [1, 1.6] and the closeness
    condition."""
    return st.tuples(
        st.tuples(*[st.floats(1.3, 4.0)] * dim),
        st.tuples(*[st.floats(1.0, 1.6)] * dim),
    ).filter(lambda e: Exponents(*e).closeness_ok)


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


class FullBandFactor:
    """The kept preconditioner as it was before the red-black elimination:
    the banded Cholesky factor of the whole lower band of a 2D/3D k-mode
    Newton matrix.  Stands in for ``_Layout.red_black`` in the reference
    runs."""

    def __init__(self, offsets):
        self.offsets = offsets

    def factor(self, ab):
        full = np.zeros((self.offsets[-1] + 1, ab.shape[1]), order="F")
        full[self.offsets] = ab
        chol = scipy.linalg.cholesky_banded(full, lower=True,
                                            overwrite_ab=True,
                                            check_finite=False)
        return SimpleNamespace(solve=lambda r: scipy.linalg.cho_solve_banded(
            (chol, True), r, check_finite=False))


# k None is direct mode; the id keeps the test names readable
DIRECT = pytest.param(None, id="direct")


def jacobian(prob, faces) -> sp.csr_matrix:
    """Sparse Jacobian of the residual (see ``_StepProblem._face_slopes``),
    with identity rows at the boundary nodes: the reference for the band
    that ``_StepProblem.update`` solves."""
    lay = prob.layout
    n = prob.u_prev.size
    idx = np.arange(n).reshape(prob.grid.counts)
    rows, cols, vals = [], [], []
    diag = np.full(prob.grid.counts, 1.0 / prob.config.dt)
    for j, (g_lo, g_hi) in enumerate(prob._face_slopes(faces)):
        i_lo = idx[lay.lo[j]]
        i_hi = idx[lay.hi[j]]
        diag[lay.lo[j]] += g_lo
        diag[lay.hi[j]] += g_hi
        rows.append(i_lo.ravel())
        cols.append(i_hi.ravel())
        vals.append((-g_hi).ravel())
        rows.append(i_hi.ravel())
        cols.append(i_lo.ravel())
        vals.append((-g_lo).ravel())
    diag[prob.boundary] = 1.0
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    # a boundary row keeps only its diagonal
    keep = (rows == cols) | prob.interior.ravel()[rows]
    J = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(n, n))
    # stored zeros (e.g. -g_lo at a clamped zero when m_j > 1) would
    # change the sparsity pattern and with it the LU ordering
    J.eliminate_zeros()
    return J


def band_order(prob):
    """The flat node indices of the interior unknowns in band order."""
    lay = prob.layout
    return (np.arange(prob.u_prev.size).reshape(prob.grid.counts)[lay.inner]
            .transpose(lay.order).ravel())


def solved_matrix(prob, faces, R):
    """The nonsymmetric interior matrix that ``prob.update`` solves at
    ``faces``, dense in band order, and the CSC matrix it passes to
    ``spsolve`` (None when it solves a tridiagonal band)."""
    seen = {"csc": None}
    solve_banded, spsolve = scipy.linalg.solve_banded, spla.spsolve

    def banded(l_and_u, ab, b, **kwargs):
        seen["dense"] = sp.dia_matrix((ab.copy(), [1, 0, -1]),
                                      shape=(b.size, b.size)).toarray()
        return solve_banded(l_and_u, ab, b, **kwargs)

    def sparse(A, b):
        seen["dense"], seen["csc"] = A.toarray(), A
        return spsolve(A, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "solve_banded", banded)
        mp.setattr(spla, "spsolve", sparse)
        prob.update(faces, R, _Carry())
    return seen["dense"], seen["csc"]


class TestNewtonUpdate:
    # (3,) and (3, 3) have a single interior unknown
    @pytest.mark.parametrize("k", [4, DIRECT])
    @pytest.mark.parametrize("counts", [(33,), (9, 13), (5, 6, 7), (3,),
                                        (3, 3)])
    def test_banded_matches_sparse_lu(self, counts, k):
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=0.01, k=k)
        rng = np.random.default_rng(len(counts))
        prob = _StepProblem(spec, grid, cfg, np.full(counts, 0.6), 0.01)
        u = rng.uniform(0.3, 1.5, counts)
        u[~prob.interior] = prob.bc[~prob.interior]
        R, faces = prob.residual(u)
        ref = spla.spsolve(jacobian(prob, faces), R.ravel())
        carry = _Carry()
        got = prob.update(faces, R, carry)
        assert np.max(np.abs(got.ravel() - ref)) \
            <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[~prob.interior] == 0.0)
        # a fresh carry is filled with the factor of this matrix in 2D/3D
        # k-mode
        assert (carry.factor is not None) == prob.symmetric
        assert prob.symmetric == (k is not None and len(counts) > 1)

    @pytest.mark.parametrize("counts", [(9, 13), (5, 6, 7)])
    @pytest.mark.parametrize("stale_dt", [1.0, 1e-4])
    def test_k_mode_stale_factor(self, counts, stale_dt):
        # the kept factor comes from the same faces at 100 times or 1/100
        # of the dt: CG reaches the relative residual CG_RTOL with it, or
        # the matrix is factored again and the update is the exact solve
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        rng = np.random.default_rng(len(counts))
        u_prev = np.full(counts, 0.6)
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01, k=4), u_prev,
                            0.01)
        u = rng.uniform(0.3, 1.5, counts)
        u[~prob.interior] = prob.bc[~prob.interior]
        R, faces = prob.residual(u)
        carry = _Carry()
        _StepProblem(spec, grid, SolverConfig(dt=stale_dt, k=4), u_prev,
                     0.01).update(faces, R, carry)
        stale = carry.factor
        got = prob.update(faces, R, carry)
        J = jacobian(prob, faces)
        if carry.factor is stale:
            assert np.linalg.norm(J @ got.ravel() - R.ravel()) \
                <= anisodnl.solver.CG_RTOL * np.linalg.norm(R)
        else:
            ref = spla.spsolve(J, R.ravel())
            assert np.max(np.abs(got.ravel() - ref)) \
                <= 1e-12 * np.max(np.abs(ref))
        # which branch runs: the factor at the larger dt preconditions
        # well enough, the one dominated by its diagonal 1/dt does not
        assert (carry.factor is stale) == (stale_dt > 0.01)

    # (9, 13) has odd interior extents, (4, 4) even ones, (3, 3) a single
    # interior node and so no black node, (3, 9) a single interior line
    @pytest.mark.parametrize("counts", [(9, 13), (4, 4), (3, 3), (3, 9),
                                        (5, 6, 7)])
    def test_red_black_factor_is_exact_inverse(self, counts):
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01, k=4),
                            np.full(counts, 0.6), 0.01)
        rng = np.random.default_rng(sum(counts))
        u = rng.uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc[prob.boundary]
        R, faces = prob.residual(u)
        carry = _Carry()
        prob.update(faces, R, carry)
        # the kept matrix on the interior unknowns, in the band order
        lay = prob.layout
        idx = band_order(prob)
        A = jacobian(prob, faces)[idx][:, idx].tocsc()
        n = idx.size
        rb = carry.factor.red_black
        assert (rb.red.size, rb.black.size) == ((n + 1) // 2, n // 2)
        # S keeps A's half-bandwidth, the largest stride
        assert rb.kd <= lay.lower[-1]
        r = rng.standard_normal(n)
        ref = np.atleast_1d(spla.spsolve(A, r))
        got = carry.factor.solve(r)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the same factor made from the band rows of A; an indefinite
        # D_r or S is reported
        ab = np.zeros((len(lay.lower), n))
        for q, s in enumerate(lay.lower):
            ab[q, :n - s] = A.diagonal(-s)
        fac = rb.factor(ab)
        assert np.max(np.abs(fac.solve(r) - ref)) \
            <= 1e-12 * np.max(np.abs(ref))
        with pytest.raises(np.linalg.LinAlgError):
            rb.factor(-ab)
        if rb.black.size:
            ab[0][rb.black] = -1.0
            with pytest.raises(np.linalg.LinAlgError):
                rb.factor(ab)

    @pytest.mark.parametrize("k", [4, 16])
    def test_k_mode_1d_jacobian_matches_central_differences(self, k):
        # blocks of nodes below, inside and above [1/k, k]: every face mean
        # lies clear of 1/k and k, and the truncated coefficient is constant
        # on the faces outside, so its derivative term must vanish there
        spec = get_preset("porous-cascade")
        spec = replace(spec, exponents=Exponents((2.0,), (2.25,)))
        grid = Grid(spec.box, (33,))
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01, k=k),
                            np.full(33, 0.6), 0.01)
        rng = np.random.default_rng(k)
        bands = [(2.0 / k, k / 4.0), (0.3 / k, 0.6 / k),
                 (2.0 / k, k / 4.0), (2.0 * k, 3.0 * k)]
        u = np.array([rng.uniform(*bands[(i // 4) % 4]) for i in range(33)])
        u[prob.boundary] = prob.bc[prob.boundary]
        ubar = face_mean(u, 0)
        assert np.any(ubar < 1.0 / k) and np.any(ubar > k)
        _, faces = prob.residual(u)
        J = jacobian(prob, faces).toarray()
        fd = np.empty_like(J)
        step = 1e-7
        for i in range(u.size):
            e = np.zeros(u.size)
            e[i] = step * max(1.0, u[i])
            fd[:, i] = ((prob.residual(u + e)[0] - prob.residual(u - e)[0])
                        / (2 * e[i]))
        np.testing.assert_allclose(J, fd, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("counts", [(17,), (7, 9), (5, 6, 7)])
    def test_direct_jacobian_matches_central_differences(self, counts):
        # constant coefficients, p_j >= 2, m_j >= 1 and u away from 0: the
        # Newton matrix is the exact Jacobian up to the slope regularization
        # (its interior rows and columns; the boundary rows are identity
        # rows and the boundary residual is 0)
        dim = len(counts)
        spec = constant_problem(0.7, (3.0, 2.0, 2.5)[:dim],
                                (1.5, 1.0, 2.0)[:dim])
        grid = Grid(spec.box, counts)
        u_prev = np.full(counts, 0.6)
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01), u_prev, 0.01)
        u = np.random.default_rng(dim).uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc[prob.boundary]
        R, faces = prob.residual(u)
        J, _ = solved_matrix(prob, faces, R)
        idx = band_order(prob)
        fd = np.empty_like(J)
        step = 1e-6
        for q, i in enumerate(idx):
            e = np.zeros(u.size)
            e[i] = step
            e = e.reshape(counts)
            fd[:, q] = ((prob.residual(u + e)[0] - prob.residual(u - e)[0])
                        / (2 * step)).ravel()[idx]
        np.testing.assert_allclose(J, fd, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("counts", [(9,), (7, 9), (5, 6, 7)])
    def test_direct_jacobian_structure(self, counts):
        # g = 0 and a clamped block of zeros: with m_j > 1 the faces at
        # zero nodes give zero entries, which the CSC matrix passed to
        # spsolve must not store
        dim = len(counts)
        spec = constant_problem(0.0, (3.0, 2.0, 2.5)[:dim],
                                (1.5, 1.2, 2.0)[:dim])
        grid = Grid(spec.box, counts)
        prob = _StepProblem(spec, grid, SolverConfig(dt=0.01),
                            np.full(counts, 0.6), 0.01)
        u = np.random.default_rng(dim).uniform(0.3, 1.5, counts)
        u[prob.boundary] = 0.0
        u[(slice(1, 4),) * dim] = 0.0
        R, faces = prob.residual(u)
        J, csc = solved_matrix(prob, faces, R)
        idx = band_order(prob)
        ref = jacobian(prob, faces)[idx][:, idx].toarray()
        np.testing.assert_allclose(J, ref, rtol=1e-14, atol=0.0)
        # the clamped zeros take couplings out of the 3-, 5- or 7-point
        # pattern
        ext = [c - 2 for c in counts]
        pairs = sum(int(np.prod(ext)) // e * (e - 1) for e in ext)
        assert np.count_nonzero(ref) < idx.size + 2 * pairs
        assert (csc is None) == (dim == 1)
        if csc is not None:
            assert csc.format == "csc"
            assert csc.nnz == np.count_nonzero(csc.data) \
                == np.count_nonzero(ref)
            # column-major keys strictly increase: sorted, no duplicates
            n = idx.size
            col = np.repeat(np.arange(n), np.diff(csc.indptr))
            assert np.all(np.diff(col * n + csc.indices) > 0)

    @pytest.mark.parametrize("name, counts, ks, n_steps, iters", [
        ("aniso-cascade", (17, 17), [2, 4, 8, 16], 8, [29, 29, 29, 30]),
        ("porous-cascade", (65,), [1, 2, 4, 8, 16], 16,
         [16, 39, 37, 38, 39]),
    ])
    def test_k_mode_newton_counts(self, name, counts, ks, n_steps, iters):
        # counts recorded with Newton started from the extrapolation of the
        # last two fields; 2D with the CG solve on the kept Cholesky factor
        # to CG_RTOL, 1D with the exact Jacobian by banded LU
        spec = get_preset(name)
        grid = Grid(spec.box, counts)
        res = regularization_cascade(
            spec, grid, SolverConfig(dt=spec.T / n_steps), ks)
        assert [r.total_iterations for r in res.reports] == iters
        if len(counts) == 1:
            assert not any(s.fallback for r in res.reports for s in r.steps)

    @pytest.mark.parametrize("name, counts, iters", [
        ("varcoeff", (17, 17), 22),
        ("aniso-cascade", (17, 17), 26),
        ("varcoeff-3d", (5, 6, 7), 32),
        ("manufactured-quartic", (65,), 8),
    ])
    def test_direct_mode_newton_counts(self, name, counts, iters):
        # counts recorded with the CSR Newton matrix on every node solved
        # by spsolve; the interior band gives the same counts
        spec = varcoeff_problem(3) if name == "varcoeff-3d" \
            else get_preset(name)
        grid = Grid(spec.box, counts)
        _, rep = solve_problem(spec, grid, SolverConfig(dt=spec.T / 8))
        assert rep.total_iterations == iters
        assert rep.max_residual <= SolverConfig(dt=spec.T / 8).newton_tol

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
            fluxes.append(eval_flux(spec, j, x_face, t, uf, xi, k=k))
    R = (u - u_prev) / dt - spec.f(x, t) - divergence(grid, fluxes).values
    bc = spec.g(x, t) + (0.0 if k is None else 1.0 / k)
    boundary = grid.boundary_mask()
    R[boundary] = u[boundary] - bc[boundary]
    return R


class TestStepProblem:
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("k", [4, DIRECT])
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

    @pytest.mark.parametrize("k", [4, DIRECT])
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

        def recorded_step(u_n, t_next, spec, config, **kwargs):
            step_dts.append(config.dt)
            return step(u_n, t_next, spec, config, **kwargs)

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
        got = manufactured_rhs(exact, spec, k=4)(x, t)
        expect = (x[0] * (1.0 - x[0])
                  - 2.0 * (t * t * (1.0 - 2.0 * x[0]) ** 2 - 2.0 * t * u))
        assert np.allclose(got, expect, rtol=0.0, atol=1e-8)
        # k = 1: T_1 is identically 1
        got = manufactured_rhs(exact, spec, k=1)(x, t)
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

    def test_repeated_cascade_is_bit_identical(self):
        # each solve keeps its own factor and previous field: nothing
        # passes from one cascade to the next
        spec = get_preset("aniso-cascade")
        grid = Grid(spec.box, (17, 17))
        cfg = SolverConfig(dt=spec.T / 8)
        a, b = (regularization_cascade(spec, grid, cfg, [2, 4])
                for _ in range(2))
        for sa, sb in zip(a.series, b.series):
            assert np.array_equal(sa.values_array(), sb.values_array())
        assert a.as_dict() == b.as_dict()

    @pytest.mark.parametrize("name, counts, ks, dt_steps", [
        ("aniso-cascade", (17, 17), [2, 4, 8, 16], 8),
        # dt does not divide T: the last step is shortened
        ("porous-cascade", (65,), [1, 2, 4, 8, 16], 15.5),
    ])
    def test_carried_state_matches_fresh_steps(self, name, counts, ks,
                                               dt_steps, monkeypatch):
        # the kept factor and the extrapolated first iterate change how
        # Newton gets there, not where it ends: every field agrees with
        # steps that start from u_n with no factor kept
        spec = get_preset(name)
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / dt_steps)
        warm = regularization_cascade(spec, grid, cfg, ks)
        step = implicit_step

        def fresh_step(u_n, t_next, spec, config, carry):
            return step(u_n, t_next, spec, config, carry=None)

        monkeypatch.setattr(anisodnl.solver, "implicit_step", fresh_step)
        cold = regularization_cascade(spec, grid, cfg, ks)
        tol = ordering_tolerance(cfg, spec.T)
        for sw, sc in zip(warm.series, cold.series):
            assert [f.t for f in sw.fields] == [f.t for f in sc.fields]
            assert np.max(np.abs(sw.values_array() - sc.values_array())) \
                <= tol
        assert warm.distances == pytest.approx(cold.distances, rel=1e-6)
        assert (sum(r.total_iterations for r in warm.reports)
                < sum(r.total_iterations for r in cold.reports))

    def test_red_black_matches_full_band_preconditioner(self, monkeypatch):
        # the same preconditioner, applied through the block elimination
        # instead of the full-band factor: CG makes the same iterates up to
        # rounding, so the Newton counts and the fields agree
        spec = get_preset("aniso-cascade")
        grid = Grid(spec.box, (17, 17))
        cfg = SolverConfig(dt=spec.T / 8)
        ks = [2, 4, 8]
        got = regularization_cascade(spec, grid, cfg, ks)
        monkeypatch.setattr(_Layout, "red_black", property(
            lambda lay: FullBandFactor(lay.lower)))
        ref = regularization_cascade(spec, grid, cfg, ks)
        assert ([r.total_iterations for r in got.reports]
                == [r.total_iterations for r in ref.reports])
        for sg, sr in zip(got.series, ref.series):
            assert np.max(np.abs(sg.values_array() - sr.values_array())) \
                <= 1e-12
        assert got.distances == pytest.approx(ref.distances, rel=1e-12)

    @pytest.mark.parametrize("counts", [(9,), (9, 9)])
    def test_extrapolated_start_exact_for_linear_growth(self, counts):
        # u = 0.7 + 1/k + 0.5 t is flat in space and linear in time, so
        # backward Euler reproduces it and the extrapolated first iterate
        # is already the step's solution, the shortened last step included
        spec = replace(constant_problem(p=(3.0, 2.0)[:len(counts)],
                                        m=(1.0, 1.5)[:len(counts)]),
                       f=make_constant(0.5),
                       g=lambda x, t: np.full(np.shape(x[0]), 0.7 + 0.5 * t))
        cfg = SolverConfig(dt=spec.T / 3.5, k=2)
        ts, rep = solve_problem(spec, Grid(spec.box, counts), cfg)
        assert ts.fields[-1].t == spec.T
        assert [s.iterations for s in rep.steps][1:] == [0, 0, 0]
        exact = 0.7 + 1.0 / cfg.k + 0.5 * spec.T
        assert np.max(np.abs(ts.fields[-1].values - exact)) <= cfg.newton_tol

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

    @pytest.mark.parametrize("ks", [[2.5, 4], [True, 2], [2, None],
                                    [2, 4.5]])
    def test_rejects_non_integer_ks_before_solving(self, ks, monkeypatch):
        # int() used to truncate 2.5 to 2 and True to 1 and run the result
        def no_member(*args):
            raise AssertionError("a member was solved")

        monkeypatch.setattr(anisodnl.solver, "solve_problem", no_member)
        spec = get_preset("porous-cascade")
        grid = Grid(spec.box, (9,))
        cfg = SolverConfig(dt=spec.T / 2)
        with pytest.raises(ValueError, match="ks must be positive integers"):
            regularization_cascade(spec, grid, cfg, ks)

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
        # the message names the step that solve_problem records
        assert str(exc.value).startswith(
            f"step {exc.value.step_index} failed, final residual ")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, k=0)
        assert SolverConfig(dt=0.1).k is None

    @pytest.mark.parametrize("k", [True, 2.0, "direct", 0])
    def test_k_must_be_positive_int_or_none(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            SolverConfig(dt=0.1, k=k)
        spec = get_preset("manufactured-1d")
        with pytest.raises(ValueError, match="k must be a positive integer"):
            manufactured_rhs(manufactured_1d_exact, spec, k=k)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, newton_max=-1)

    @pytest.mark.parametrize("key, value, message", [
        ("dt", True, "dt must be a number, not a bool"),
        ("newton_tol", True, "newton_tol must be a number, not a bool"),
        ("guess_offset", False, "guess_offset must be a number, not a bool"),
        pytest.param("guess_offset", np.True_,
                     "guess_offset must be a number, not a bool",
                     id="guess_offset-numpy-True"),
        ("newton_max", 2.5, "newton_max must be a nonnegative integer"),
        ("newton_max", True, "newton_max must be a nonnegative integer"),
        ("newton_max", -1, "newton_max must be a nonnegative integer"),
        ("newton_tol", float("inf"), "newton_tol must be positive and finite"),
        ("newton_tol", float("nan"), "newton_tol must be positive and finite"),
        ("newton_tol", 0.0, "newton_tol must be positive and finite"),
        ("guess_offset", float("nan"), "guess_offset must be finite"),
        ("guess_offset", float("-inf"), "guess_offset must be finite"),
    ])
    def test_config_rejects_invalid_newton_settings(self, key, value,
                                                    message):
        # newton_max 2.5 used to fail inside the Newton loop and True to
        # run as 1; newton_tol inf accepted every step unverified; dt True
        # ran as 1
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{"dt": 0.1, key: value})

    def test_direct_mode_step_converges_where_the_fallback_froze(self):
        # a direct-2d benchmark draw that the lagged-diffusivity fallback
        # once stalled at residual 7.5e-5 in step 31; damped Newton solves
        # every step
        spec = bump_problem((1.665, 2.526), (1.072, 1.021), 0.468, 0.232)
        cfg = SolverConfig(dt=spec.T / 32)
        _, rep = solve_problem(spec, Grid(spec.box, (33, 33)), cfg)
        assert len(rep.steps) == 32
        assert rep.max_residual <= cfg.newton_tol

    @pytest.mark.xfail(strict=True, raises=StepFailure, reason=(
        "ROADMAP item 1: for p_j < 2 the residual flux is not regularized "
        "like the Newton matrix, and Newton stalls above newton_tol at "
        "step 7"))
    def test_k_mode_step_with_p_below_two_converges(self):
        spec = bump_problem((3.845, 1.468), (1.028, 1.062), 0.0, 0.746)
        cfg = SolverConfig(dt=spec.T / 8, k=4)
        _, rep = solve_problem(spec, Grid(spec.box, (9, 9)), cfg)
        assert rep.max_residual <= cfg.newton_tol

    @given(exps=st.sampled_from([1, 2]).flatmap(admissible_exponents),
           k=st.sampled_from([None, 4]), g=st.floats(0.0, 0.5),
           amplitude=st.floats(0.2, 1.0))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_step_converges_or_fails_named(self, exps, k, g, amplitude):
        # every admissible solve ends in a converged report or in a
        # StepFailure that names its step and its unconverged residual
        p, m = exps
        spec = bump_problem(p, m, g, amplitude)
        cfg = SolverConfig(dt=spec.T / 8, k=k)
        grid = Grid(spec.box, (17,) if len(p) == 1 else (9, 9))
        try:
            _, rep = solve_problem(spec, grid, cfg)
        except StepFailure as exc:
            assert exc.step_index >= 0
            assert exc.residual_history[-1] > cfg.newton_tol
        else:
            assert len(rep.steps) == 8
            assert rep.max_residual <= cfg.newton_tol
