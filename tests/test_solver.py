import gc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import anisodnl.solver
from anisodnl.analysis import (comparison_check, gradient_power_norms,
                               ordering_excess)
from anisodnl.discretization import (
    Grid,
    ScalarField,
    axis_slices,
    divergence,
    face_diff_power,
    face_mean,
    integrate_power,
)
from anisodnl.model import (
    EPS_REG,
    CoefficientSpec,
    Exponents,
    ProblemSpec,
    evaluate,
    flux,
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
    _Layout,
    _RedBlack,
    _StepProblem,
    _march,
    _matvec,
    _stacked_step,
    _start,
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


def couplings(shape):
    """The flat band-order indices (lo, hi) of the two interior nodes of
    every coupling, band axis by band axis, each in band order: the order
    of the couplings w of ``_StepProblem.assemble``, whose first half holds
    the entries (hi, lo) and whose second half the entries (lo, hi)."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    lo = [idx[axis_slices(len(shape), q, slice(0, -1))].ravel()
          for q in range(len(shape))]
    hi = [idx[axis_slices(len(shape), q, slice(1, None))].ravel()
          for q in range(len(shape))]
    return np.concatenate(lo), np.concatenate(hi)


def full_band_factor(d, w, lo, hi):
    """The banded Cholesky factor of the whole lower band of the symmetric
    operator (d, w) of a 2D/3D k-mode Newton matrix, whose couplings join
    the nodes (lo, hi): the preconditioner of ``full_system_pcg``."""
    full = np.zeros((int(np.max(hi - lo, initial=0)) + 1, d.size),
                    order="F")
    full[0] = d
    # entry (hi, lo) in row hi - lo of column lo
    full[hi - lo, lo] = w
    chol = scipy.linalg.cholesky_banded(full, lower=True, overwrite_ab=True,
                                        check_finite=False)
    return SimpleNamespace(solve=lambda r: scipy.linalg.cho_solve_banded(
        (chol, True), r, check_finite=False))


def full_system_pcg(rb, shape, d, w, b):
    """The reference for ``_RedBlack.solve`` of a symmetric operator (d, w)
    on interior ``shape``: CG on the whole interior system to the relative
    residual CG_RTOL, preconditioned by the full-band factor of an earlier
    matrix, kept as ``rb.kept``.  The matrix is factored first when no
    factor is kept, and factored and solved exactly when CG does not
    converge within CG_MAX iterations; a solve that converges after
    CG_RENEW or more iterations drops the factor, so the next one factors
    its own matrix."""
    n = b.size
    lo, hi = couplings(shape)
    lower = sp.coo_matrix((w, (hi, lo)), shape=(n, n))
    A = (lower + lower.T + sp.diags(d)).tocsr()
    if rb.kept is None:
        rb.kept = full_band_factor(d, w, lo, hi)
    iterates = []
    x, info = spla.cg(A, b, rtol=anisodnl.solver.CG_RTOL, atol=0.0,
                      maxiter=anisodnl.solver.CG_MAX,
                      M=spla.LinearOperator((n, n), rb.kept.solve,
                                            dtype=float),
                      callback=iterates.append)
    if info != 0:
        rb.kept = full_band_factor(d, w, lo, hi)
        x = rb.kept.solve(b)
    elif len(iterates) >= anisodnl.solver.CG_RENEW:
        rb.kept = None
    return x


def counting_cg(monkeypatch):
    """Replace ``spla.cg`` by a wrapper that records the iteration count
    and exit code of each call, and return the list it appends them to."""
    runs, cg = [], spla.cg

    def counted(A, b, callback=None, **kwargs):
        iterates = []

        def record(x):
            iterates.append(x)
            if callback is not None:
                callback(x)

        x, info = cg(A, b, callback=record, **kwargs)
        runs.append((len(iterates), info))
        return x, info

    monkeypatch.setattr(spla, "cg", counted)
    return runs


# k None is direct mode; the id keeps the test names readable
DIRECT = pytest.param(None, id="direct")


def one_member(spec, grid, cfg, u_prev, t_next, layout=None):
    """The _StepProblem of one field at level cfg.k: a stack of one, on
    ``layout`` or a fresh layout of ``grid``."""
    return _StepProblem(spec, cfg, (cfg.k,), u_prev[None], t_next,
                        _Layout(grid) if layout is None else layout)


def residual(prob, u):
    """The residual of a one-member problem at the field u, as a field,
    and the face data of the stack of one."""
    R, faces = prob.residual(u[None])
    return R[0], faces


def update(prob, faces, R):
    """The Newton update of a one-member problem, as a field, or the
    LinAlgError that names why its system cannot be solved."""
    delta, failed = prob.update(faces, R[None], np.ones(1, dtype=bool))
    if failed is not None:
        raise failed[1]
    return delta[0]


def assemble(prob, faces, R):
    """The operator (d, w) and interior residual b of a one-member
    problem."""
    return tuple(a[0] for a in prob.unpack(prob.assemble(faces, R[None])))


def jacobian(prob, faces) -> sp.csr_matrix:
    """Sparse Jacobian of the residual (see ``_StepProblem._face_slopes``),
    with identity rows at the boundary nodes: the reference for the band
    that ``_StepProblem.update`` solves."""
    lay = prob.layout
    n = prob.u_prev.size
    idx = np.arange(n).reshape(prob.grid.counts)
    rows, cols, vals = [], [], []
    diag = np.full(prob.grid.counts, 1.0 / prob.config.dt)
    for j, slopes in enumerate(prob._face_slopes(faces)):
        g_lo, g_hi = (g[0] for g in slopes)
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
    ``faces``, dense in band order, rebuilt from the operator (d, w) of
    ``prob.assemble``: the diagonal d, the first half of w at the entries
    (hi, lo) of the couplings and the second half at (lo, hi)."""
    d, w, b = assemble(prob, faces, R)
    lo, hi = couplings(prob.layout.shape)
    assert d.shape == b.shape and w.shape == (2 * lo.size,)
    J = np.diag(d)
    J[hi, lo] = w[:lo.size]
    J[lo, hi] = w[lo.size:]
    return J


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
        prob = one_member(spec, grid, cfg, np.full(counts, 0.6), 0.01)
        u = rng.uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        ref = spla.spsolve(jacobian(prob, faces), R.ravel())
        got = update(prob, faces, R)
        assert np.max(np.abs(got.ravel() - ref)) \
            <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[~prob.interior] == 0.0)
        # a fresh layout keeps the factor of this matrix in 2D/3D k-mode;
        # the operator of a single interior node has no couplings and
        # reads as symmetric in both modes
        kept = (len(counts) > 1
                and prob.layout.red_black[0].kept is not None)
        assert kept == (prob.symmetric or counts == (3, 3))
        assert prob.symmetric == (k is not None and len(counts) > 1)

    # (3, 3) has a single interior node and no black one, (4, 4) and
    # (10, 10) even interior extents, (3, 9) a single interior line,
    # (5, 6, 7) one even extent; the clamped iterate holds a block of
    # zeros, where m_j > 1 makes whole columns of couplings vanish
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("counts", [(3, 3), (4, 4), (3, 9), (9, 13),
                                        (10, 10), (5, 6, 7)])
    def test_direct_update_matches_sparse_lu(self, counts, clamped):
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        prob = one_member(spec, grid, SolverConfig(dt=0.01),
                          np.full(counts, 0.6), 0.01)
        u = np.random.default_rng(sum(counts)).uniform(0.3, 1.5, counts)
        if clamped:
            u[(slice(1, 4),) * len(counts)] = 0.0
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        ref = np.atleast_1d(spla.spsolve(jacobian(prob, faces), R.ravel()))
        got = update(prob, faces, R)
        assert np.max(np.abs(got.ravel() - ref)) \
            <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[prob.boundary] == 0.0)

    @pytest.mark.parametrize("counts", [(33,), (3, 3), (4, 4), (9, 13),
                                        (5, 6, 7)])
    def test_direct_lapack_calls(self, counts, monkeypatch):
        # 1D: one dgtsv call on the n - 1 sub-diagonal, n diagonal and
        # n - 1 super-diagonal entries of (d, w); 2D/3D: no dgtsv call,
        # and dgbsv gets the floor(n/2) black unknowns
        # of the red-black Schur complement, with half-bandwidth kd on both
        # sides, in Fortran order (so no copy), unless there is no black
        # node
        spec = varcoeff_problem(len(counts))
        prob = one_member(spec, Grid(spec.box, counts),
                          SolverConfig(dt=0.01), np.full(counts, 0.6), 0.01)
        u = np.random.default_rng(7).uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        n = int(np.prod([c - 2 for c in counts]))
        calls = []
        dgtsv, dgbsv = lapack.dgtsv, lapack.dgbsv

        def gtsv(dl, d, du, b, **kwargs):
            calls.append(("dgtsv", dl.size, d.size, du.size, b.size))
            return dgtsv(dl, d, du, b, **kwargs)

        def gbsv(kl, ku, ab, b, **kwargs):
            calls.append(("dgbsv", kl, ku, ab.shape, b.size,
                          ab.flags.f_contiguous))
            return dgbsv(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(lapack, "dgtsv", gtsv)
        monkeypatch.setattr(lapack, "dgbsv", gbsv)
        update(prob, faces, R)
        if len(counts) == 1:
            assert calls == [("dgtsv", n - 1, n, n - 1, n)]
            return
        rb = prob.layout.red_black[0]
        kd = rb.kd
        assert rb.black.size == n // 2
        assert calls == ([("dgbsv", kd, kd, (3 * kd + 1, n // 2), n // 2,
                           True)] if n > 1 else [])
        # a red diagonal entry that is 0 or not finite is a singular
        # matrix, reported before any division by it
        d, w, b = assemble(prob, faces, R)
        for bad in (0.0, np.inf, np.nan):
            broken = d.copy()
            broken[rb.red[-1]] = bad
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                rb.solve(broken, w, b)

    @pytest.mark.parametrize("k", [4, DIRECT])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 1023])
    def test_1d_update_is_solve_banded(self, n, k, monkeypatch):
        # dgtsv on (d, w) is the LU that solve_banded runs on the three
        # band rows of the same operator, bit for bit; the update leaves R
        # as it was (the right-hand side is a view of it), and a zero pivot
        # is a singular matrix, the cause that implicit_step reports: a
        # zero last column, met after dgtsv has written to the member's
        # rows, which still end as a zero update
        spec = varcoeff_problem(1)
        grid = Grid(spec.box, (n + 2,))
        cfg = SolverConfig(dt=0.01, k=k)
        u_prev = np.full(grid.counts, 0.6)
        prob = one_member(spec, grid, cfg, u_prev, 0.01)
        u = np.random.default_rng(n).uniform(0.3, 1.5, grid.counts)
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        d, w, b = assemble(prob, faces, R)
        ab = np.zeros((3, n))
        ab[0, 1:] = w[n - 1:]
        ab[1] = d
        ab[2, :-1] = w[:n - 1]
        ref = scipy.linalg.solve_banded((1, 1), ab, b)
        R_before = R.copy()
        got = update(prob, faces, R)
        assert np.array_equal(got[1:-1], ref)
        assert got[0] == got[-1] == 0.0
        assert np.array_equal(R, R_before)

        stacked = _StepProblem.assemble

        def zero_last_column(self, faces, R):
            # d's last entry and, above it, the last of w's second half
            system = stacked(self, faces, R)
            d, w, _ = self.unpack(system)
            d[:, -1] = 0.0
            w[:, -1:] = 0.0
            return system

        monkeypatch.setattr(_StepProblem, "assemble", zero_last_column)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            update(prob, faces, R)
        delta, _ = prob.update(faces, R[None], np.ones(1, dtype=bool))
        assert np.all(delta == 0.0)
        with pytest.raises(StepFailure) as exc:
            implicit_step(ScalarField(grid, u_prev, 0.0), 0.01, spec, cfg)
        assert exc.value.cause == "singular"

    @pytest.mark.parametrize("ks", [(2, 4, 8), (None,) * 3],
                             ids=["k", "direct"])
    def test_1d_update_solves_each_live_member_alone(self, ks, monkeypatch):
        # each live member of a 1D stack gets a dgtsv call of its own on
        # its n unknowns, in stack order, and the bits of the update of a
        # stack of one; a member that is not live gets no call and a zero
        # update
        spec = varcoeff_problem(1)
        n = 31
        grid = Grid(spec.box, (n + 2,))
        cfg = SolverConfig(dt=0.01)
        u_prev = np.full((3, n + 2), 0.6)
        prob = _StepProblem(spec, cfg, ks, u_prev, 0.01, _Layout(grid))
        u = np.random.default_rng(3).uniform(0.3, 1.5, u_prev.shape)
        u[prob.layout.edge] = prob.bc_boundary
        R, faces = prob.residual(u)
        calls, dgtsv = [], lapack.dgtsv

        def gtsv(dl, d, du, b, **kwargs):
            calls.append((dl.size, d.size, du.size, b.size))
            return dgtsv(dl, d, du, b, **kwargs)

        monkeypatch.setattr(lapack, "dgtsv", gtsv)
        live = np.array([True, False, True])
        delta, failed = prob.update(faces, R, live)
        assert failed is None
        assert calls == [(n - 1, n, n - 1, n)] * 2
        assert np.all(delta[1] == 0.0)
        for a in (0, 2):
            alone = one_member(spec, grid, replace(cfg, k=ks[a]),
                               u_prev[a], 0.01)
            R_a, faces_a = residual(alone, u[a])
            assert np.array_equal(delta[a], update(alone, faces_a, R_a))
        # the first member whose system is not finite stops the loop: it
        # and the later members keep a zero update
        u[1, 5] = np.nan
        R, faces = prob.residual(u)
        calls.clear()
        got, failed = prob.update(faces, R, np.ones(3, dtype=bool))
        assert failed[0] == 1 and str(failed[1]) == (
            "Newton system is not finite")
        assert calls == [(n - 1, n, n - 1, n)]
        assert np.array_equal(got[0], delta[0])
        assert np.all(got[1:] == 0.0)

    def test_direct_singular_schur_complement(self, monkeypatch):
        # on 2 x 2 interior nodes with unit couplings, each black node
        # couples to both red ones: with D_r = 1 and D_b = 4,
        # S = D_b - C^T D_r^-1 B = [[2, -2], [-2, 2]], whose LU has an exact
        # zero pivot, which dgbsv reports (the red diagonal is regular)
        rb = _RedBlack((2, 2))
        d = np.ones(4)
        d[rb.black] = 4.0
        dgbsv, calls = lapack.dgbsv, []

        def gbsv(*args, **kwargs):
            calls.append(args[2].shape)
            return dgbsv(*args, **kwargs)

        monkeypatch.setattr(lapack, "dgbsv", gbsv)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            rb.solve(d, np.ones(8), np.ones(4))
        assert calls == [(3 * rb.kd + 1, 2)]

    # interior (n, n) gives S the half-bandwidth n, (n, n, n) gives n^2
    @pytest.mark.parametrize("shape, kd, band", [
        ((7, 7), 7, 7), ((15, 15), 15, 16), ((31, 31), 31, 32),
        ((63, 63), 63, 64), ((127, 127), 127, 128),
        ((15, 15, 15), 225, 225), ((23, 23, 23), 529, 529),
        ((31, 31, 31), 961, 961)])
    def test_band_storage_width(self, shape, kd, band):
        # S is stored one row wider when that makes its width a multiple
        # of BAND_STEP, and kd stays its true half-bandwidth
        rb = _RedBlack(shape)
        assert (rb.kd, rb.band) == (kd, band)

    @pytest.mark.parametrize("shape", [(31, 31), (63, 63), (7, 8, 9)])
    def test_matvec_is_scipy_product(self, shape):
        # _matvec runs scipy's private kernels of the CSR blocks B, C and
        # of their CSC transposes Bt, Ct; each product has the bits of
        # scipy's own, so a scipy whose kernels differ fails here
        rb = _RedBlack(shape)
        rng = np.random.default_rng(len(shape))
        n = int(np.prod(shape))
        # both halves of w: B and C hold different entries
        rb.fill(rng.uniform(1.0, 2.0, n),
                rng.lognormal(0.0, 3.0, 2 * rb.sort.size))
        x_b = rng.normal(size=rb.black.size)
        x_r = rng.normal(size=rb.red.size)
        for block, x, fmt in ((rb.B, x_b, "csr"), (rb.C, x_b, "csr"),
                              (rb.Bt, x_r, "csc"), (rb.Ct, x_r, "csc")):
            assert block.format == fmt
            assert np.array_equal(_matvec(block, x), block @ x)

    @pytest.mark.parametrize("k", [4, DIRECT])
    @pytest.mark.parametrize("counts", [(33, 33), (65, 65)])
    def test_wide_band_lapack_calls(self, counts, k, monkeypatch):
        # the 2D grids of 2^j + 1 nodes give S the half-bandwidth
        # 2^j - 1, which is stored at 2^j: dgbsv gets kl = ku = band and
        # 3 band + 1 rows, dpbtrf and dpbtrs band + 1 rows; the added rows
        # of S and of the kept factor are exact zeros, and the update is
        # still the solve of the Jacobian
        spec = varcoeff_problem(2)
        prob = one_member(spec, Grid(spec.box, counts),
                          SolverConfig(dt=0.01, k=k), np.full(counts, 0.6),
                          0.01)
        u = np.random.default_rng(counts[0]).uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        n_b = (counts[0] - 2) ** 2 // 2
        kd = counts[0] - 2
        calls, bands = [], []
        originals = {name: getattr(lapack, name)
                     for name in ("dgbsv", "dpbtrf", "dpbtrs")}

        def gbsv(kl, ku, ab, b, **kwargs):
            calls.append(("dgbsv", kl, ku, ab.shape, b.size))
            bands.append(ab.copy())
            return originals["dgbsv"](kl, ku, ab, b, **kwargs)

        def pbtrf(ab, **kwargs):
            calls.append(("dpbtrf", ab.shape))
            bands.append(ab.copy())
            return originals["dpbtrf"](ab, **kwargs)

        def pbtrs(ab, b, **kwargs):
            calls.append(("dpbtrs", ab.shape, b.size))
            return originals["dpbtrs"](ab, b, **kwargs)

        for name, wrapper in (("dgbsv", gbsv), ("dpbtrf", pbtrf),
                              ("dpbtrs", pbtrs)):
            monkeypatch.setattr(lapack, name, wrapper)
        got = update(prob, faces, R)
        rb = prob.layout.red_black[0]
        assert (rb.kd, rb.band) == (kd, kd + 1)
        band = rb.band
        [s] = bands
        if k is None:
            assert calls == [("dgbsv", band, band, (3 * band + 1, n_b), n_b)]
            # row 2 band holds the diagonal, row 2 band - i the i-th
            # super- and row 2 band + i the i-th sub-diagonal; the rows
            # above are left for the fill-in
            assert not s[:2 * band - kd].any()
            assert not s[2 * band + kd + 1:].any()
            assert s[2 * band - kd].any() and s[2 * band + kd].any()
        else:
            assert calls[0] == ("dpbtrf", (band + 1, n_b))
            assert len(calls) > 1
            assert set(calls[1:]) == {("dpbtrs", (band + 1, n_b), n_b)}
            # row i holds the i-th sub-diagonal, of S and of its factor
            assert s[kd].any() and not s[kd + 1:].any()
            assert rb.kept.shape == (band + 1, n_b)
            assert rb.kept[kd].any() and not rb.kept[kd + 1:].any()
        ref = spla.spsolve(jacobian(prob, faces), R.ravel())
        assert np.max(np.abs(got.ravel() - ref)) \
            <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("counts", [(9, 13), (5, 6, 7), (5, 7, 9),
                                        (10, 10)])
    @pytest.mark.parametrize("stale", [1.0, 1e-4, "other-iterate", 0.012])
    def test_k_mode_stale_factor(self, counts, stale, monkeypatch):
        # the kept factor comes from the same faces at 100 times, 1/100 or
        # 1.2 times the dt, or from the faces of another random iterate at
        # the same dt.  When CG converges, ||J delta - R|| <= CG_RTOL ||R||,
        # and the factor stays kept after fewer than CG_RENEW iterations
        # and is dropped after more; when CG does not converge within
        # CG_MAX, the matrix is factored again and the update is the exact
        # solve
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        rng = np.random.default_rng(len(counts))
        u_prev = np.full(counts, 0.6)
        # both problems share one layout, and with it the kept factor
        lay = _Layout(grid)
        prob = one_member(spec, grid, SolverConfig(dt=0.01, k=4), u_prev,
                          0.01, lay)
        u = rng.uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        if stale == "other-iterate":
            v = rng.uniform(0.3, 1.5, counts)
            v[prob.boundary] = prob.bc_boundary[0]
            R_v, faces_v = residual(prob, v)
            update(prob, faces_v, R_v)
        else:
            update(one_member(spec, grid, SolverConfig(dt=stale, k=4),
                              u_prev, 0.01, lay), faces, R)
        rb = lay.red_black[0]
        stale_factor = rb.kept
        assert stale_factor is not None
        runs = counting_cg(monkeypatch)
        got = update(prob, faces, R)
        J = jacobian(prob, faces)
        [(iterations, info)] = runs
        if info == 0:
            assert np.linalg.norm(J @ got.ravel() - R.ravel()) \
                <= anisodnl.solver.CG_RTOL * np.linalg.norm(R)
            renews = iterations >= anisodnl.solver.CG_RENEW
            assert rb.kept is (None if renews else stale_factor)
            outcome = "renews" if renews else "keeps"
        else:
            assert (iterations, info) == (anisodnl.solver.CG_MAX,) * 2
            ref = spla.spsolve(J, R.ravel())
            assert np.max(np.abs(got.ravel() - ref)) \
                <= 1e-12 * np.max(np.abs(ref))
            assert rb.kept is not None and rb.kept is not stale_factor
            outcome = "refactors"
        # which branch runs: the factor at 1.2 times the dt preconditions
        # well, the one at 100 times the dt well enough, the one of
        # unrelated random slopes not at all; the one dominated by its
        # diagonal 1/dt does not in 2D, but the reduced systems of
        # (5, 6, 7) and (5, 7, 9) have only 30 and 52 unknowns, and CG
        # reaches CG_RTOL there within CG_MAX iterations
        expected = {0.012: "keeps", 1.0: "renews",
                    1e-4: "renews" if len(counts) == 3 else "refactors",
                    "other-iterate": "refactors"}
        assert outcome == expected[stale]

    @pytest.mark.parametrize("counts", [(9, 13), (10, 10), (5, 7, 9)])
    def test_slow_solve_renews_the_factor_for_the_next(self, counts,
                                                       monkeypatch):
        # a solve that CG brings to CG_RTOL only after CG_RENEW or more
        # iterations keeps its result and drops the kept factor; the next
        # solve, of another iterate, factors its own S once, and CG
        # converges at its first iterate
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        rng = np.random.default_rng(len(counts))
        u_prev = np.full(counts, 0.6)
        lay = _Layout(grid)
        prob = one_member(spec, grid, SolverConfig(dt=0.01, k=4), u_prev,
                          0.01, lay)
        u, v = rng.uniform(0.3, 1.5, (2,) + counts)
        u[prob.boundary] = v[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        # a factor at 100 times the dt: slow, but within CG_MAX
        update(one_member(spec, grid, SolverConfig(dt=1.0, k=4), u_prev,
                          0.01, lay), faces, R)
        rb = lay.red_black[0]
        factors = []
        factor = _RedBlack.factor
        monkeypatch.setattr(_RedBlack, "factor", lambda *args: (
            factors.append(1), factor(*args))[1])
        runs = counting_cg(monkeypatch)
        update(prob, faces, R)
        [(iterations, info)] = runs
        assert info == 0
        assert anisodnl.solver.CG_RENEW <= iterations \
            < anisodnl.solver.CG_MAX
        assert rb.kept is None and not factors
        R_v, faces_v = residual(prob, v)
        got = update(prob, faces_v, R_v)
        assert runs[1:] == [(1, 0)] and factors == [1]
        assert rb.kept is not None
        J = jacobian(prob, faces_v)
        assert np.linalg.norm(J @ got.ravel() - R_v.ravel()) \
            <= anisodnl.solver.CG_RTOL * np.linalg.norm(R_v)

    # (9, 13) has odd interior extents, (4, 4) even ones, (3, 3) a single
    # interior node and so no black node, (3, 9) a single interior line,
    # (5, 6, 7) one even extent
    @pytest.mark.parametrize("counts", [(9, 13), (4, 4), (3, 3), (3, 9),
                                        (5, 6, 7)])
    def test_red_black_factor_is_exact_inverse(self, counts, monkeypatch):
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        prob = one_member(spec, grid, SolverConfig(dt=0.01, k=4),
                          np.full(counts, 0.6), 0.01)
        rng = np.random.default_rng(sum(counts))
        u = rng.uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc_boundary[0]
        _, faces = residual(prob, u)
        # the matrix on the interior unknowns, in the band order
        lay = prob.layout
        idx = band_order(prob)
        A = jacobian(prob, faces)[idx][:, idx].tocsc()
        n = idx.size
        rb = lay.red_black[0]
        assert (rb.red.size, rb.black.size) == ((n + 1) // 2, n // 2)
        # S keeps A's half-bandwidth, the largest stride; B's transpose
        # is a view
        assert rb.kd <= np.prod(lay.shape[1:])
        assert rb.B.nnz == 0 or np.shares_memory(rb.B.data, rb.Bt.data)
        r = rng.standard_normal(n)
        ref = np.atleast_1d(spla.spsolve(A, r))
        # the operator (d, w) read off A at the couplings; ``fill`` makes
        # A's blocks of it, from one half of w (B = C) and from both
        # halves, there of a nonsymmetric A with its (lo, hi) entries
        # rescaled
        lo, hi = couplings(lay.shape)
        dense = A.toarray()
        d, w = dense.diagonal().copy(), dense[hi, lo]
        skew = dense.copy()
        skew[lo, hi] *= rng.uniform(0.5, 1.5, lo.size)
        order = np.concatenate((rb.red, rb.black))
        for M, half, Ct in ((dense, w, rb.Bt),
                            (skew, np.concatenate((w, skew[lo, hi])), rb.Ct)):
            d_r, d_b = rb.fill(d, half)
            np.testing.assert_array_equal(M[order][:, order], np.block([
                [np.diag(d_r), rb.B.toarray()],
                [Ct.toarray(), np.diag(d_b)]]))
        cg_sizes = []
        cg = spla.cg
        monkeypatch.setattr(spla, "cg", lambda A, b, **kw: (
            cg_sizes.append(b.size), cg(A, b, **kw))[1])
        # with no factor kept S is factored first, and with that factor
        # (A's own) CG converges at its first iterate, also when it is
        # kept for the next system.  CG runs on the black half on every
        # grid, of odd or even interior extents.  With no black node there
        # is no CG and x_r = b_r / d_r
        assert rb.kept is None
        for calls in (1, 2) if rb.black.size else (0, 0):
            got = rb.solve(d, w, r)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert cg_sizes == [rb.black.size] * calls
            assert rb.kept is not None
        # a non-positive D_r or an indefinite S is reported
        for kept in (None, rb.kept):
            rb.kept = kept
            with pytest.raises(np.linalg.LinAlgError):
                rb.solve(-d, -w, r)
        if rb.black.size:
            d[rb.black] = -1.0
            rb.kept = None
            with pytest.raises(np.linalg.LinAlgError):
                rb.solve(d, w, r)

    @pytest.mark.parametrize("counts", [(9, 13), (10, 10), (7, 9, 11)])
    def test_kept_cg_operators_read_the_current_system(self, counts):
        # a split keeps the operators that it hands to CG from its first
        # k-mode solve (A) on.  On a second system (B), whose kept factor
        # no longer brings CG to CG_RTOL, so that the split refactors, and
        # on a third (C), which CG solves with the new factor, it returns
        # what a fresh split with the same kept factor returns, bit for bit
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        rng = np.random.default_rng(7)
        lay = _Layout(grid)
        probs = [one_member(spec, grid, SolverConfig(dt=dt, k=4),
                            np.full(counts, 0.6), 0.01, lay)
                 for dt in (0.01, 0.01, 0.012)]
        iterates = rng.uniform(0.3, 1.5, (2,) + counts)
        iterates[:, probs[0].boundary] = probs[0].bc_boundary[0]
        # A at one iterate, B at another, C at B's iterate and a larger dt
        systems = []
        for prob, u in zip(probs, iterates[[0, 1, 1]]):
            R, faces = residual(prob, u)
            systems.append(tuple(a.copy() for a in assemble(prob, faces, R)))
        rb = lay.red_black[0]
        rb.solve(*systems[0])
        operators = rb.cg_operators
        assert operators is not None
        for (d, w, b), refactors in zip(systems[1:], (True, False)):
            kept = rb.kept
            fresh = _RedBlack(lay.shape)
            fresh.kept = kept
            got = rb.solve(d, w, b)
            ref = fresh.solve(d, w, b)
            assert got.tobytes() == ref.tobytes()
            assert (rb.kept is not kept) == refactors
            assert rb.kept.tobytes() == fresh.kept.tobytes()
            assert rb.cg_operators is operators

    def test_split_is_freed_with_its_layout(self):
        # the kept CG operators form no reference cycle with their split,
        # so a solve's factors and blocks are freed with its layout, also
        # while the cyclic garbage collector does not run
        spec = varcoeff_problem(2)
        grid = Grid(spec.box, (9, 13))
        prob = one_member(spec, grid, SolverConfig(dt=0.01, k=4),
                          np.full(grid.counts, 0.6), 0.01)
        R, faces = residual(prob, np.full(grid.counts, 0.7))
        gc.disable()
        try:
            update(prob, faces, R)
            split = weakref.ref(prob.layout.red_black[0])
            assert split().cg_operators is not None
            del prob
            assert split() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", [4, 16])
    def test_k_mode_1d_jacobian_matches_central_differences(self, k):
        # blocks of nodes below, inside and above [1/k, k]: the Kirchhoff
        # power is linear outside the band, and the Newton matrix, scaled
        # by its derivative column by column, is the exact Jacobian
        spec = get_preset("porous-cascade")
        spec = replace(spec, exponents=Exponents((2.0,), (2.25,)))
        grid = Grid(spec.box, (33,))
        prob = one_member(spec, grid, SolverConfig(dt=0.01, k=k),
                          np.full(33, 0.6), 0.01)
        rng = np.random.default_rng(k)
        bands = [(2.0 / k, k / 4.0), (0.3 / k, 0.6 / k),
                 (2.0 / k, k / 4.0), (2.0 * k, 3.0 * k)]
        u = np.array([rng.uniform(*bands[(i // 4) % 4]) for i in range(33)])
        u[prob.boundary] = prob.bc_boundary[0]
        assert np.any(u < 1.0 / k) and np.any(u > k)
        _, faces = residual(prob, u)
        J = jacobian(prob, faces).toarray()
        fd = np.empty_like(J)
        # Phi_k spans 1e-3 to 2e3 across one face at k = 16, so a smaller
        # step loses the difference to rounding
        step = 1e-5
        for i in range(u.size):
            e = np.zeros(u.size)
            e[i] = step * max(1.0, u[i])
            if u[i] == 1.0 / k:
                # the boundary data g + 1/k sit at 1/k, where Phi_k'' jumps:
                # a second-order difference from the band side
                fd[:, i] = ((4 * residual(prob, u + e)[0]
                             - residual(prob, u + 2 * e)[0]
                             - 3 * residual(prob, u)[0]) / (2 * e[i]))
            else:
                fd[:, i] = ((residual(prob, u + e)[0]
                             - residual(prob, u - e)[0]) / (2 * e[i]))
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
        prob = one_member(spec, grid, SolverConfig(dt=0.01), u_prev, 0.01)
        u = np.random.default_rng(dim).uniform(0.3, 1.5, counts)
        u[prob.boundary] = prob.bc_boundary[0]
        R, faces = residual(prob, u)
        J = solved_matrix(prob, faces, R)
        idx = band_order(prob)
        fd = np.empty_like(J)
        step = 1e-6
        for q, i in enumerate(idx):
            e = np.zeros(u.size)
            e[i] = step
            e = e.reshape(counts)
            fd[:, q] = ((residual(prob, u + e)[0] - residual(prob, u - e)[0])
                        / (2 * step)).ravel()[idx]
        np.testing.assert_allclose(J, fd, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("k", [4, DIRECT])
    @pytest.mark.parametrize("counts", [(9,), (5, 6)])
    def test_p_below_two_slope_at_flat_faces(self, counts, k):
        # a constant field has D = 0 on every face, where the regularized
        # p < 2 flux has the finite slope c EPS_REG^(p-2): central
        # differences with a step far below EPS_REG resolve it (the slope
        # (p-1) c EPS_REG^(p-2) of the unregularized residual's matrix is
        # 30-50% off); m = 1 and a = 1, so no lagged term is left
        dim = len(counts)
        spec = constant_problem(0.7, (1.5, 1.7)[:dim], (1.0, 1.0)[:dim])
        prob = one_member(spec, Grid(spec.box, counts),
                          SolverConfig(dt=0.01, k=k), np.full(counts, 0.6),
                          0.01)
        # the boundary data are constant
        u = np.full(counts, prob.bc_boundary[0, 0])
        R, faces = residual(prob, u)
        J = jacobian(prob, faces).toarray()
        fd = np.empty_like(J)
        for i in range(u.size):
            e = np.zeros(u.size)
            # a step that u + e represents exactly
            e[i] = (u.flat[i] + 1e-12) - u.flat[i]
            e = e.reshape(counts)
            fd[:, i] = ((residual(prob, u + e)[0] - residual(prob, u - e)[0])
                        / (2 * e.flat[i])).ravel()
        np.testing.assert_allclose(J, fd, rtol=1e-5,
                                   atol=1e-9 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("counts", [(9,), (7, 9), (5, 6, 7)])
    def test_direct_jacobian_structure(self, counts):
        # g = 0 and a clamped block of zeros: with m_j > 1 the faces at
        # zero nodes give zero entries; the band solved by banded LU (no
        # sparse LU, also in 2D/3D) is the CSR reference matrix
        dim = len(counts)
        spec = constant_problem(0.0, (3.0, 2.0, 2.5)[:dim],
                                (1.5, 1.2, 2.0)[:dim])
        grid = Grid(spec.box, counts)
        prob = one_member(spec, grid, SolverConfig(dt=0.01),
                          np.full(counts, 0.6), 0.01)
        u = np.random.default_rng(dim).uniform(0.3, 1.5, counts)
        u[prob.boundary] = 0.0
        u[(slice(1, 4),) * dim] = 0.0
        R, faces = residual(prob, u)
        J = solved_matrix(prob, faces, R)
        idx = band_order(prob)
        ref = jacobian(prob, faces)[idx][:, idx].toarray()
        np.testing.assert_allclose(J, ref, rtol=1e-14, atol=0.0)
        # the clamped zeros take couplings out of the 3-, 5- or 7-point
        # pattern
        ext = [c - 2 for c in counts]
        pairs = sum(int(np.prod(ext)) // e * (e - 1) for e in ext)
        assert np.count_nonzero(ref) < idx.size + 2 * pairs

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

    @pytest.mark.parametrize("name, counts, ks, parent", [
        pytest.param("aniso-cascade", (17, 17), [2, 4, 8], [29, 29, 29],
                     id="aniso-cascade"),
        # the second axis has p_j = 1.7: 33 with the unregularized p < 2
        # flux, 35 with the regularized one, under which CG on the whole
        # system takes 33, so the reduced CG costs 2 iterations here
        pytest.param("varcoeff-3d", (5, 7, 9), [4], [35], id="varcoeff-3d"),
        # even interior extents, on an axis with p_j = 1.7 < 2 where the
        # data are symmetric.  With the unregularized p < 2 flux, CG on the
        # reduced system broke that symmetry and Newton crawled at the
        # kink of the flux at D = 0 (163 iterations on (5, 6, 7);
        # StepFailure at k = 2 and 4 on (18, 18)).  With the regularized
        # flux the reduced CG takes 35 on (5, 6, 7), as on (5, 7, 9), where
        # CG on the whole system took 33, and [43, 46] on (18, 18), as CG
        # on the whole system did
        pytest.param("varcoeff-3d", (5, 6, 7), [4], [35],
                     id="varcoeff-3d-even-extent"),
        pytest.param("varcoeff", (18, 18), [2, 4], [43, 46],
                     id="varcoeff-even-extent"),
    ])
    def test_k_mode_newton_counts_2d_3d(self, name, counts, ks, parent):
        # 2D/3D k-mode: CG on the red-black reduced system stays within
        # the recorded bounds (recorded with CG on the whole system,
        # except where a comment says otherwise)
        spec = get_preset(name) if name == "aniso-cascade" \
            else varcoeff_problem(3 if name == "varcoeff-3d" else 2)
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / 8)
        totals = []
        for k in ks:
            _, rep = solve_problem(spec, grid, replace(cfg, k=k))
            assert rep.max_residual <= cfg.newton_tol
            totals.append(rep.total_iterations)
        assert all(t <= p for t, p in zip(totals, parent))

    @pytest.mark.parametrize("name, counts, iters", [
        ("varcoeff", (17, 17), 21),
        ("aniso-cascade", (17, 17), 24),
        ("varcoeff-3d", (5, 6, 7), 33),
        ("manufactured-quartic", (65,), 8),
    ])
    def test_direct_mode_newton_counts(self, name, counts, iters):
        # exact counts, with Newton started from the extrapolated field as
        # in k-mode
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


def kirchhoff_field(k, m, u):
    """Phi_k(u), the integral of m T_k(r)^(m-1) dr: u^m on [1/k, k] and
    its tangent lines at 1/k and k outside."""
    lo, hi = 1.0 / k, float(k)
    return np.where(u < lo, lo ** m + m * lo ** (m - 1) * (u - lo),
                    np.where(u > hi, hi ** m + m * hi ** (m - 1) * (u - hi),
                             np.abs(u) ** m))


def reference_residual(spec, grid, k, u_prev, u, dt, t):
    """Step residual from the model's flux and coefficients and the
    conservative divergence, on differences of u^(m_j) in direct mode and
    of the Kirchhoff power Phi_k in k-mode, with the rows of boundary
    nodes u - g (shifted by 1/k in k-mode)."""
    x = grid.meshgrid()
    fluxes = []
    for j in range(grid.dim):
        x_face = tuple(face_mean(c, j) for c in x)
        uf = face_mean(u, j)
        m = spec.exponents.m[j]
        if k is None:
            xi = face_diff_power(grid, u, m, j)
        else:
            xi = face_diff_power(grid, kirchhoff_field(k, m, u), 1.0, j)
        a = evaluate(spec.coeffs.funcs[j], uf.shape, x_face, t, uf)
        fluxes.append(flux(a, xi, spec.exponents.p[j]))
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
        prob = one_member(spec, grid, SolverConfig(dt=dt, k=k),
                          np.full(counts, 0.6), t)
        u = np.random.default_rng(len(counts)).uniform(0.3, 1.5, counts)
        if clamped:
            u[(slice(1, 4),) * len(counts)] = 0.0
        ref = reference_residual(spec, grid, k, np.full(counts, 0.6),
                                 u, dt, t)
        got, _ = residual(prob, u)
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


def same_exponents(dim, p, m):
    """``varcoeff_problem`` in dim D with p_j = p and m_j = m on every
    axis."""
    return replace(varcoeff_problem(dim),
                   exponents=Exponents((p,) * dim, (m,) * dim))


def stacked_iterate(prob, seed):
    """A stack of fields for prob, positive with a block of zeros per
    member (faces with D = 0, and clamped nodes in direct mode), carrying
    the boundary data."""
    shape = prob.u_prev.shape
    u = np.random.default_rng(seed).uniform(0.3, 1.5, shape)
    u[(slice(None),) + (slice(1, 4),) * (len(shape) - 1)] = 0.0
    u[prob.layout.edge] = prob.bc_boundary
    return u


# The expression forms of the face pass, the Newton system and its solve
# as they were before the pass computed in place and p = 2 skipped its
# power: the reference that the in-place forms match bit for bit.

def expression_working_power(k, m, u):
    if m == 1.0:
        return u, 1.0
    if k is None:
        safe = np.maximum(u, 0.0)
        return safe ** m, m * safe ** (m - 1.0)
    tk = np.minimum(k, np.maximum(u, 1.0 / k))
    top = tk ** (m - 1.0)
    dw = m * top
    return tk * top + dw * (u - tk), dw


def expression_flux(c, xi, p):
    e2 = EPS_REG * EPS_REG
    mag = ((xi * xi + e2) ** ((p - 2.0) / 2.0) if p < 2.0
           else np.abs(xi) ** (p - 2.0))
    return np.where(xi == 0.0, 0.0, c * mag * xi)


def expression_flux_slope(c, xi, p):
    D2, e2 = xi * xi, EPS_REG * EPS_REG
    if p < 2.0:
        return c * (D2 + e2) ** ((p - 4.0) / 2.0) * ((p - 1.0) * D2 + e2)
    return c * (D2 + e2) ** ((p - 2.0) / 2.0) * (p - 1.0)


def expression_face_data(prob, u, j):
    lo, hi = prob.layout.lo[j], prob.layout.hi[j]
    ubar = (u[lo] + u[hi]) / 2.0
    c = evaluate(prob.spec.coeffs.funcs[j], ubar.shape,
                 prob.layout.x_face[j], prob.t, ubar)
    w, dw = expression_working_power(prob.k, prob.m[j], u)
    D = (w[hi] - w[lo]) / prob.h[j]
    dlo, dhi = ((dw[lo], dw[hi]) if isinstance(dw, np.ndarray)
                else (dw, dw))
    return c, D, dlo, dhi, expression_flux(c, D, prob.p[j])


def expression_residual(prob, u):
    lay = prob.layout
    R = (u - prob.u_prev) / prob.config.dt - prob.f_vals
    faces = [expression_face_data(prob, u, j) for j in range(prob.grid.dim)]
    for j, (*_, F) in enumerate(faces):
        R[lay.core[j]] -= (F[lay.hi[j]] - F[lay.lo[j]]) / prob.h[j]
    R[lay.edge] = u[lay.edge] - prob.bc_boundary
    return R, faces


def expression_face_slopes(prob, faces):
    out = []
    for j, (c, D, dlo, dhi, _) in enumerate(faces):
        h = prob.h[j]
        slope = expression_flux_slope(c, D, prob.p[j])
        if prob.symmetric:
            dlo = dhi = (dlo + dhi) / 2.0
        g_lo = slope * dlo / (h * h)
        g_hi = g_lo if dhi is dlo else slope * dhi / (h * h)
        out.append((g_lo, g_hi))
    return out


def expression_assemble(prob, faces, R):
    lay = prob.layout
    slopes = expression_face_slopes(prob, faces)
    b = R[lay.inner].transpose(lay.band)
    couplings = [slopes[j][h][lay.inner].transpose(lay.band)
                 for h in ((0,) if prob.symmetric else (0, 1))
                 for j in lay.order]
    rows = len(R)
    system = np.empty(
        (rows, (2 * b.size + sum(g.size for g in couplings)) // rows))

    def block(start, values):
        return system[:, start:start + values.size // rows].reshape(
            values.shape)

    block(0, b)[...] = b
    diag = block(lay.unknowns, b).transpose(lay.unband)
    diag[...] = 1.0 / prob.config.dt
    for j, (g_lo, g_hi) in enumerate(slopes):
        diag += g_hi[lay.cross[j]][lay.lo[j]]
        diag += g_lo[lay.cross[j]][lay.hi[j]]
    start = 2 * lay.unknowns
    for g in couplings:
        np.negative(g, out=block(start, g))
        start += g.size // rows
    return system


def expression_update(prob, faces, R):
    """The update of every member, solved into a stack x that is then
    copied into the update."""
    lay = prob.layout
    d, w, b = prob.unpack(expression_assemble(prob, faces, R))
    n = d.shape[1]
    x = np.zeros(d.shape)
    for a in range(len(R)):
        if prob.grid.dim > 1:
            x[a] = lay.red_black[a].solve(d[a], w[a], b[a])
        else:
            *_, x_a, info = lapack.dgtsv(
                w[a, :n - 1], d[a], w[a, n - 1:], b[a], overwrite_dl=1,
                overwrite_d=1, overwrite_du=1, overwrite_b=1)
            assert info == 0
            x[a] = x_a
    delta = np.zeros(R.shape)
    delta[lay.inner] = x.reshape((len(x),) + lay.shape).transpose(
        lay.unband)
    return delta


def frozen(value):
    """value, made read-only when it is an array."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


class TestInPlacePasses:
    # the face pass, the Newton system and the update compute in place on
    # arrays they made, and give the bits of their expression forms

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.2])
    @pytest.mark.parametrize("m", [1.0, 1.4])
    @pytest.mark.parametrize("k", ["ks", DIRECT])
    @pytest.mark.parametrize("counts, ks", [
        ((1025,), (2, 4, 8, 16, 32, 64)), ((33, 33), (2, 4))])
    def test_passes_match_expression_forms(self, counts, ks, k, m, p):
        spec = same_exponents(len(counts), p, m)
        grid = Grid(spec.box, counts)
        levels = ks if k == "ks" else (None,) * len(ks)
        cfg = SolverConfig(dt=0.01)
        u_prev = np.full((len(ks),) + counts, 0.6)
        # a layout each, so that neither solve reuses a factor the other
        # kept
        got, ref = (_StepProblem(spec, cfg, levels, u_prev, 0.01,
                                 _Layout(grid, len(ks))) for _ in range(2))
        u = stacked_iterate(got, len(counts))
        R, faces = got.residual(u)
        R_ref, faces_ref = expression_residual(ref, u)
        assert R.tobytes() == R_ref.tobytes()
        for face, face_ref in zip(faces, faces_ref):
            for value, value_ref in zip(face, face_ref):
                assert (np.asarray(value).tobytes()
                        == np.asarray(value_ref).tobytes())
        for pair, pair_ref in zip(got._face_slopes(faces),
                                  expression_face_slopes(ref, faces)):
            for g, g_ref in zip(pair, pair_ref):
                assert g.tobytes() == g_ref.tobytes()
        assert (got.assemble(faces, R).tobytes()
                == expression_assemble(ref, faces, R).tobytes())
        delta, failed = got.update(faces, R, np.ones(len(ks), dtype=bool))
        assert failed is None
        assert delta.tobytes() == expression_update(ref, faces, R).tobytes()

    @pytest.mark.parametrize("p", [2.0, 3.2])
    @pytest.mark.parametrize("m", [1.0, 1.4])
    @pytest.mark.parametrize("k", [4, DIRECT])
    @pytest.mark.parametrize("counts", [(9,), (7, 9), (5, 6, 7)])
    def test_passes_write_to_no_input(self, counts, k, m, p):
        # u, u_prev, R and the face data go in read-only: a pass that
        # wrote to one of them would raise
        spec = same_exponents(len(counts), p, m)
        grid = Grid(spec.box, counts)
        prob = one_member(spec, grid, SolverConfig(dt=0.01, k=k),
                          frozen(np.full(counts, 0.6)), 0.01)
        u = frozen(stacked_iterate(prob, len(counts)))
        R, faces = prob.residual(u)
        for value in (R, *(v for face in faces for v in face)):
            frozen(value)
        prob.assemble(faces, R)
        delta, failed = prob.update(faces, R, np.ones(1, dtype=bool))
        assert failed is None and np.any(delta != 0.0)


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


def step_problem(p, m, block, raised=None):
    """Unit coefficients, f = g = 0 on the unit box, T = 1/64, and u0 = 1
    on the open box ``block`` (one (lo, hi) per axis), 0 elsewhere;
    ``raised`` = (delta, point) adds delta at the grid node at point."""
    dim = len(p)

    def u0(x):
        inside = np.ones(np.shape(x[0]), dtype=bool)
        for (lo, hi), c in zip(block, x):
            inside &= (c > lo) & (c < hi)
        out = inside.astype(float)
        if raised is not None:
            delta, point = raised
            at = np.ones(np.shape(x[0]), dtype=bool)
            for c, q in zip(x, point):
                at &= np.isclose(c, q, rtol=0.0, atol=1e-12)
            out = out + delta * at
        return out

    return ProblemSpec(
        box=(1.0,) * dim, T=1.0 / 64, exponents=Exponents(p, m),
        coeffs=CoefficientSpec(
            (lambda x, t, u: np.full(np.shape(u), 1.0),) * dim, 1.0, 0.0),
        f=make_constant(0.0), g=make_constant(0.0), u0=u0, sigma=3.0)


class TestKirchhoffFlux:
    # k-mode's face flux is direct mode's on the Kirchhoff power Phi_k
    # (model.working_power), a monotone scheme for every m_j >= 1

    FRONT_1D = ((0.2, 0.45),)
    FRONT_2D = ((0.2, 0.8), (0.2, 0.45))

    @pytest.mark.parametrize("p, m, counts, block, k, raised, n_steps", [
        pytest.param((2.0,), (3.0,), (65,), FRONT_1D, 64, (1e-3, (0.5,)),
                     16, id="1d-m3"),
        pytest.param((2.0,), (4.0,), (65,), FRONT_1D, 64, (0.1, (0.5,)), 32,
                     id="1d-m4"),
        pytest.param((2.0, 2.0), (1.5, 2.8), (17, 17), FRONT_2D, 16,
                     (0.1, (0.5, 0.5)), 16, id="2d-k16"),
        pytest.param((2.0, 2.0), (1.5, 2.8), (17, 17), FRONT_2D, 64,
                     (0.1, (0.5, 0.5625)), 16, id="2d-k64"),
    ])
    def test_raised_data_give_ordered_solutions(self, p, m, counts, block,
                                                k, raised, n_steps):
        # m_j > 2 and step data whose front jumps from 1/k to 1 + 1/k:
        # raising u0 at one node next to the front lowers the solution
        # nowhere
        lo = step_problem(p, m, block)
        hi = step_problem(p, m, block, raised)
        grid = Grid(lo.box, counts)
        cfg = SolverConfig(dt=lo.T / n_steps, k=k)
        u, _ = solve_problem(lo, grid, cfg)
        v, _ = solve_problem(hi, grid, cfg)
        assert np.max(v.fields[0].values - u.fields[0].values) \
            == pytest.approx(raised[0])
        assert ordering_excess(u, v) <= ordering_tolerance(cfg, lo.T)

    @pytest.mark.parametrize("p, k, n_steps", [(2.0, 16, 4), (2.0, 64, 4),
                                               (3.0, 64, 16)])
    def test_step_data_solve(self, p, k, n_steps):
        # m = 3 at the front of step data, at the default newton_max 40
        spec = step_problem((p,), (3.0,), self.FRONT_1D)
        cfg = SolverConfig(dt=spec.T / n_steps, k=k)
        assert cfg.newton_max == 40
        _, rep = solve_problem(spec, Grid(spec.box, (65,)), cfg)
        assert rep.max_residual <= cfg.newton_tol

    @pytest.mark.parametrize("p, m, counts", [
        ((3.0,), (1.5,), (65,)), ((2.5,), (1.2,), (65,)),
        ((2.0,), (1.5,), (65,)), ((2.0,), (2.0,), (65,)),
        ((3.0,), (1.0,), (65,)), ((3.0, 2.0), (1.5, 1.5), (17, 17))])
    def test_cascade_converges_to_direct_solve(self, p, m, counts):
        # on a fixed grid the truncated solutions, less their 1/k data
        # shift, tend to the direct-mode solve like 1/k: the mean gap over
        # all space-time nodes, which measures the truncation alone, falls
        # by 13 to 16 from k = 1024 to k = 16384 (for m = 1, k-mode is
        # direct mode shifted by 1/k, and the gap is round-off)
        spec = bump_problem(p, m, 0.0, 0.5)
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / 32)
        direct, _ = solve_problem(spec, grid, cfg)

        def gap(k):
            ts, _ = solve_problem(spec, grid, replace(cfg, k=k))
            return np.mean([np.abs(a.values - 1.0 / k - b.values)
                            for a, b in zip(ts.fields, direct.fields)])

        assert gap(16384) <= gap(1024) / 8

    @pytest.mark.parametrize("counts", [(9,), (7, 9), (5, 6, 7)])
    def test_k_mode_residual_is_direct_on_the_band(self, counts):
        # with every node in [1/k, k] = [0.5, 2], Phi_k(u) = u^m_j, so
        # k-mode's interior rows are direct mode's (m = (1.2, 1.0, 1.4),
        # and a_j depends on u)
        spec = varcoeff_problem(len(counts))
        grid = Grid(spec.box, counts)
        u_prev = np.full(counts, 0.6)
        u = np.random.default_rng(len(counts)).uniform(0.5, 1.5, counts)
        got, _ = residual(one_member(spec, grid, SolverConfig(dt=0.01, k=2),
                                     u_prev, 0.01), u)
        ref, _ = residual(one_member(spec, grid, SolverConfig(dt=0.01),
                                     u_prev, 0.01), u)
        inner = grid.interior_mask()
        assert np.max(np.abs(got[inner] - ref[inner])) \
            <= 1e-12 * np.max(np.abs(ref[inner]))


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
        # steps that start from u_n with no factor kept.  Every step of a
        # march is a stacked step, which takes that state from its layout
        spec = get_preset(name)
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / dt_steps)
        warm = regularization_cascade(spec, grid, cfg, ks)
        step = anisodnl.solver._stacked_step

        def fresh_step(spec, config, ks, u_n, t_n, t_next, lay):
            return step(spec, config, ks, u_n, t_n, t_next,
                        _Layout(lay.grid, lay.size))

        monkeypatch.setattr(anisodnl.solver, "_stacked_step", fresh_step)
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
        # CG on the red-black reduced system, preconditioned by the kept
        # factor of S, on odd (17x17) and even (18x18) interior extents,
        # against CG on the whole system with the kept full-band factor:
        # the same bound on ||J delta - R||, so the fields agree within
        # the ordering tolerance, and it takes no more Newton iterations
        spec = get_preset("aniso-cascade")
        cfg = SolverConfig(dt=spec.T / 8)
        ks = [2, 4, 8]
        tol = ordering_tolerance(cfg, spec.T)
        solve = _RedBlack.solve
        for counts in [(17, 17), (18, 18)]:
            grid = Grid(spec.box, counts)
            shape = _Layout(grid).shape

            def reference(rb, d, w, r):
                # a symmetric operator holds one half of its couplings
                if w.size == rb.sort.size:
                    return full_system_pcg(rb, shape, d, w, r)
                return solve(rb, d, w, r)

            got = regularization_cascade(spec, grid, cfg, ks)
            with monkeypatch.context() as mp:
                mp.setattr(_RedBlack, "solve", reference)
                ref = regularization_cascade(spec, grid, cfg, ks)
            for sg, sr in zip(got.series, ref.series):
                assert np.max(np.abs(sg.values_array()
                                     - sr.values_array())) <= tol
            assert got.distances == pytest.approx(ref.distances, rel=1e-9)
            for rg, rr in zip(got.reports, ref.reports):
                assert rg.total_iterations <= rr.total_iterations

    @pytest.mark.parametrize("counts, k", [
        pytest.param((9,), 2, id="counts0"),
        pytest.param((9, 9), 2, id="counts1"),
        pytest.param((9,), None, id="counts0-direct"),
        pytest.param((9, 9), None, id="counts1-direct"),
    ])
    def test_extrapolated_start_exact_for_linear_growth(self, counts, k):
        # u = 0.7 + 0.5 t (plus 1/k in k-mode) is flat in space and linear
        # in time, so backward Euler reproduces it and the extrapolated
        # first iterate is already the step's solution, the shortened last
        # step included, in both modes
        spec = replace(constant_problem(p=(3.0, 2.0)[:len(counts)],
                                        m=(1.0, 1.5)[:len(counts)]),
                       f=make_constant(0.5),
                       g=lambda x, t: np.full(np.shape(x[0]), 0.7 + 0.5 * t))
        cfg = SolverConfig(dt=spec.T / 3.5, k=k)
        ts, rep = solve_problem(spec, Grid(spec.box, counts), cfg)
        assert ts.fields[-1].t == spec.T
        assert [s.iterations for s in rep.steps][1:] == [0, 0, 0]
        exact = 0.7 + (0.0 if k is None else 1.0 / k) + 0.5 * spec.T
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

        # every solve takes its steps through the stacked step
        monkeypatch.setattr(anisodnl.solver, "_stacked_step", no_member)
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


def step_records(report):
    """Iterations, residual and clamp flag of every step of a report."""
    return [(s.iterations, s.residual, s.clamped) for s in report.steps]


class TestMarch:
    # members marched side by side each do the arithmetic of their own
    # one-member solve

    @pytest.mark.parametrize("name, counts, ks", [
        ("porous-cascade", (65,), [1, 2, 4, 8, 16, 32, 64]),
        ("aniso-cascade", (17, 17), [2, 4, 8, 16]),
        ("aniso-cascade", (18, 18), [2, 4, 8]),
        ("varcoeff-3d", (5, 6, 7), [2, 4]),
    ])
    def test_members_match_their_own_solves(self, name, counts, ks,
                                            monkeypatch):
        spec = (varcoeff_problem(3) if name == "varcoeff-3d"
                else get_preset(name))
        grid = Grid(spec.box, counts)
        cfg = SolverConfig(dt=spec.T / 8)
        # per Newton iteration of a step, its live members and the
        # iterates of its line-search trials
        rounds = []
        residual, update = _StepProblem.residual, _StepProblem.update

        def every_row(self, u):
            # each call of a step sees all the members of the step: all of
            # ks in a march, one in a solve of its own
            assert u.shape == self.u_prev.shape and len(u) in (1, len(ks))
            if rounds:
                rounds[-1][1].append(u.copy())
            return residual(self, u)

        def new_round(self, faces, R, live):
            rounds.append((live.copy(), []))
            return update(self, faces, R, live)

        monkeypatch.setattr(_StepProblem, "residual", every_row)
        monkeypatch.setattr(_StepProblem, "update", new_round)
        series, reports = _march(spec, grid, cfg, tuple(ks))
        res = regularization_cascade(spec, grid, cfg, ks)
        for i, k in enumerate(ks):
            own, own_report = solve_problem(spec, grid, replace(cfg, k=k))
            for ts, rep in ((series[i], reports[i]),
                            (res.series[i], res.reports[i])):
                assert [f.t for f in ts.fields] == [f.t for f in own.fields]
                assert np.array_equal(ts.values_array(), own.values_array())
                assert step_records(rep) == step_records(own_report)
        if len(counts) == 1:
            # some step had members that accepted different line-search
            # trials: one live member's row stayed from one trial to the
            # next while another's changed
            def kept(live, a, b):
                same = (a == b).reshape(len(a), -1).all(axis=1)
                return bool(np.any(same & live) and np.any(~same & live))

            assert any(kept(live, a, b) for live, trials in rounds
                       for a, b in zip(trials, trials[1:]))

    def test_singular_member_leaves_the_stack(self):
        # a = -1 where u < 0.3: on two interior nodes with h = 1 and
        # dt = 1 the member at k = 8 (u = 1/8) has the singular matrix
        # [[-1, 1], [1, -1]], and the member at k = 2 (u = 1/2) a regular
        # one; f = 1 moves both off their start.  A member at k = 16 after
        # the failing one leaves the stack with it
        spec = replace(
            varcoeff_problem(1), box=(3.0,), T=1.0,
            exponents=Exponents((2.0,), (1.0,)),
            coeffs=CoefficientSpec(
                (lambda x, t, u: np.where(u < 0.3, -1.0, 1.0),), 1.0, 0.0),
            f=make_constant(1.0), g=make_constant(0.0),
            u0=make_constant(0.0))
        grid = Grid(spec.box, (4,))
        cfg = SolverConfig(dt=1.0)
        for ks in ((2, 8), (2, 8, 16)):
            lay = _Layout(grid, len(ks))
            u_n = _start(spec, lay, ks)
            u, reports, failure = _stacked_step(spec, cfg, ks, u_n, 0.0, 1.0,
                                                lay)
            assert (failure.k, failure.cause) == (8, "singular")
            assert lay.size == 1 and len(reports) == 1 and len(u) == 1
            own, own_report = implicit_step(ScalarField(grid, u_n[0], 0.0),
                                            1.0, spec, replace(cfg, k=2))
            assert np.array_equal(u[0], own.values)
            assert reports == [own_report]
            with pytest.raises(StepFailure) as alone:
                implicit_step(ScalarField(grid, u_n[1], 0.0), 1.0, spec,
                              replace(cfg, k=8))
            assert failure.residual_history == alone.value.residual_history

    def test_first_failing_member_is_raised(self):
        # a_1 is NaN below a level that rises from 0.1 to 0.4 at T/2: the
        # member at k = 64, whose boundary value 1/64 lies below it from
        # the start, fails at step 0, the one at k = 4 (boundary value
        # 1/4) at the first step past T/2, and the one at k = 2 (1/2)
        # never.  The cascade raises what marching one member after
        # another raises: the failure of k = 4
        spec = get_preset("porous-cascade")

        def a(x, t, u):
            level = 0.1 if t < spec.T / 2 else 0.4
            return np.where(u < level, np.nan, 1.0)

        spec = replace(spec, coeffs=CoefficientSpec((a,), 1.0, 0.0))
        grid = Grid(spec.box, (33,))
        cfg = SolverConfig(dt=spec.T / 8)
        failures = {}
        for k in (4, 64):
            with pytest.raises(StepFailure) as exc:
                solve_problem(spec, grid, replace(cfg, k=k))
            failures[k] = exc.value
        assert failures[64].step_index == 0 < failures[4].step_index
        solve_problem(spec, grid, replace(cfg, k=2))
        with pytest.raises(StepFailure) as exc:
            regularization_cascade(spec, grid, cfg, [2, 4, 64])
        got, want = exc.value, failures[4]
        assert (got.k, got.step_index, got.cause, str(got)) == (
            4, want.step_index, want.cause, str(want))
        np.testing.assert_array_equal(got.residual_history,
                                      want.residual_history)


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

    @pytest.mark.parametrize("cause, dim, k", [
        pytest.param("not finite", 2, 2, id="not finite"),
        pytest.param("not finite", 1, 2, id="not-finite-1d"),
        pytest.param("not positive definite", 2, 2,
                     id="not positive definite"),
        pytest.param("singular", 1, 2, id="singular"),
        pytest.param("singular", 1, None, id="singular-1d-direct"),
        pytest.param("singular", 2, None, id="singular-2d-direct"),
        pytest.param("iteration limit", 2, 2, id="iteration limit"),
    ])
    def test_step_failure_names_its_cause(self, cause, dim, k):
        # a NaN coefficient makes the Newton system NaN; a negative one
        # makes the 2D k-mode matrix indefinite (a red diagonal entry
        # below 0).  At h = 1 it gives, on two interior nodes at dt = 1,
        # the tridiagonal matrix [[-1, 1], [1, -1]], and on 2 x 2 interior
        # nodes at dt = 1/4 the adjacency matrix of a 4-cycle, whose
        # banded LU has an exact zero pivot; no Newton iteration leaves
        # the first step unconverged
        a = {"not finite": np.nan, "not positive definite": -1.0,
             "singular": -1.0, "iteration limit": 1.0}[cause]
        spec = replace(
            varcoeff_problem(dim),
            exponents=Exponents((2.0,) * dim, (1.0,) * dim),
            coeffs=CoefficientSpec(
                (lambda x, t, u: np.full(np.shape(u), a),) * dim, 1.0, 0.0))
        counts, dt = (9,) * dim, spec.T / 4
        if cause == "singular":
            spec = replace(spec, box=(3.0,) * dim, T=1.0)
            counts, dt = (4,) * dim, 1.0 / dim ** 2
        cfg = SolverConfig(dt=dt, k=k,
                           newton_max=0 if cause == "iteration limit" else 40)
        with pytest.raises(StepFailure) as exc:
            solve_problem(spec, Grid(spec.box, counts), cfg)
        assert exc.value.cause == cause
        assert exc.value.step_index == 0
        assert str(exc.value).endswith(f" ({cause})")
        # a failure made without a cause keeps the message it had
        bare = StepFailure(3, [2.5e-3])
        assert bare.cause is None
        assert str(bare) == "step 3 failed, final residual 2.500e-03"

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

    def test_k_mode_step_with_p_below_two_converges(self):
        # Newton stalled above newton_tol at step 7 while the residual used
        # the unregularized p < 2 flux and the matrix a regularized slope
        spec = bump_problem((3.845, 1.468), (1.028, 1.062), 0.0, 0.746)
        cfg = SolverConfig(dt=spec.T / 8, k=4)
        _, rep = solve_problem(spec, Grid(spec.box, (9, 9)), cfg)
        assert rep.max_residual <= cfg.newton_tol

    def test_direct_mode_stall_reproducer_converges(self):
        # the direct-2d benchmark's first op (p = (1.6, 3), m = (1, 1.2),
        # g = 0, bump 0.5) at 17^2: with the unregularized p < 2 flux in
        # the residual, step 28 stopped at 4.6e-9 on the iteration limit
        spec = bump_problem((1.6, 3.0), (1.0, 1.2), 0.0, 0.5)
        cfg = SolverConfig(dt=spec.T / 32)
        _, rep = solve_problem(spec, Grid(spec.box, (17, 17)), cfg)
        assert len(rep.steps) == 32
        assert rep.max_residual <= cfg.newton_tol

    @pytest.mark.xfail(strict=True, raises=StepFailure,
                       reason="the eleventh line-search trial is taken "
                              "whatever its residual, and Newton cycles")
    def test_direct_mode_line_search_cycle_converges(self):
        # a direct-2d benchmark draw with g = 0 and m_j > 1: from step 25
        # Newton alternates between two iterates, residuals 1.29e-4 and
        # 1.13e-3, until newton_max ends the step with "iteration limit"
        spec = bump_problem((2.078, 1.563), (1.261, 1.01), 0.0, 0.466)
        cfg = SolverConfig(dt=spec.T / 32)
        _, rep = solve_problem(spec, Grid(spec.box, (33, 33)), cfg)
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
