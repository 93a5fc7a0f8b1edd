"""Backward-Euler time stepping with a damped Newton inner solve.

Two modes are supported.  In k-mode the unknown is the solution of the
truncated problem: the face flux acts on differences of u itself, scaled
by the truncated coefficient, and the data f, g, u0 are shifted by 1/k.
In direct mode the flux acts on differences of u^{m_j} and the data are
used as given.

Both modes assemble their Newton matrix in one way: the nonzero rows of
a band over the interior unknowns, ordered with the longest interior
axis outermost (the boundary rows are identity rows whose residual is
0).  The matrix lags the dependence of the flux coefficient on u, except
in 1D k-mode: there it also differentiates the truncation factor
T_k(u)^((m_j-1)(p_j-1)) through the face mean, which makes it the exact
Jacobian when a_j does not depend on u.  Direct mode scales the columns
of axis j by m_j u^(m_j-1).  The solve follows from the band: a
tridiagonal band (1D) by banded LU, the symmetric lower band of 2D/3D
k-mode by preconditioned conjugate gradients, and the nonsymmetric band
of 2D/3D direct mode by sparse LU.

A solve keeps state from one time step to the next (``_Carry``): the
grid data of its steps, a preconditioner and the previous field.  In
2D/3D k-mode each Newton system is solved by preconditioned conjugate
gradients to the relative residual CG_RTOL (an inexact Newton step,
Eisenstat & Walker 1996), preconditioned by the exact inverse of an
earlier Newton matrix of the same solve; the matrix is factored again
only when CG does not converge within CG_MAX iterations (Newton-Krylov
with a reused preconditioner, Knoll & Keyes 2004).  That inverse is
applied through the matrix's red-black block elimination: eliminating
the red nodes, whose block is diagonal, leaves a Schur complement on
the black half of the unknowns with the same half-bandwidth, and only
that is factored by banded Cholesky (Saad, Iterative Methods for Sparse
Linear Systems, 2nd ed., 2003).  In k-mode Newton starts from the linear
extrapolation of the last two fields instead of from u_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (Grid, ScalarField, TimeSeries, axis_slices,
                             face_mean, integrate_power)
from .model import ProblemSpec, flux, flux_coefficient
from .analysis import vpm_distance

__all__ = [
    "SolverConfig",
    "StepReport",
    "SolveReport",
    "StepFailure",
    "implicit_step",
    "solve_problem",
    "manufactured_rhs",
    "refinement_errors",
    "CascadeResult",
    "regularization_cascade",
    "ordering_tolerance",
]

# regularization of the face slope (D^2 + EPS_REG^2)^((p-2)/2) in the
# Newton matrix
EPS_REG = 1e-8
# step of the central differences in manufactured_rhs
FD_STEP = 1e-3
# relative residual and iteration limit of the conjugate-gradient solve of
# a 2D/3D k-mode Newton system; a looser tolerance costs Newton iterations
CG_RTOL = 1e-4
CG_MAX = 8


def _valid_k(k) -> bool:
    """A truncation level: a positive int, or None for the untruncated
    (direct-mode) problem."""
    return k is None or (type(k) is int and k >= 1)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    newton_tol: float = 1e-9
    newton_max: int = 40
    # truncation level; None solves the untruncated problem (direct mode)
    k: int | None = None
    guess_offset: float = 0.0

    def __post_init__(self):
        for name in ("dt", "newton_tol", "guess_offset"):
            # True and False would pass the checks below as 1 and 0
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.newton_tol > 0 and np.isfinite(self.newton_tol)):
            raise ValueError("newton_tol must be positive and finite")
        if type(self.newton_max) is not int or self.newton_max < 0:
            raise ValueError("newton_max must be a nonnegative integer")
        if not np.isfinite(self.guess_offset):
            raise ValueError("guess_offset must be finite")
        if not _valid_k(self.k):
            raise ValueError("k must be a positive integer or None")


@dataclass
class StepReport:
    iterations: int
    residual: float
    # no step falls back from Newton; the field stays in the report format
    fallback: bool = False
    clamped: bool = False


@dataclass
class SolveReport:
    steps: list[StepReport] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.steps)

    @property
    def max_residual(self) -> float:
        return max((s.residual for s in self.steps), default=0.0)

    def as_dict(self) -> dict:
        return {
            "steps": [
                {"iterations": s.iterations, "residual": s.residual,
                 "fallback": s.fallback, "clamped": s.clamped}
                for s in self.steps
            ],
            "total_iterations": self.total_iterations,
            "max_residual": self.max_residual,
            "fallback_events": sum(1 for s in self.steps if s.fallback),
        }


class StepFailure(RuntimeError):
    """Nonlinear solve failed to converge at one time step.

    ``implicit_step`` raises it with step -1; ``solve_problem`` sets the
    index of the failed step, which the message reads.
    """

    def __init__(self, step_index: int, residual_history: list[float]):
        super().__init__(step_index, residual_history)
        self.step_index = step_index
        self.residual_history = residual_history

    def __str__(self) -> str:
        return (f"step {self.step_index} failed, final residual "
                f"{self.residual_history[-1]:.3e}")


class _RedBlack:
    """The red-black split of the interior unknowns of a 2D/3D band layout
    and the fixed patterns of its block elimination.

    A node is red when the sum of its interior indices is even, black
    otherwise; each colour is numbered in the band order.  The lagged
    Newton matrix couples only nodes of different colours, so it reads
    A = [[D_r, B], [B^T, D_b]] with D_r, D_b diagonal, and eliminating the
    red nodes leaves the Schur complement S = D_b - B^T D_r^-1 B on the
    black ones.  S couples black nodes that share a red neighbour: offsets
    2e_i and e_i - e_j, e_i + e_j of the grid.
    """

    def __init__(self, shape: tuple[int, ...], offsets: list[int]):
        n = int(np.prod(shape))
        coords = np.indices(shape).reshape(len(shape), n)
        black = coords.sum(axis=0) % 2 == 1
        self.red = np.flatnonzero(~black)
        self.black = np.flatnonzero(black)
        num = np.empty(n, dtype=np.intp)
        num[self.red] = np.arange(self.red.size)
        num[self.black] = np.arange(self.black.size)
        # every coupling of node i and node i + s along a band axis of
        # stride s: its value is the lower band entry at column i, at flat
        # position src of the band rows
        lo, hi, src = [], [], []
        for q in range(len(shape)):
            s = int(np.prod(shape[q + 1:]))
            i = np.flatnonzero(coords[q] < shape[q] - 1)
            lo.append(i)
            hi.append(i + s)
            src.append(offsets.index(s) * n + i)
        lo, hi, src = (np.concatenate(a) for a in (lo, hi, src))
        lo_black = black[lo]
        r = num[np.where(lo_black, hi, lo)]
        b = num[np.where(lo_black, lo, hi)]
        # B in CSR order: by red row, then black column
        sort = np.lexsort((b, r))
        self.src = src[sort]
        self.indices = b[sort]
        deg = np.bincount(r, minlength=self.red.size)
        self.indptr = np.concatenate(([0], np.cumsum(deg)))
        # every pair of entries (a, b) of one red row, a at or after b: it
        # adds -B[r, a] B[r, b] / d_r to S at black row indices[a] and
        # column indices[b] (lower triangle)
        pa = [np.zeros(0, dtype=np.intp)]
        pb = [np.zeros(0, dtype=np.intp)]
        for u in range(int(deg.max(initial=0))):
            start = self.indptr[:-1][deg > u]
            for v in range(u + 1):
                pa.append(start + u)
                pb.append(start + v)
        self.pair_a = np.concatenate(pa)
        self.pair_b = np.concatenate(pb)
        self.pair_red = np.repeat(np.arange(self.red.size), deg)[self.pair_a]
        row, col = self.indices[self.pair_a], self.indices[self.pair_b]
        # half-bandwidth of S, and each pair's position in its lower band
        # storage of shape (kd + 1, n_black) in Fortran order
        self.kd = int(np.max(row - col, initial=0))
        self.pair_pos = col * (self.kd + 1) + (row - col)

    def factor(self, ab: np.ndarray) -> _SchurFactor:
        """The block elimination of the matrix whose nonzero lower band
        rows are ``ab`` (the diagonal, then the strides in increasing
        order).  Raises ``LinAlgError`` when the matrix is not positive
        definite."""
        d = ab[0]
        d_r = d[self.red]
        if not np.all(d_r > 0.0):
            raise np.linalg.LinAlgError(
                "Newton matrix is not positive definite")
        inv_dr = 1.0 / d_r
        data = ab.take(self.src)
        n_b = self.black.size
        # (a float band also when there are no pairs: a single red node)
        s = np.bincount(self.pair_pos,
                        weights=-(data[self.pair_a] * data[self.pair_b]
                                  * inv_dr[self.pair_red]),
                        minlength=(self.kd + 1) * n_b
                        ).astype(float, copy=False)
        s[::self.kd + 1] += d[self.black]
        chol, info = lapack.dpbtrf(s.reshape((self.kd + 1, n_b), order="F"),
                                   lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                "Newton matrix is not positive definite")
        B = sp.csr_matrix((data, self.indices, self.indptr),
                          shape=(self.red.size, n_b))
        return _SchurFactor(self, chol, inv_dr, B, B.T)


class _SchurFactor(NamedTuple):
    """The exact inverse of a 2D/3D k-mode Newton matrix A through its
    red-black block elimination (see ``_RedBlack``): the banded Cholesky
    factor of S (lower form), 1/D_r and B."""

    red_black: _RedBlack
    chol: np.ndarray
    inv_dr: np.ndarray
    B: sp.csr_matrix
    Bt: sp.csc_matrix

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r: x_b = S^-1 (r_b - B^T D_r^-1 r_r), then
        x_r = D_r^-1 (r_r - B x_b)."""
        rb = self.red_black
        y = self.inv_dr * r[rb.red]
        x_b, _ = lapack.dpbtrs(self.chol, r[rb.black] - self.Bt @ y,
                               lower=1)
        x = np.empty(r.size)
        x[rb.red] = y - self.inv_dr * (self.B @ x_b)
        x[rb.black] = x_b
        return x


class _Layout:
    """The grid-only data of the steps of one solve: node and face
    coordinates, masks, per-axis slices, and the band layout of the
    interior unknowns with, in 2D/3D, their red-black split."""

    def __init__(self, grid: Grid):
        dim = grid.dim
        self.grid = grid
        self.interior = grid.interior_mask()
        self.boundary = ~self.interior
        self.x = grid.meshgrid()
        self.x_face = [tuple(face_mean(c, j) for c in self.x)
                       for j in range(dim)]
        # per axis: the lo and hi node of every face, and the nodes between
        # two faces of the axis
        self.lo = [axis_slices(dim, j, slice(0, -1)) for j in range(dim)]
        self.hi = [axis_slices(dim, j, slice(1, None)) for j in range(dim)]
        self.core = [axis_slices(dim, j, slice(1, -1)) for j in range(dim)]
        # band layout of the interior unknowns, longest axis outermost
        self.inner = (slice(1, -1),) * dim
        ext = [n - 2 for n in grid.counts]
        self.order = sorted(range(dim), key=lambda j: -ext[j])
        self.shape = tuple(ext[j] for j in self.order)
        self.stride = [0] * dim
        for q, j in enumerate(self.order):
            self.stride[j] = int(np.prod(self.shape[q + 1:]))
        self.back = tuple(np.argsort(self.order).tolist())
        # the band offsets that hold nonzeros: the diagonal and the
        # per-axis strides on both sides, or on the lower side only for a
        # symmetric matrix; in 1D ``full`` is the tridiagonal band
        self.full = sorted({0} | {sign * s for sign in (-1, 1)
                                  for s in self.stride})
        self.lower = sorted({0, *self.stride})
        # the faces of axis j that lie on interior lines of the others
        self.cross = [tuple(slice(None) if i == j else slice(1, -1)
                            for i in range(dim)) for j in range(dim)]

    @cached_property
    def red_black(self) -> _RedBlack:
        return _RedBlack(self.shape, self.lower)


@dataclass
class _Carry:
    """What one solve keeps from one implicit step to the next: the grid
    data of its steps, the preconditioner made from the last 2D/3D k-mode
    Newton matrix that was factored (its red-black block elimination), and
    the field before u_n.  ``solve_problem`` makes one per call, so no
    state passes between solves."""

    layout: _Layout | None = None
    factor: _SchurFactor | None = None
    prev: ScalarField | None = None


def ordering_tolerance(config: SolverConfig, T: float) -> float:
    """Accumulated residual tolerance for pointwise ordering checks."""
    return config.newton_tol * (1.0 + T / config.dt)


class _StepProblem:
    """Residual and Newton update for one implicit step.

    ``residual(u)`` returns the residual together with the face data of
    every axis at u (one face pass); ``update`` at that iterate takes
    those face data.  The grid data come from ``layout``, or are built
    when it is None.  The Newton matrix is symmetric in 2D/3D k-mode only:
    1D k-mode differentiates the truncated coefficient too, and direct
    mode scales the columns of each axis by m_j u^(m_j-1) (see
    ``_face_slopes``).
    """

    def __init__(self, spec: ProblemSpec, grid: Grid, config: SolverConfig,
                 u_prev: np.ndarray, t_next: float,
                 layout: _Layout | None = None):
        self.spec = spec
        self.grid = grid
        self.config = config
        self.u_prev = u_prev
        self.t = t_next
        self.k = config.k
        self.layout = lay = _Layout(grid) if layout is None else layout
        self.interior = lay.interior
        self.boundary = lay.boundary
        self.f_vals = np.broadcast_to(
            np.asarray(spec.f(lay.x, t_next), dtype=float), grid.counts)
        self.bc = np.broadcast_to(
            np.asarray(spec.g(lay.x, t_next), dtype=float),
            grid.counts) + (0.0 if self.k is None else 1.0 / self.k)
        self.bc_boundary = self.bc[self.boundary]
        self.h = grid.spacings
        self.p = spec.exponents.p
        self.m = spec.exponents.m
        self.symmetric = self.k is not None and grid.dim > 1

    def _face_data(self, u: np.ndarray, j: int):
        """Per-face coefficient c, diff D of the working power, the
        derivative of the working power at both adjacent nodes, the face
        mean of u and the face flux F."""
        mj = self.m[j]
        ubar = face_mean(u, j)
        c = flux_coefficient(self.spec, self.k, j, self.layout.x_face[j],
                             self.t, ubar)
        lo = u[self.layout.lo[j]]
        hi = u[self.layout.hi[j]]
        if self.k is None and mj != 1.0:
            # direct mode works on u^(m_j)
            safe_lo = np.maximum(lo, 0.0)
            safe_hi = np.maximum(hi, 0.0)
            lo = safe_lo ** mj
            hi = safe_hi ** mj
            dlo = mj * safe_lo ** (mj - 1.0)
            dhi = mj * safe_hi ** (mj - 1.0)
        else:
            dlo = dhi = 1.0
        D = (hi - lo) / self.h[j]
        return c, D, dlo, dhi, ubar, flux(c, D, self.p[j])

    def residual(self, u: np.ndarray) -> tuple[np.ndarray, list]:
        """Residual at u, and the face data of every axis at u."""
        lay = self.layout
        R = (u - self.u_prev) / self.config.dt - self.f_vals
        faces = [self._face_data(u, j) for j in range(self.grid.dim)]
        for j, (*_, F) in enumerate(faces):
            R[lay.core[j]] -= (F[lay.hi[j]] - F[lay.lo[j]]) / self.h[j]
        R[self.boundary] = u[self.boundary] - self.bc_boundary
        return R, faces

    def _face_slopes(self, faces: list):
        """Per axis, the Jacobian weights (g_lo, g_hi) of every face on its
        lo and hi node.

        Face slopes use the regularized power (D^2 + EPS_REG^2)^((p-2)/2).
        In 1D k-mode the truncated coefficient
        c = a_j m_j^(p_j-1) T_k(ubar)^((m_j-1)(p_j-1)) is differentiated
        through the face mean ubar as well: the face flux F gains
        dc/dubar * 1/2 * |D|^(p-2) D per adjacent node, that is
        e = F (m_j-1)(p_j-1) / (2 h ubar) in the weights where
        1/k < ubar < k (T_k' vanishes outside), and the weights become
        (g_lo - e, g_hi + e): the exact Jacobian, nonsymmetric.  a_j's own
        dependence on u stays lagged everywhere, and so does the whole
        coefficient in direct mode and in 2D/3D k-mode, where the lagged
        matrix is symmetric (see ``update``).  The face between node i (lo)
        and i+1 (hi) on axis j contributes +g_lo, +g_hi to the diagonal of
        lo, hi and -g_hi, -g_lo to the entries (lo, hi), (hi, lo).
        """
        out = []
        for j, (c, D, dlo, dhi, ubar, F) in enumerate(faces):
            pj = self.p[j]
            h = self.h[j]
            slope = (c * (D * D + EPS_REG * EPS_REG) ** ((pj - 2.0) / 2.0)
                     * (pj - 1.0))
            g_lo = slope * dlo / (h * h)
            g_hi = slope * dhi / (h * h)
            if self.k is not None and not self.symmetric:
                # T_k(ubar) = ubar, and so dc/dubar = c (m_j-1)(p_j-1)/ubar,
                # only on (1/k, k)
                inside = (ubar > 1.0 / self.k) & (ubar < self.k)
                e = (F * inside * ((self.m[j] - 1.0) * (pj - 1.0) / (2.0 * h))
                     / np.where(inside, ubar, 1.0))
                g_lo, g_hi = g_lo - e, g_hi + e
            out.append((g_lo, g_hi))
        return out

    def update(self, faces: list, R: np.ndarray,
               carry: _Carry) -> np.ndarray:
        """Solve J delta = R for the Newton update at the iterate whose face
        data are ``faces``.

        The boundary rows of J are identity rows whose residual is 0 once
        u carries the boundary data, so only the interior unknowns are
        solved for, in band storage ordered with the longest interior axis
        outermost: the half-bandwidth is the product of the other interior
        extents.  Only the band rows that hold nonzeros are filled: the
        diagonal and the per-axis strides, on both sides of the diagonal,
        or on the lower side only when the matrix is symmetric.  The solve
        follows from the band:

        - a tridiagonal band (1D, both modes) is solved by banded LU;
        - the symmetric band of 2D/3D k-mode, the lagged matrix with a
          positive, dominating diagonal (the coefficient term would need a
          banded LU with twice the band, 2 to 4 times slower per solve at
          65x65 for about 10% fewer iterations), by one conjugate-gradient
          call to the relative residual CG_RTOL, preconditioned by the
          exact inverse of an earlier Newton matrix A of the same solve,
          ``carry.factor``.  That inverse is applied through A's red-black
          block elimination (see ``_RedBlack``): the banded Cholesky factor
          of the Schur complement S on the black nodes, which has half the
          unknowns of A and the same half-bandwidth.  When no factor is
          kept, or CG does not converge within CG_MAX iterations, the
          current matrix is factored and kept, and the system is solved
          with its factor;
        - the nonsymmetric band of 2D/3D direct mode by sparse LU of the
          band as a CSC matrix, which stores no zero entries.

        Raises ``LinAlgError`` when the system or the sparse-LU update is
        not finite, a tridiagonal system is singular, or a 2D/3D k-mode
        matrix that is factored is not positive definite.
        """
        lay = self.layout
        shape, back = lay.shape, lay.back
        offsets = lay.lower if self.symmetric else lay.full
        # one row of ab per offset, each viewed as an interior field with
        # the natural axis order: band(s) holds entry (i + s, i) at column
        # i.  A tridiagonal band is in ``solve_banded`` layout
        b = R[lay.inner].transpose(lay.order).ravel()
        ab = np.zeros((len(offsets), b.size))

        def band(s):
            return ab[offsets.index(s)].reshape(shape).transpose(back)

        diag = band(0)
        diag[...] = 1.0 / self.config.dt
        for j, (g_lo, g_hi) in enumerate(self._face_slopes(faces)):
            # keep the faces of interior cross lines
            g_lo = g_lo[lay.cross[j]]
            g_hi = g_hi[lay.cross[j]]
            diag += g_hi[lay.lo[j]]
            diag += g_lo[lay.hi[j]]
            # coupling of interior nodes i and i+1: entry (i+1, i) at
            # column i, entry (i, i+1) at column i+1
            band(lay.stride[j])[lay.lo[j]] -= g_lo[lay.core[j]]
            if not self.symmetric:
                band(-lay.stride[j])[lay.hi[j]] -= g_hi[lay.core[j]]
        if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(b))):
            raise np.linalg.LinAlgError("Newton system is not finite")
        if self.symmetric:
            x = self._pcg(ab, b, carry)
        elif offsets == [-1, 0, 1]:
            x = scipy.linalg.solve_banded((1, 1), ab, b, overwrite_ab=True,
                                          check_finite=False)
        else:
            # DIA offset d holds entry (i - d, i) at column i
            n = b.size
            J = sp.dia_matrix((ab, [-s for s in offsets]), shape=(n, n))
            x = spla.spsolve(J.tocsc(), b)
            # a singular matrix gives NaN, with a warning
            if not np.all(np.isfinite(x)):
                raise np.linalg.LinAlgError("Newton update is not finite")
        delta = np.zeros(self.grid.counts)
        delta[lay.inner] = x.reshape(shape).transpose(back)
        return delta

    def _pcg(self, ab: np.ndarray, b: np.ndarray,
             carry: _Carry) -> np.ndarray:
        """Solve the symmetric system whose nonzero lower band rows are
        ``ab`` by CG, preconditioned by ``carry.factor`` (see ``update``)."""
        n = b.size
        offsets = self.layout.lower

        def matvec(x):
            y = ab[0] * x
            for row, s in zip(ab[1:], offsets[1:]):
                y[s:] += row[:n - s] * x[:n - s]
                y[:n - s] += row[:n - s] * x[s:]
            return y

        def factor():
            # the stale factor is released before the new one is made
            carry.factor = None
            carry.factor = self.layout.red_black.factor(ab)

        if carry.factor is None:
            factor()
        x, info = spla.cg(spla.LinearOperator((n, n), matvec, dtype=float),
                          b, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAX,
                          M=spla.LinearOperator((n, n), carry.factor.solve,
                                                dtype=float))
        if info != 0:
            factor()
            x = carry.factor.solve(b)
        return x


def implicit_step(u_n: ScalarField, t_next: float, spec: ProblemSpec,
                  config: SolverConfig, carry: _Carry | None = None
                  ) -> tuple[ScalarField, StepReport]:
    """Advance one backward-Euler step.

    Solves (u - u_n)/dt = div F + f(., t_next) with boundary nodes pinned
    to g(., t_next) (plus 1/k in k-mode) by damped Newton with an exact
    residual.  The Newton matrix differentiates the truncation factor of
    the coefficient in 1D k-mode and lags the coefficient's dependence on
    u elsewhere (see ``_StepProblem.update``).  ``carry`` holds what the
    previous steps of the same solve left: the grid data of the steps, the
    kept factor that preconditions the 2D/3D k-mode solves, and the field
    before u_n; grid data made for another grid are made again, and the
    factor is dropped with them.  With
    it, k-mode Newton starts from u_n + r (u_n - u_{n-1}),
    r = (t_next - t_n) / (t_n - t_{n-1}), clamped below at 1/k; without a
    previous field (and always in direct mode) it starts from u_n.  The
    step records u_n in ``carry``; None starts a fresh one.  A step that
    does not reach ``newton_tol`` within ``newton_max`` iterations, or
    whose Newton system cannot be solved, ends in ``StepFailure``.
    """
    if carry is None:
        carry = _Carry()
    grid = u_n.grid
    if carry.layout is None or carry.layout.grid != grid:
        carry.layout = _Layout(grid)
        carry.factor = None
    prob = _StepProblem(spec, grid, config, u_n.values, t_next,
                        carry.layout)
    u = u_n.values.copy()
    if prob.k is not None and carry.prev is not None:
        # the local time derivative carries over to the next step
        r = (t_next - u_n.t) / (u_n.t - carry.prev.t)
        u += r * (u - carry.prev.values)
        np.maximum(u, 1.0 / prob.k, out=u)
    if config.guess_offset != 0.0:
        # perturb the initial Newton iterate; the converged state must not
        # depend on it beyond the residual tolerance
        u[prob.interior] += config.guess_offset
    u[prob.boundary] = prob.bc_boundary
    clamped = False

    hist = []
    R, faces = prob.residual(u)
    for it in range(config.newton_max + 1):
        res = float(np.max(np.abs(R)))
        hist.append(res)
        if res <= config.newton_tol:
            carry.prev = u_n
            return (ScalarField(grid, u, t_next),
                    StepReport(iterations=it, residual=res, clamped=clamped))
        if it == config.newton_max:
            break
        try:
            delta = prob.update(faces, R, carry)
        except np.linalg.LinAlgError as exc:
            raise StepFailure(-1, hist) from exc
        lam = 1.0
        # up to ten halvings; the eleventh trial is taken as it is
        for trial_no in range(11):
            trial = u - lam * delta
            if prob.k is None and np.any(trial < 0.0):
                trial = np.maximum(trial, 0.0)
                clamped = True
            R_trial, faces_trial = prob.residual(trial)
            if trial_no == 10 or float(np.max(np.abs(R_trial))) < res:
                # the accepted trial's residual and face data are the next
                # iteration's
                u, R, faces = trial, R_trial, faces_trial
                break
            lam /= 2.0
    raise StepFailure(-1, hist)


def solve_problem(spec: ProblemSpec, grid: Grid,
                  config: SolverConfig) -> tuple[TimeSeries, SolveReport]:
    """March the implicit scheme from 0 to T.

    In k-mode the initial field is u0 + 1/k and boundary data g + 1/k; in
    direct mode the data are used as given.  One ``_Carry``, made with the
    grid data, passes them, the kept factor and the previous field from
    each step to the next.
    """
    shift = 0.0 if config.k is None else 1.0 / config.k
    carry = _Carry(layout=_Layout(grid))
    x = carry.layout.x
    boundary = carry.layout.boundary
    u0 = np.broadcast_to(np.asarray(spec.u0(x), dtype=float),
                         grid.counts).copy() + shift
    bc0 = np.broadcast_to(np.asarray(spec.g(x, 0.0), dtype=float),
                          grid.counts) + shift
    u0[boundary] = bc0[boundary]
    fields = [ScalarField(grid, u0, 0.0)]
    report = SolveReport()
    n_steps = int(round(spec.T / config.dt))
    last = config
    if abs(n_steps * config.dt - spec.T) > 1e-9 * spec.T:
        # dt does not divide T: the last step is shortened to end at T
        n_steps = int(np.ceil(spec.T / config.dt))
        last = replace(config, dt=spec.T - (n_steps - 1) * config.dt)
    for n in range(n_steps):
        t_next = min((n + 1) * config.dt, spec.T)
        step_config = last if n == n_steps - 1 else config
        try:
            f_next, step = implicit_step(fields[-1], t_next, spec,
                                         step_config, carry=carry)
        except StepFailure as exc:
            exc.step_index = n
            raise
        fields.append(f_next)
        report.steps.append(step)
    return TimeSeries(fields), report


def manufactured_rhs(u_exact: Callable, spec: ProblemSpec,
                     k: int | None = None) -> Callable:
    """Source evaluator that makes u_exact solve the equation.

    f(x, t) = dt u - sum_j d_j(a_j |d_j w_j|^{p_j - 2} d_j w_j) with
    w_j = u^{m_j} for k None (direct mode), or w_j = u with the truncated
    coefficient for integer k.  Derivatives are fourth-order central
    differences with step FD_STEP, so u_exact must be smooth and evaluable
    slightly outside the box and horizon.  Raises if u_exact is not
    strictly positive at any probed point.
    """
    if not _valid_k(k):
        raise ValueError("k must be a positive integer or None")

    def ue(x, t):
        v = np.asarray(u_exact(x, t), dtype=float)
        if np.any(v <= 0.0):
            raise ValueError("manufactured solution must be positive")
        return v

    def d4(fun, s):
        """Fourth-order central derivative of fun at offset 0, step s."""
        return (-fun(2 * s) + 8 * fun(s) - 8 * fun(-s) + fun(-2 * s)) / (12 * s)

    def shift_x(x, j, ds):
        return tuple(c + ds if i == j else c for i, c in enumerate(x))

    def flux_j(x, t, j):
        mj = spec.exponents.m[j]

        def w_at(ds):
            uu = ue(shift_x(x, j, ds), t)
            return uu if (k is not None or mj == 1.0) else uu ** mj

        c = flux_coefficient(spec, k, j, x, t, ue(x, t))
        return flux(c, d4(w_at, FD_STEP), spec.exponents.p[j])

    def f(x, t):
        x = tuple(np.asarray(c, dtype=float) for c in x)
        dt_u = d4(lambda ds: ue(x, t + ds), FD_STEP)
        out = dt_u
        for j in range(spec.dim):
            div_j = d4(lambda ds: flux_j(shift_x(x, j, ds), t, j), FD_STEP)
            out = out - div_j
        return out

    return f


def refinement_errors(spec: ProblemSpec, exact: Callable, grid: Grid,
                      config: SolverConfig, levels: int = 3) -> list[float]:
    """L2 errors of direct-mode solves against an exact solution at the
    final time, on ``levels`` grids that halve the spacing and dt of
    ``grid`` and ``config`` one level after another."""
    errors = []
    for lev in range(levels):
        g = Grid(spec.box, tuple((c - 1) * 2 ** lev + 1 for c in grid.counts))
        ts, _ = solve_problem(
            spec, g, replace(config, dt=config.dt / 2 ** lev, k=None))
        fin = ts.fields[-1]
        err = ScalarField(g, fin.values - exact(g.meshgrid(), fin.t))
        errors.append(float(np.sqrt(integrate_power(err, 2.0))))
    return errors


@dataclass
class CascadeResult:
    ks: list[int]
    series: list[TimeSeries]
    reports: list[SolveReport]
    ordering_excess: dict[tuple[int, int], float]
    distances: list[float]

    def as_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "ordering_excess": {f"{a}->{b}": v for (a, b), v
                                in self.ordering_excess.items()},
            "distances": list(self.distances),
            "reports": [r.as_dict() for r in self.reports],
        }


def regularization_cascade(spec: ProblemSpec, grid: Grid,
                           config: SolverConfig,
                           ks: Sequence[int]) -> CascadeResult:
    """Solve the truncated problems for an increasing list of k.

    Returns every trajectory (the last one is the limit proxy), the worst
    positive part of u_l - u_k over space-time for each consecutive pair
    k < l (expected below the ordering tolerance since the family
    decreases in k), and the successive trajectory distances in the
    solution-space metric.
    """
    ks = list(ks)
    if not ks:
        raise ValueError("ks must not be empty")
    if not all(k is not None and _valid_k(k) for k in ks):
        raise ValueError(f"ks must be positive integers, got {ks!r}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    if not spec.exponents.closeness_ok:
        raise ValueError("cascade requires the exponent closeness condition")
    series, reports = [], []
    for k in ks:
        ts, rep = solve_problem(spec, grid, replace(config, k=k))
        series.append(ts)
        reports.append(rep)
    excess = {}
    for (ka, sa), (kb, sb) in zip(zip(ks, series), zip(ks[1:], series[1:])):
        worst = 0.0
        for fa, fb in zip(sa.fields, sb.fields):
            worst = max(worst, float(np.max(fb.values - fa.values)))
        excess[(ka, kb)] = max(worst, 0.0)
    m = spec.exponents.m
    p = spec.exponents.p
    distances = [vpm_distance(sa, sb, m, p)
                 for sa, sb in zip(series, series[1:])]
    return CascadeResult(ks=ks, series=series, reports=reports,
                         ordering_excess=excess, distances=distances)
