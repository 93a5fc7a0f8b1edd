"""Backward-Euler time stepping with a damped Newton inner solve.

Both modes have one face flux F = a_j(ubar) |D|^(p_j-2) D on the working
power Phi = ``model.working_power(k, m_j, u)``: D = (Phi(u_hi) -
Phi(u_lo))/h_j, with a_j at the face mean ubar of u.  In k-mode the
unknown is the solution of the truncated problem: Phi is the Kirchhoff
power Phi_{k,j}, u^{m_j} on [1/k, k] and linear outside, and the data f,
g, u0 are shifted by 1/k.  In direct mode Phi = u^{m_j}, and the data are
used as given.  The scheme is monotone (raising u at a node does not
lower u at its neighbours) where dF/du_lo <= 0 <= dF/du_hi.  Since
dF/du_lo = |D|^(p-2) (a_j' D/2 - (p-1) a_j Phi'(u_lo)/h), that holds
while a_j' (Phi(u_hi) - Phi(u_lo))/2 <= (p-1) a_j Phi'(u_lo), and its
mirror -a_j' (Phi(u_hi) - Phi(u_lo))/2 <= (p-1) a_j Phi'(u_hi): always
when a_j does not depend on u, as Phi' > 0 in k-mode.  Direct mode has
Phi'(0) = 0 for m_j > 1, so there a u-dependent a_j can break it.

Both modes hold their Newton matrix as one operator (d, w) over the
interior unknowns, ordered with the longest interior axis outermost: the
diagonal d and the couplings w of neighbouring nodes, made from the face
weights (the boundary rows are identity rows whose residual is 0).  The
matrix lags the dependence of a_j on u.  The columns of axis j are
scaled by Phi', which makes it the exact Jacobian when a_j does not
depend on u; 2D/3D k-mode gives both nodes of a face the mean of their
Phi', which keeps its matrix symmetric.  For p_j < 2 the face flux is
regularized (``model.flux``) and the matrix uses its exact slope.  The
1D operator is tridiagonal, and LAPACK ``dgtsv`` solves it on (d, w).
In 2D/3D, the red-black block elimination (Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., 2003) of the red nodes, whose block is
diagonal, is exact and leaves the Schur complement S on the black half
of the unknowns.  ``_RedBlack.solve`` is that one solve: direct mode
solves S by one banded LU, k-mode its symmetric S by conjugate gradients
preconditioned by a factor kept from an earlier Newton matrix of the
same solve, renewed when CG fails and after a slow CG solve.  S is kept
in LAPACK's band storage, one row wider than its half-bandwidth kd when
that makes the width a multiple of BAND_STEP: the 2D grids of 2^j + 1
nodes per axis have kd = 2^j - 1, and one row short of a multiple of 16
the band kernels took up to 1.75 times as long.  The added row is zero,
so S and its factors stay the same matrices.

One Newton loop, ``_stacked_step``, advances the members of a solve side
by side: solves that share grid, time axis and data and differ in their
truncation level, held as a stack of fields of shape (members, *counts).
Each member keeps its own Newton start, step length, convergence test
and report and, in 2D/3D, its own kept factor.  No member leaves the
stack within a step: one that has converged or failed gets a zero
update, so its row stays as it is.  In every dimension each live
member's Newton system is solved by a call of its own (``dgtsv`` in 1D,
``_RedBlack.solve`` in 2D/3D), so every member gets the bits of a solve
of its own; the per-call overhead is small beside the LAPACK work.
``implicit_step`` and ``solve_problem`` run it on a stack of one; a 1D
``regularization_cascade`` marches all its members together.  A march
keeps state from one time step to the next in one ``_Layout``: the grid
data of its steps, the red-black split with each member's kept factor,
and the previous fields.
In both modes Newton starts from the linear extrapolation of the last
two fields, clamped below at the mode's lower bound (1/k in k-mode, 0 in
direct mode).
"""

from __future__ import annotations

import copy
import importlib
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .discretization import (Grid, ScalarField, TimeSeries, axis_slices,
                             face_mean, integrate_power)
from .model import ProblemSpec, evaluate, flux, flux_slope, working_power
from .analysis import ordering_excess, vpm_distance

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

# step of the central differences in manufactured_rhs
FD_STEP = 1e-3
# relative residual and iteration limit of the conjugate-gradient solve of
# a 2D/3D k-mode Newton system; a looser tolerance costs Newton iterations
CG_RTOL = 1e-4
CG_MAX = 8
# CG iterations at which a converged solve gives up its kept factor, so
# that the next solve of the split factors its own S first
CG_RENEW = 4
# S is stored one band row wider when that makes its width a multiple of
# BAND_STEP: LAPACK's band kernels ran much slower one row short of it
BAND_STEP = 16


class _Deferred:
    """Stand-in for a scipy module, imported on first use.

    The first attribute read imports the module and puts it in this
    module's globals in place of the stand-in, so every later read is the
    module's own.  Importing scipy's linear algebra takes longer than
    numpy and the package together, and each path loads only what it
    calls: 1D ``scipy.linalg``, 2D/3D direct mode ``scipy.sparse`` as
    well, k-mode ``scipy.sparse.linalg`` too.
    """

    def __init__(self, name: str, module: str):
        self._name = name
        self._module = module

    def __getattr__(self, attr):
        module = importlib.import_module(self._module)
        globals()[self._name] = module
        return getattr(module, attr)


lapack = _Deferred("lapack", "scipy.linalg.lapack")
sp = _Deferred("sp", "scipy.sparse")
spla = _Deferred("spla", "scipy.sparse.linalg")
_sparsetools = _Deferred("_sparsetools", "scipy.sparse._sparsetools")


def _matvec(a, x: np.ndarray) -> np.ndarray:
    """a @ x for a CSR or CSC matrix ``a`` and a vector x, both of floats:
    the kernel that scipy's own product runs, with its summation order,
    without scipy.sparse's operator dispatch.  ``_sparsetools`` is
    private; its ``csr_matvec``/``csc_matvec`` are the calls of
    ``_compressed._cs_matrix._matmul_vector`` in scipy 1.17.1, the version
    this was checked against."""
    rows, cols = a.shape
    out = np.zeros(rows)
    getattr(_sparsetools, a.format + "_matvec")(
        rows, cols, a.indptr, a.indices, a.data, x, out)
    return out


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

    ``implicit_step`` raises it with step -1; the march of ``solve_problem``
    and ``regularization_cascade`` sets the index of the failed step, which
    the message reads.  ``k`` is the truncation level of the member that
    failed (None in direct mode).  ``cause`` is one of CAUSES, or None
    when not known: the Newton system or update was not finite, its matrix
    not positive definite or singular, or Newton reached ``newton_max``
    iterations.
    """

    CAUSES = ("not finite", "not positive definite", "singular",
              "iteration limit")

    def __init__(self, step_index: int, residual_history: list[float],
                 cause: str | None = None, k: int | None = None):
        super().__init__(step_index, residual_history, cause, k)
        self.step_index = step_index
        self.residual_history = residual_history
        self.cause = cause
        self.k = k

    def __str__(self) -> str:
        text = (f"step {self.step_index} failed, final residual "
                f"{self.residual_history[-1]:.3e}")
        return text if self.cause is None else f"{text} ({self.cause})"


class _RedBlack:
    """The red-black split of the interior unknowns of a 2D/3D grid and
    the fixed patterns of the block elimination of its Newton operator.

    A node is red when the sum of its interior indices is even, black
    otherwise; each colour is numbered in the band order.  The 5- and
    7-point Newton operator couples only nodes of different colours, so it
    reads A = [[D_r, B], [C^T, D_b]] with D_r, D_b diagonal, and
    eliminating the red nodes leaves the Schur complement
    S = D_b - C^T D_r^-1 B on the black ones; the lagged k-mode matrix is
    symmetric, C = B.  S couples black nodes that share a red neighbour:
    offsets 2e_i and e_i - e_j, e_i + e_j of the grid, so its
    half-bandwidth ``kd`` is about the largest stride.  S is stored with
    the width ``band``: kd, or kd + 1 when that is a multiple of
    BAND_STEP, since LAPACK's band kernels ran much slower one row short
    of it; the added row is zero.  The lower storage of the symmetric S
    and its Cholesky factor has band + 1 rows, the general storage of
    the LU 3 band + 1.  ``B`` and ``C`` are the CSR blocks, of one
    pattern, of the operator filled last (see ``fill``); ``Bt`` and
    ``Ct`` are their transposes and share their data.  ``schur`` is the
    one assembly of S and ``solve`` the one solve of both modes; ``kept``
    is the factor that ``solve`` keeps for the symmetric operators, None
    until it makes one and again after a slow CG solve drops it
    (``solve`` alone sets it), and ``cg_operators`` the operator S and
    the preconditioner that it hands to CG, made on its first symmetric
    solve and kept: they read the ``d_b``, ``inv_dr`` (D_b and 1/D_r)
    and ``kept`` of the current solve.  ``by_colour`` lists the red
    nodes, then the black ones, and ``to_band`` is its inverse, so one
    gather reads both halves of a vector and one puts them back.
    """

    def __init__(self, shape: tuple[int, ...]):
        n = int(np.prod(shape))
        coords = np.indices(shape).reshape(len(shape), n)
        black = coords.sum(axis=0) % 2 == 1
        self.red = np.flatnonzero(~black)
        self.black = np.flatnonzero(black)
        self.by_colour = np.concatenate((self.red, self.black))
        self.to_band = np.argsort(self.by_colour)
        num = np.empty(n, dtype=np.intp)
        num[self.red] = np.arange(self.red.size)
        num[self.black] = np.arange(self.black.size)
        # every coupling of node i and node i + s along a band axis of
        # stride s, in the order of the couplings w of the operator (see
        # ``_StepProblem.assemble``)
        lo, hi = [], []
        for q in range(len(shape)):
            s = int(np.prod(shape[q + 1:]))
            i = np.flatnonzero(coords[q] < shape[q] - 1)
            lo.append(i)
            hi.append(i + s)
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        lo_black = black[lo]
        r = num[np.where(lo_black, hi, lo)]
        b = num[np.where(lo_black, lo, hi)]
        # B in CSR order: by red row, then black column
        self.sort = np.lexsort((b, r))
        # the position in w of each entry of B and C^T: w[c] is entry
        # (i + s, i) of coupling c, w[c + lo.size] entry (i, i + s); B holds
        # the entry in the red row and C^T the other.  A symmetric w holds
        # the first half only, and B = C is w[sort]
        lo_black = lo_black[self.sort]
        self.src_b = np.where(lo_black, self.sort, self.sort + lo.size)
        self.src_c = np.where(lo_black, self.sort + lo.size, self.sort)
        indices = b[self.sort]
        deg = np.bincount(r, minlength=self.red.size)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        self.B, self.C = (
            sp.csr_matrix((np.zeros(lo.size), indices, indptr),
                          shape=(self.red.size, self.black.size))
            for _ in range(2))
        self.Bt = self.B.T
        self.Ct = self.C.T
        # every pair of entries (a, b) of one red row, a at or after b: it
        # adds -C[r, a] B[r, b] / d_r to S at black row indices[a] and
        # column indices[b] (lower triangle)
        pa = [np.zeros(0, dtype=np.intp)]
        pb = [np.zeros(0, dtype=np.intp)]
        for u in range(int(deg.max(initial=0))):
            start = indptr[:-1][deg > u]
            for v in range(u + 1):
                pa.append(start + u)
                pb.append(start + v)
        pa, pb = np.concatenate(pa), np.concatenate(pb)
        row, col = indices[pa], indices[pb]
        # half-bandwidth of S, and the width of its band storage, whose
        # added row is zero; the pairs as (a, b, red row, position), the
        # position in S's lower band storage of shape (band + 1, n_black)
        # in Fortran order
        self.kd = int(np.max(row - col, initial=0))
        self.band = (self.kd + 1 if self.kd % BAND_STEP == BAND_STEP - 1
                     else self.kd)
        self.pairs = (pa, pb, np.repeat(np.arange(self.red.size), deg)[pa],
                      col * (self.band + 1) + (row - col))
        self.kept = None
        self.cg_operators = self.d_b = self.inv_dr = None

    @cached_property
    def lu_pairs(self) -> tuple[np.ndarray, ...]:
        """The pairs of a nonsymmetric S (see ``solve``): every pair in
        both orders (a before b: upper triangle) as (a, b, red row,
        position), the position in LAPACK's general band storage of shape
        (3 band + 1, n_black) in Fortran order, whose first band rows are
        left for the fill-in of the LU factor.  Made on first use, so that
        k-mode does not hold them."""
        pa, pb, red, _ = self.pairs
        upper = pa != pb
        a = np.concatenate((pa, pb[upper]))
        b = np.concatenate((pb, pa[upper]))
        red = np.concatenate((red, red[upper]))
        indices = self.B.indices.astype(np.intp)
        row, col = indices[a], indices[b]
        pos = col * (3 * self.band + 1) + 2 * self.band + (row - col)
        return a, b, red, pos

    def fill(self, d: np.ndarray,
             w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fill ``B`` from the operator (d, w) of ``_StepProblem.assemble``,
        and ``C`` too when w holds both halves; return D_r and D_b."""
        if w.size == self.sort.size:
            np.take(w, self.sort, out=self.B.data)
        else:
            np.take(w, self.src_b, out=self.B.data)
            np.take(w, self.src_c, out=self.C.data)
        d = d[self.by_colour]
        return d[:self.red.size], d[self.red.size:]

    def schur(self, c: np.ndarray, pairs: tuple[np.ndarray, ...], ld: int,
              diag: int, inv_dr: np.ndarray, d_b: np.ndarray) -> np.ndarray:
        """S = D_b - C^T D_r^-1 B with C's data ``c``, 1/D_r ``inv_dr`` and
        the B filled last, in a band storage of ``ld`` rows in Fortran
        order whose row ``diag`` is the diagonal; ``pairs`` place its
        entries (``pairs`` or ``lu_pairs``)."""
        pa, pb, red, pos = pairs
        n_b = self.black.size
        # (a float band also when there are no pairs: a single red node)
        s = np.bincount(pos, weights=-(c[pa] * self.B.data[pb] * inv_dr[red]),
                        minlength=ld * n_b).astype(float, copy=False)
        s[diag::ld] += d_b
        return s.reshape((ld, n_b), order="F")

    def factor(self, inv_dr: np.ndarray, d_b: np.ndarray) -> np.ndarray:
        """The banded Cholesky factor (LAPACK ``dpbtrf``, lower form) of
        the S of the symmetric operator with 1/D_r, D_b and the B that
        ``fill`` filled last.  Raises ``LinAlgError`` when S is not
        positive definite."""
        s = self.schur(self.B.data, self.pairs, self.band + 1, 0, inv_dr,
                       d_b)
        chol, info = lapack.dpbtrf(s, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                "Newton matrix is not positive definite")
        return chol

    def solve(self, d: np.ndarray, w: np.ndarray,
              r: np.ndarray) -> np.ndarray:
        """A^-1 r for the operator (d, w) of ``_StepProblem.assemble``, by
        the block elimination of A = [[D_r, B], [C^T, D_b]]: x_b solves
        S x_b = r_b - C^T D_r^-1 r_r, then x_r = D_r^-1 (r_r - B x_b).  D_r
        is diagonal, so eliminating it costs no pivoting.

        - When w holds both halves (direct mode), S is solved by one banded
          LU with partial pivoting (LAPACK ``dgbsv``).  On an admissible
          problem this is safe: every red diagonal entry is at least 1/dt,
          and the matrix is column diagonally dominant (each face adds its
          weight to one diagonal entry and subtracts it from another entry
          of the same column), which block elimination hands on to S.
        - When w holds one half (the symmetric lagged matrix of k-mode,
          C = B, whose diagonal is positive and dominating; README says
          why the coefficient stays lagged), one conjugate-gradient call
          runs on S, applied matrix-free, until the residual is below
          CG_RTOL ||r|| (an inexact Newton step, Eisenstat & Walker 1996);
          the red rows are solved exactly, so this bounds the residual of
          the whole system.  CG is preconditioned by ``kept``, the banded
          Cholesky factor of the S of an earlier operator (Newton-Krylov
          with a reused preconditioner, Knoll & Keyes 2004).  When no
          factor is kept, the current S is factored and kept first; when
          CG does not converge within CG_MAX iterations, it is factored
          and kept, and solved with its factor.  When CG converges but
          needs CG_RENEW or more iterations, the factor has gone stale:
          the solve keeps CG's result and drops the factor, so that the
          next solve factors its own S and CG converges there at its
          first iterate.  The decision reads only iteration counts, so a
          repeated run gives the same bits.  CG runs on every grid:
          on an even interior extent a reflection swaps the colours, so
          the inexact solve breaks the symmetry of symmetric data, but the
          regularized flux is smooth at D = 0, and Newton does not stall
          there.

        Raises ``LinAlgError`` when a red diagonal entry is 0 or not
        finite, and then, for both halves, when S is singular; for one
        half, when a red diagonal entry is negative or a factored S is not
        positive definite.
        """
        # (a single interior node has no couplings and reads as symmetric)
        symmetric = w.size == self.sort.size
        d_r, d_b = self.fill(d, w)
        if not np.all(np.isfinite(d_r) & (d_r != 0.0)):
            raise np.linalg.LinAlgError("Newton matrix is singular")
        if symmetric and not np.all(d_r > 0.0):
            raise np.linalg.LinAlgError(
                "Newton matrix is not positive definite")
        inv_dr = 1.0 / d_r
        if symmetric and self.kept is None:
            self.kept = self.factor(inv_dr, d_b)
        n_r = self.red.size
        r_rb = r[self.by_colour]
        y = inv_dr * r_rb[:n_r]
        if self.black.size == 0:
            # a single interior node, which is red
            return y
        rhs = r_rb[n_r:] - _matvec(self.Bt if symmetric else self.Ct, y)
        if symmetric:
            self.d_b, self.inv_dr = d_b, inv_dr
            if self.cg_operators is None:
                m = self.black.size
                # through a weak proxy, so that the operators form no
                # reference cycle with the split, and its factor and
                # blocks are freed as soon as its layout is
                rb = weakref.proxy(self)
                self.cg_operators = (
                    spla.LinearOperator(
                        (m, m), lambda x: rb.d_b * x - _matvec(
                            rb.Bt, rb.inv_dr * _matvec(rb.B, x)),
                        dtype=float),
                    spla.LinearOperator(
                        (m, m),
                        lambda x: lapack.dpbtrs(rb.kept, x, lower=1)[0],
                        dtype=float))
            schur, precondition = self.cg_operators
            # CG hands each iterate to the callback: their number is the
            # iteration count
            iterates = []
            x_b, info = spla.cg(
                schur, rhs, rtol=0.0, atol=CG_RTOL * np.linalg.norm(r),
                maxiter=CG_MAX, M=precondition, callback=iterates.append)
            if info:
                # the stale factor is released before the new one is made
                self.kept = None
                self.kept = self.factor(inv_dr, d_b)
                x_b = precondition.matvec(rhs)
            elif len(iterates) >= CG_RENEW:
                # a slow solve keeps its result and releases the factor, so
                # that the next one factors its own S
                self.kept = None
        else:
            band = self.band
            s = self.schur(self.C.data, self.lu_pairs, 3 * band + 1,
                           2 * band, inv_dr, d_b)
            *_, x_b, info = lapack.dgbsv(band, band, s, rhs, overwrite_ab=1,
                                         overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError("Newton matrix is singular")
        # x_r and x_b side by side, put back into the band order
        return np.concatenate((y - inv_dr * _matvec(self.B, x_b),
                               x_b))[self.to_band]


class _Layout:
    """What one solve keeps from one implicit step to the next: the grid
    data of its steps (node and face coordinates, masks, per-axis slices,
    and the band order of the interior unknowns with, in 2D/3D, their
    red-black split), and per member of the solve its kept factor and
    ``prev``, its field before u_n, from which both modes extrapolate the
    Newton start.  The march of ``solve_problem`` and
    ``regularization_cascade`` makes one per call, so no state passes
    between solves.  The slices index a stack of fields, of shape
    (members, *counts).
    """

    def __init__(self, grid: Grid, size: int = 1):
        dim = grid.dim
        self.grid = grid
        self.size = size
        # the stack of fields before u_n, and its time
        self.prev: np.ndarray | None = None
        self.prev_t = 0.0
        self.interior = grid.interior_mask()
        self.boundary = ~self.interior
        # the boundary nodes of a stack of fields
        self.edge = (Ellipsis,) + np.nonzero(self.boundary)
        self.x = grid.meshgrid()
        self.x_face = [tuple(face_mean(c, j) for c in self.x)
                       for j in range(dim)]
        every = (Ellipsis,)
        # per axis: the lo and hi node of every face, and the nodes between
        # two faces of the axis
        self.lo = [every + axis_slices(dim, j, slice(0, -1))
                   for j in range(dim)]
        self.hi = [every + axis_slices(dim, j, slice(1, None))
                   for j in range(dim)]
        self.core = [every + axis_slices(dim, j, slice(1, -1))
                     for j in range(dim)]
        # band order of the interior unknowns, longest axis outermost, and
        # the permutations of a stack into it and back
        self.inner = every + (slice(1, -1),) * dim
        ext = [n - 2 for n in grid.counts]
        self.order = sorted(range(dim), key=lambda j: -ext[j])
        self.shape = tuple(ext[j] for j in self.order)
        self.unknowns = int(np.prod(ext))
        self.band = (0,) + tuple(j + 1 for j in self.order)
        self.unband = (0,) + tuple(int(q) + 1 for q in np.argsort(self.order))
        # the faces of axis j that lie on interior lines of the others
        self.cross = [every + tuple(slice(None) if i == j else slice(1, -1)
                                    for i in range(dim)) for j in range(dim)]

    @cached_property
    def red_black(self) -> list[_RedBlack]:
        """One red-black split per member: shallow copies of one, which
        share its patterns and blocks B and C (``fill`` fills them before
        each solve), and each keep their own factor and CG operators (the
        copies are made before any solve)."""
        rb = _RedBlack(self.shape)
        return [rb] + [copy.copy(rb) for _ in range(self.size - 1)]

    def rows(self, fields: np.ndarray) -> np.ndarray:
        """A stack of fields as one row of nodes per member: a view, so
        writing to it writes to the fields, for the contiguous stacks the
        solver makes."""
        return fields.reshape(-1, self.boundary.size)

    def keep(self, size: int) -> None:
        """Keep the first ``size`` members; the others left the solve."""
        self.size = size
        self.prev = self.prev[:size] if size else None
        if "red_black" in self.__dict__:
            del self.red_black[size:]


def ordering_tolerance(config: SolverConfig, T: float) -> float:
    """Accumulated residual tolerance for pointwise ordering checks."""
    return config.newton_tol * (1.0 + T / config.dt)


def _levels(ks: Sequence[int | None], dim: int):
    """The truncation levels ``ks`` of the members (None in direct mode,
    where every k is None) and the lower bound of each, 1/k in k-mode and
    0 in direct mode: k-mode's as arrays that broadcast over a stack of
    fields, direct mode's as the one float 0.0."""
    if ks[0] is None:
        return None, 0.0
    k = np.array(ks, dtype=float).reshape((len(ks),) + (1,) * dim)
    return k, 1.0 / k


class _StepProblem:
    """Residual and Newton update of one implicit step, for a stack of
    members that share grid, time step and data and differ in their
    truncation level: member i solves the problem truncated at ``ks[i]``
    (every k None: direct mode).

    The fields are stacks of shape (members, *counts), as ``u_prev`` is;
    a single solve is a stack of one.  ``residual(u)`` returns the
    residual together with the face data of every axis at u (one face
    pass); ``update`` at that iterate takes those face data.  Each pass
    makes every array once and computes in place only on arrays that it
    made itself: it never writes to u, ``u_prev``, R, the face data or
    an evaluator's values, some of which are read-only views.  The grid
    data and the kept factors come from ``layout``.  The Newton matrix is
    symmetric in 2D/3D k-mode only: elsewhere it scales each column of
    axis j by the derivative of the working power at its node (see
    ``_face_slopes``).
    """

    def __init__(self, spec: ProblemSpec, config: SolverConfig,
                 ks: Sequence[int | None], u_prev: np.ndarray, t_next: float,
                 layout: _Layout):
        self.spec = spec
        self.grid = grid = layout.grid
        self.config = config
        self.u_prev = u_prev
        self.t = t_next
        self.layout = lay = layout
        self.interior = lay.interior
        self.boundary = lay.boundary
        # the data are evaluated once for every member, with a stack axis
        # of length 1
        self.f_vals = evaluate(spec.f, grid.counts, lay.x, t_next)[None]
        # the floor of each member shifts its boundary data and floors its
        # Newton start
        self.k, self.floor = _levels(ks, grid.dim)
        bc = evaluate(spec.g, grid.counts, lay.x, t_next)[None] + self.floor
        self.bc_boundary = bc[lay.edge]
        self.h = grid.spacings
        self.p = spec.exponents.p
        self.m = spec.exponents.m
        self.symmetric = self.k is not None and grid.dim > 1

    def _face_data(self, u: np.ndarray, j: int):
        """Per-face coefficient c = a_j at the face mean of u, diff D of
        the working power (``model.working_power``), the derivative of the
        working power at both adjacent nodes and the face flux F."""
        lo, hi = self.layout.lo[j], self.layout.hi[j]
        ubar = u[lo] + u[hi]
        ubar /= 2.0
        c = evaluate(self.spec.coeffs.funcs[j], ubar.shape,
                     self.layout.x_face[j], self.t, ubar)
        w, dw = working_power(self.k, self.m[j], u)
        D = w[hi] - w[lo]
        D /= self.h[j]
        # m_j = 1 has the one scalar derivative 1.0
        dlo, dhi = ((dw[lo], dw[hi]) if isinstance(dw, np.ndarray)
                    else (dw, dw))
        return c, D, dlo, dhi, flux(c, D, self.p[j])

    def residual(self, u: np.ndarray) -> tuple[np.ndarray, list]:
        """Residual at u, and the face data of every axis at u."""
        lay = self.layout
        R = u - self.u_prev
        R /= self.config.dt
        R -= self.f_vals
        faces = [self._face_data(u, j) for j in range(self.grid.dim)]
        for j, (*_, F) in enumerate(faces):
            div = F[lay.hi[j]] - F[lay.lo[j]]
            div /= self.h[j]
            R[lay.core[j]] -= div
        R[lay.edge] = u[lay.edge] - self.bc_boundary
        return R, faces

    def _face_slopes(self, faces: list):
        """Per axis, the Jacobian weights (g_lo, g_hi) of every face on its
        lo and hi node.

        The weight on a node is ``model.flux_slope`` at the face
        difference D times the derivative of the working power at that
        node, over h^2: the exact Jacobian when a_j does not depend on u,
        nonsymmetric where the two derivatives differ.  a_j's own
        dependence on u stays lagged.  2D/3D k-mode gives both nodes of a
        face the mean of the two derivatives, which keeps the lagged
        matrix symmetric (see ``_RedBlack.solve``).  ``assemble`` places
        the weights.
        """
        out = []
        for j, (c, D, dlo, dhi, _) in enumerate(faces):
            h = self.h[j]
            slope = flux_slope(c, D, self.p[j])
            if self.symmetric:
                dlo = dlo + dhi
                dlo /= 2.0
                dhi = dlo
            g_lo = slope * dlo
            g_lo /= h * h
            # m_j = 1, and 2D/3D k-mode, give both nodes one derivative
            if dhi is dlo:
                g_hi = g_lo
            else:
                g_hi = slope * dhi
                g_hi /= h * h
            out.append((g_lo, g_hi))
        return out

    def assemble(self, faces: list, R: np.ndarray) -> np.ndarray:
        """The interior Newton system of every member at the iterate whose
        face data are ``faces``, one row per member: its interior residual
        b, then the operator (d, w), each in band order (``unpack`` reads
        them), so that one pass checks all of them.

        d is 1/dt plus, per face, g_lo on its lo and g_hi on its hi node.
        w holds J[i + s, i] = -g_lo of every face of interior nodes i and
        i + s, band axis by band axis, then J[i, i + s] = -g_hi in the same
        order; the symmetric operator of 2D/3D k-mode (g_lo = g_hi) holds
        the first half only.  The boundary rows of J are identity rows
        whose residual is 0 once u carries the boundary data.
        """
        lay = self.layout
        slopes = self._face_slopes(faces)
        # b and the blocks of w, in band order
        b = R[lay.inner].transpose(lay.band)
        couplings = [slopes[j][h][lay.inner].transpose(lay.band)
                     for h in ((0,) if self.symmetric else (0, 1))
                     for j in lay.order]
        rows = len(R)
        system = np.empty(
            (rows, (2 * b.size + sum(g.size for g in couplings)) // rows))

        def block(start: int, values: np.ndarray) -> np.ndarray:
            # the columns of ``system`` from ``start``, shaped as ``values``
            return system[:, start:start + values.size // rows].reshape(
                values.shape)

        block(0, b)[...] = b
        # d viewed as the interior fields with the natural axis order
        diag = block(lay.unknowns, b).transpose(lay.unband)
        diag[...] = 1.0 / self.config.dt
        for j, (g_lo, g_hi) in enumerate(slopes):
            # keep the faces of interior cross lines
            diag += g_hi[lay.cross[j]][lay.lo[j]]
            diag += g_lo[lay.cross[j]][lay.hi[j]]
        start = 2 * lay.unknowns
        for g in couplings:
            np.negative(g, out=block(start, g))
            start += g.size // rows
        return system

    def unpack(self, system: np.ndarray) -> tuple[np.ndarray, ...]:
        """The views (d, w, b) of the systems of ``assemble``."""
        n = self.layout.unknowns
        return system[:, n:2 * n], system[:, 2 * n:], system[:, :n]

    def update(self, faces: list, R: np.ndarray, live: np.ndarray):
        """Solve J delta = R for the Newton update of the members marked
        in the mask ``live`` at the iterate whose face data are ``faces``;
        the other members get a zero update, and their systems are left
        out of the checks.

        Returns (delta, failed): the updates of the stack, zero also for
        the first live member whose system cannot be solved and every
        member after it, and that member's position in the stack with the
        ``LinAlgError`` that names why (the system is not finite or is
        singular, or in 2D/3D ``_RedBlack.solve`` cannot solve it), or
        None.  Only the interior unknowns are solved for, on the operators
        (d, w) of ``assemble``, and each live member by a call of its own,
        in stack order: in 2D/3D its ``_RedBlack.solve``, with its own
        kept factor; in 1D (both modes) one tridiagonal LU with partial
        pivoting, LAPACK ``dgtsv``, on its row of the systems, whose
        (d, w) are scratch and are overwritten.  A call of its own costs
        about 2 us more than a member's share of one call joining them,
        beside about 26 us of LAPACK work on 1,023 unknowns, and gives
        every member the bits of a solve of its own.  Each solve lands
        in the member's interior rows of delta, with no stack of
        solutions in between: ``dgtsv`` overwrites the copy of b made
        there, and the 2D/3D solution is put there from its band order
        (a failed member's rows are reset to zero).  Neither the face
        data nor R is written to.
        """
        lay = self.layout
        system = self.assemble(faces, R)
        d, w, b = self.unpack(system)
        n = d.shape[1]
        finite = np.isfinite(system).all(axis=1)
        delta, failed = np.zeros(R.shape), None
        # each member's interior unknowns in band order, a view of delta:
        # in 1D a contiguous row
        x = delta[lay.inner].transpose(lay.band)
        for a in np.flatnonzero(live).tolist():
            try:
                if not finite[a]:
                    raise np.linalg.LinAlgError("Newton system is not finite")
                if self.grid.dim > 1:
                    x[a] = lay.red_black[a].solve(d[a], w[a],
                                                  b[a]).reshape(lay.shape)
                elif n == 1:
                    # f2py rejects the empty off-diagonals of a 1 x 1 system
                    if d[a, 0] == 0.0:
                        raise np.linalg.LinAlgError(
                            "Newton matrix is singular")
                    x[a] = b[a] / d[a]
                else:
                    # J[i + 1, i] and J[i, i + 1] are the two halves of w;
                    # dgtsv solves in place in the member's row of delta
                    x[a] = b[a]
                    *_, info = lapack.dgtsv(
                        w[a, :n - 1], d[a], w[a, n - 1:], x[a],
                        overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                        overwrite_b=1)
                    if info != 0:
                        x[a] = 0.0
                        raise np.linalg.LinAlgError(
                            "Newton matrix is singular")
            except np.linalg.LinAlgError as exc:
                failed = (a, exc)
                break
        return delta, failed


def _stacked_step(spec: ProblemSpec, config: SolverConfig,
                  ks: Sequence[int | None], u_n: np.ndarray, t_n: float,
                  t_next: float, lay: _Layout):
    """Advance the members of one solve a backward-Euler step side by
    side: member i, at level ``ks[i]`` (see ``_StepProblem``), from its
    field ``u_n[i]`` at t_n, with what the earlier steps left in ``lay``.

    Each member runs the damped Newton of ``implicit_step`` with its own
    start, step length, convergence test and report, and no member
    leaves the stack within the step.  The mask ``live`` marks the
    members that have neither converged nor failed; the others get a zero
    update, so their rows keep their last iterate.  Each line-search
    trial is u - lam delta over the whole stack: a member keeps the step
    length lam of its first trial that lowers its residual, and only the
    members still searching halve theirs.  A trial recomputed at an
    accepted lam gives the same bits, so the last trial holds every
    member's accepted iterate, residual and face data.  When a member
    fails, it and every later member stop, and leave ``lay``; the
    earlier ones run on.

    Returns (u, reports, failure): the stacked fields at t_next of the
    members before the first one that failed, their StepReports, and that
    member's StepFailure (step -1), or None.
    """
    prob = _StepProblem(spec, config, ks, u_n, t_next, lay)
    u = u_n.copy()
    if lay.prev is not None:
        # the local time derivative carries over to the next step
        r = (t_next - t_n) / (t_n - lay.prev_t)
        u += r * (u - lay.prev)
        np.maximum(u, prob.floor, out=u)
    if config.guess_offset != 0.0:
        # perturb the initial Newton iterate; the converged state must not
        # depend on it beyond the residual tolerance
        u[..., prob.interior] += config.guess_offset
    u[lay.edge] = prob.bc_boundary
    size = len(ks)
    # per-member step lengths broadcast over the stack
    lead = (size,) + (1,) * lay.grid.dim
    reports: list = [None] * size
    clamped = np.zeros(size, dtype=bool)
    live = np.ones(size, dtype=bool)
    # the residual maxima of the stack at every iteration
    trace = []
    alive, failure = size, None

    def fail(pos, cause, exc=None):
        nonlocal alive, failure
        alive = pos
        live[pos:] = False
        failure = StepFailure(-1, [float(maxima[pos]) for maxima in trace],
                              cause, k=ks[pos])
        failure.__cause__ = exc

    R, faces = prob.residual(u)
    res = lay.rows(np.abs(R)).max(axis=1)
    for it in range(config.newton_max + 1):
        trace.append(res)
        done = res <= config.newton_tol
        if done.any():
            done &= live
            for i in np.flatnonzero(done).tolist():
                reports[i] = StepReport(iterations=it, residual=float(res[i]),
                                        clamped=bool(clamped[i]))
            live &= ~done
            if not live.any():
                break
        if it == config.newton_max:
            # the first member that has not converged
            fail(int(np.argmax(live)), "iteration limit")
            break
        delta, failed = prob.update(faces, R, live)
        if failed is not None:
            pos, exc = failed
            # each message of ``update`` names its cause
            fail(pos, next((c for c in StepFailure.CAUSES if c in str(exc)),
                           None), exc)
            if not live.any():
                break
        lam = 1.0
        # up to ten halvings; the eleventh trial is taken as it is
        for trial_no in range(11):
            # 1.0 delta is delta to the bit
            trial = u - delta if trial_no == 0 else u - lam * delta
            if prob.k is None:
                low = live & lay.rows(trial < 0.0).any(axis=1)
                if low.any():
                    # clamp the members with a negative node at 0
                    rows = lay.rows(trial)
                    np.maximum(rows, 0.0, out=rows, where=low[:, None])
                    clamped |= low
            R_trial, faces_trial = prob.residual(trial)
            res_trial = lay.rows(np.abs(R_trial)).max(axis=1)
            # a member that accepted stays below its residual at every
            # later trial, and one that is not live stays at it
            ok = res_trial < res
            if trial_no == 10 or (ok == live).all():
                break
            lam = (np.where(ok.reshape(lead), lam, lam / 2.0) if ok.any()
                   else lam / 2.0)
        u, R, res, faces = trial, R_trial, res_trial, faces_trial
    lay.prev, lay.prev_t = u_n, t_n
    if failure is not None:
        lay.keep(alive)
    return u[:alive], reports[:alive], failure


def implicit_step(u_n: ScalarField, t_next: float, spec: ProblemSpec,
                  config: SolverConfig, carry: _Layout | None = None
                  ) -> tuple[ScalarField, StepReport]:
    """Advance one backward-Euler step: the stacked step that the march
    of ``solve_problem`` takes, on a stack of one member (``u_n``'s
    values with a leading axis of length 1).

    Solves (u - u_n)/dt = div F + f(., t_next) with boundary nodes pinned
    to g(., t_next) (plus 1/k in k-mode) by damped Newton with an exact
    residual.  The Newton matrix lags the coefficient's dependence on u
    (see ``_StepProblem._face_slopes``).  ``carry`` is the
    ``_Layout`` that the previous steps of the same solve left: the grid
    data of the steps, with the factor kept for the 2D/3D k-mode solves,
    and the field before u_n.  None, or a layout made for another grid or
    for more members, starts from a fresh one.  With the previous field,
    Newton starts from u_n + r (u_n - u_{n-1}),
    r = (t_next - t_n) / (t_n - t_{n-1}), clamped below at the mode's
    lower bound, 1/k in k-mode and 0 in direct mode; without a previous
    field it starts from u_n.  The step records u_n in the layout.  A step
    that does not reach ``newton_tol`` within ``newton_max`` iterations,
    or whose Newton system cannot be solved, ends in ``StepFailure``,
    whose ``cause`` says which.
    """
    grid = u_n.grid
    if carry is None or carry.grid != grid or carry.size != 1:
        carry = _Layout(grid)
    u, reports, failure = _stacked_step(spec, config, (config.k,),
                                        u_n.values[None], u_n.t, t_next,
                                        carry)
    if failure is not None:
        raise failure
    return ScalarField(grid, u[0], t_next), reports[0]


def _time_axis(spec: ProblemSpec, config: SolverConfig
               ) -> list[tuple[float, SolverConfig]]:
    """The end time and config of every step from 0 to T; when dt does not
    divide T, the last step is shortened to end at T."""
    n_steps = int(round(spec.T / config.dt))
    last = config
    if abs(n_steps * config.dt - spec.T) > 1e-9 * spec.T:
        n_steps = int(np.ceil(spec.T / config.dt))
        last = replace(config, dt=spec.T - (n_steps - 1) * config.dt)
    return [(min((n + 1) * config.dt, spec.T),
             last if n == n_steps - 1 else config) for n in range(n_steps)]


def _start(spec: ProblemSpec, lay: _Layout,
           ks: Sequence[int | None]) -> np.ndarray:
    """The stacked initial fields of the members at levels ``ks``: u0 with
    the boundary data g at t = 0, both shifted by 1/k in k-mode (in
    direct mode, a stack of one)."""
    _, floor = _levels(ks, lay.grid.dim)
    u = evaluate(spec.u0, lay.grid.counts, lay.x)[None] + floor
    bc = evaluate(spec.g, lay.grid.counts, lay.x, 0.0)[None] + floor
    u[lay.edge] = bc[lay.edge]
    return u


def _march(spec: ProblemSpec, grid: Grid, config: SolverConfig,
           ks: Sequence[int]) -> tuple[list[TimeSeries], list[SolveReport]]:
    """March the members at levels ``ks`` side by side from 0 to T, one
    ``_stacked_step`` per time step, with one ``_Layout``.

    Returns each member's trajectory and report.  When a member fails, the
    members before it march on, and the march then raises the StepFailure
    of the first failing member in ks order, with the index of its step:
    the failure that solving the members one after another raises.
    """
    lay = _Layout(grid, len(ks))
    u = _start(spec, lay, ks)
    fields = [[ScalarField(grid, v, 0.0)] for v in u]
    reports = [SolveReport() for _ in ks]
    t, first_failure = 0.0, None
    for n, (t_next, step_config) in enumerate(_time_axis(spec, config)):
        u, steps, failure = _stacked_step(spec, step_config, ks[:lay.size],
                                          u, t, t_next, lay)
        if failure is not None:
            failure.step_index = n
            first_failure = failure
            del fields[len(steps):], reports[len(steps):]
        if not steps:
            break
        for member, report, v, step in zip(fields, reports, u, steps):
            member.append(ScalarField(grid, v, t_next))
            report.steps.append(step)
        t = t_next
    if first_failure is not None:
        raise first_failure
    return [TimeSeries(member) for member in fields], reports


def solve_problem(spec: ProblemSpec, grid: Grid,
                  config: SolverConfig) -> tuple[TimeSeries, SolveReport]:
    """March the implicit scheme from 0 to T, one ``implicit_step`` per
    time step.

    In k-mode the initial field is u0 + 1/k and boundary data g + 1/k; in
    direct mode the data are used as given.  One ``_Layout`` passes the
    grid data, the kept factor and the previous field from each step to
    the next, so every step after the first starts Newton from the
    extrapolated field in both modes.
    """
    carry = _Layout(grid)
    fields = [ScalarField(grid, _start(spec, carry, (config.k,))[0], 0.0)]
    report = SolveReport()
    for n, (t_next, step_config) in enumerate(_time_axis(spec, config)):
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
    w_j = ``model.working_power(k, m_j, u)``: u^{m_j} for k None (direct
    mode), the Kirchhoff power Phi_{k,j}(u) for integer k.  Derivatives
    are fourth-order central differences with step FD_STEP, so u_exact
    must be smooth and evaluable slightly outside the box and horizon.
    Raises if u_exact is not strictly positive at any probed point.
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
        def w_at(ds):
            return working_power(k, spec.exponents.m[j],
                                 ue(shift_x(x, j, ds), t))[0]

        u = ue(x, t)
        c = evaluate(spec.coeffs.funcs[j], u.shape, x, t, u)
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
    solution-space metric.  1D members march side by side (``_march``),
    2D/3D members one after another through ``solve_problem``; either
    way each member's trajectory and report are those of its own solve,
    to the bit.  A failure raises the StepFailure of the first failing
    member in ks order, whose ``k`` names it.
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
    if grid.dim == 1:
        series, reports = _march(spec, grid, config, tuple(ks))
    else:
        # 2D/3D members march one after another: each solves its Newton
        # systems with its own factor either way, and the benchmark's
        # tracer counts one solve_problem per member and one implicit_step
        # per step of a 2D cascade
        series, reports = [], []
        for k in ks:
            ts, rep = solve_problem(spec, grid, replace(config, k=k))
            series.append(ts)
            reports.append(rep)
    excess = {}
    for (ka, sa), (kb, sb) in zip(zip(ks, series), zip(ks[1:], series[1:])):
        excess[(ka, kb)] = max(0.0, ordering_excess(sb, sa))
    m = spec.exponents.m
    p = spec.exponents.p
    distances = [vpm_distance(sa, sb, m, p)
                 for sa, sb in zip(series, series[1:])]
    return CascadeResult(ks=ks, series=series, reports=reports,
                         ordering_excess=excess, distances=distances)
