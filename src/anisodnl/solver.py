"""Backward-Euler time stepping with a damped Newton inner solve.

Two modes are supported.  In k-mode the unknown is the solution of the
truncated problem: the face flux acts on differences of u itself, scaled
by the truncated coefficient, and the data f, g, u0 are shifted by 1/k.
In direct mode the flux acts on differences of u^{m_j} and the data are
used as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
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


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    newton_tol: float = 1e-9
    newton_max: int = 40
    k: int | str = "direct"
    guess_offset: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max < 0:
            raise ValueError("newton_max must be nonnegative")
        if self.k != "direct" and (not isinstance(self.k, int) or self.k < 1):
            raise ValueError("k must be a positive integer or 'direct'")


@dataclass
class StepReport:
    iterations: int
    residual: float
    fallback: bool = False
    clamped: bool = False
    residual_history: list[float] = field(default_factory=list)


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
    """Nonlinear solve failed to converge at one time step."""

    def __init__(self, step_index: int, residual_history: list[float]):
        self.step_index = step_index
        self.residual_history = residual_history
        super().__init__(
            f"step {step_index} failed, final residual "
            f"{residual_history[-1]:.3e}")


def ordering_tolerance(config: SolverConfig, T: float) -> float:
    """Accumulated residual tolerance for pointwise ordering checks."""
    return config.newton_tol * (1.0 + T / config.dt)


class _StepProblem:
    """Residual and Newton update for one implicit step.

    ``residual(u)`` returns the residual together with the face data of
    every axis at u (one face pass); ``jacobian`` and ``update`` at that
    iterate take those face data.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid, config: SolverConfig,
                 u_prev: np.ndarray, t_next: float):
        self.spec = spec
        self.grid = grid
        self.config = config
        self.u_prev = u_prev
        self.t = t_next
        self.k = None if config.k == "direct" else int(config.k)
        self.n_nodes = int(np.prod(grid.counts))
        self.interior = grid.interior_mask()
        self.boundary = ~self.interior
        x = grid.meshgrid()
        self.f_vals = np.broadcast_to(
            np.asarray(spec.f(x, t_next), dtype=float), grid.counts)
        self.x_face = [tuple(face_mean(c, j) for c in x)
                       for j in range(grid.dim)]
        self.bc = np.broadcast_to(
            np.asarray(spec.g(x, t_next), dtype=float),
            grid.counts) + (0.0 if self.k is None else 1.0 / self.k)
        self.bc_boundary = self.bc[self.boundary]
        dim = grid.dim
        self.h = grid.spacings
        self.p = spec.exponents.p
        self.m = spec.exponents.m
        # per axis: the lo and hi node of every face, and the nodes between
        # two faces of the axis
        self.lo = [axis_slices(dim, j, slice(0, -1)) for j in range(dim)]
        self.hi = [axis_slices(dim, j, slice(1, None)) for j in range(dim)]
        self.core = [axis_slices(dim, j, slice(1, -1)) for j in range(dim)]
        if self.k is not None:
            # band layout of the interior unknowns, longest axis outermost
            self.inner = (slice(1, -1),) * dim
            ext = [n - 2 for n in grid.counts]
            self.order = sorted(range(dim), key=lambda j: -ext[j])
            self.shape = tuple(ext[j] for j in self.order)
            self.stride = [0] * dim
            for q, j in enumerate(self.order):
                self.stride[j] = int(np.prod(self.shape[q + 1:]))
            self.back = np.argsort(self.order)
            # the faces of axis j that lie on interior lines of the others
            self.cross = [tuple(slice(None) if i == j else slice(1, -1)
                                for i in range(dim)) for j in range(dim)]

    def _face_data(self, u: np.ndarray, j: int):
        """Per-face coefficient c, diff D of the working power, and the
        derivative of the working power at both adjacent nodes."""
        mj = self.m[j]
        c = flux_coefficient(self.spec, self.k, j, self.x_face[j], self.t,
                             face_mean(u, j))
        lo = u[self.lo[j]]
        hi = u[self.hi[j]]
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
        return c, D, dlo, dhi

    def residual(self, u: np.ndarray) -> tuple[np.ndarray, list]:
        """Residual at u, and the face data of every axis at u."""
        R = (u - self.u_prev) / self.config.dt - self.f_vals
        faces = [self._face_data(u, j) for j in range(self.grid.dim)]
        for j, (c, D, _, _) in enumerate(faces):
            F = flux(c, D, self.p[j])
            R[self.core[j]] -= (F[self.hi[j]] - F[self.lo[j]]) / self.h[j]
        R[self.boundary] = u[self.boundary] - self.bc_boundary
        return R, faces

    def _face_slopes(self, faces: list, secant: bool):
        """Per axis, the Jacobian weights (g_lo, g_hi) of every face on its
        lo and hi node.

        Face slopes use the regularized power (D^2 + EPS_REG^2)^((p-2)/2);
        the coefficient dependence on u through the face mean is lagged.  With
        secant=True the slope drops the factor (p-1), which yields the
        lagged-diffusivity fixed-point matrix.  The face between node i (lo)
        and i+1 (hi) on axis j contributes +g_lo, +g_hi to the diagonal of
        lo, hi and -g_hi, -g_lo to the entries (lo, hi), (hi, lo).
        """
        out = []
        for j, (c, D, dlo, dhi) in enumerate(faces):
            pj = self.p[j]
            h = self.h[j]
            slope = c * (D * D + EPS_REG * EPS_REG) ** ((pj - 2.0) / 2.0)
            if not secant:
                slope = slope * (pj - 1.0)
            out.append((slope * dlo / (h * h), slope * dhi / (h * h)))
        return out

    def jacobian(self, faces: list, secant: bool = False) -> sp.csr_matrix:
        """Sparse Jacobian of the residual (see ``_face_slopes``), with
        identity rows at the boundary nodes."""
        n = self.n_nodes
        idx = np.arange(n).reshape(self.grid.counts)
        rows, cols, vals = [], [], []
        diag = np.full(self.grid.counts, 1.0 / self.config.dt)
        for j, (g_lo, g_hi) in enumerate(self._face_slopes(faces, secant)):
            i_lo = idx[self.lo[j]]
            i_hi = idx[self.hi[j]]
            diag[self.lo[j]] += g_lo
            diag[self.hi[j]] += g_hi
            rows.append(i_lo.ravel())
            cols.append(i_hi.ravel())
            vals.append((-g_hi).ravel())
            rows.append(i_hi.ravel())
            cols.append(i_lo.ravel())
            vals.append((-g_lo).ravel())
        diag[self.boundary] = 1.0
        rows.append(idx.ravel())
        cols.append(idx.ravel())
        vals.append(diag.ravel())
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        # a boundary row keeps only its diagonal
        keep = (rows == cols) | self.interior.ravel()[rows]
        J = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                          shape=(n, n))
        # stored zeros (e.g. -g_lo at a clamped zero when m_j > 1) would
        # change the sparsity pattern and with it the LU ordering
        J.eliminate_zeros()
        return J

    def update(self, faces: list, R: np.ndarray,
               secant: bool = False) -> np.ndarray:
        """Solve J delta = R for the Newton (or secant) update at the iterate
        whose face data are ``faces``.

        Direct mode solves the full sparse system by LU: its Jacobian is
        nonsymmetric, because each axis scales its columns by
        m_j u^(m_j - 1).  In k-mode the working power is u itself, so the
        interior Jacobian is symmetric with a positive, dominating diagonal,
        and the boundary rows are identity rows whose residual is 0 once u
        carries the boundary data.  The update then comes from a banded
        Cholesky solve on the interior unknowns, ordered with the longest
        interior axis outermost so the half-bandwidth is the product of the
        other interior extents.  Raises ``LinAlgError`` when the system or
        the direct-mode update is not finite, or the k-mode system is not
        positive definite.
        """
        if self.k is None:
            J = self.jacobian(faces, secant=secant)
            if not (np.all(np.isfinite(J.data)) and np.all(np.isfinite(R))):
                raise np.linalg.LinAlgError("Newton system is not finite")
            delta = spla.spsolve(J, R.ravel())
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError("Newton update is not finite")
            return delta.reshape(self.grid.counts)
        shape, back = self.shape, self.back
        # lower band storage: ab[s, i] holds entry (i + s, i); each row of
        # ab is viewed as an interior field with the natural axis order
        ab = np.zeros((self.stride[self.order[0]] + 1, int(np.prod(shape))))
        diag = ab[0].reshape(shape).transpose(back)
        diag[...] = 1.0 / self.config.dt
        for j, (g, _) in enumerate(self._face_slopes(faces, secant)):
            # g_lo == g_hi in k-mode; keep the faces of interior cross lines
            g = g[self.cross[j]]
            diag += g[self.lo[j]]
            diag += g[self.hi[j]]
            # coupling of interior nodes i and i+1, stored at column i
            off = ab[self.stride[j]].reshape(shape).transpose(back)
            off[self.lo[j]] -= g[self.core[j]]
        b = R[self.inner].transpose(self.order).ravel()
        if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(b))):
            raise np.linalg.LinAlgError("Newton system is not finite")
        if b.size == 1:
            # the tridiagonal path of solveh_banded needs two unknowns; a
            # zero band sends a lone unknown through the banded Cholesky
            ab = np.vstack([ab, np.zeros((1, 1))])
        x = scipy.linalg.solveh_banded(ab, b, overwrite_ab=True, lower=True,
                                       check_finite=False)
        delta = np.zeros(self.grid.counts)
        delta[self.inner] = x.reshape(shape).transpose(back)
        return delta


def implicit_step(u_n: ScalarField, t_next: float, spec: ProblemSpec,
                  config: SolverConfig) -> tuple[ScalarField, StepReport]:
    """Advance one backward-Euler step.

    Solves (u - u_n)/dt = div F + f(., t_next) with boundary nodes pinned
    to g(., t_next) (plus 1/k in k-mode) by damped Newton with an exact
    residual.  If Newton stalls, the step switches to the
    lagged-diffusivity iteration.  A Newton system that cannot be solved
    ends the step in ``StepFailure``.
    """
    grid = u_n.grid
    prob = _StepProblem(spec, grid, config, u_n.values, t_next)
    u = u_n.values.copy()
    if config.guess_offset != 0.0:
        # perturb the initial Newton iterate; the converged state must not
        # depend on it beyond the residual tolerance
        u[prob.interior] += config.guess_offset
    u[prob.boundary] = prob.bc_boundary
    clamped = False

    hist = []
    secant = False
    stall_ref = None
    R, faces = prob.residual(u)
    for it in range(config.newton_max + 1):
        res = float(np.max(np.abs(R)))
        hist.append(res)
        if res <= config.newton_tol:
            return (ScalarField(grid, u, t_next),
                    StepReport(iterations=it, residual=res, fallback=secant,
                               clamped=clamped, residual_history=hist))
        if it == config.newton_max:
            break
        if (not secant and it >= 5 and stall_ref is not None
                and res > 0.9 * stall_ref):
            secant = True
        if it % 5 == 0:
            stall_ref = res
        try:
            delta = prob.update(faces, R, secant=secant)
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
            if (secant or trial_no == 10
                    or float(np.max(np.abs(R_trial))) < res):
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
    direct mode the data are used as given.
    """
    shift = 0.0 if config.k == "direct" else 1.0 / int(config.k)
    x = grid.meshgrid()
    u0 = np.broadcast_to(np.asarray(spec.u0(x), dtype=float),
                         grid.counts).copy() + shift
    bc0 = np.broadcast_to(np.asarray(spec.g(x, 0.0), dtype=float),
                          grid.counts) + shift
    u0[grid.boundary_mask()] = bc0[grid.boundary_mask()]
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
                                         step_config)
        except StepFailure as exc:
            exc.step_index = n
            raise
        fields.append(f_next)
        report.steps.append(step)
    return TimeSeries(fields), report


def manufactured_rhs(u_exact: Callable, spec: ProblemSpec,
                     mode: int | str = "direct",
                     fd_step: float = 1e-3) -> Callable:
    """Source evaluator that makes u_exact solve the equation.

    f(x, t) = dt u - sum_j d_j(a_j |d_j w_j|^{p_j - 2} d_j w_j) with
    w_j = u^{m_j} in direct mode, or w_j = u with the truncated coefficient
    for integer mode k.  Derivatives are fourth-order central differences
    with step fd_step, so u_exact must be smooth and evaluable slightly
    outside the box and horizon.  Raises if u_exact is not strictly
    positive at any probed point.
    """
    if mode != "direct" and (not isinstance(mode, int) or mode < 1):
        raise ValueError("mode must be 'direct' or a positive integer k")

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

    k = None if mode == "direct" else int(mode)

    def flux_j(x, t, j):
        mj = spec.exponents.m[j]

        def w_at(ds):
            uu = ue(shift_x(x, j, ds), t)
            return uu if (k is not None or mj == 1.0) else uu ** mj

        c = flux_coefficient(spec, k, j, x, t, ue(x, t))
        return flux(c, d4(w_at, fd_step), spec.exponents.p[j])

    def f(x, t):
        x = tuple(np.asarray(c, dtype=float) for c in x)
        dt_u = d4(lambda ds: ue(x, t + ds), fd_step)
        out = dt_u
        for j in range(spec.dim):
            div_j = d4(lambda ds: flux_j(shift_x(x, j, ds), t, j), fd_step)
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
            spec, g, replace(config, dt=config.dt / 2 ** lev, k="direct"))
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
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError("ks must not be empty")
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
