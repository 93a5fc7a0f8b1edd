"""Tensor-product grid, discrete differential operators and quadrature.

The grid covers a box [0, L_1] x ... x [0, L_N] with equally spaced nodes
per axis.  Fields store nodal values.  Gradients of powers are formed as
face differences of nodal powers, so the discrete chain-rule identity
d_j u^m = (u_{i+1}^m - u_i^m)/h holds exactly.  ``integrate`` is the one
space quadrature, and it and ``face_diff_power`` take a stack of fields
on the trailing grid axes, ``(*lead, *counts)``, as well as one field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import harmonic_mean

__all__ = [
    "Grid",
    "ScalarField",
    "TimeSeries",
    "axis_slices",
    "face_mean",
    "face_diff_power",
    "divergence",
    "integrate",
    "integrate_power",
    "sobolev_troisi_gap",
    "calibrate_troisi_constant",
    "csv_text",
    "field_to_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on a box with the origin at 0."""

    box: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(float(b) for b in self.box))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if len(self.box) != len(self.counts):
            raise ValueError("box and counts must have the same length")
        if any(n < 3 for n in self.counts):
            raise ValueError("need at least 3 nodes per axis")
        if not all(b > 0 and math.isfinite(b) for b in self.box):
            raise ValueError("box extents must be positive and finite")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(b / (n - 1) for b, n in zip(self.box, self.counts))

    def axis_coords(self, j: int) -> np.ndarray:
        return np.linspace(0.0, self.box[j], self.counts[j])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_coords(j) for j in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.counts, dtype=bool)
        core = tuple(slice(1, -1) for _ in range(self.dim))
        mask[core] = True
        return mask

    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask()


@dataclass
class ScalarField:
    """Nodal scalar values at a fixed time."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.counts:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"{self.grid.counts}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass
class TimeSeries:
    """Ordered list of fields on a shared grid at strictly increasing times."""

    fields: list[ScalarField] = field(default_factory=list)

    def __post_init__(self):
        if self.fields:
            g = self.fields[0].grid
            for f in self.fields[1:]:
                if f.grid is not g and f.grid != g:
                    raise ValueError("all fields must share one grid")
            ts = self.times
            if np.any(np.diff(ts) <= 0):
                raise ValueError("times must be strictly increasing")

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.fields])

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i: int) -> ScalarField:
        return self.fields[i]

    def values_array(self) -> np.ndarray:
        """Stack all nodal values into one (ntimes, *counts) array."""
        return np.stack([f.values for f in self.fields])


def axis_slices(dim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    """Index that applies ``sl`` along one axis and keeps the others whole."""
    return tuple(sl if i == axis else slice(None) for i in range(dim))


def face_mean(values: np.ndarray, axis: int) -> np.ndarray:
    """Mean of the two nodal values on every face along one axis.

    Returns (u_i + u_{i+1})/2, an array with one fewer entry along that
    axis.
    """
    lo = axis_slices(values.ndim, axis, slice(0, -1))
    hi = axis_slices(values.ndim, axis, slice(1, None))
    return (values[lo] + values[hi]) / 2.0


def face_diff_power(grid: Grid, values: np.ndarray, exponent: float,
                    axis: int) -> np.ndarray:
    """Face differences of nodal powers along one grid axis.

    ``values`` holds fields on its trailing grid axes, ``(*lead, *counts)``.
    Returns (u_{i+1}^e - u_i^e)/h_axis on the faces of that axis, an array
    with one fewer entry along it.
    """
    e = float(exponent)
    if e != round(e) and np.any(values < 0.0):
        raise ValueError("negative values with fractional exponent")
    powered = values if e == 1.0 else values ** e
    lead = values.ndim - grid.dim
    out = np.diff(powered, axis=lead + axis)
    out /= grid.spacings[axis]
    return out


def divergence(grid: Grid, face_fluxes: Sequence[np.ndarray]) -> ScalarField:
    """Conservative divergence of per-axis face fluxes.

    Each flux array must live on the faces of its axis (one fewer entry
    along that axis).  The nodal value at interior nodes is
    sum_j (F_{i+1/2} - F_{i-1/2})/h_j; boundary nodes get 0.
    """
    if len(face_fluxes) != grid.dim:
        raise ValueError("need one flux array per axis")
    out = np.zeros(grid.counts)
    for j, F in enumerate(face_fluxes):
        expected = list(grid.counts)
        expected[j] -= 1
        if F.shape != tuple(expected):
            raise ValueError(
                f"axis {j} flux shape {F.shape}, expected {tuple(expected)}")
        lo, hi, core = (axis_slices(grid.dim, j, slice(a, b))
                        for a, b in ((0, -1), (1, None), (1, -1)))
        out[core] += (F[hi] - F[lo]) / grid.spacings[j]
    out[grid.boundary_mask()] = 0.0
    return ScalarField(grid, out)


def integrate(grid: Grid, values: np.ndarray, face_axis: int | None = None):
    """Integral over the box of each field of a ``(*lead, *counts)`` stack.

    The weights are the cell volume times per-axis trapezoid weights
    (boundary halves); along ``face_axis``, if given, the fields live on
    the faces of that axis and each face gets one full midpoint cell.
    Returns an array of shape ``lead`` (a scalar for one field).  Each
    field is summed as one contiguous run, so a stack gives every field
    the bits it gets alone.
    """
    w = None
    for j, n in enumerate(grid.counts):
        wj = np.ones(n - (j == face_axis))
        if j != face_axis:
            wj[0] = wj[-1] = 0.5
        w = wj if w is None else np.multiply.outer(w, wj)
    a = values * (w * math.prod(grid.spacings))
    return a.reshape(a.shape[:a.ndim - grid.dim] + (-1,)).sum(axis=-1)


def integrate_power(fld: ScalarField, exponent: float) -> float:
    """Trapezoid-rule integral of |u|^exponent over the box."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return float(integrate(fld.grid, np.abs(fld.values) ** exponent))


def _troisi_sides(grid: Grid, p: Sequence[float]):
    """Kernel of both sides of the anisotropic embedding on ``grid``.

    Returns ``sides(values) -> (lhs, rhs)``.  ``values`` holds zero-boundary
    fields on its trailing grid axes, ``(*lead, *counts)``; lhs is the
    trapezoid integral of |v|^pbar and rhs the sum over axes of the
    midpoint integral of |d_j v|^{p_j}, both arrays of shape ``lead``.
    Each field is summed as one contiguous run, so a stack gives every
    field the bits it gets alone.
    """
    if grid.dim != len(p):
        raise ValueError("exponent count must match grid dimension")
    p_bar = harmonic_mean(p)
    if p_bar < 0:
        raise ValueError("exponent must be nonnegative")
    boundary = grid.boundary_mask()

    def sides(values: np.ndarray):
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if np.any(values[..., boundary] != 0.0):
            raise ValueError("field must vanish on the boundary")
        lhs = integrate(grid, np.abs(values) ** p_bar)
        rhs = 0.0
        for j in range(grid.dim):
            D = face_diff_power(grid, values, 1.0, j)
            rhs = rhs + integrate(grid, np.abs(D) ** p[j], face_axis=j)
        return lhs, rhs

    return sides


def sobolev_troisi_gap(fld: ScalarField, p: Sequence[float]) -> tuple[float, float]:
    """Both sides of the anisotropic embedding for a zero-boundary field.

    Returns (lhs, rhs) with lhs the trapezoid integral of |u|^pbar and rhs
    the sum over axes of the midpoint integral of |d_j u|^{p_j}, the face
    differences of u.  The caller compares lhs <= C * rhs against a
    constant calibrated on the same grid.  Raises ValueError when p does
    not have one exponent per axis or u is nonzero on the boundary.
    """
    lhs, rhs = _troisi_sides(fld.grid, p)(fld.values)
    return float(lhs), float(rhs)


def calibrate_troisi_constant(grid: Grid, p: Sequence[float], trials: int = 200,
                              seed: int = 0) -> float:
    """Empirical embedding constant for one grid and exponent vector.

    Maximizes lhs/rhs over a family of zero-boundary fields at 17
    amplitudes 10^-2 .. 10^2 (the ratio is not scale invariant, so the
    amplitude sweep matters), padded by 10%: the sine bump first, then per
    trial the bump lifted by a uniform multiple of a smoothed normal field
    (ten passes of the nearest-neighbour mean, periodic), normalized to
    peak 1.  Each trial draws its normal field, then its uniform number,
    from ``default_rng(seed)``.

    All trial fields are smoothed together in one (trials, *counts) array,
    and each probe evaluates its amplitudes as one (17, *counts) array, so
    the memory is trials + 17 fields of the grid.  The result is the one
    the per-field loop over ``sobolev_troisi_gap`` gives, to the bit.
    """
    rng = np.random.default_rng(seed)
    sides = _troisi_sides(grid, p)
    boundary = grid.boundary_mask()
    best = 0.0
    bump = np.ones(grid.counts)
    for j in range(grid.dim):
        x = grid.axis_coords(j) / grid.box[j]
        shape = [1] * grid.dim
        shape[j] = -1
        bump = bump * np.sin(np.pi * x).reshape(shape)
    bump[boundary] = 0.0
    # one leading axis for the amplitudes or the trials, then the grid's
    lead = (-1,) + (1,) * grid.dim
    amps = (10.0 ** np.linspace(-2.0, 2.0, 17)).reshape(lead)

    def probe(base):
        nonlocal best
        lhs, rhs = sides(amps * base)
        keep = rhs > 0
        best = max([best, *(lhs[keep] / rhs[keep]).tolist()])

    # the smooth fundamental bump tends to dominate the ratio, so probe it
    # directly, then perturbed and rough members of the family
    probe(bump)
    raw = np.empty((trials,) + grid.counts)
    lift = np.empty(trials)
    for i in range(trials):
        raw[i] = rng.standard_normal(grid.counts)
        lift[i] = rng.uniform(0.0, 1.0)
    axes = tuple(range(1, grid.dim + 1))
    for _ in range(10):
        sm = raw
        for j in axes:
            sm = sm + np.roll(raw, 1, axis=j) + np.roll(raw, -1, axis=j)
        raw = sm / (1 + 2 * grid.dim)
    peak = np.maximum(np.max(np.abs(raw), axis=axes), 1e-30)
    raw = raw / peak.reshape(lead)
    bases = bump * (1.0 + lift.reshape(lead) * raw)
    bases[:, boundary] = 0.0
    for base in bases:
        probe(base)
    return best * 1.1


def csv_text(columns: Sequence[str], rows) -> str:
    """CSV table: a header line of column names, then one line per row;
    numbers as .17g, None as an empty cell."""
    lines = [",".join(columns)]
    lines += [",".join("" if v is None else f"{v:.17g}" for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def field_to_csv(fld: ScalarField) -> str:
    """CSV dump: one row per node, axis coordinates then the value."""
    grid = fld.grid
    columns = [f"x{j + 1}" for j in range(grid.dim)] + ["value"]
    flat = [c.ravel() for c in grid.meshgrid()] + [fld.values.ravel()]
    return csv_text(columns, zip(*flat))
