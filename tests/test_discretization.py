import re

import numpy as np
import pytest

from anisodnl.discretization import (
    Grid,
    ScalarField,
    TimeSeries,
    _troisi_sides,
    calibrate_troisi_constant,
    divergence,
    face_diff_power,
    face_mean,
    field_to_csv,
    integrate,
    integrate_power,
    sobolev_troisi_gap,
)
from anisodnl.model import harmonic_mean

# Frozen by the calibration sweep (anisodnl calibrate / calibrate_troisi_constant,
# trials=100, seed=0, pad=0.1) before the main build.
TROISI_FIXTURES = {
    ((33, 33), (2.0, 2.0)): 0.0557714316961782,
    ((33, 33), (3.0, 2.0)): 0.03552776602087543,
    ((65,), (2.0,)): 0.11147568426037813,
}


# grids of every dimension for the stacked-field tests
STACK_GRIDS = [(33,), (17, 17), (5, 6, 7)]


class TestGrid:
    def test_spacings(self):
        g = Grid((2.0, 1.0), (5, 3))
        assert g.spacings == (0.5, 0.5)

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError):
            Grid((1.0,), (2,))

    @pytest.mark.parametrize("extent", [np.nan, np.inf])
    def test_rejects_non_finite_box(self, extent):
        with pytest.raises(ValueError,
                           match="box extents must be positive and finite"):
            Grid((1.0, extent), (5, 5))

    def test_masks_partition(self):
        g = Grid((1.0, 1.0), (5, 5))
        assert np.all(g.interior_mask() ^ g.boundary_mask())


class TestFaceDiffPower:
    def test_constant_field(self):
        g = Grid((1.0,), (5,))
        assert np.all(face_diff_power(g, np.full(5, 3.7), 2.0, 0) == 0.0)

    def test_affine_exact(self):
        g = Grid((1.0, 1.0), (9, 5))
        x = g.meshgrid()[0]
        assert np.allclose(face_diff_power(g, x, 1.0, 0), 1.0)
        assert np.allclose(face_diff_power(g, x, 1.0, 1), 0.0)

    def test_square_values(self):
        g = Grid((1.0,), (3,))
        d = face_diff_power(g, np.array([0.0, 0.5, 1.0]), 2.0, 0)
        assert d == pytest.approx([0.5, 1.5])

    def test_fractional_exponent_rejects_negative(self):
        g = Grid((1.0,), (3,))
        with pytest.raises(ValueError, match="^negative values with "
                                             "fractional exponent$"):
            face_diff_power(g, np.array([-1.0, 0.5, 1.0]), 1.5, 0)

    @pytest.mark.parametrize("counts", STACK_GRIDS)
    def test_stack_equals_each_field(self, counts):
        g = Grid(tuple([1.0] * len(counts)), counts)
        stack = np.random.default_rng(3).uniform(0.0, 2.0, (4, 2) + counts)
        for j in range(g.dim):
            d = face_diff_power(g, stack, 1.5, j)
            assert d.shape[:2] == (4, 2)
            for i in np.ndindex(4, 2):
                assert np.array_equal(d[i],
                                      face_diff_power(g, stack[i], 1.5, j))


def trapezoid_weights(grid, face_axis=None):
    """The quadrature weights of the box, written out node by node: each
    node gets the product of its per-axis weights h_j, halved at the two
    ends of an axis; on the faces of face_axis every face gets h_j."""
    w = np.empty(tuple(n - (j == face_axis)
                       for j, n in enumerate(grid.counts)))
    for idx in np.ndindex(w.shape):
        w[idx] = 1.0
        for j, i in enumerate(idx):
            end = j != face_axis and i in (0, grid.counts[j] - 1)
            w[idx] *= 0.5 if end else 1.0
    return w * np.prod(grid.spacings)


class TestIntegrate:
    @pytest.mark.parametrize("counts", STACK_GRIDS)
    def test_stack_equals_each_field(self, counts):
        # to the bit, on the nodes and on the faces of every axis
        g = Grid(tuple(0.5 + j for j in range(len(counts))), counts)
        rng = np.random.default_rng(11)
        for face_axis in (None, *range(g.dim)):
            shape = tuple(n - (j == face_axis) for j, n in enumerate(counts))
            stack = rng.standard_normal((3, 5) + shape)
            total = integrate(g, stack, face_axis=face_axis)
            assert total.shape == (3, 5)
            for i in np.ndindex(3, 5):
                assert total[i] == integrate(g, stack[i], face_axis=face_axis)

    @pytest.mark.parametrize("counts", STACK_GRIDS)
    def test_matches_written_out_weights(self, counts):
        g = Grid(tuple(0.5 + j for j in range(len(counts))), counts)
        rng = np.random.default_rng(12)
        for face_axis in (None, *range(g.dim)):
            w = trapezoid_weights(g, face_axis)
            v = rng.standard_normal(w.shape)
            assert integrate(g, v, face_axis=face_axis) == np.sum(v * w)

    def test_ones_give_the_volume(self):
        g = Grid((2.0, 3.0), (7, 9))
        assert integrate(g, np.ones(g.counts)) == pytest.approx(6.0,
                                                                rel=1e-15)
        for j in range(g.dim):
            faces = np.ones(tuple(n - (i == j)
                                  for i, n in enumerate(g.counts)))
            assert integrate(g, faces, face_axis=j) == pytest.approx(
                6.0, rel=1e-15)


class TestFaceMean:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_mean_of_adjacent_nodes(self, axis):
        v = np.random.default_rng(axis).uniform(-1.0, 2.0, (4, 5, 6))
        n = v.shape[axis]
        ref = (np.take(v, np.arange(n - 1), axis=axis)
               + np.take(v, np.arange(1, n), axis=axis)) / 2.0
        assert np.array_equal(face_mean(v, axis), ref)


class TestDivergence:
    def test_zero_flux(self):
        g = Grid((1.0, 1.0), (5, 5))
        out = divergence(g, [np.zeros((4, 5)), np.zeros((5, 4))])
        assert np.all(out.values == 0.0)

    def test_uniform_flux_telescopes(self):
        g = Grid((1.0,), (9,))
        out = divergence(g, [np.full(8, 2.5)])
        assert np.all(out.values == 0.0)

    def test_linear_flux(self):
        g = Grid((1.0,), (9,))
        faces = g.axis_coords(0)[:-1] + g.spacings[0] / 2.0
        out = divergence(g, [faces])
        assert np.allclose(out.values[1:-1], 1.0)

    def test_divergence_theorem(self):
        # sum of div times cell volume telescopes to the boundary fluxes
        g = Grid((1.0,), (17,))
        rng = np.random.default_rng(0)
        F = rng.standard_normal(16)
        out = divergence(g, [F])
        h = g.spacings[0]
        total = np.sum(out.values[1:-1]) * h
        assert total == pytest.approx(F[-1] - F[0])

    def test_shape_mismatch(self):
        g = Grid((1.0, 1.0), (5, 5))
        with pytest.raises(ValueError):
            divergence(g, [np.zeros((5, 5)), np.zeros((5, 4))])


class TestIntegratePower:
    def test_unit_field(self):
        g = Grid((2.0, 0.5), (9, 9))
        f = ScalarField(g, np.ones(g.counts))
        assert integrate_power(f, 3.0) == pytest.approx(1.0)

    def test_constant_two(self):
        g = Grid((1.0,), (9,))
        f = ScalarField(g, np.full(9, 2.0))
        assert integrate_power(f, 2.0) == pytest.approx(4.0)

    def test_linear_field_converges(self):
        errs = []
        for n in (9, 17, 33):
            g = Grid((1.0,), (n,))
            f = ScalarField(g, g.axis_coords(0))
            errs.append(abs(integrate_power(f, 2.0) - 1.0 / 3.0))
        assert errs[0] > errs[1] > errs[2]

    def test_monotone(self):
        g = Grid((1.0,), (9,))
        rng = np.random.default_rng(1)
        u = rng.uniform(-1, 1, 9)
        v = u * rng.uniform(1.0, 2.0, 9)
        assert integrate_power(ScalarField(g, u), 2.0) \
            <= integrate_power(ScalarField(g, v), 2.0)


class TestSobolevTroisi:
    def test_zero_field(self):
        g = Grid((1.0, 1.0), (9, 9))
        lhs, rhs = sobolev_troisi_gap(ScalarField(g, np.zeros(g.counts)),
                                      (2.0, 2.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_rejects_nonzero_boundary(self):
        g = Grid((1.0,), (9,))
        with pytest.raises(ValueError,
                           match="^field must vanish on the boundary$"):
            sobolev_troisi_gap(ScalarField(g, np.ones(9)), (2.0,))

    def test_homogeneity_exact(self):
        g = Grid((1.0, 1.0), (9, 9))
        rng = np.random.default_rng(2)
        v = rng.standard_normal(g.counts)
        v[g.boundary_mask()] = 0.0
        p = (3.0, 2.0)
        p_bar = 2.0 / (1.0 / 3.0 + 1.0 / 2.0)
        l1, _ = sobolev_troisi_gap(ScalarField(g, v), p)
        l2, _ = sobolev_troisi_gap(ScalarField(g, 3.0 * v), p)
        assert l2 / l1 == pytest.approx(3.0 ** p_bar, rel=1e-12)

    @pytest.mark.parametrize("key", sorted(TROISI_FIXTURES))
    def test_calibrated_constant_holds(self, key):
        counts, p = key
        C = TROISI_FIXTURES[key]
        g = Grid(tuple([1.0] * len(counts)), counts)
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(g.counts)
            v[g.boundary_mask()] = 0.0
            amp = 10.0 ** rng.uniform(-2, 2)
            lhs, rhs = sobolev_troisi_gap(ScalarField(g, amp * v), p)
            assert lhs <= C * rhs

    def test_calibration_reproducible(self):
        counts, p = (65,), (2.0,)
        g = Grid((1.0,), counts)
        C = calibrate_troisi_constant(g, p, trials=100, seed=0)
        assert C == pytest.approx(TROISI_FIXTURES[(counts, p)], rel=1e-12)


def reference_gap(fld, p):
    """The embedding's two sides, one field at a time, each summed as one
    array against the written-out weights of trapezoid_weights."""
    grid = fld.grid
    if grid.dim != len(p):
        raise ValueError("exponent count must match grid dimension")
    if np.any(fld.values[grid.boundary_mask()] != 0.0):
        raise ValueError("field must vanish on the boundary")
    lhs = float(np.sum(np.abs(fld.values) ** harmonic_mean(p)
                       * trapezoid_weights(grid)))
    rhs = 0.0
    for j in range(grid.dim):
        D = np.diff(fld.values, axis=j) / grid.spacings[j]
        rhs += float(np.sum(np.abs(D) ** p[j] * trapezoid_weights(grid, j)))
    return lhs, rhs


def reference_calibration(grid, p, trials, seed):
    """The calibration sweep as a loop over trials and amplitudes, each
    field smoothed and measured on its own."""
    rng = np.random.default_rng(seed)
    best = 0.0
    bump = np.ones(grid.counts)
    for j in range(grid.dim):
        x = grid.axis_coords(j) / grid.box[j]
        shape = [1] * grid.dim
        shape[j] = -1
        bump = bump * np.sin(np.pi * x).reshape(shape)
    bump[grid.boundary_mask()] = 0.0
    amps = 10.0 ** np.linspace(-2.0, 2.0, 17)

    def probe(base):
        nonlocal best
        for amp in amps:
            lhs, rhs = reference_gap(ScalarField(grid, amp * base), p)
            if rhs > 0:
                best = max(best, lhs / rhs)

    probe(bump)
    for _ in range(trials):
        raw = rng.standard_normal(grid.counts)
        for _ in range(10):
            sm = raw.copy()
            for j in range(grid.dim):
                sm = sm + np.roll(raw, 1, axis=j) + np.roll(raw, -1, axis=j)
            raw = sm / (1 + 2 * grid.dim)
        raw = raw / max(np.max(np.abs(raw)), 1e-30)
        base = bump * (1.0 + rng.uniform(0.0, 1.0) * raw)
        base[grid.boundary_mask()] = 0.0
        probe(base)
    return best * 1.1


# grids of every dimension, with one exponent per axis
SWEEP_CASES = [
    ((33,), (3.0,)),
    ((9, 9), (2.0, 2.0)),
    ((17, 17), (3.0, 2.0)),
    ((5, 6, 7), (2.0, 3.0, 1.5)),
]


def _zero_boundary_stack(grid, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n,) + grid.counts)
    v[:, grid.boundary_mask()] = 0.0
    return v


class TestStackedSweep:
    @pytest.mark.parametrize("trials", [0, 1, 7])
    @pytest.mark.parametrize("seed", [0, 7, 4101])
    @pytest.mark.parametrize("counts, p", SWEEP_CASES)
    def test_calibration_equals_per_field_loop(self, counts, p, seed,
                                               trials):
        g = Grid(tuple([1.0] * len(counts)), counts)
        # to the last bit, and a Python float as before
        expected = reference_calibration(g, p, trials, seed)
        C = calibrate_troisi_constant(g, p, trials=trials, seed=seed)
        assert type(C) is float
        assert C == expected

    @pytest.mark.parametrize("counts, p", SWEEP_CASES)
    def test_kernel_on_one_field_equals_gap(self, counts, p):
        g = Grid(tuple([1.0] * len(counts)), counts)
        sides = _troisi_sides(g, p)
        for v in _zero_boundary_stack(g, 3, 5):
            fld = ScalarField(g, v)
            lhs, rhs = sides(v)
            assert (float(lhs), float(rhs)) == sobolev_troisi_gap(fld, p) \
                == reference_gap(fld, p)

    @pytest.mark.parametrize("counts, p", SWEEP_CASES)
    def test_kernel_on_a_stack_equals_each_field(self, counts, p):
        g = Grid(tuple([1.0] * len(counts)), counts)
        stack = _zero_boundary_stack(g, 17, 6).reshape((17, 1) + g.counts)
        lhs, rhs = _troisi_sides(g, p)(stack)
        assert lhs.shape == rhs.shape == (17, 1)
        for i, v in enumerate(stack[:, 0]):
            assert (lhs[i, 0], rhs[i, 0]) == reference_gap(ScalarField(g, v),
                                                           p)

    @pytest.mark.parametrize("call", [
        lambda g: sobolev_troisi_gap(ScalarField(g, np.zeros(g.counts)),
                                     (2.0,)),
        lambda g: calibrate_troisi_constant(g, (2.0, 2.0, 2.0), trials=1),
        lambda g: _troisi_sides(g, (2.0,)),
    ], ids=["gap", "calibrate", "kernel"])
    def test_wrong_exponent_count(self, call):
        with pytest.raises(ValueError, match="^exponent count must match "
                                             "grid dimension$"):
            call(Grid((1.0, 1.0), (9, 9)))

    def test_kernel_checks_every_field_of_a_stack(self):
        g = Grid((1.0, 1.0), (9, 9))
        sides = _troisi_sides(g, (2.0, 2.0))
        stack = _zero_boundary_stack(g, 4, 8)
        stack[2, 0, 3] = 1.0
        with pytest.raises(ValueError,
                           match="^field must vanish on the boundary$"):
            sides(stack)
        stack[2, 0, 3] = 0.0
        stack[3, 4, 4] = np.nan
        with pytest.raises(ValueError,
                           match="^field values must be finite$"):
            sides(stack)


class TestSerialization:
    def test_csv_header_and_rows(self):
        g = Grid((1.0,), (3,))
        f = ScalarField(g, np.array([1.0, 2.0, 3.0]))
        lines = field_to_csv(f).strip().split("\n")
        assert lines[0] == "x1,value"
        assert len(lines) == 4
        assert lines[1].startswith("0,")


LINE = Grid((1.0,), (5,))


def _zeros(t=0.0, grid=LINE):
    return ScalarField(grid, np.zeros(grid.counts), t)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ScalarField(LINE, np.zeros(4)),
                 "values shape (4,) does not match grid (5,)",
                 id="ScalarField-shape"),
    pytest.param(lambda: ScalarField(LINE, [0.0, 0.0, np.nan, 0.0, 0.0]),
                 "field values must be finite", id="ScalarField-finite"),
    pytest.param(lambda: TimeSeries([_zeros(0.0),
                                     _zeros(1.0, Grid((2.0,), (5,)))]),
                 "all fields must share one grid", id="TimeSeries-grid"),
    pytest.param(lambda: TimeSeries([_zeros(1.0), _zeros(1.0)]),
                 "times must be strictly increasing", id="TimeSeries-times"),
    pytest.param(lambda: divergence(LINE, []),
                 "need one flux array per axis", id="divergence"),
    pytest.param(lambda: integrate_power(_zeros(), -1.0),
                 "exponent must be nonnegative", id="integrate_power"),
    pytest.param(lambda: sobolev_troisi_gap(_zeros(), (2.0, 2.0)),
                 "exponent count must match grid dimension",
                 id="sobolev_troisi_gap"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
