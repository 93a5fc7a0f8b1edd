import re

import numpy as np
import pytest

from anisodnl.presets import (MANUFACTURED_EXACT, PRESET_NAMES, get_preset,
                              preset_defaults, problem_from_config)
from anisodnl.discretization import Grid
from anisodnl.model import evaluate
from anisodnl.solver import manufactured_rhs

DEFAULT_GRIDS = {
    "aniso-cascade": (33, 33),
    "constant": (33, 33),
    "manufactured-1d": (65,),
    "manufactured-quartic": (65,),
    "manufactured-strong": (65,),
    "ortho-plaplace": (33, 33),
    "porous-cascade": (65,),
    "strong-source": (65,),
    "varcoeff": (33, 33),
}


def test_preset_defaults():
    assert {name: preset_defaults(name) for name in PRESET_NAMES} == {
        name: {"grid": grid, "n_steps": 32}
        for name, grid in DEFAULT_GRIDS.items()}
    for name, grid in DEFAULT_GRIDS.items():
        assert len(grid) == get_preset(name).dim


@pytest.mark.parametrize("name", sorted(MANUFACTURED_EXACT))
def test_manufactured_preset_matches_its_exact_solution(name):
    # the hand-written source is the one manufactured_rhs derives from the
    # exact solution, and u0 and g are its values at t = 0 and on the
    # boundary
    spec = get_preset(name)
    exact = MANUFACTURED_EXACT[name]
    rng = np.random.default_rng(29)
    x = (rng.uniform(0.0, spec.box[0], size=200),)
    t = rng.uniform(0.0, spec.T, size=200)
    np.testing.assert_allclose(spec.f(x, t),
                               manufactured_rhs(exact, spec)(x, t),
                               rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(spec.u0(x), exact(x, 0.0), rtol=0.0,
                               atol=1e-15)
    edge = (np.repeat([0.0, spec.box[0]], 100),)
    t_edge = np.tile(t[:100], 2)
    np.testing.assert_allclose(spec.g(edge, t_edge), exact(edge, t_edge),
                               rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_evaluators_act_elementwise_on_stacks(name):
    # the solver marches the members of a cascade as one stack of fields
    # of shape (members, *counts): each a_j takes the stacked u at points
    # of one field, and each member's field is the one it gives that
    # member alone; f, g and u0 take stacked points the same way
    spec = get_preset(name)
    grid = Grid(spec.box, (9,) * spec.dim)
    x = grid.meshgrid()
    t = 0.3 * spec.T
    u = np.random.default_rng(3).uniform(0.1, 2.0, (3,) + grid.counts)
    for a in spec.coeffs.funcs:
        assert np.array_equal(evaluate(a, u.shape, x, t, u),
                              [evaluate(a, grid.counts, x, t, v) for v in u])
    scales = (1.0, 0.5, 0.25)
    xs = tuple(np.stack([s * c for s in scales]) for c in x)
    for fn, args in ((spec.f, (t,)), (spec.g, (t,)), (spec.u0, ())):
        assert np.array_equal(
            evaluate(fn, xs[0].shape, xs, *args),
            [evaluate(fn, grid.counts, tuple(s * c for c in x), *args)
             for s in scales])


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        get_preset("nope")


def inline_problem(u0):
    return {"box": [1.0, 2.0], "T": 0.5, "p": [2.0, 2.0], "m": [1.0, 1.0],
            "sigma": 3.0, "coeffs": [{"kind": "constant", "value": 1.0}] * 2,
            "f": {"kind": "constant", "value": 0.0},
            "g": {"kind": "constant", "value": 0.0}, "u0": u0}


@pytest.mark.parametrize("coeffs", [[], [{"kind": "constant", "value": 1.0}]])
def test_coefficient_count_must_match_dimension(coeffs):
    with pytest.raises(ValueError,
                       match="coefficient count must match dimension"):
        problem_from_config(dict(inline_problem(
            {"kind": "constant", "value": 0.0}), coeffs=coeffs))


@pytest.mark.parametrize("entry, message", [
    ({"kind": "constant", "value": np.nan}, "positive and finite"),
    ({"kind": "constant", "value": np.inf}, "positive and finite"),
    ({"kind": "bounded_u", "base": np.nan, "slope": 0.5}, "need finite"),
    ({"kind": "bounded_u", "base": np.inf, "slope": 0.5}, "need finite"),
    ({"kind": "bounded_u", "base": 1.0, "slope": np.nan}, "need finite"),
    ({"kind": "bounded_u", "base": 1.0, "slope": np.inf}, "need finite"),
])
def test_coefficient_numbers_must_be_finite(entry, message):
    with pytest.raises(ValueError, match=message):
        problem_from_config(dict(inline_problem(
            {"kind": "constant", "value": 0.0}), coeffs=[entry] * 2))


@pytest.mark.parametrize("name, entry, key", [
    ("f", {"kind": "constant", "value": np.nan}, "value"),
    ("g", {"kind": "bump", "amplitude": np.inf}, "amplitude"),
    ("u0", {"kind": "bump", "amplitude": 1.0, "rate": -np.inf}, "rate"),
    ("f", {"kind": "affine", "const": np.nan}, "const"),
    ("g", {"kind": "affine", "x": [0.0, np.inf]}, "x[1]"),
    ("u0", {"kind": "affine", "t": np.nan}, "t"),
])
def test_data_numbers_must_be_finite(name, entry, key):
    problem = inline_problem({"kind": "constant", "value": 0.0})
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} entry: {key} must be finite")):
        problem_from_config(dict(problem, **{name: entry}))


def test_inline_u0_is_evaluated_at_time_zero():
    affine = {"kind": "affine", "const": 0.3, "x": [0.5, 0.25]}
    steady = problem_from_config(inline_problem(affine))
    moving = problem_from_config(inline_problem(dict(affine, t=7.0)))
    x = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5))
    assert np.array_equal(moving.u0(x), steady.u0(x))
    assert np.array_equal(steady.u0(x), 0.3 + 0.5 * x[0] + 0.25 * x[1])


@pytest.mark.parametrize("key, entry, message", [
    pytest.param("coeffs", [{"kind": "cubic"}] * 2,
                 "unknown coefficient kind 'cubic'", id="coefficient-kind"),
    pytest.param("f", {"kind": "cubic"}, "unknown data kind 'cubic'",
                 id="data-kind"),
])
def test_unknown_kind(key, entry, message):
    problem = inline_problem({"kind": "constant", "value": 0.0})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        problem_from_config(dict(problem, **{key: entry}))
