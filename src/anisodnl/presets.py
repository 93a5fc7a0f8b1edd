"""Built-in problem families and construction of problems from plain
configuration dictionaries.

Expression schema for data entries (f, g, u0):

  {"kind": "constant", "value": c}
  {"kind": "affine", "const": c0, "x": [c1, ..., cN], "t": ct}
  {"kind": "bump", "amplitude": A, "rate": r}
      A * prod_j sin(pi x_j / L_j) * (1 + r t)

Coefficient entries (one per axis):

  {"kind": "constant", "value": a}
  {"kind": "bounded_u", "base": a0, "slope": a1}   # a0 + a1 u/(1+u)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import CoefficientSpec, Exponents, ProblemSpec

__all__ = [
    "PRESET_NAMES",
    "get_preset",
    "preset_defaults",
    "problem_from_config",
    "make_constant",
    "make_affine",
    "make_bump",
    "MANUFACTURED_EXACT",
    "shifted_problem",
]


def make_constant(value: float):
    v = float(value)

    def f(x, t=None, u=None):
        return np.full(np.shape(x[0]), v)

    return f


def make_affine(box: Sequence[float], const: float, xc: Sequence[float],
                tc: float = 0.0):
    xc = tuple(float(c) for c in xc)
    c0, ct = float(const), float(tc)

    def f(x, t=0.0, u=None):
        out = np.full(np.shape(x[0]), c0) + ct * t
        for c, xi in zip(xc, x):
            out = out + c * xi
        return out

    return f


def make_bump(box: Sequence[float], amplitude: float, rate: float = 0.0):
    box = tuple(float(b) for b in box)
    A, r = float(amplitude), float(rate)

    def f(x, t=0.0, u=None):
        out = np.full(np.shape(x[0]), A * (1.0 + r * t))
        for L, xi in zip(box, x):
            out = out * np.sin(np.pi * xi / L)
        return out

    return f


def shifted_problem(spec: ProblemSpec, amplitude: float,
                    shift: float) -> ProblemSpec:
    """Companion problem with ordered data: the source gains a bump of the
    given amplitude, and the boundary and initial data rise by shift."""
    bump = make_bump(spec.box, amplitude)
    return ProblemSpec(
        box=spec.box, T=spec.T, exponents=spec.exponents, coeffs=spec.coeffs,
        f=lambda x, t: np.asarray(spec.f(x, t), dtype=float) + bump(x, t),
        g=lambda x, t: np.asarray(spec.g(x, t), dtype=float) + shift,
        u0=lambda x: np.asarray(spec.u0(x), dtype=float) + shift,
        sigma=spec.sigma, eps0=spec.eps0)


def _coeff_from_config(entry: dict):
    kind = entry["kind"]
    if kind == "constant":
        v = float(entry["value"])
        if not (v > 0 and np.isfinite(v)):
            raise ValueError("coefficient must be positive and finite")

        def a(x, t, u):
            return np.full(np.shape(u), v)

        return a, max(v, 1.0 / v), 0.0
    if kind == "bounded_u":
        a0 = float(entry["base"])
        a1 = float(entry["slope"])
        if not (a0 > 0 and a1 >= 0 and np.isfinite(a0) and np.isfinite(a1)):
            raise ValueError("need finite base > 0 and slope >= 0")

        def a(x, t, u):
            uu = np.maximum(np.asarray(u, dtype=float), 0.0)
            return a0 + a1 * uu / (1.0 + uu)

        return a, max(a0 + a1, 1.0 / a0), a1
    raise ValueError(f"unknown coefficient kind {kind!r}")


def _coeffs(entries) -> CoefficientSpec:
    """Coefficients of the config entries, one per axis; lam and the
    Lipschitz constant are the largest of the entries'."""
    parsed = [_coeff_from_config(e) for e in entries]
    # no entries give no functions, which ProblemSpec rejects by count
    return CoefficientSpec(tuple(a for a, _, _ in parsed),
                           max((lam for _, lam, _ in parsed), default=1.0),
                           max((lip for *_, lip in parsed), default=0.0))


def _data_from_config(name: str, entry: dict, box):
    def number(key: str, value) -> float:
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"{name} entry: {key} must be finite, got {v}")
        return v

    kind = entry["kind"]
    if kind == "constant":
        return make_constant(number("value", entry["value"]))
    if kind == "affine":
        xc = entry.get("x", [0.0] * len(box))
        return make_affine(box, number("const", entry.get("const", 0.0)),
                           [number(f"x[{i}]", c) for i, c in enumerate(xc)],
                           number("t", entry.get("t", 0.0)))
    if kind == "bump":
        return make_bump(box, number("amplitude", entry["amplitude"]),
                         number("rate", entry.get("rate", 0.0)))
    raise ValueError(f"unknown data kind {kind!r}")


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a plain dictionary (parsed JSON)."""
    box = tuple(float(b) for b in cfg["box"])
    exps = Exponents(tuple(cfg["p"]), tuple(cfg["m"]))
    # every data evaluator's t defaults to 0, so it serves as u0(x)
    return ProblemSpec(
        box=box, T=float(cfg["T"]), exponents=exps,
        coeffs=_coeffs(cfg["coeffs"]),
        f=_data_from_config("f", cfg["f"], box),
        g=_data_from_config("g", cfg["g"], box),
        u0=_data_from_config("u0", cfg["u0"], box),
        sigma=float(cfg["sigma"]), eps0=float(cfg.get("eps0", 0.0)))


def _const_coeffs(n: int) -> CoefficientSpec:
    """Unit coefficients a_j = 1 on n axes."""
    return _coeffs([{"kind": "constant", "value": 1.0}] * n)


def _preset_aniso_cascade() -> ProblemSpec:
    """Fully anisotropic closeness-satisfying family with f = 0.

    Data sit in [0.4, 0.6], so consecutive truncated solutions stay in
    disjoint bands and the trajectories never hit the truncation caps.
    """
    box = (1.0, 1.0)
    exps = Exponents((3.0, 2.0), (1.0, 1.5))
    g = make_affine(box, 0.4, (0.2, 0.0))
    bump = make_bump(box, 0.1)
    return ProblemSpec(
        box=box, T=0.25, exponents=exps, coeffs=_const_coeffs(2),
        f=make_constant(0.0),
        g=g,
        u0=lambda x: g(x) + bump(x),
        sigma=3.0, eps0=0.4)


def _preset_porous_cascade() -> ProblemSpec:
    """Isotropic porous-medium-type exponents, 1D, zero boundary data.

    The initial bump decays toward the shifted boundary value 1/k, so the
    lower-bound property is tight at the boundary.
    """
    box = (1.0,)
    exps = Exponents((2.0,), (2.0,))
    return ProblemSpec(
        box=box, T=0.25, exponents=exps, coeffs=_const_coeffs(1),
        f=make_constant(0.0),
        g=make_constant(0.0),
        u0=make_bump(box, 0.5),
        sigma=4.0, eps0=0.0)


def _preset_ortho_plaplace() -> ProblemSpec:
    """Orthotropic gradient nonlinearity (m = 1), data scale 10.

    With m = 1 the truncation factor is identically one, so all members
    of the cascade solve the same equation and differ only through the
    1/k data shift.
    """
    box = (1.0, 1.0)
    exps = Exponents((3.0, 2.0), (1.0, 1.0))
    return ProblemSpec(
        box=box, T=0.1, exponents=exps, coeffs=_const_coeffs(2),
        f=make_constant(0.0),
        g=make_constant(0.0),
        u0=make_bump(box, 10.0),
        sigma=3.0, eps0=0.0)


def _preset_strong_source() -> ProblemSpec:
    """1D heat-type problem driven by a large interior source.

    Used for level-set and energy measurements: the solution rises far
    above the data bound so exceedance sets are nonempty and the relative
    effect of the 1/k shift is small.
    """
    box = (1.0,)
    exps = Exponents((2.0,), (1.0,))
    return ProblemSpec(
        box=box, T=0.5, exponents=exps, coeffs=_const_coeffs(1),
        f=make_bump(box, 1000.0),
        g=make_constant(0.0),
        u0=make_constant(0.0),
        sigma=3.0, eps0=0.0)


def _manufactured(f) -> ProblemSpec:
    """1D heat equation (p = 2, m = 1, a = 1) on [0, 1] up to T = 1 with
    u0 = g = 1 and the closed-form source f of a manufactured solution."""
    return ProblemSpec(
        box=(1.0,), T=1.0, exponents=Exponents((2.0,), (1.0,)),
        coeffs=_const_coeffs(1),
        f=f,
        g=make_constant(1.0),
        u0=make_constant(1.0),
        sigma=3.0, eps0=1.0)


def manufactured_1d_exact(x, t):
    """Exact solution of the manufactured-1d preset, which the scheme
    reproduces to rounding."""
    return 1.0 + t * x[0] * (1.0 - x[0])


def manufactured_quartic_exact(x, t):
    """Exact solution of the manufactured-quartic preset.  Unlike the base
    case, the scheme does not reproduce it exactly, so it shows genuine
    discretization error."""
    return 1.0 + t * t * x[0] ** 2 * (1.0 - x[0]) ** 2


def manufactured_strong_exact(x, t):
    """Exact solution of the manufactured-strong preset.  It climbs an
    order of magnitude above the data bound, which makes level energies
    and exceedance sets robustly nonzero."""
    return 1.0 + 40.0 * t * x[0] * (1.0 - x[0])


# preset name -> exact solution, for the presets built by _manufactured
MANUFACTURED_EXACT = {
    "manufactured-1d": manufactured_1d_exact,
    "manufactured-quartic": manufactured_quartic_exact,
    "manufactured-strong": manufactured_strong_exact,
}


def _preset_constant() -> ProblemSpec:
    """Constant data c = 0.7: constants solve every mode exactly."""
    box = (1.0, 1.0)
    exps = Exponents((3.0, 2.0), (1.0, 1.5))
    return ProblemSpec(
        box=box, T=0.25, exponents=exps, coeffs=_const_coeffs(2),
        f=make_constant(0.0),
        g=make_constant(0.7),
        u0=make_constant(0.7),
        sigma=3.0, eps0=0.7)


def _preset_varcoeff() -> ProblemSpec:
    """Solution-dependent coefficients exercising the Lipschitz audit."""
    box = (1.0, 1.0)
    exps = Exponents((2.0, 2.0), (1.0, 1.2))
    coeffs = _coeffs([{"kind": "bounded_u", "base": 1.0, "slope": 0.5},
                      {"kind": "constant", "value": 1.0}])
    g = make_affine(box, 0.5, (0.1, 0.1))
    return ProblemSpec(
        box=box, T=0.25, exponents=exps, coeffs=coeffs,
        f=make_constant(0.0),
        g=g,
        u0=g,
        sigma=3.0, eps0=0.5)


# preset name -> (builder, default grid); every preset runs 32 steps
_PRESETS = {
    "aniso-cascade": (_preset_aniso_cascade, (33, 33)),
    "porous-cascade": (_preset_porous_cascade, (65,)),
    "ortho-plaplace": (_preset_ortho_plaplace, (33, 33)),
    "strong-source": (_preset_strong_source, (65,)),
    "manufactured-1d": (lambda: _manufactured(
        lambda x, t: x[0] * (1.0 - x[0]) + 2.0 * t), (65,)),
    "manufactured-quartic": (lambda: _manufactured(
        lambda x, t: (2.0 * t * x[0] ** 2 * (1.0 - x[0]) ** 2
                      - t * t * (2.0 - 12.0 * x[0] + 12.0 * x[0] ** 2))),
        (65,)),
    "manufactured-strong": (lambda: _manufactured(
        lambda x, t: 40.0 * x[0] * (1.0 - x[0]) + 80.0 * t), (65,)),
    "constant": (_preset_constant, (33, 33)),
    "varcoeff": (_preset_varcoeff, (33, 33)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> ProblemSpec:
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name][0]()


def preset_defaults(name: str) -> dict:
    """Suggested grid resolution and step count for a preset."""
    return {"grid": _PRESETS[name][1], "n_steps": 32}
