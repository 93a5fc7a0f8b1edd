"""Continuous problem description: exponents, coefficients, data and the
diffusion vector fields (exact and truncated).

Both fields have one form per axis, a_j |d_j w_j|^(p_j-2) d_j w_j, on a
power w_j = ``working_power(k, m_j, u)``: u^(m_j) for the exact field, the
Kirchhoff power Phi_{k,j}(u), the integral of m_j T_k(r)^(m_j-1) dr, for
the field truncated at level k.  Since Phi_{k,j}' = m_j T_k^(m_j-1), that
is the paper's a_j m_j^(p_j-1) T_k(u)^((m_j-1)(p_j-1)) |d_j u|^(p_j-2) d_j u.

Evaluator convention used throughout the package: spatial positions are
passed as a tuple ``x = (x1, ..., xN)`` of equally shaped numpy arrays, the
time ``t`` is a scalar.  All evaluators must be pure and vectorized, e.g.
``f(x, t) -> ndarray``, ``u0(x) -> ndarray``, ``a_j(x, t, u) -> ndarray``.
An evaluator may return a scalar or any array that broadcasts to the shape
of its points; ``evaluate`` is the one place that makes that a float array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Exponents",
    "BarExponents",
    "CoefficientSpec",
    "ProblemSpec",
    "AdmissibilityReport",
    "ConditionCheck",
    "harmonic_mean",
    "compute_bar_exponents",
    "check_admissibility",
    "evaluate",
    "truncate",
    "flux",
    "flux_slope",
    "working_power",
]


@dataclass(frozen=True)
class Exponents:
    """Per-axis growth exponents p_j and solution-power exponents m_j."""

    p: tuple[float, ...]
    m: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) != len(self.m):
            raise ValueError("p and m must have the same length")
        if len(self.p) == 0:
            raise ValueError("at least one axis required")
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        if not all(math.isfinite(v) for v in self.p + self.m):
            raise ValueError("all p_j and m_j must be finite")
        if any(pj <= 1.0 for pj in self.p):
            raise ValueError("all p_j must exceed 1")
        if any(mj < 1.0 for mj in self.m):
            raise ValueError("all m_j must be at least 1")

    @property
    def dim(self) -> int:
        return len(self.p)

    @property
    def m_min(self) -> float:
        return min(self.m)

    def p_conjugate(self, j: int) -> float:
        pj = self.p[j]
        return pj / (pj - 1.0)

    def closeness_margins(self) -> tuple[float, ...]:
        """Margins p_j' * m_min - m_j; the closeness condition requires all > 0."""
        m = self.m_min
        return tuple(self.p_conjugate(j) * m - self.m[j] for j in range(self.dim))

    @property
    def closeness_ok(self) -> bool:
        return all(g > 0.0 for g in self.closeness_margins())


@dataclass(frozen=True)
class BarExponents:
    """Harmonic-mean exponent and derived quantities."""

    p_bar: float
    p_bar_conj: float
    mu: float


def harmonic_mean(p) -> float:
    """Harmonic mean of the exponents p_j; every caller passes one per axis."""
    return 1.0 / (sum(1.0 / pj for pj in p) / len(p))


def compute_bar_exponents(exponents: Exponents) -> BarExponents:
    """Harmonic mean of the p_j, its Hoelder conjugate and mu = (m+1)/m."""
    p_bar = harmonic_mean(exponents.p)
    m = exponents.m_min
    return BarExponents(p_bar=p_bar, p_bar_conj=p_bar / (p_bar - 1.0),
                        mu=(m + 1.0) / m)


Evaluator = Callable[..., np.ndarray]


def evaluate(fn: Evaluator, shape, *args) -> np.ndarray:
    """fn(*args) as a float array of the given shape; a read-only view, so
    a caller that writes to it makes a copy.

    Evaluators act elementwise.  The solver marches several truncation
    levels as one stack of fields of shape (members, *counts): it passes
    a_j the stacked u at the points of one field, and member i's rows of
    the result must be what a_j gives member i's field alone.  f, g and
    u0 take stacked points the same way."""
    values = np.asarray(fn(*args), dtype=float)
    if values.shape != shape:
        return np.broadcast_to(values, shape)
    view = values.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class CoefficientSpec:
    """Per-axis coefficient evaluators a_j(x, t, u) with an ellipticity band
    [1/lam, lam] and a Lipschitz constant in u.  The bounds are audited by
    sampling, not symbolically."""

    funcs: tuple[Evaluator, ...]
    lam: float
    lipschitz_c: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.lipschitz_c < 0:
            raise ValueError("lipschitz_c must be nonnegative")


@dataclass(frozen=True)
class ProblemSpec:
    """Full continuous Cauchy-Dirichlet problem on a box domain.

    box gives the per-axis extents; the domain is the product of [0, L_j].
    eps0 = 0 means g is identically zero; otherwise g >= eps0 > 0 is
    expected everywhere (audited by sampling).  Every evaluator acts
    elementwise in its points and in u, so that a stack of fields gives
    a stack of values (see ``evaluate``).
    """

    box: tuple[float, ...]
    T: float
    exponents: Exponents
    coeffs: CoefficientSpec
    f: Evaluator
    g: Evaluator
    u0: Evaluator
    sigma: float
    eps0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(float(b) for b in self.box))
        if len(self.box) != self.exponents.dim:
            raise ValueError("box dimension must match exponents")
        if len(self.coeffs.funcs) != self.exponents.dim:
            raise ValueError("coefficient count must match dimension")
        if not all(b > 0 and math.isfinite(b) for b in self.box):
            raise ValueError("box extents must be positive and finite")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("time horizon must be positive and finite")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if not (self.eps0 >= 0 and math.isfinite(self.eps0)):
            raise ValueError("eps0 must be nonnegative and finite")

    @property
    def dim(self) -> int:
        return self.exponents.dim

    @property
    def volume(self) -> float:
        return math.prod(self.box)

    def bar(self) -> BarExponents:
        return compute_bar_exponents(self.exponents)

    def sigma_lower_bound(self) -> float:
        return 1.0 + self.dim / self.bar().p_bar


# regularization of the p < 2 flux c (xi^2 + EPS_REG^2)^((p-2)/2) xi
EPS_REG = 1e-8


def truncate(k, s):
    """Truncation T_k(s) = min(k, max(s, 1/k)); identity on [1/k, k].  k
    is a level, at least 1, or an array of levels that broadcasts against
    s, one per stacked field.  The solver makes such arrays from levels
    that it has checked, so an array is not checked again at every call
    (a reduction per call in the Newton loop)."""
    if not isinstance(k, np.ndarray) and k < 1:
        raise ValueError("k must be a positive integer")
    return np.minimum(k, np.maximum(s, 1.0 / k))


def working_power(k, m: float, u):
    """The power w of u whose difference the axis flux acts on, and its
    derivative dw/du: u itself (derivative 1) for m = 1; in direct mode
    (k None) max(u, 0)^m, with derivative m max(u, 0)^(m-1); in k-mode
    the Kirchhoff power Phi_k(u) = T^m + m T^(m-1) (u - T) with
    T = T_k(u), with derivative m T^(m-1): u^m on [1/k, k], continued
    linearly (and C^1) outside.  In k-mode k may be an array of levels
    that broadcasts against u, one per stacked field.

    For m = 1 the power is u itself, not a copy, so a caller must not
    write to it; otherwise w and dw are arrays of their own, computed in
    place on temporaries this function made, to the bits of the
    expressions above."""
    if m == 1.0:
        return u, 1.0
    if k is None:
        w = np.maximum(u, 0.0)
        dw = w ** (m - 1.0)
        dw *= m
        w **= m
        return w, dw
    tk = truncate(k, u)
    w = u - tk
    dw = tk ** (m - 1.0)
    # T^m = T T^(m-1), formed before dw takes its factor m
    tk *= dw
    dw *= m
    w *= dw
    w += tk
    return w, dw


def flux(c, xi, p: float):
    """Flux c |xi|^(p-2) xi; for p < 2 the regularized
    c (xi^2 + EPS_REG^2)^((p-2)/2) xi, whose slope is finite at xi = 0
    (Barrett & Liu, Math. Comp. 61, 1993).  It is 0 at xi = 0 whatever c
    is, +0.0 also at xi = -0.0.  Its magnitude cannot divide by zero: for
    p < 2 its base is at least EPS_REG^2, for p >= 2 its power is
    non-negative; only an infinite c, or a product beyond the float
    range, warns.

    p = 2 (the porous-medium flux) is c xi, with no power: numpy's
    |xi| ** 0.0 is exactly 1 at every xi (NaN and infinities included)
    and c 1.0 = c, so it has the bits of the general form.  The general
    form is computed in place on the magnitude this function made."""
    if p == 2.0:
        return np.where(xi == 0.0, 0.0, c * xi)
    if p < 2.0:
        mag = xi * xi
        mag += EPS_REG * EPS_REG
        mag **= (p - 2.0) / 2.0
    else:
        mag = np.abs(xi)
        mag **= p - 2.0
    mag *= c
    mag *= xi
    return np.where(xi == 0.0, 0.0, mag)


def flux_slope(c, xi, p: float):
    """Slope in xi of ``flux``: for p < 2 the exact derivative
    c (xi^2 + EPS_REG^2)^((p-4)/2) ((p-1) xi^2 + EPS_REG^2); for p >= 2 the
    slope c (p-1) (xi^2 + EPS_REG^2)^((p-2)/2) of the regularized power.
    That differs from the derivative of c |xi|^(p-2) xi only for
    |xi| <~ EPS_REG, and at xi = 0 it is c (p-1) EPS_REG^(p-2) > 0.

    For p = 2 the slope is c itself, not a copy, so a caller must not
    write to it, and passes c at the shape of xi as the solver does: the
    power is (xi^2 + EPS_REG^2) ** 0.0, exactly 1, and c 1.0 (p-1) = c
    bit for bit.  Otherwise it is computed in place on arrays this
    function made."""
    if p == 2.0:
        return c
    e2 = EPS_REG * EPS_REG
    D2 = xi * xi
    slope = D2 + e2
    if p < 2.0:
        slope **= (p - 4.0) / 2.0
        slope *= c
        D2 *= p - 1.0
        D2 += e2
        slope *= D2
    else:
        slope **= (p - 2.0) / 2.0
        slope *= c
        slope *= p - 1.0
    return slope


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str = ""
    margin: float = math.nan


@dataclass
class AdmissibilityReport:
    checks: list[ConditionCheck] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "",
            margin: float = math.nan):
        self.checks.append(ConditionCheck(name, bool(passed), detail, margin))

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# random points per audit of the sampled conditions
ADMISSIBILITY_SAMPLES = 2000


def check_admissibility(spec: ProblemSpec,
                        seed: int = 0) -> AdmissibilityReport:
    """Audit the data conditions by dense random sampling at
    ADMISSIBILITY_SAMPLES points.

    Ellipticity and Lipschitz continuity are each decided by their margin,
    the smallest sampled slack over all axes: the check passes iff the
    margin is >= 0, so a coefficient that returns NaN fails both with
    margin NaN.  This is a reporting operation and never raises.
    """
    rng = np.random.default_rng(seed)
    rep = AdmissibilityReport()
    exps = spec.exponents

    rep.add("p_range", all(pj > 1 for pj in exps.p), "p_j > 1",
            min(pj - 1.0 for pj in exps.p))
    rep.add("m_range", all(mj >= 1 for mj in exps.m), "m_j >= 1",
            min(mj - 1.0 for mj in exps.m))

    margins = exps.closeness_margins()
    worst = int(np.argmin(margins))
    rep.add("closeness", exps.closeness_ok,
            f"m_j < p_j' * m; tightest axis {worst}", min(margins))

    sig_bound = spec.sigma_lower_bound()
    rep.add("sigma", spec.sigma > sig_bound,
            f"sigma > 1 + N/p_bar = {sig_bound:.6g}", spec.sigma - sig_bound)

    samples = ADMISSIBILITY_SAMPLES
    x = tuple(rng.uniform(0.0, b, size=samples) for b in spec.box)
    t = rng.uniform(0.0, spec.T, size=samples)
    # ellipticity band and Lipschitz continuity in u, audited pointwise
    uvals = rng.uniform(0.0, 10.0, size=samples)
    vvals = rng.uniform(0.0, 10.0, size=samples)
    lam = spec.coeffs.lam
    # every a_j at the u samples and at the v samples, one row per axis
    a_u, a_v = (np.array([evaluate(a, (samples,), x, t, s)
                          for a in spec.coeffs.funcs])
                for s in (uvals, vvals))
    band_margin = float(np.min(np.minimum(a_u - 1.0 / lam, lam - a_u)))
    lip_margin = float(np.min(spec.coeffs.lipschitz_c * np.abs(uvals - vvals)
                              - np.abs(a_u - a_v) + 1e-14))
    rep.add("ellipticity", band_margin >= 0.0,
            "1/lam <= a_j <= lam on samples", band_margin)
    rep.add("lipschitz", lip_margin >= 0.0,
            "|a_j(u)-a_j(v)| <= c|u-v| on samples", lip_margin)

    fvals = evaluate(spec.f, uvals.shape, x, t)
    rep.add("f_nonneg", bool(np.all(fvals >= 0.0)), "f >= 0 on samples",
            float(np.min(fvals)))
    # integrability is automatic for bounded sampled data; report the moment
    moment = float(np.mean(
        np.abs(fvals) ** (spec.sigma * spec.bar().p_bar_conj)))
    rep.add("f_integrable", math.isfinite(moment),
            f"sampled mean |f|^(sigma p_bar') = {moment:.6g}", moment)

    u0vals = evaluate(spec.u0, uvals.shape, x)
    rep.add("u0_nonneg_bounded",
            bool(np.all(u0vals >= 0.0) and np.all(np.isfinite(u0vals))),
            "u0 >= 0 and bounded on samples", float(np.min(u0vals)))

    gvals = evaluate(spec.g, uvals.shape, x, t)
    if spec.eps0 > 0.0:
        g_ok = bool(np.all(gvals >= spec.eps0))
        g_detail = f"g >= eps0 = {spec.eps0}"
        g_margin = float(np.min(gvals) - spec.eps0)
    else:
        g_ok = bool(np.all(gvals == 0.0))
        g_detail = "g identically zero (eps0 = 0)"
        g_margin = float(-np.max(np.abs(gvals)))
    rep.add("g_condition", g_ok, g_detail, g_margin)
    return rep
