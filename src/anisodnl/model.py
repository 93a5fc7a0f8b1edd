"""Continuous problem description: exponents, coefficients, data and the
diffusion vector fields (exact and truncated).

Evaluator convention used throughout the package: spatial positions are
passed as a tuple ``x = (x1, ..., xN)`` of equally shaped numpy arrays, the
time ``t`` is a scalar.  All evaluators must be pure and vectorized, e.g.
``f(x, t) -> ndarray``, ``u0(x) -> ndarray``, ``a_j(x, t, u) -> ndarray``.
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
    "compute_bar_exponents",
    "check_admissibility",
    "truncate",
    "flux_coefficient",
    "flux",
    "eval_flux",
    "eval_flux_truncated",
    "truncated_growth_constant",
    "truncated_coercivity_constant",
    "truncated_lipschitz_bound",
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
    p_bar_star: float  # math.inf marks the unbounded case p_bar >= N
    mu: float


def compute_bar_exponents(exponents: Exponents) -> BarExponents:
    """Harmonic mean of the p_j, its Hoelder conjugate, the Sobolev conjugate
    (infinite marker when p_bar >= N) and mu = (m+1)/m."""
    n = exponents.dim
    p_bar = 1.0 / (sum(1.0 / pj for pj in exponents.p) / n)
    p_bar_conj = p_bar / (p_bar - 1.0)
    if p_bar < n:
        p_bar_star = n * p_bar / (n - p_bar)
    else:
        p_bar_star = math.inf
    m = exponents.m_min
    return BarExponents(p_bar=p_bar, p_bar_conj=p_bar_conj,
                        p_bar_star=p_bar_star, mu=(m + 1.0) / m)


Evaluator = Callable[..., np.ndarray]


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
    expected everywhere (audited by sampling).
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
        if any(b <= 0 for b in self.box):
            raise ValueError("box extents must be positive")
        if self.T <= 0:
            raise ValueError("time horizon must be positive")
        if self.eps0 < 0:
            raise ValueError("eps0 must be nonnegative")

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


def truncate(k: int, s):
    """Truncation T_k(s) = min(k, max(s, 1/k)); identity on [1/k, k]."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return np.minimum(float(k), np.maximum(s, 1.0 / k))


def flux_coefficient(spec: ProblemSpec, k: int | None, j: int, x, t: float,
                     u):
    """Coefficient of the axis-j flux at (x, t, u): a_j(x, t, u) in direct
    mode (k None), a_j m_j^(p_j-1) T_k(u)^((m_j-1)(p_j-1)) for integer k."""
    a = np.broadcast_to(np.asarray(spec.coeffs.funcs[j](x, t, u), dtype=float),
                        np.shape(u))
    if k is None:
        return a
    pj = spec.exponents.p[j]
    mj = spec.exponents.m[j]
    return a * mj ** (pj - 1.0) * truncate(k, u) ** ((mj - 1.0) * (pj - 1.0))


def flux(c, xi, p: float):
    """Flux c |xi|^(p-2) xi, with the continuous extension 0 at xi = 0
    for p < 2."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(xi == 0.0, 0.0, c * np.abs(xi) ** (p - 2.0) * xi)


def eval_flux(spec: ProblemSpec, j: int, x, t: float, u, xi):
    """Axis-j flux a_j(x,t,u) |xi|^(p_j - 2) xi."""
    return flux(flux_coefficient(spec, None, j, x, t, u), xi,
                spec.exponents.p[j])


def eval_flux_truncated(spec: ProblemSpec, k: int, j: int, x, t: float, u, xi):
    """Axis-j truncated flux a_j m_j^(p_j-1) T_k(u)^((m_j-1)(p_j-1)) |xi|^(p_j-2) xi."""
    return flux(flux_coefficient(spec, k, j, x, t, u), xi,
                spec.exponents.p[j])


def truncated_growth_constant(spec: ProblemSpec, k: int, j: int) -> float:
    """Upper structure constant b_{k,j} of the truncated axis-j flux."""
    pj = spec.exponents.p[j]
    mj = spec.exponents.m[j]
    return spec.coeffs.lam * mj ** (pj - 1.0) * float(k) ** ((mj - 1.0) * (pj - 1.0))


def truncated_coercivity_constant(spec: ProblemSpec, k: int) -> float:
    """Lower structure constant c_k of the truncated vector field."""
    vals = []
    for j in range(spec.dim):
        pj = spec.exponents.p[j]
        mj = spec.exponents.m[j]
        vals.append(mj ** (pj - 1.0) * float(k) ** (-(mj - 1.0) * (pj - 1.0)))
    return min(vals) / spec.coeffs.lam


def truncated_lipschitz_bound(spec: ProblemSpec, k: int, j: int) -> float:
    """Lipschitz constant in u of the truncated coefficient
    a_j m_j^(p_j-1) T_k(u)^((m_j-1)(p_j-1))."""
    pj = spec.exponents.p[j]
    mj = spec.exponents.m[j]
    e = (mj - 1.0) * (pj - 1.0)
    mfac = mj ** (pj - 1.0)
    # derivative bound for T_k(u)^e on the band [1/k, k]
    if e == 0.0:
        lip_pow = 0.0
    else:
        lip_pow = e * float(k) ** abs(e - 1.0)
    lip_c = spec.coeffs.lipschitz_c
    return mfac * (lip_c * float(k) ** e + spec.coeffs.lam * lip_pow)


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

    @property
    def cascade_capable(self) -> bool:
        return self["closeness"].passed and self.all_passed


def _sample_points(spec: ProblemSpec, samples: int, rng: np.random.Generator):
    x = tuple(rng.uniform(0.0, b, size=samples) for b in spec.box)
    t = rng.uniform(0.0, spec.T, size=samples)
    return x, t


def check_admissibility(spec: ProblemSpec, samples: int = 2000,
                        seed: int = 0) -> AdmissibilityReport:
    """Audit the data conditions by dense random sampling.

    Closeness failure downgrades cascade capability but single-k solves
    remain possible; this is a reporting operation and never raises.
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

    x, t = _sample_points(spec, samples, rng)
    # ellipticity band and Lipschitz continuity in u, audited pointwise
    uvals = rng.uniform(0.0, 10.0, size=samples)
    vvals = rng.uniform(0.0, 10.0, size=samples)
    lam = spec.coeffs.lam
    band_ok = True
    band_margin = math.inf
    lip_ok = True
    lip_margin = math.inf
    for j in range(spec.dim):
        a_u = np.asarray(spec.coeffs.funcs[j](x, t, uvals), dtype=float)
        a_u = np.broadcast_to(a_u, uvals.shape)
        band_margin = min(band_margin,
                          float(np.min(a_u) - 1.0 / lam),
                          float(lam - np.max(a_u)))
        band_ok = band_ok and band_margin >= 0.0
        a_v = np.broadcast_to(
            np.asarray(spec.coeffs.funcs[j](x, t, vvals), dtype=float),
            vvals.shape)
        diff = np.abs(a_u - a_v)
        bound = spec.coeffs.lipschitz_c * np.abs(uvals - vvals)
        slack = float(np.min(bound - diff + 1e-14))
        lip_margin = min(lip_margin, slack)
        lip_ok = lip_ok and slack >= 0.0
    rep.add("ellipticity", band_ok, "1/lam <= a_j <= lam on samples", band_margin)
    rep.add("lipschitz", lip_ok, "|a_j(u)-a_j(v)| <= c|u-v| on samples", lip_margin)

    fvals = np.asarray(spec.f(x, t), dtype=float)
    fvals = np.broadcast_to(fvals, uvals.shape)
    rep.add("f_nonneg", bool(np.all(fvals >= 0.0)), "f >= 0 on samples",
            float(np.min(fvals)))
    # integrability is automatic for bounded sampled data; report the moment
    moment = float(np.mean(
        np.abs(fvals) ** (spec.sigma * spec.bar().p_bar_conj)))
    rep.add("f_integrable", math.isfinite(moment),
            f"sampled mean |f|^(sigma p_bar') = {moment:.6g}", moment)

    u0vals = np.broadcast_to(np.asarray(spec.u0(x), dtype=float), uvals.shape)
    rep.add("u0_nonneg_bounded",
            bool(np.all(u0vals >= 0.0) and np.all(np.isfinite(u0vals))),
            "u0 >= 0 and bounded on samples", float(np.min(u0vals)))

    gvals = np.broadcast_to(np.asarray(spec.g(x, t), dtype=float),
                            uvals.shape)
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
