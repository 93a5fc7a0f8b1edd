"""Seeded workloads of the anisodnl benchmark.

Each workload is a fixed list of operations drawn from the workload seed.
An operation (op) is one unit of user work, timed from outside:

- ``cascade-2d``: one ``regularization_cascade`` call on a 2D anisotropic
  problem of the ``aniso-cascade`` family at 65x65 nodes.
- ``porous-1d``: one ``regularization_cascade`` call on a 1D degenerate
  problem of the ``porous-cascade`` family at 1025 nodes.
- ``direct-2d``: one direct-mode ``solve_problem`` call at 33x33 nodes;
  op 0 is always the known stall reproducer.
- ``cli-scenarios``: one in-process ``anisodnl.cli.main`` call, either
  ``run`` for a scenario or ``validate`` for a preset.

Op descriptions are plain JSON data (``generate``), so the same seed gives
the same problems and their digest can be recorded.  ``build`` turns them
into ``ProblemSpec`` objects or config files; ``call`` calls the program
once and ``check`` checks what it returned.  Draws cover each workload's
ranges and are filtered only on admissibility (p_j > 1, m_j >= 1,
closeness), never on how the solver behaves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import anisodnl
import anisodnl.cli
from anisodnl import presets, solver
from anisodnl.discretization import Grid
from anisodnl.model import CoefficientSpec, Exponents, ProblemSpec

WORKLOADS = ("cascade-2d", "porous-1d", "direct-2d", "cli-scenarios")

# One pass over a workload draws "ops" problems, or side * side after the
# fixed reproducer for direct-2d; a run repeats the pass until its time is
# used up, so each op is timed once or more.
N_STEPS = 32
T_END = 0.25
CASCADE_2D = {"grid": (65, 65), "ks": (2, 4, 8, 16), "ops": 3}
POROUS_1D = {"grid": (1025,), "ks": (2, 4, 8, 16, 32, 64), "ops": 3}
DIRECT_2D = {"grid": (33, 33), "side": 7}

# The known direct-mode stall: once the Picard fallback switches on, the
# residual freezes near 3.3e-4 and the solve raises StepFailure at step 24.
STALL_REPRODUCER = {"p": [1.6, 3.0], "m": [1.0, 1.2], "g": 0.0,
                    "amplitude": 0.5}

# Scenario -> preset for the cli-scenarios runs.  Each preset is the one
# the scenario is written for; mollifier-demo and calibrate ignore the
# problem, so they run on the smallest preset and on none.
CLI_RUNS = (
    ("constant", "constant"),
    ("manufactured", "manufactured-1d"),
    ("cascade", "aniso-cascade"),
    ("comparison", "porous-cascade"),
    ("degiorgi-report", "strong-source"),
    ("mollifier-demo", "constant"),
    ("calibrate", None),
)


# ---------------------------------------------------------------------------
# generation


def _strata(rng, n: int) -> np.ndarray:
    """Lower corners of n equal slices of [0, 1), shuffled (one column of
    a Latin hypercube design)."""
    return rng.permutation(n) / n


def _scale(u: float, lo: float, hi: float) -> float:
    return round(float(lo + u * (hi - lo)), 3)


def _exponents(u, p_range, m_range) -> tuple[list, list]:
    """Map a point of the unit cube of (p_1..p_N, m_1..m_N) to exponents."""
    dim = len(u) // 2
    return ([_scale(v, *p_range) for v in u[:dim]],
            [_scale(v, *m_range) for v in u[dim:]])


def _admissible(u, p_range, m_range) -> bool:
    p, m = _exponents(u, p_range, m_range)
    return Exponents(tuple(p), tuple(m)).closeness_ok


def _draw_exponents(rng, corners, widths, p_range, m_range) -> list:
    """One (p, m) draw inside each design cell, redrawn until admissible.

    ``corners`` holds one row per draw, the lower corner of its cell in
    the unit cube of (p_1..p_N, m_1..m_N); ``widths`` the cell size per
    coordinate.  An inadmissible draw is redrawn inside its own cell; a
    cell with no admissible point in 100 tries gives way to draws over
    the whole ranges.  Only admissibility is tested.
    """
    out = []
    for corner in corners:
        for attempt in range(1000):
            if attempt < 100:
                u = corner + widths * rng.uniform(size=len(corner))
            else:
                u = rng.uniform(size=len(corner))
            if _admissible(u, p_range, m_range):
                break
        else:
            raise RuntimeError("no admissible exponents drawn")
        out.append(_exponents(u, p_range, m_range))
    return out


def _mirrored(rng, n: int, dim: int, accept=lambda u: True) -> list:
    """n points of the unit cube [0, 1)^dim in mirror-image pairs.

    Each coordinate has one point in every slice of width 1 / n; the
    points come in pairs u, 1 - u, and for odd n the last point is the
    centre, its own mirror image.  A cost that grows steadily with each
    coordinate then sums to nearly the same total for every seed, and the
    centre is the median op (antithetic sampling).  A pair is redrawn in
    its slices until ``accept`` takes both of its points.
    """
    slices = np.stack([rng.permutation(n // 2) for _ in range(dim)], axis=1)
    points = []
    for cell in slices:
        for _ in range(1000):
            u = (cell + rng.uniform(size=dim)) / n
            u = np.where(rng.uniform(size=dim) < 0.5, 1.0 - u, u)
            if accept(u) and accept(1.0 - u):
                break
        else:
            raise RuntimeError("no admissible pair drawn")
        points += [u, 1.0 - u]
    if n % 2:
        points.append(np.full(dim, 0.5))
    return [points[i] for i in rng.permutation(n)]


def generate(workload: str, seed: int) -> list[dict]:
    """The op descriptions of one pass, as plain JSON data.

    Draws are stratified so that every pass spans the ranges evenly and
    pass totals vary little from seed to seed: mirrored Latin hypercube
    points for the cascades, and for direct-2d a jittered grid over
    (p_1, p_2), since StepFailure there depends mostly on the smaller p_j,
    with Latin hypercube cells for the other draws.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cascade-2d":
        ranges = ((2.0, 4.0), (1.0, 1.6))
        points = _mirrored(rng, CASCADE_2D["ops"], 4,
                           lambda u: _admissible(u, *ranges))
        return [dict(zip(("p", "m"), _exponents(u, *ranges)))
                for u in points]
    if workload == "porous-1d":
        return [{"p": [2.0], "m": [_scale(u[0], 1.5, 3.0)]}
                for u in _mirrored(rng, POROUS_1D["ops"], 1)]
    if workload == "direct-2d":
        side = DIRECT_2D["side"]
        n = side * side
        cells = rng.permutation(n)
        corners = np.stack([cells // side / side, cells % side / side,
                            _strata(rng, n), _strata(rng, n)], axis=1)
        widths = np.array([1 / side, 1 / side, 1 / n, 1 / n])
        exps = _draw_exponents(rng, corners, widths, (1.5, 4.0), (1.0, 1.6))
        g_u = _strata(rng, n) + rng.uniform(size=n) / n
        amp_u = _strata(rng, n) + rng.uniform(size=n) / n
        ops = [dict(STALL_REPRODUCER)]
        for (p, m), ug, ua in zip(exps, g_u, amp_u):
            # half of the problems have g = 0, the rest g in [0.05, 0.5]
            g = 0.0 if ug < 0.5 else _scale(2.0 * ug - 1.0, 0.05, 0.5)
            ops.append({"p": p, "m": m, "g": g,
                        "amplitude": _scale(ua, 0.2, 1.0)})
        return ops
    if workload == "cli-scenarios":
        ops = [{"verb": "run", "scenario": s, "preset": name, "seed": seed}
               for s, name in CLI_RUNS]
        ops += [{"verb": "validate", "preset": name}
                for name in presets.PRESET_NAMES]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def digest(obj) -> str:
    """sha256 of the canonical JSON form of plain data."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# building the program's inputs


def _unit_coeffs(dim: int) -> CoefficientSpec:
    def a(x, t, u):
        return np.full(np.shape(u), 1.0)

    return CoefficientSpec(tuple([a] * dim), 1.0, 0.0)


def aniso_cascade_problem(p, m) -> ProblemSpec:
    """The aniso-cascade preset with exponents (p, m): data in [0.4, 0.6]."""
    box = (1.0, 1.0)
    g = presets.make_affine(box, 0.4, (0.2, 0.0))
    bump = presets.make_bump(box, 0.1)
    return ProblemSpec(
        box=box, T=T_END, exponents=Exponents(tuple(p), tuple(m)),
        coeffs=_unit_coeffs(2), f=presets.make_constant(0.0),
        g=lambda x, t: g(x, t),
        u0=lambda x: g(x, 0.0) + bump(x, 0.0),
        sigma=3.0, eps0=0.4)


def porous_cascade_problem(p, m) -> ProblemSpec:
    """The porous-cascade preset with exponents (p, m): g = 0, bump u0."""
    box = (1.0,)
    u0 = presets.make_bump(box, 0.5)
    return ProblemSpec(
        box=box, T=T_END, exponents=Exponents(tuple(p), tuple(m)),
        coeffs=_unit_coeffs(1), f=presets.make_constant(0.0),
        g=presets.make_constant(0.0), u0=lambda x: u0(x, 0.0),
        sigma=4.0, eps0=0.0)


def direct_problem(p, m, g, amplitude) -> ProblemSpec:
    """f = 0, constant boundary value g >= 0, bump initial data."""
    box = (1.0, 1.0)
    u0 = presets.make_bump(box, amplitude)
    return ProblemSpec(
        box=box, T=T_END, exponents=Exponents(tuple(p), tuple(m)),
        coeffs=_unit_coeffs(2), f=presets.make_constant(0.0),
        g=presets.make_constant(g), u0=lambda x: u0(x, 0.0),
        sigma=3.0, eps0=float(g))


@dataclass
class Op:
    """One prepared operation: its description and the built inputs."""

    index: int
    desc: dict
    spec: ProblemSpec | None = None
    grid: Grid | None = None
    config: solver.SolverConfig | None = None
    ks: tuple = ()
    argv: list = field(default_factory=list)
    outdir: Path | None = None


def build(workload: str, descs: list[dict], workdir: Path) -> list[Op]:
    """Turn op descriptions into ProblemSpecs, or config files in workdir."""
    ops = []
    for i, d in enumerate(descs):
        op = Op(i, d)
        if workload in ("cascade-2d", "porous-1d"):
            family = CASCADE_2D if workload == "cascade-2d" else POROUS_1D
            make = (aniso_cascade_problem if workload == "cascade-2d"
                    else porous_cascade_problem)
            op.spec = make(d["p"], d["m"])
            op.grid = Grid(op.spec.box, family["grid"])
            op.config = solver.SolverConfig(dt=T_END / N_STEPS)
            op.ks = family["ks"]
        elif workload == "direct-2d":
            op.spec = direct_problem(d["p"], d["m"], d["g"], d["amplitude"])
            op.grid = Grid(op.spec.box, DIRECT_2D["grid"])
            op.config = solver.SolverConfig(dt=T_END / N_STEPS)
        else:
            cfg_path = workdir / f"op{i}.json"
            cfg = {k: d[k] for k in ("scenario", "preset")
                   if d.get(k) is not None}
            cfg_path.write_text(json.dumps(cfg, sort_keys=True))
            if d["verb"] == "run":
                op.outdir = workdir / f"out{i}"
                op.argv = ["run", "--config", str(cfg_path),
                           "--out", str(op.outdir), "--seed", str(d["seed"])]
            else:
                op.argv = ["validate", "--config", str(cfg_path)]
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# calling the program and checking what it returned


def call(workload: str, op: Op):
    """Call the program once for op; the benchmark times only this.

    Returns the program's result, or the StepFailure it raised.  For a CLI
    op the result is (exit code, stdout).
    """
    try:
        if workload in ("cascade-2d", "porous-1d"):
            return solver.regularization_cascade(op.spec, op.grid, op.config,
                                                 op.ks)
        if workload == "direct-2d":
            return solver.solve_problem(op.spec, op.grid, op.config)
    except solver.StepFailure as exc:
        return exc
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = anisodnl.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


@dataclass
class Outcome:
    """The checked result of one op.

    ``status`` is ``solved`` (returned and passed every check),
    ``step_failure`` (the solver raised StepFailure with a diagnosis) or
    ``wrong`` (a check failed).  ``digest`` fingerprints the output, so
    two runs of the same op, or the same op before and after a change,
    can be compared exactly.
    """

    status: str
    newton_iters: int
    digest: str
    problems: list[str] = field(default_factory=list)


def _checked(problems, iters, digest_hex) -> Outcome:
    return Outcome("wrong" if problems else "solved", iters, digest_hex,
                   problems)


def _check_step_failure(op: Op, exc) -> Outcome:
    hist = [float(r) for r in exc.residual_history]
    problems = []
    if exc.step_index < 0 or not hist or hist[-1] <= op.config.newton_tol:
        problems.append(f"StepFailure without a diagnosis: {exc}")
    return Outcome("wrong" if problems else "step_failure", 0,
                   digest(["StepFailure", exc.step_index, hist]), problems)


def _series_digest(h, series) -> None:
    for f in series.fields:
        h.update(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def _check_cascade(op: Op, res) -> Outcome:
    tol = solver.ordering_tolerance(op.config, op.spec.T)
    problems = []
    for (a, b), excess in res.ordering_excess.items():
        if excess > tol:
            problems.append(f"ordering excess {excess:.3e} for {a}->{b}")
    for k, series, rep in zip(res.ks, res.series, res.reports):
        lo = min(float(np.min(f.values)) for f in series.fields)
        if lo < 1.0 / k - tol:
            problems.append(f"k={k}: min u {lo:.6g} below 1/k - tol")
        if rep.max_residual > op.config.newton_tol:
            problems.append(f"k={k}: residual {rep.max_residual:.3e}")
    if list(res.ks) != list(op.ks):
        problems.append(f"members {res.ks}, expected {list(op.ks)}")
    h = hashlib.sha256()
    for series in res.series:
        _series_digest(h, series)
    h.update(repr([float(d) for d in res.distances]).encode())
    return _checked(problems, sum(r.total_iterations for r in res.reports),
                    h.hexdigest())


def _check_direct(op: Op, res) -> Outcome:
    series, rep = res
    problems = []
    if rep.max_residual > op.config.newton_tol:
        problems.append(f"residual {rep.max_residual:.3e}")
    if len(rep.steps) != N_STEPS:
        problems.append(f"{len(rep.steps)} steps, expected {N_STEPS}")
    h = hashlib.sha256()
    _series_digest(h, series)
    return _checked(problems, rep.total_iterations, h.hexdigest())


def _total_iterations(obj) -> int:
    """Sum of every ``total_iterations`` entry in a report."""
    if isinstance(obj, dict):
        return sum(v if k == "total_iterations" and isinstance(v, int)
                   else _total_iterations(v) for k, v in obj.items())
    if isinstance(obj, list):
        return sum(_total_iterations(v) for v in obj)
    return 0


def _check_validate(code: int, stdout: str) -> Outcome:
    verdicts = [ln.split()[0] for ln in stdout.splitlines()
                if ln.startswith("  ") and ln.split()[0] in ("PASS", "FAIL")]
    problems = []
    if not verdicts:
        problems.append("validate printed no audit")
    # validate exits 1 exactly when the audit it prints has a FAIL line
    expected = 1 if "FAIL" in verdicts else 0
    if code != expected:
        problems.append(f"exit {code}, the printed audit implies {expected}")
    return _checked(problems, 0, digest([code, stdout]))


def _check_run(op: Op, code: int) -> Outcome:
    problems = [] if code == 0 else [f"exit {code}"]
    try:
        manifest = json.loads((op.outdir / "manifest.json").read_text())
        report = json.loads((op.outdir / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _checked(problems + [f"unreadable output: {exc}"], 0,
                        digest([code, str(exc)]))
    try:
        jsonschema.validate(report, anisodnl.cli.REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        problems.append(f"report schema: {exc.message}")
    files = manifest.get("files", {})
    if "report.json" not in files:
        problems.append("manifest does not list report.json")
    for name, sha in sorted(files.items()):
        data = (op.outdir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != sha:
            problems.append(f"sha256 mismatch for {name}")
    return _checked(problems, _total_iterations(report), digest([code, files]))


def check(workload: str, op: Op, result) -> Outcome:
    """Check what one call returned; never skipped."""
    if isinstance(result, solver.StepFailure):
        return _check_step_failure(op, result)
    if workload in ("cascade-2d", "porous-1d"):
        return _check_cascade(op, result)
    if workload == "direct-2d":
        return _check_direct(op, result)
    code, stdout = result
    if op.desc["verb"] == "validate":
        return _check_validate(code, stdout)
    return _check_run(op, code)


def output_bytes(op: Op) -> int:
    """Bytes a CLI run op left in its output directory."""
    if op.outdir is None or not op.outdir.is_dir():
        return 0
    return sum(p.stat().st_size for p in op.outdir.iterdir() if p.is_file())
