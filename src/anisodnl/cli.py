"""Command line experiment runner.

Verbs:

  anisodnl run --config cfg.json --out outdir [--seed N] [--k LIST]
               [--grid LIST] [--dt REAL]
  anisodnl validate --config cfg.json
  anisodnl calibrate --out outdir [--grid N1,N2] [--seed N]

The config file is JSON with at least {"scenario": NAME} and either
{"preset": NAME} or an inline problem description (see presets module for
the expression schema).  Scenarios: constant, manufactured, cascade,
comparison, degiorgi-report, mollifier-demo, calibrate.

Every run writes a JSON report of the form "anisodnl-report/1", CSV
field dumps, and a manifest with sha256 checksums.  ``REPORT_SCHEMA``
describes the report; the test suite and the benchmark validate reports
against it.  With a fixed seed the outputs are byte-identical across runs;
wall-clock timings are deliberately kept out of the serialized reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis, presets, solver
from .discretization import (Grid, ScalarField, TimeSeries,
                             calibrate_troisi_constant, csv_text, field_to_csv)
from .model import ProblemSpec, check_admissibility, evaluate
from .solver import SolverConfig

REPORT_SCHEMA_ID = "anisodnl-report/1"

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "scenario", "seed", "results", "violations"],
    "properties": {
        "schema": {"const": REPORT_SCHEMA_ID},
        "scenario": {"type": "string"},
        "seed": {"type": "integer"},
        "settings": {"type": "object"},
        "results": {"type": "object"},
        "violations": {"type": "array", "items": {"type": "string"}},
    },
}


class OutputWriter:
    """Collects artifact files and finishes with a checksum manifest."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}

    def write_text(self, name: str, text: str):
        data = text.encode()
        (self.outdir / name).write_bytes(data)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def write_report(self, name: str, report: dict):
        self.write_text(name,
                        json.dumps(report, indent=2, sort_keys=True) + "\n")

    def finish(self):
        manifest = {
            "schema": "anisodnl-manifest/1",
            "files": dict(sorted(self.files.items())),
        }
        (self.outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"config parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise SystemExit(f"config {path} must hold a JSON object")
    return cfg


def _resolve_problem(cfg: dict) -> tuple[ProblemSpec, dict]:
    name = cfg.get("preset")
    if name is not None:
        try:
            spec = presets.get_preset(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
        defaults = presets.preset_defaults(name)
    else:
        problem = cfg.get("problem")
        if not isinstance(problem, dict):
            raise SystemExit(
                "config needs either a \"preset\" name or an inline "
                "\"problem\" object")
        try:
            spec = presets.problem_from_config(problem)
        except KeyError as exc:
            raise SystemExit(f"bad problem description: missing key {exc}")
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad problem description: {exc}")
        defaults = {"grid": tuple([33] * spec.dim), "n_steps": 32}
    return spec, defaults


# run flag -> the config key it overrides
_FLAG_KEYS = {"grid": "grid", "dt": "dt", "k": "ks"}


def _grid(counts, box=None) -> Grid:
    """The grid of ``counts`` nodes on ``box`` (default the unit box)."""
    if (not isinstance(counts, (list, tuple))
            or any(type(n) is not int for n in counts)):
        raise SystemExit(f"grid must be a list of integers, got {counts!r}")
    box = box or (1.0,) * len(counts)
    try:
        return Grid(box, counts)
    except ValueError as exc:
        raise SystemExit(f"invalid grid {list(counts)}: {exc}")


def _config_int(cfg: dict, key: str, default=None, least: int = 1) -> int:
    """The config's ``key`` (or ``default``), a JSON integer >= least."""
    value = cfg.get(key, default)
    if type(value) is not int or value < least:
        kind = "positive" if least else "nonnegative"
        raise SystemExit(f"{key} must be a {kind} integer, got {value!r}")
    return value


def _config_number(cfg: dict, key: str, default=None) -> float:
    """The config's ``key`` (or ``default``), a JSON number, as a float."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SystemExit(f"{key} must be a number, got {value!r}")
    return float(value)


# config "solver" key -> reader of its JSON value; the defaults live in
# SolverConfig
_SOLVER_KEYS = {"newton_tol": _config_number,
                "newton_max": lambda sc, key: _config_int(sc, key, least=0)}


def _resolve_run(cfg: dict, args) -> tuple[ProblemSpec, Grid, SolverConfig, list[int]]:
    spec, defaults = _resolve_problem(cfg)
    grid = _grid(args.grid or cfg.get("grid", defaults["grid"]), spec.box)
    n_steps = _config_int(cfg, "n_steps", defaults["n_steps"])
    dt = (args.dt if args.dt is not None
          else _config_number(cfg, "dt", spec.T / n_steps))
    sc = cfg.get("solver", {})
    if not isinstance(sc, dict):
        raise SystemExit("config \"solver\" must be a JSON object")
    unknown = sorted(set(sc) - set(_SOLVER_KEYS))
    if unknown:
        raise SystemExit(f"unknown solver keys {unknown}; "
                         f"known: {sorted(_SOLVER_KEYS)}")
    try:
        config = SolverConfig(
            dt=dt, **{key: _SOLVER_KEYS[key](sc, key) for key in sc})
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid run settings: {exc}")
    ks = args.k or cfg.get("ks", [1, 2, 4, 8])
    if (not isinstance(ks, list) or not ks
            or any(type(k) is not int or k < 1 for k in ks)
            or any(b <= a for a, b in zip(ks, ks[1:]))):
        raise SystemExit(f"ks must be a nonempty list of strictly increasing "
                         f"positive integers, got {ks!r}")
    return spec, grid, config, ks


# ---------------------------------------------------------------------------
# scenarios: each public function runs one scenario on resolved inputs and
# returns (results, violations, files), files mapping CSV name -> text; the
# acceptance gate calls the same functions


def constant(spec, grid, config):
    """Direct mode and k-mode (k = config.k) keep constant data constant:
    the level c, and c + 1/k with the data shifted by 1/k."""
    c = float(np.max(evaluate(spec.u0, grid.counts, grid.meshgrid())))
    results, violations, finals = {}, [], []
    for key, label, k in (("direct", "direct", None),
                          ("k", "k-mode", config.k)):
        ts, rep = solver.solve_problem(spec, grid, replace(config, k=k))
        level = c if k is None else c + 1.0 / k
        dev = max(float(np.max(np.abs(f.values - level))) for f in ts.fields)
        results[f"{key}_deviation"] = dev
        results[f"{key}_report"] = rep.as_dict()
        if dev > config.newton_tol:
            violations.append(f"{label} constant deviation {dev:.3e}")
        finals.append(ts.fields[-1])
    return results, violations, {"final_field.csv": field_to_csv(finals[0])}


def manufactured(spec, exact, grid, config, levels):
    """L2 errors against the exact solution over ``levels`` refinements:
    all at the rounding floor, or strictly decreasing."""
    errors = solver.refinement_errors(spec, exact, grid, config, levels)
    violations = []
    if not (all(e < 1e-10 for e in errors)
            or all(b < a for a, b in zip(errors, errors[1:]))):
        violations.append(f"errors not monotone: {errors}")
    return {"l2_errors": errors}, violations, {}


def cascade(spec, grid, config, ks):
    """The truncation cascade over ``ks``, decreasing in k to within the
    ordering tolerance."""
    res = solver.regularization_cascade(spec, grid, config, ks)
    tol = solver.ordering_tolerance(config, spec.T)
    violations = [f"ordering excess {excess:.3e} for pair {pair}"
                  for pair, excess in res.ordering_excess.items()
                  if excess > tol]
    results = res.as_dict()
    results["ordering_tol"] = tol
    return results, violations, {
        "distances.csv": csv_text(("k_low", "k_high", "distance"),
                                  zip(ks, ks[1:], res.distances)),
        "limit_field.csv": field_to_csv(res.series[-1].fields[-1])}


def comparison(spec, grid, config, rng):
    """Comparison of u with the solution v of data raised by a draw from
    rng: the integrated check and the pointwise ordering u <= v."""
    # amplitude first, then shift: the generator fixes both draws
    hi = presets.shifted_problem(spec, rng.uniform(0.1, 0.5),
                                 rng.uniform(0.05, 0.2))
    u_ts, _ = solver.solve_problem(spec, grid, config)
    v_ts, _ = solver.solve_problem(hi, grid, config)
    rep = analysis.comparison_check(u_ts, v_ts, spec.f, hi.f,
                                    zero_tol=10 * config.newton_tol)
    tol = solver.ordering_tolerance(config, spec.T)
    violations = []
    if rep.violation > tol:
        violations.append(f"comparison violation {rep.violation:.3e}")
    worst = analysis.ordering_excess(u_ts, v_ts)
    if worst > tol:
        violations.append(f"pointwise ordering excess {worst:.3e}")
    results = asdict(rep)
    results["pointwise_excess"] = worst
    results["ordering_tol"] = tol
    return results, violations, {"comparison_trace.csv": csv_text(
        ("t", "lhs", "rhs"), zip(rep.times, rep.lhs, rep.rhs))}


def degiorgi(spec, grid, config, j_max, level_M=None):
    """De Giorgi constants and the level quantities Y_j, E_j of the k-mode
    solve (k = config.k) at the levels from level_M (default the
    constants' M); Y_j must not increase."""
    rep = analysis.degiorgi_constants(spec, grid)
    level_M = rep.M if level_M is None else level_M
    m = spec.exponents.m_min
    ts, _ = solver.solve_problem(spec, grid, config)
    Y, E = analysis.measure_levels(ts, level_M, m, rep.q_bar, j_max)
    rep.levels = list(analysis.level_sequence(level_M, m, j_max))
    rep.Y = Y
    rep.E = E
    violations = []
    if any(b > a + 1e-14 for a, b in zip(Y, Y[1:])):
        violations.append("level quantities not decreasing")
    return {"degiorgi": asdict(rep), "k": config.k}, violations, {
        "levels.csv": csv_text(("j", "M_j", "Y_j", "E_j"),
                               zip(range(j_max + 1), rep.levels, Y, E))}


def _scenario_constant(cfg, args):
    spec, grid, config, _ = _resolve_run(cfg, args)
    return constant(spec, grid, replace(config, k=4))


def _scenario_manufactured(cfg, args):
    spec, grid, config, _ = _resolve_run(cfg, args)
    name = cfg.get("preset")
    exact = presets.MANUFACTURED_EXACT.get(name)
    if exact is None:
        raise SystemExit(f"scenario manufactured needs a manufactured preset,"
                         f" got {name!r}")
    return manufactured(spec, exact, grid, config,
                        _config_int(cfg, "levels", 3))


def _scenario_cascade(cfg, args):
    spec, grid, config, ks = _resolve_run(cfg, args)
    # the rule validate reports: the cascade runs when every check passes
    failed = [c.name for c in check_admissibility(spec).checks
              if not c.passed]
    if failed:
        raise SystemExit(f"cascade: disabled, the problem fails the "
                         f"checks {', '.join(failed)} (see anisodnl validate)")
    try:
        return cascade(spec, grid, config, ks)
    except solver.StepFailure as exc:
        # the one-line diagnostic names the member that failed
        raise SystemExit(f"cascade: k = {exc.k}: {exc}") from exc


def _scenario_comparison(cfg, args):
    spec, grid, config, _ = _resolve_run(cfg, args)
    return comparison(spec, grid, replace(config, k=_config_int(cfg, "k", 4)),
                      np.random.default_rng(args.seed))


def _scenario_degiorgi(cfg, args):
    spec, grid, config, ks = _resolve_run(cfg, args)
    k = _config_int(cfg, "k", ks[-1])
    j_max = _config_int(cfg, "j_max", 8, least=0)
    # the rule validate reports: the sup-bound report needs the sigma check
    if not check_admissibility(spec)["sigma"].passed:
        raise SystemExit("degiorgi-report: disabled, the problem fails the "
                         "check sigma (see anisodnl validate)")
    level_M = _config_number(cfg, "level_M") if "level_M" in cfg else None
    if level_M is not None and not (np.isfinite(level_M) and level_M >= 1):
        raise SystemExit(f"level_M must be finite and at least 1, "
                         f"got {level_M!r}")
    return degiorgi(spec, grid, replace(config, k=k), j_max, level_M)


def _scenario_mollifier(cfg, args):
    nt = 65
    times = np.linspace(0.0, 1.0, nt)
    g1 = Grid((1.0,), (5,))
    x = g1.axis_coords(0)
    fields = [ScalarField(g1, np.sin(2 * np.pi * t) + 2.0 + 0.0 * x, float(t))
              for t in times]
    series = TimeSeries(fields)
    h = 0.125
    stek = analysis.steklov(series, h)
    expo = analysis.exp_mollify(series, h)
    results = {}
    violations = []
    for p in (1.0, 2.0):
        n_in = analysis.series_lp_norm(series, p)
        n_st = analysis.series_lp_norm(stek, p)
        n_ex = analysis.series_lp_norm(expo, p)
        results[f"norm_p{p}"] = {"input": n_in, "window": n_st,
                                 "exponential": n_ex}
        if n_ex > n_in * (1 + 1e-10):
            violations.append(f"exponential mollifier grew the L{p} norm")
    st_by_t = {f.t: f.values.flat[0] for f in stek.fields}
    ex_by_t = {f.t: f.values.flat[0] for f in expo.fields}
    return results, violations, {"mollifier_trace.csv": csv_text(
        ("t", "input", "window", "exponential"),
        [(f.t, f.values.flat[0], st_by_t.get(f.t), ex_by_t.get(f.t))
         for f in series.fields])}


def _scenario_calibrate(cfg, args):
    grid = _grid(args.grid or cfg.get("grid", [17, 17]))
    # both exponent vectors calibrated below have two axes
    if grid.dim != 2:
        raise SystemExit(f"invalid grid {list(grid.counts)}: calibrate "
                         f"needs two axes, one per exponent of p = (2, 2) "
                         f"and p = (3, 2)")
    results = {
        "b_sandwich": {str(m): analysis.b_sandwich_constant(m)
                       for m in (1.0, 1.5, 2.0, 3.0)},
        "power_inequality": {str(g): analysis.power_inequality_constant(g)
                             for g in (1.5, 2.0, 3.0)},
    }
    for p in ((2.0, 2.0), (3.0, 2.0)):
        key = "troisi_p" + "_".join(str(v) for v in p)
        results[key] = calibrate_troisi_constant(
            grid, p, trials=50, seed=args.seed)
    return results, [], {}


_SCENARIO_FUNCS = {
    "constant": _scenario_constant,
    "manufactured": _scenario_manufactured,
    "cascade": _scenario_cascade,
    "comparison": _scenario_comparison,
    "degiorgi-report": _scenario_degiorgi,
    "mollifier-demo": _scenario_mollifier,
    "calibrate": _scenario_calibrate,
}
SCENARIOS = tuple(_SCENARIO_FUNCS)


def _write_run(scenario: str, cfg: dict, args,
               report_name: str) -> tuple[int, list[str]]:
    """Run a scenario, write its report and the manifest, and print its
    violations; return the number of files written and the violations.
    The report's settings are the config's, plus each run flag given.  A
    time step that fails ends the run with a one-line diagnostic, and so
    does an unknown scenario.  The report and manifest of an earlier run
    into the same directory are removed first, so a run that ends early
    leaves neither behind."""
    writer = OutputWriter(Path(args.out))
    for name in (report_name, "manifest.json"):
        (writer.outdir / name).unlink(missing_ok=True)
    if scenario not in SCENARIOS:
        raise SystemExit(
            f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    try:
        results, violations, files = _SCENARIO_FUNCS[scenario](cfg, args)
    except solver.StepFailure as exc:
        raise SystemExit(f"{scenario}: {exc}")
    for name, text in files.items():
        writer.write_text(name, text)
    settings = {k: v for k, v in cfg.items() if k != "scenario"}
    flags = vars(args)
    settings.update({key: flags[flag] for flag, key in _FLAG_KEYS.items()
                     if flags.get(flag) is not None})
    writer.write_report(report_name, {
        "schema": REPORT_SCHEMA_ID, "scenario": scenario, "seed": args.seed,
        "settings": settings, "results": results, "violations": violations})
    writer.finish()
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return len(writer.files) + 1, violations


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    n_files, violations = _write_run(cfg.get("scenario"), cfg, args,
                                     "report.json")
    print(f"wrote {n_files} files to {args.out}")
    return 1 if violations else 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    spec, _ = _resolve_problem(cfg)
    rep = check_admissibility(spec)
    bar = spec.bar()
    print(f"p_bar = {bar.p_bar:.6g}, p_bar' = {bar.p_bar_conj:.6g}, "
          f"mu = {bar.mu:.6g}")
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"  {status}  {c.name:<18} {c.detail}")
    print(f"cascade: {'enabled' if rep.all_passed else 'disabled'}")
    sigma = rep["sigma"]
    if sigma.passed:
        print(f"sup-bound report: enabled (sigma margin {sigma.margin:.6g})")
    else:
        print("sup-bound report: disabled (integrability exponent at or "
              "below the threshold)")
    return 0 if rep.all_passed else 1


def _cmd_calibrate(args) -> int:
    _write_run("calibrate", {}, args, "calibration.json")
    print(f"wrote calibration fixtures to {args.out}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisodnl",
        description="solver and verification harness for anisotropic "
                    "doubly nonlinear diffusion")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--k", type=_int_list, default=None,
                       help="comma separated truncation levels")
    run_p.add_argument("--grid", type=_int_list, default=None,
                       help="comma separated node counts per axis")
    run_p.add_argument("--dt", type=float, default=None)
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="dry-run admissibility report")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(func=_cmd_validate)

    cal_p = sub.add_parser("calibrate",
                           help="sweep calibration constants into fixtures")
    cal_p.add_argument("--out", required=True)
    cal_p.add_argument("--seed", type=int, default=0)
    cal_p.add_argument("--grid", type=_int_list, default=None,
                       help="two comma separated node counts "
                            "(default 17,17)")
    cal_p.set_defaults(func=_cmd_calibrate)

    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        raise SystemExit(
            f"--seed must be a nonnegative integer, got {args.seed}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
