"""Command line experiment runner.

Verbs:

  anisodnl run --config cfg.json --out outdir [--seed N] [--k LIST]
               [--grid LIST] [--dt REAL]
  anisodnl validate --config cfg.json
  anisodnl calibrate --out outdir [--grid LIST]

The config file is JSON with at least {"scenario": NAME} and either
{"preset": NAME} or an inline problem description (see presets module for
the expression schema).  Scenarios: constant, manufactured, cascade,
comparison, degiorgi-report, mollifier-demo, calibrate.

Every run writes JSON reports validating against the schema
"anisodnl-report/1", CSV field dumps, and a manifest with sha256
checksums.  With a fixed seed the outputs are byte-identical across runs;
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
import jsonschema

from . import analysis, presets, solver
from .discretization import Grid, ScalarField, TimeSeries, field_to_csv
from .model import ProblemSpec, check_admissibility
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


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


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

    def write_table(self, name: str, columns, rows):
        """CSV table: a header line of column names, then one line per
        row; numbers as .17g, None as an empty cell."""
        lines = [",".join(columns)]
        lines += [",".join("" if v is None else f"{v:.17g}" for v in row)
                  for row in rows]
        self.write_text(name, "\n".join(lines) + "\n")

    def write_report(self, name: str, report: dict):
        jsonschema.validate(report, REPORT_SCHEMA)
        self.write_text(name, json.dumps(report, indent=2, sort_keys=True,
                                         default=_json_default) + "\n")

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


def _grid(box, counts) -> Grid:
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
    counts = args.grid or cfg.get("grid", defaults["grid"])
    if (not isinstance(counts, (list, tuple))
            or any(type(n) is not int for n in counts)):
        raise SystemExit(f"grid must be a list of integers, got {counts!r}")
    grid = _grid(spec.box, counts)
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
# scenarios


def _scenario_constant(cfg, args, writer):
    spec, grid, config, _ = _resolve_run(cfg, args)
    violations = []
    results = {}
    c = float(np.max(np.broadcast_to(
        np.asarray(spec.u0(grid.meshgrid()), dtype=float), grid.counts)))
    ts, rep = solver.solve_problem(spec, grid, config)
    dev = max(float(np.max(np.abs(f.values - c))) for f in ts.fields)
    results["direct_deviation"] = dev
    results["direct_report"] = rep.as_dict()
    if dev > config.newton_tol:
        violations.append(f"direct constant deviation {dev:.3e}")
    k = 4
    cfg_k = replace(config, k=k)
    ts_k, rep_k = solver.solve_problem(spec, grid, cfg_k)
    dev_k = max(float(np.max(np.abs(f.values - (c + 1.0 / k))))
                for f in ts_k.fields)
    results["k_deviation"] = dev_k
    results["k_report"] = rep_k.as_dict()
    if dev_k > config.newton_tol:
        violations.append(f"k-mode constant deviation {dev_k:.3e}")
    writer.write_text("final_field.csv", field_to_csv(ts.fields[-1]))
    return results, violations


def _scenario_manufactured(cfg, args, writer):
    spec, grid, config, _ = _resolve_run(cfg, args)
    name = cfg.get("preset")
    exact = presets.MANUFACTURED_EXACT.get(name)
    if exact is None:
        raise SystemExit(f"scenario manufactured needs a manufactured preset,"
                         f" got {name!r}")
    errors = solver.refinement_errors(spec, exact, grid, config,
                                      _config_int(cfg, "levels", 3))
    violations = []
    floor = 1e-10
    if not (all(e < floor for e in errors)
            or all(b < a for a, b in zip(errors, errors[1:]))):
        violations.append(f"errors not monotone: {errors}")
    return {"l2_errors": errors}, violations


def _scenario_cascade(cfg, args, writer):
    spec, grid, config, ks = _resolve_run(cfg, args)
    if not spec.exponents.closeness_ok:
        raise SystemExit("cascade: disabled, the problem fails the "
                         "exponent closeness condition m_j < p_j' * m")
    res = solver.regularization_cascade(spec, grid, config, ks)
    tol = solver.ordering_tolerance(config, spec.T)
    violations = []
    for pair, excess in res.ordering_excess.items():
        if excess > tol:
            violations.append(
                f"ordering excess {excess:.3e} for pair {pair}")
    results = res.as_dict()
    results["ordering_tol"] = tol
    writer.write_table("distances.csv", ("k_low", "k_high", "distance"),
                       zip(ks, ks[1:], res.distances))
    writer.write_text("limit_field.csv",
                      field_to_csv(res.series[-1].fields[-1]))
    return results, violations


def _scenario_comparison(cfg, args, writer):
    spec, grid, config, _ = _resolve_run(cfg, args)
    rng = np.random.default_rng(args.seed)
    k = _config_int(cfg, "k", 4)
    base_cfg = replace(config, k=k)
    # amplitude first, then shift: the seed fixes both draws
    hi = presets.shifted_problem(spec, rng.uniform(0.1, 0.5),
                                 rng.uniform(0.05, 0.2))
    u_ts, _ = solver.solve_problem(spec, grid, base_cfg)
    v_ts, _ = solver.solve_problem(hi, grid, base_cfg)
    rep = analysis.comparison_check(u_ts, v_ts, spec.f, hi.f,
                                    zero_tol=10 * config.newton_tol)
    tol = solver.ordering_tolerance(config, spec.T)
    violations = []
    if rep.violation > tol:
        violations.append(f"comparison violation {rep.violation:.3e}")
    worst = max(float(np.max(a.values - b.values))
                for a, b in zip(u_ts.fields, v_ts.fields))
    if worst > tol:
        violations.append(f"pointwise ordering excess {worst:.3e}")
    writer.write_table("comparison_trace.csv", ("t", "lhs", "rhs"),
                       zip(rep.times, rep.lhs, rep.rhs))
    results = asdict(rep)
    results["pointwise_excess"] = worst
    results["ordering_tol"] = tol
    return results, violations


def _scenario_degiorgi(cfg, args, writer):
    spec, grid, config, ks = _resolve_run(cfg, args)
    k = _config_int(cfg, "k", ks[-1])
    run_cfg = replace(config, k=k)
    ts, _ = solver.solve_problem(spec, grid, run_cfg)
    rep = analysis.degiorgi_constants(spec, grid, c_struct=1.0)
    m = spec.exponents.m_min
    j_max = _config_int(cfg, "j_max", 8, least=0)
    level_M = _config_number(cfg, "level_M", rep.M)
    Y, E = analysis.measure_levels(ts, level_M, m, rep.q_bar, j_max)
    rep.levels = list(analysis.level_sequence(level_M, m, j_max))
    rep.Y = Y
    rep.E = E
    writer.write_table("levels.csv", ("j", "M_j", "Y_j", "E_j"),
                       zip(range(j_max + 1), rep.levels, Y, E))
    violations = []
    for a, b in zip(Y, Y[1:]):
        if b > a + 1e-14:
            violations.append("level quantities not decreasing")
            break
    return {"degiorgi": asdict(rep), "k": k}, violations


def _scenario_mollifier(cfg, args, writer):
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
    writer.write_table(
        "mollifier_trace.csv", ("t", "input", "window", "exponential"),
        [(f.t, f.values.flat[0], st_by_t.get(f.t), ex_by_t.get(f.t))
         for f in series.fields])
    return results, violations


def _scenario_calibrate(cfg, args, writer):
    grid_counts = tuple(args.grid) if args.grid else (17, 17)
    results = {
        "b_sandwich": {str(m): analysis.b_sandwich_constant(m)
                       for m in (1.0, 1.5, 2.0, 3.0)},
        "power_inequality": {str(g): analysis.power_inequality_constant(g)
                             for g in (1.5, 2.0, 3.0)},
    }
    from .discretization import calibrate_troisi_constant
    grid = _grid(tuple([1.0] * len(grid_counts)), grid_counts)
    for p in ((2.0, 2.0), (3.0, 2.0)):
        if len(p) == len(grid_counts):
            key = "troisi_p" + "_".join(str(v) for v in p)
            results[key] = calibrate_troisi_constant(
                grid, p, trials=50, seed=args.seed)
    return results, []


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
    The report's settings are the config's, plus each run flag given."""
    writer = OutputWriter(Path(args.out))
    results, violations = _SCENARIO_FUNCS[scenario](cfg, args, writer)
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
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise SystemExit(
            f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    n_files, violations = _write_run(scenario, cfg, args, "report.json")
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
    print(f"cascade: {'enabled' if rep.cascade_capable else 'disabled'}")
    sig_margin = rep["sigma"].margin
    if sig_margin <= 0:
        print("sup-bound report: disabled (integrability exponent at or "
              "below the threshold)")
    else:
        print(f"sup-bound report: enabled (sigma margin {sig_margin:.6g})")
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
    cal_p.add_argument("--grid", type=_int_list, default=None)
    cal_p.set_defaults(func=_cmd_calibrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
