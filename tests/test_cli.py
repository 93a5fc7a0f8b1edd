import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

import anisodnl
from anisodnl import analysis, solver
from anisodnl.cli import REPORT_SCHEMA, SCENARIOS, main
from anisodnl.discretization import ScalarField, TimeSeries


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def constant_config(tmp_path):
    return write_config(tmp_path, "constant.json", {
        "scenario": "constant", "preset": "constant",
        "grid": [9, 9], "n_steps": 4})


INLINE_PROBLEM = {
    "box": [1.0], "T": 0.2, "p": [2.0], "m": [1.5], "sigma": 3.0,
    "coeffs": [{"kind": "constant", "value": 1.0}],
    "f": {"kind": "constant", "value": 0.0},
    "g": {"kind": "constant", "value": 0.0},
    "u0": {"kind": "bump", "amplitude": 0.3},
}

# admissible except for closeness: m_2 = 2 is not below p_2' * m_min = 2
CLOSENESS_VIOLATION = {
    "box": [1.0, 1.0], "T": 0.2, "p": [3.0, 2.0],
    "m": [1.0, 2.0], "sigma": 3.0,
    "coeffs": [{"kind": "constant", "value": 1.0},
               {"kind": "constant", "value": 1.0}],
    "f": {"kind": "constant", "value": 0.0},
    "g": {"kind": "constant", "value": 0.0},
    "u0": {"kind": "constant", "value": 0.5}}


# one non-finite number of an inline problem, which JSON reads as NaN or
# Infinity, and the diagnostic that names it
NON_FINITE = [
    ("T", float("nan"), "time horizon must be positive and finite"),
    ("T", float("inf"), "time horizon must be positive and finite"),
    ("box", [float("nan")], "box extents must be positive and finite"),
    ("box", [float("inf")], "box extents must be positive and finite"),
    ("p", [float("nan")], "all p_j and m_j must be finite"),
    ("m", [float("inf")], "all p_j and m_j must be finite"),
    ("sigma", float("nan"), "sigma must be finite"),
    ("eps0", float("inf"), "eps0 must be nonnegative and finite"),
    ("coeffs", [{"kind": "constant", "value": float("inf")}],
     "coefficient must be positive and finite"),
    ("coeffs", [{"kind": "bounded_u", "base": 1.0, "slope": float("nan")}],
     "need finite base"),
    ("f", {"kind": "constant", "value": float("nan")},
     "f entry: value must be finite, got nan"),
    ("u0", {"kind": "bump", "amplitude": float("nan")},
     "u0 entry: amplitude must be finite, got nan"),
]


# every scenario on a small grid, with the preset it is written for
SMALL_RUNS = {
    "constant": {"preset": "constant", "grid": [5, 5], "n_steps": 2},
    "manufactured": {"preset": "manufactured-1d", "grid": [9], "n_steps": 4,
                     "levels": 2},
    "cascade": {"preset": "aniso-cascade", "grid": [5, 5], "n_steps": 2,
                "ks": [2, 4]},
    "comparison": {"preset": "porous-cascade", "grid": [9], "n_steps": 4,
                   "k": 4},
    "degiorgi-report": {"preset": "strong-source", "grid": [9],
                        "n_steps": 4, "ks": [2, 4]},
    "mollifier-demo": {},
    "calibrate": {},
}


@pytest.mark.parametrize("scenario", [*SCENARIOS, None],
                         ids=lambda s: s or "calibrate-verb")
def test_every_report_matches_schema(tmp_path, scenario):
    # the package writes its reports without checking them: the report of
    # every scenario, and of the calibrate verb, must validate here
    if scenario is None:
        argv, name = ["calibrate", "--grid", "9,9"], "calibration.json"
    else:
        cfg = write_config(tmp_path, "cfg.json",
                           dict(SMALL_RUNS[scenario], scenario=scenario))
        argv, name = ["run", "--config", cfg], "report.json"
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / name).read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["scenario"] == (scenario or "calibrate")


# scenario; the library functions it calls through their module, each
# with an edit of its result that makes a verdict fail; the violations
VERDICTS = [
    pytest.param("manufactured",
                 [(solver, "refinement_errors",
                   lambda errors: [1e-3, 2e-3, 5e-4])],
                 ["errors not monotone: [0.001, 0.002, 0.0005]"],
                 id="manufactured"),
    pytest.param("cascade",
                 [(solver, "regularization_cascade",
                   lambda res: replace(res, ordering_excess={
                       **res.ordering_excess, (2, 4): 1.0}))],
                 ["ordering excess 1.000e+00 for pair (2, 4)"],
                 id="cascade"),
    pytest.param("comparison",
                 [(analysis, "comparison_check",
                   lambda rep: replace(rep, violation=1.0)),
                  (analysis, "ordering_excess", lambda worst: 2.0)],
                 ["comparison violation 1.000e+00",
                  "pointwise ordering excess 2.000e+00"],
                 id="comparison"),
    pytest.param("degiorgi-report",
                 [(analysis, "measure_levels",
                   lambda YE: ([float(j) for j in range(len(YE[0]))],
                               YE[1]))],
                 ["level quantities not decreasing"], id="degiorgi-report"),
    pytest.param("mollifier-demo",
                 [(analysis, "exp_mollify",
                   lambda ts: TimeSeries([ScalarField(f.grid, 2.0 * f.values,
                                                      f.t)
                                          for f in ts.fields]))],
                 ["exponential mollifier grew the L1.0 norm",
                  "exponential mollifier grew the L2.0 norm"],
                 id="mollifier-demo"),
]


@pytest.mark.parametrize("scenario, edits, expected", VERDICTS)
def test_failed_verdict_reported(tmp_path, capsys, monkeypatch, scenario,
                                 edits, expected):
    # each verdict of a scenario, driven to fail by editing the result of
    # the library function it judges: exit 1, the violations in the
    # report, and one VIOLATION line each on stderr
    for module, name, edit in edits:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, edit=edit, **kw:
                            edit(real(*a, **kw)))
    cfg = write_config(tmp_path, "cfg.json",
                       dict(SMALL_RUNS[scenario], scenario=scenario))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == expected
    err = capsys.readouterr().err
    assert err.splitlines() == [f"VIOLATION: {v}" for v in expected]


def test_package_imports_no_jsonschema():
    # jsonschema is a test dependency: the package and its command line
    # tool run without it
    src = Path(anisodnl.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, anisodnl, anisodnl.cli; "
            "print('jsonschema' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


# a config the run verb cannot use, and the start of its one-line
# diagnostic
BAD_CONFIGS = [
    pytest.param(None, "cannot read config ", id="unreadable"),
    pytest.param([1, 2], "config .* must hold a JSON object",
                 id="not-an-object"),
    pytest.param({"scenario": "constant", "preset": "nope"},
                 "unknown preset 'nope'; available: ", id="unknown-preset"),
    pytest.param({"scenario": "constant"},
                 "config needs either a \"preset\" name or an inline "
                 "\"problem\" object", id="no-problem"),
    pytest.param({"scenario": "constant", "preset": "constant",
                  "solver": [1]},
                 "config \"solver\" must be a JSON object",
                 id="solver-not-object"),
]


@pytest.mark.parametrize("payload, message", BAD_CONFIGS)
def test_bad_config_one_line_exit(tmp_path, payload, message):
    cfg = (str(tmp_path / "missing.json") if payload is None
           else write_config(tmp_path, "bad.json", payload))
    with pytest.raises(SystemExit, match=f"^{message}") as exc:
        main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert "\n" not in str(exc.value)


class TestRun:
    def test_constant_scenario_artifacts(self, tmp_path):
        cfg = constant_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["violations"] == []
        assert report["results"]["direct_deviation"] <= 1e-9
        assert "wall_time" not in json.dumps(report)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "anisodnl-manifest/1"
        for name in manifest["files"]:
            assert (out / name).exists()

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "comp.json", {
            "scenario": "comparison", "preset": "porous-cascade",
            "grid": [17], "n_steps": 8, "k": 4})
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", cfg, "--out", str(out),
                         "--seed", "3"]) == 0
            outs.append(json.loads((out / "manifest.json").read_text()))
        assert outs[0] == outs[1]

    def test_inline_problem_cascade(self, tmp_path):
        cfg = write_config(tmp_path, "inline.json", {
            "scenario": "cascade", "ks": [2, 4], "grid": [9],
            "n_steps": 4, "problem": INLINE_PROBLEM})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["violations"] == []
        assert (out / "distances.csv").read_text().startswith(
            "k_low,k_high,distance")

    def test_grid_and_k_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "casc.json", {
            "scenario": "cascade", "preset": "porous-cascade",
            "n_steps": 4})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--grid", "9", "--k", "2,4"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["ks"] == [2, 4]

    def test_unknown_scenario(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"scenario": "nope"})
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_parse_error_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        with pytest.raises(SystemExit, match="line 1"):
            main(["run", "--config", str(path),
                  "--out", str(tmp_path / "o")])

    def test_manufactured_rejects_inline_problem(self, tmp_path):
        # an inline problem has no exact solution to grade against
        cfg = write_config(tmp_path, "inline.json", {
            "scenario": "manufactured", "grid": [9], "n_steps": 4,
            "levels": 1, "problem": INLINE_PROBLEM})
        with pytest.raises(SystemExit, match="needs a manufactured preset"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_missing_problem_key(self, tmp_path):
        problem = dict(INLINE_PROBLEM)
        del problem["coeffs"]
        cfg = write_config(tmp_path, "inc.json", {
            "scenario": "cascade", "problem": problem})
        with pytest.raises(SystemExit, match="coeffs"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flags, message", [
        (["--dt", "0"], "dt must be positive"),
        (["--dt", "-0.1"], "dt must be positive"),
        (["--grid", "2,2"], "at least 3 nodes"),
        (["--grid", "9"], "same length"),
        (["--k", "4,2"], "strictly increasing"),
        (["--k", "0,2"], "positive"),
    ])
    def test_invalid_flag_diagnostic(self, tmp_path, flags, message):
        cfg = constant_config(tmp_path)
        with pytest.raises(SystemExit, match=message):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")]
                 + flags)

    def test_empty_list_flag_rejected(self, tmp_path):
        cfg = constant_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--grid", ""])
        assert exc.value.code == 2

    def test_settings_record_flag_overrides(self, tmp_path):
        # config: grid [9, 9], 4 steps on T = 0.25
        cfg = constant_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--grid", "5,5", "--dt", "0.125", "--k", "2,4"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["settings"] == {
            "preset": "constant", "grid": [5, 5], "n_steps": 4,
            "dt": 0.125, "ks": [2, 4]}
        assert len(report["results"]["direct_report"]["steps"]) == 2
        rows = (out / "final_field.csv").read_text().splitlines()
        assert len(rows) == 1 + 25

    # a typo, the settings that became constants of the solver, and the
    # mode, which each scenario sets itself
    @pytest.mark.parametrize("key", ["newton_tl", "damping", "eps_reg",
                                     "picard_fallback", "k"])
    def test_unknown_solver_key(self, tmp_path, key):
        cfg = write_config(tmp_path, "typo.json", {
            "scenario": "constant", "preset": "constant",
            "grid": [9, 9], "n_steps": 4, "solver": {key: 0.5}})
        with pytest.raises(SystemExit, match=f"unknown solver keys.*{key}"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("n_steps", [0, 2.5])
    def test_n_steps_must_be_positive_integer(self, tmp_path, n_steps):
        cfg = write_config(tmp_path, "steps.json", {
            "scenario": "constant", "preset": "constant",
            "grid": [9, 9], "n_steps": n_steps})
        with pytest.raises(SystemExit, match="n_steps must be a positive"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("ks", [4, [2.5, 4], [True, 2], []])
    def test_ks_must_be_increasing_positive_integers(self, tmp_path, ks):
        cfg = write_config(tmp_path, "ks.json", {
            "scenario": "cascade", "preset": "porous-cascade",
            "grid": [9], "n_steps": 2, "ks": ks})
        with pytest.raises(SystemExit, match="ks must be a nonempty list"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("scenario, key, value, message", [
        ("comparison", "k", 2.5, "k must be a positive integer"),
        ("comparison", "k", 0, "k must be a positive integer"),
        ("manufactured", "levels", 0, "levels must be a positive integer"),
        ("degiorgi-report", "j_max", -1,
         "j_max must be a nonnegative integer"),
        ("degiorgi-report", "k", True, "k must be a positive integer"),
        ("constant", "grid", [9.5], "grid must be a list of integers"),
        ("constant", "grid", 9, "grid must be a list of integers"),
        ("constant", "dt", "0.1", "dt must be a number"),
        ("constant", "dt", float("nan"), "dt must be positive and finite"),
        ("constant", "dt", float("inf"), "dt must be positive and finite"),
        ("degiorgi-report", "level_M", "2", "level_M must be a number"),
        ("constant", "solver", {"newton_max": 2.5},
         "newton_max must be a nonnegative integer"),
        ("constant", "solver", {"newton_tol": "1e-9"},
         "newton_tol must be a number"),
        ("constant", "solver", {"newton_tol": float("nan")},
         "newton_tol must be positive"),
        ("degiorgi-report", "level_M", 0.5,
         "level_M must be finite and at least 1"),
        ("degiorgi-report", "level_M", float("nan"),
         "level_M must be finite and at least 1"),
    ])
    def test_run_settings_need_json_types(self, tmp_path, scenario, key,
                                          value, message):
        cfg = write_config(tmp_path, "bad.json", {
            "scenario": scenario, "preset": "manufactured-1d",
            "grid": [9], "n_steps": 2, key: value})
        with pytest.raises(SystemExit, match=message):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_step_failure_one_line_exit(self, tmp_path):
        # no Newton iteration is allowed, so the first step cannot converge
        cfg = write_config(tmp_path, "fail.json", {
            "scenario": "constant", "preset": "porous-cascade",
            "grid": [9], "n_steps": 2, "solver": {"newton_max": 0}})
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert exc.value.code == ("constant: step 0 failed, "
                                  "final residual 4.686e+00 "
                                  "(iteration limit)")

    def test_cascade_step_failure_names_its_member(self, tmp_path):
        # k = 1 converges in one Newton iteration, k = 2 needs four
        cfg = write_config(tmp_path, "fail.json", {
            "scenario": "cascade", "preset": "porous-cascade", "grid": [9],
            "n_steps": 2, "ks": [1, 2], "solver": {"newton_max": 2}})
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert re.fullmatch(r"cascade: k = 2: step 0 failed, final residual "
                            r"\S+ \(iteration limit\)", exc.value.code)

    def test_failed_run_removes_earlier_report(self, tmp_path):
        payload = {"scenario": "constant", "preset": "porous-cascade",
                   "grid": [9], "n_steps": 2}
        out = tmp_path / "o"
        ok = write_config(tmp_path, "ok.json", payload)
        # the constant scenario on a nonconstant preset reports violations
        assert main(["run", "--config", ok, "--out", str(out)]) == 1
        others = set(json.loads((out / "manifest.json").read_text())["files"])
        others.discard("report.json")
        fail = write_config(tmp_path, "fail.json",
                            {**payload, "solver": {"newton_max": 0}})
        with pytest.raises(SystemExit, match="step 0 failed"):
            main(["run", "--config", fail, "--out", str(out)])
        # only the report and the manifest are removed
        assert {f.name for f in out.iterdir()} == others

    def test_unknown_scenario_removes_earlier_report(self, tmp_path):
        payload = {"scenario": "constant", "preset": "porous-cascade",
                   "grid": [9], "n_steps": 2}
        out = tmp_path / "o"
        main(["run", "--config", write_config(tmp_path, "ok.json", payload),
              "--out", str(out)])
        assert (out / "report.json").exists()
        typo = write_config(tmp_path, "typo.json",
                            {**payload, "scenario": "constnt"})
        with pytest.raises(SystemExit, match="unknown scenario 'constnt'"):
            main(["run", "--config", typo, "--out", str(out)])
        assert not (out / "report.json").exists()
        assert not (out / "manifest.json").exists()

    def test_mollifier_demo_needs_no_problem(self, tmp_path):
        cfg = write_config(tmp_path, "moll.json",
                           {"scenario": "mollifier-demo"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "mollifier_trace.csv").exists()

    def test_cascade_needs_closeness(self, tmp_path):
        cfg = write_config(tmp_path, "casc.json", {
            "scenario": "cascade", "ks": [2, 4], "grid": [5, 5],
            "n_steps": 2, "problem": CLOSENESS_VIOLATION})
        with pytest.raises(SystemExit, match="closeness"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_cascade_needs_every_check(self, tmp_path, capsys):
        # manufactured-quartic passes closeness but not f_nonneg: run
        # refuses the cascade that validate calls disabled
        payload = {"scenario": "cascade", "preset": "manufactured-quartic",
                   "grid": [9], "n_steps": 4, "ks": [2, 4]}
        cfg = write_config(tmp_path, "casc.json", payload)
        assert main(["validate", "--config", cfg]) == 1
        assert "cascade: disabled" in capsys.readouterr().out
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(out)])
        assert exc.value.code == ("cascade: disabled, the problem fails the "
                                  "checks f_nonneg (see anisodnl validate)")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sigma", [1.2, 1.5])
    def test_degiorgi_needs_sigma_check(self, tmp_path, capsys, sigma):
        # N = 1 and p_bar = 2: sigma must exceed 1.5; run refuses the
        # sup-bound report that validate calls disabled
        cfg = write_config(tmp_path, "dg.json", {
            "scenario": "degiorgi-report", "grid": [9], "n_steps": 4,
            "problem": dict(INLINE_PROBLEM, sigma=sigma)})
        assert main(["validate", "--config", cfg]) == 1
        assert "sup-bound report: disabled" in capsys.readouterr().out
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(out)])
        assert exc.value.code == ("degiorgi-report: disabled, the problem "
                                  "fails the check sigma (see anisodnl "
                                  "validate)")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value, message", NON_FINITE)
    def test_non_finite_problem_number(self, tmp_path, key, value, message):
        cfg = write_config(tmp_path, "nf.json", {
            "scenario": "cascade", "ks": [2, 4], "grid": [9], "n_steps": 4,
            "problem": dict(INLINE_PROBLEM, **{key: value})})
        with pytest.raises(SystemExit,
                           match=f"^bad problem description: {message}"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("scenario", ["comparison", "calibrate"])
    def test_negative_seed_rejected(self, tmp_path, scenario):
        cfg = write_config(tmp_path, "seed.json", {
            "scenario": scenario, "preset": "porous-cascade", "grid": [9],
            "n_steps": 2, "k": 4})
        with pytest.raises(SystemExit,
                           match="--seed must be a nonnegative integer"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--seed", "-1"])

    def test_preset_inside_problem_rejected(self, tmp_path):
        # presets are named at the top level, with their own grid and steps
        cfg = write_config(tmp_path, "alias.json", {
            "scenario": "constant", "problem": {"preset": "constant"}})
        with pytest.raises(SystemExit, match="bad problem description"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])


class TestValidate:
    def test_admissible_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {
            "scenario": "cascade", "preset": "porous-cascade"})
        assert main(["validate", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "cascade: enabled" in text

    def test_closeness_violation_disables_cascade(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {
            "scenario": "cascade", "problem": CLOSENESS_VIOLATION})
        assert main(["validate", "--config", cfg]) == 1
        text = capsys.readouterr().out
        assert "FAIL  closeness" in text
        assert "cascade: disabled" in text

    def test_sigma_at_threshold_disables_sup_bound(self, tmp_path, capsys):
        # N = 1 and p_bar = 2: sigma must exceed 1.5
        cfg = write_config(tmp_path, "v.json", {
            "scenario": "cascade",
            "problem": dict(INLINE_PROBLEM, sigma=1.5)})
        assert main(["validate", "--config", cfg]) == 1
        text = capsys.readouterr().out
        assert "FAIL  sigma" in text
        assert "cascade: disabled" in text
        assert ("sup-bound report: disabled (integrability exponent at or "
                "below the threshold)") in text

    @pytest.mark.parametrize("key, value, message", NON_FINITE)
    def test_non_finite_problem_number(self, tmp_path, key, value, message):
        cfg = write_config(tmp_path, "nf.json", {
            "scenario": "cascade",
            "problem": dict(INLINE_PROBLEM, **{key: value})})
        with pytest.raises(SystemExit,
                           match=f"^bad problem description: {message}"):
            main(["validate", "--config", cfg])


class TestCalibrate:
    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit,
                           match="--seed must be a nonnegative integer"):
            main(["calibrate", "--out", str(tmp_path / "cal"),
                  "--grid", "9,9", "--seed", "-1"])

    @pytest.mark.parametrize("grid", ["5", "9,9,9"])
    def test_grid_needs_two_axes(self, tmp_path, grid):
        # both exponent vectors have two axes: another grid calibrates
        # nothing, and nothing is written
        out = tmp_path / "cal"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--out", str(out), "--grid", grid])
        counts = [int(n) for n in grid.split(",")]
        assert exc.value.code == (
            f"invalid grid {counts}: calibrate needs two axes, one per "
            f"exponent of p = (2, 2) and p = (3, 2)")
        assert list(out.iterdir()) == []

    def test_run_reads_config_grid(self, tmp_path):
        # run takes the grid from the config as the verb takes --grid
        cfg = write_config(tmp_path, "cal.json",
                           {"scenario": "calibrate", "grid": [9, 9]})
        assert main(["run", "--config", cfg, "--seed", "7",
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["calibrate", "--grid", "9,9", "--seed", "7",
                     "--out", str(tmp_path / "cal")]) == 0
        run, verb = (json.loads(path.read_text())["results"] for path in (
            tmp_path / "run" / "report.json",
            tmp_path / "cal" / "calibration.json"))
        assert run["troisi_p2.0_2.0"] == 0.0564483527460879
        assert run == verb

    @pytest.mark.parametrize("grid, message", [
        ([9, 9, 9], "invalid grid [9, 9, 9]: calibrate needs two axes, one "
                    "per exponent of p = (2, 2) and p = (3, 2)"),
        ("9,9", "grid must be a list of integers, got '9,9'")],
        ids=["three-axes", "not-a-list"])
    def test_run_rejects_config_grid(self, tmp_path, grid, message):
        cfg = write_config(tmp_path, "cal.json",
                           {"scenario": "calibrate", "grid": grid})
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(out)])
        assert exc.value.code == message
        assert list(out.iterdir()) == []

    def test_writes_fixtures(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out),
                     "--grid", "9,9"]) == 0
        report = json.loads((out / "calibration.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        res = report["results"]
        assert res["b_sandwich"]["1.0"] == pytest.approx(2.2)
        assert res["power_inequality"]["2.0"] == pytest.approx(2.2)
        assert res["troisi_p2.0_2.0"] > 0.0
