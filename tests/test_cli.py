import json

import jsonschema
import pytest

from anisodnl.cli import REPORT_SCHEMA, main


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
    ])
    def test_run_settings_need_json_types(self, tmp_path, scenario, key,
                                          value, message):
        cfg = write_config(tmp_path, "bad.json", {
            "scenario": scenario, "preset": "manufactured-1d",
            "grid": [9], "n_steps": 2, key: value})
        with pytest.raises(SystemExit, match=message):
            main(["run", "--config", cfg, "--out", str(tmp_path / "o")])

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


class TestCalibrate:
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
