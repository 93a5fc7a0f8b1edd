"""The CLI's output bytes against the committed golden fixture.

``tests/golden/regen.py`` collects the data and rewrites the fixture; see
its docstring for when to run it.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_REGEN_PATH = Path(__file__).parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def load_fixture() -> dict:
    return json.loads(regen.FIXTURE.read_text())


def test_cli_bytes_match_fixture(tmp_path):
    problems = regen.compare(load_fixture(), regen.collect(tmp_path))
    assert not problems, "CLI output differs from the golden fixture:\n" + \
        "\n".join(problems)


def test_fixture_is_canonical():
    # the committed file is exactly what regen.py writes for its data
    assert regen.FIXTURE.read_text() == regen.dumps(load_fixture())


def test_compare_names_the_changed_artifact():
    fixture = load_fixture()
    changed = copy.deepcopy(fixture)
    run = "cascade/aniso-cascade/seed101"
    files = changed["runs"][run]["files"]
    files["distances.csv"] = "0" * 64
    assert regen.compare(fixture, changed) == [
        f"runs {run}: distances.csv differs"]


def test_compare_names_both_versions():
    fixture = load_fixture()
    changed = copy.deepcopy(fixture)
    changed["versions"]["scipy"] = "0.0.1"
    problems = regen.compare(fixture, changed)
    assert len(problems) == 1
    assert str(fixture["versions"]) in problems[0]
    assert str(changed["versions"]) in problems[0]
    assert regen.REGEN_COMMAND in problems[0]


def test_check_passes_on_the_committed_fixture():
    # the script as run from the checkout: its own sources, exit 0
    before = regen.FIXTURE.read_bytes()
    done = subprocess.run([sys.executable, str(_REGEN_PATH), "--check"],
                          cwd=regen.ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == f"{regen.FIXTURE.name}: no differences\n"
    assert regen.FIXTURE.read_bytes() == before


def test_check_names_the_moved_artifact(tmp_path, monkeypatch, capsys):
    fixture = load_fixture()
    run = "calibrate/-/seed7"
    fixture["runs"][run]["files"]["calibration.json"] = "0" * 64
    doctored = tmp_path / "cli_bytes.json"
    doctored.write_text(regen.dumps(fixture))
    monkeypatch.setattr(regen, "FIXTURE", doctored)
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out == \
        f"runs {run}: calibration.json differs\n"
    # --check writes nothing, not even to the fixture it reads
    assert doctored.read_text() == regen.dumps(fixture)
    assert [p.name for p in tmp_path.iterdir()] == ["cli_bytes.json"]
