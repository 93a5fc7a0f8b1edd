"""Collect and rewrite the golden fixture of the CLI's output bytes.

The fixture pins, for a fixed seed, the sha256 of every artifact that
``anisodnl run`` and ``anisodnl calibrate`` write (the ``files`` map of
``manifest.json``), their exit codes, and the exit code and stdout of
``anisodnl validate`` for every preset.  ``tests/test_golden.py`` collects
the same data with ``collect`` and compares it with the fixture through
``compare``.

A change that moves output bytes on purpose rewrites the fixture with

    python tests/golden/regen.py

and commits it in the same change, naming the cause.  To list what moved
without writing anything, run

    python tests/golden/regen.py --check

which prints ``compare``'s lines against the committed fixture and exits
1 if there are any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).resolve().parent / "cli_bytes.json"
REGEN_COMMAND = "python tests/golden/regen.py"

# Scenario -> preset: each preset is the one the scenario is written for;
# mollifier-demo ignores the problem, calibrate has none.
RUNS = (
    ("constant", "constant"),
    ("manufactured", "manufactured-1d"),
    ("cascade", "aniso-cascade"),
    ("comparison", "porous-cascade"),
    ("degiorgi-report", "strong-source"),
    ("mollifier-demo", "constant"),
    ("calibrate", None),
)
SEEDS = (7, 101)


def _call(argv: list[str]) -> tuple[int, str]:
    """Run ``anisodnl.cli.main`` in-process; return (exit code, stdout)."""
    from anisodnl import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _manifest_files(outdir: Path) -> dict:
    path = outdir / "manifest.json"
    return json.loads(path.read_text())["files"] if path.exists() else {}


def collect(workdir: Path) -> dict:
    """Run every pinned CLI call with outputs under workdir and return the
    fixture data."""
    import numpy
    import scipy
    from anisodnl import presets

    data = {"versions": {"numpy": numpy.__version__,
                         "scipy": scipy.__version__},
            "runs": {}, "calibrate": {}, "validate": {}}
    for scenario, preset in RUNS:
        cfg = {"scenario": scenario}
        if preset is not None:
            cfg["preset"] = preset
        cfg_path = workdir / f"{scenario}.json"
        cfg_path.write_text(json.dumps(cfg, sort_keys=True))
        for seed in SEEDS:
            name = f"{scenario}/{preset or '-'}/seed{seed}"
            outdir = workdir / name
            code, _ = _call(["run", "--config", str(cfg_path),
                             "--out", str(outdir), "--seed", str(seed)])
            data["runs"][name] = {"exit": code,
                                  "files": _manifest_files(outdir)}
    # the calibrate verb runs the calibrate scenario, pinned above at both
    # seeds; one seed pins the verb's own file names
    outdir = workdir / "calibrate-verb"
    code, _ = _call(["calibrate", "--out", str(outdir), "--seed", "7"])
    data["calibrate"]["seed7"] = {"exit": code,
                                  "files": _manifest_files(outdir)}
    for preset in presets.PRESET_NAMES:
        cfg_path = workdir / f"validate-{preset}.json"
        cfg_path.write_text(json.dumps({"preset": preset}))
        code, stdout = _call(["validate", "--config", str(cfg_path)])
        data["validate"][preset] = {"exit": code, "stdout": stdout}
    return data


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def compare(expected: dict, actual: dict) -> list[str]:
    """Describe every difference between two fixtures, one line each: a
    version mismatch, and each differing exit code, artifact or stdout by
    run and file name.  An empty list means they agree."""
    problems = []
    if expected["versions"] != actual["versions"]:
        problems.append(
            f"numpy/scipy versions differ: fixture {expected['versions']}, "
            f"this environment {actual['versions']}; if the bytes moved only "
            f"because of the versions, rerun `{REGEN_COMMAND}`")
    for group in ("runs", "calibrate"):
        exp_runs, act_runs = expected[group], actual[group]
        for run in sorted(exp_runs.keys() | act_runs.keys()):
            if run not in act_runs or run not in exp_runs:
                where = "fixture only" if run in exp_runs else "new"
                problems.append(f"{group} {run}: {where}")
                continue
            exp, act = exp_runs[run], act_runs[run]
            if exp["exit"] != act["exit"]:
                problems.append(f"{group} {run}: exit {act['exit']}, "
                                f"fixture {exp['exit']}")
            for name in sorted(exp["files"].keys() | act["files"].keys()):
                if exp["files"].get(name) != act["files"].get(name):
                    problems.append(f"{group} {run}: {name} differs")
    for preset in sorted(expected["validate"].keys()
                         | actual["validate"].keys()):
        if expected["validate"].get(preset) != actual["validate"].get(preset):
            problems.append(f"validate {preset}: exit code or stdout differs")
    return problems


def check(fixture: Path) -> int:
    """Collect into a temporary directory and print ``compare``'s lines
    against ``fixture``; return 1 if there are any, else 0.  Writes
    nothing outside the temporary directory."""
    expected = json.loads(fixture.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        problems = compare(expected, collect(Path(tmp)))
    for line in problems:
        print(line)
    if not problems:
        print(f"{fixture.name}: no differences")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rewrite the golden fixture of the CLI's output bytes")
    parser.add_argument("--check", action="store_true",
                        help="only list what differs from the fixture; "
                             "exit 1 if anything does")
    if parser.parse_args(argv).check:
        return check(FIXTURE)
    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(dumps(collect(Path(tmp))))
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    # run from a checkout: use its sources, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
