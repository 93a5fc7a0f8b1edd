"""Every exported name resolves, so a deletion cannot leave a dangling
entry in ``__all__`` or in the package namespace behind."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisodnl

MODULES = ("model", "discretization", "solver", "analysis", "presets")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"anisodnl.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(anisodnl.__file__).read_text())
    imported = [(node.module, alias.asname or alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [f"{mod}.{n}" for mod, n in imported
               if not hasattr(anisodnl, n)]
    assert missing == []
    # a name dropped from its module's __all__ must leave the package too
    unexported = [
        f"{mod}.{n}" for mod, n in imported
        if n not in importlib.import_module(f"anisodnl.{mod}").__all__]
    assert unexported == []


@pytest.mark.parametrize("path", sorted(
    p for p in Path(anisodnl.__file__).parent.glob("*.py")
    if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_module_imports_are_read(path):
    # every module-level import is read somewhere in its module (the
    # package's __init__ only re-exports, and __future__ imports are
    # directives), so a deletion cannot leave an orphaned import behind
    tree = ast.parse(path.read_text())
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= set(getattr(importlib.import_module(f"anisodnl.{path.stem}"),
                        "__all__", ()))
    assert bound
    assert [n for n in bound if n not in read] == []


SOURCES = sorted(Path(anisodnl.__file__).parent.glob("*.py"))


def test_no_function_local_imports():
    # every import sits at module level, where a reader (and a tracer that
    # patches module namespaces) sees all of a module's dependencies
    local = [f"{path.stem}.{fn.name}:{node.lineno}"
             for path in SOURCES
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_no_module_level_scipy_import():
    # importing scipy's linear algebra takes several times as long as
    # numpy, so the solver imports each scipy module on its first use
    # (solver._Deferred) and no module imports scipy when it loads (every
    # import sits at module level, test_no_function_local_imports)
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "scipy"
                     for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "scipy"]
    assert found == []


def _fresh_interpreter(code: str) -> dict:
    """Run code in a new Python process that imports the package from
    src/; return the JSON object that its last output line holds."""
    src = Path(anisodnl.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_without_solve_loads_no_scipy(tmp_path):
    # the import, validate and --help run on numpy alone
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"scenario": "cascade",
                               "preset": "aniso-cascade"}))
    out = _fresh_interpreter(f"""
import json, sys
import anisodnl, anisodnl.cli
status = anisodnl.cli.main(["validate", "--config", {str(cfg)!r}])
try:
    anisodnl.cli.main(["--help"])
except SystemExit:
    pass
print(json.dumps({{"status": status, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
""")
    assert out == {"status": 0, "scipy": []}


def test_each_solve_loads_only_what_it_calls():
    # a 1D solve needs scipy.linalg alone, a 2D k-mode solve scipy.sparse
    # and scipy.sparse.linalg as well; after that the solver's names are
    # the modules themselves, so the Newton loop reads no stand-in
    out = _fresh_interpreter("""
import json, sys
from anisodnl import presets, solver
from anisodnl.discretization import Grid
watched = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
loaded = {}
spec = presets.get_preset("porous-cascade")
solver.solve_problem(spec, Grid(spec.box, (9,)),
                     solver.SolverConfig(dt=spec.T / 4))
loaded["1d"] = [m for m in watched if m in sys.modules]
spec = presets.get_preset("aniso-cascade")
solver.solve_problem(spec, Grid(spec.box, (9, 9)),
                     solver.SolverConfig(dt=spec.T / 4, k=4))
loaded["2d"] = [m for m in watched if m in sys.modules]
homes = {"lapack": "scipy.linalg.lapack", "sp": "scipy.sparse",
         "spla": "scipy.sparse.linalg",
         "_sparsetools": "scipy.sparse._sparsetools"}
loaded["bound"] = sorted(name for name, home in homes.items()
                         if getattr(solver, name) is sys.modules[home])
print(json.dumps(loaded))
""")
    assert out == {"1d": ["scipy.linalg"],
                   "2d": ["scipy.linalg", "scipy.sparse",
                          "scipy.sparse.linalg"],
                   "bound": ["_sparsetools", "lapack", "sp", "spla"]}


def _references(node, name, function=None, kinds=("attr", "id")):
    """(innermost enclosing function, line) of each reference to name, as
    an attribute, a bare name or both."""
    for child in ast.iter_child_nodes(node):
        if name in (getattr(child, kind, None) for kind in kinds):
            yield function, child.lineno
        inner = (child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
        yield from _references(child, name, inner, kinds)


def test_evaluator_broadcast_only_in_evaluate():
    # model.evaluate is the one home of the evaluator convention, so no
    # other code turns an evaluator's value into a grid array by hand
    found = [(path.stem, fn) for path in SOURCES
             for fn, _ in _references(ast.parse(path.read_text()),
                                      "broadcast_to")]
    assert found == [("model", "evaluate")]


def _functions_referencing(name, kinds=("attr", "id")):
    """(module, innermost enclosing function) of every reference to name."""
    return {(path.stem, fn) for path in SOURCES
            for fn, _ in _references(ast.parse(path.read_text()), name,
                                     kinds=kinds)}


def test_flux_regularization_read_only_in_model():
    # the solver's Jacobian takes its face slope from model.flux_slope, so
    # the regularization lives beside the flux alone
    assert _functions_referencing("EPS_REG") == {
        ("model", None), ("model", "flux"), ("model", "flux_slope")}


def test_truncation_read_only_by_working_power():
    # k-mode truncates through the Kirchhoff power of model.working_power
    # alone, so no flux, coefficient or solver code clamps u by T_k
    assert _functions_referencing("truncate") == {("model", "working_power")}


def test_time_quadrature_only_in_time_integral():
    # every trajectory measure integrates in time through
    # analysis._time_integral, comparison_check's prefix integrals and
    # degiorgi_constants' data sampled at DEGIORGI_TIMES too
    assert _functions_referencing("trapezoid") == {
        ("analysis", "_time_integral")}


def test_space_quadrature_only_in_integrate():
    # discretization.integrate is the one space quadrature: it alone
    # builds the weights (np.multiply.outer) and sums a field (np.sum or
    # .sum); besides it, only _RedBlack.__init__ sums node indices to
    # colour the grid.  The builtin sum of Python numbers is not counted.
    assert _functions_referencing("sum", kinds=("attr",)) == {
        ("discretization", "integrate"), ("solver", "__init__")}
    assert _functions_referencing("multiply", kinds=("attr",)) == {
        ("discretization", "integrate")}


def test_operator_read_into_blocks_only_in_fill():
    # _RedBlack.fill is the one place that reads the couplings of the
    # Newton operator into the blocks B and C
    assert _functions_referencing("take") == {("solver", "fill")}


def test_schur_complement_assembled_only_in_schur():
    # _RedBlack.schur is the one assembly of S; __init__ counts the
    # degree of each red row
    assert _functions_referencing("bincount") == {
        ("solver", "__init__"), ("solver", "schur")}


def _attribute_stores(name):
    """(module, class, innermost enclosing function) of every assignment
    to, or deletion of, an attribute called name."""
    def stores(node, cls=None, function=None):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == name
                    and isinstance(child.ctx, (ast.Store, ast.Del))):
                yield cls, function
            if isinstance(child, ast.ClassDef):
                yield from stores(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from stores(child, cls, child.name)
            else:
                yield from stores(child, cls, function)

    return {(path.stem, cls, fn) for path in SOURCES
            for cls, fn in stores(ast.parse(path.read_text()))}


def test_newton_systems_solved_only_in_solve_and_update():
    # _RedBlack.solve is the one solve of a 2D/3D Newton system (CG
    # preconditioned by the kept factor, or banded LU), _RedBlack.factor
    # the one Cholesky factorization, and _StepProblem.update solves the
    # tridiagonal 1D system
    pinned = {"cg": "solve", "dgbsv": "solve", "dpbtrs": "solve",
              "dpbtrf": "factor", "dgtsv": "update"}
    assert {name: _functions_referencing(name) for name in pinned} == {
        name: {("solver", fn)} for name, fn in pinned.items()}
    # the renewal of the kept factor has one home: _RedBlack.solve alone
    # factors (when no factor is kept, and when CG fails) and drops the
    # factor (after a slow solve); the split's kept is set nowhere else
    # but in its __init__
    assert _callers("factor") == ({("solver", "solve")}, 2)
    assert _attribute_stores("kept") == {("solver", "_RedBlack", "__init__"),
                                         ("solver", "_RedBlack", "solve")}


def test_cg_operators_made_only_where_the_split_keeps_them():
    # _RedBlack.solve makes the Schur operator and the kept-factor
    # preconditioner that it hands to CG on its first k-mode solve and
    # keeps them, so no other code wraps a Newton product for scipy
    assert _functions_referencing("LinearOperator") == {("solver", "solve")}


def test_band_storage_width_decided_only_in_init():
    # _RedBlack.__init__ alone sets S's half-bandwidth kd and the width
    # band of its band storage (from kd and BAND_STEP), and nothing else
    # reads kd: the band layouts of the pairs, the schur calls and the
    # LAPACK band calls read band (dpbtrs reads the factor dpbtrf made).
    # _Layout.band is the permutation into band order, another attribute
    assert _attribute_stores("kd") == {("solver", "_RedBlack", "__init__")}
    assert {store for store in _attribute_stores("band")
            if store[1] == "_RedBlack"} == {
        ("solver", "_RedBlack", "__init__")}
    assert _functions_referencing("kd") == {("solver", "__init__")}
    assert _functions_referencing("BAND_STEP") == {("solver", None),
                                                   ("solver", "__init__")}
    width_readers = _functions_referencing("band", kinds=("attr",))
    assert {("solver", "lu_pairs")} | _callers("schur")[0] \
        | _callers("dgbsv")[0] | _callers("dpbtrf")[0] <= width_readers


def _callers(name):
    """(module, innermost enclosing function) of every call of name, as a
    bare name or an attribute, and the number of such calls."""
    found = []
    for path in SOURCES:
        for fn, node in _calls(ast.parse(path.read_text())):
            if name in (getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                found.append((path.stem, fn))
    return set(found), len(found)


def _calls(node, function=None):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield function, child
        inner = (child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
        yield from _calls(child, inner)


def test_newton_loop_has_one_home():
    # _stacked_step is the one Newton loop, for a stack of members or one:
    # it alone makes a _StepProblem, implicit_step takes it for one member
    # and _march for a stack, and LAPACK dgtsv, the 1D solve of every
    # member, has one call
    assert _callers("_StepProblem") == ({("solver", "_stacked_step")}, 1)
    assert _callers("_stacked_step")[0] == {("solver", "implicit_step"),
                                            ("solver", "_march")}
    assert _callers("dgtsv") == ({("solver", "update")}, 1)
    assert _callers("_march")[0] == {("solver", "regularization_cascade")}


REPO = Path(anisodnl.__file__).parents[2]
# the readers outside src/: the acceptance gate and the benchmark
OUTSIDE_READERS = [REPO / "tests" / "test_acceptance.py",
                   *sorted((REPO / "perfbench").glob("*.py"))]
# public names that only a unit test reads, each with that test; the
# first, discretization.divergence, is kept as the independent divergence
# of the step residual's reference: the residual forms its own per-axis
# divergence terms in place, and the test checks it against this one
UNIT_TEST_READERS = {
    "divergence": "tests/test_solver.py::TestStepProblem::"
                  "test_residual_matches_model_flux",
    "manufactured_rhs": "tests/test_solver.py::TestManufactured::"
                        "test_hand_differentiated_oracle",
    "gradient_power_norms": "tests/test_solver.py::TestCascade::"
                            "test_gradient_norms_uniformly_bounded",
}


def _loads(node, skip=None):
    """Names and attributes that node reads, outside the top-level
    definition named skip."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                and child.name == skip):
            continue
        if isinstance(getattr(child, "ctx", None), ast.Load):
            yield getattr(child, "id", None) or getattr(child, "attr", None)
        yield from _loads(child, skip)


def test_every_public_name_has_a_reader():
    # a public name of src/ is read by another src/ definition, the gate
    # or the benchmark, or it is deleted; only the names of
    # UNIT_TEST_READERS are kept for their unit test alone
    public = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"anisodnl.{path.stem}")
        names = set(getattr(module, "__all__", ())) | {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}
        public.update((name, path) for name in names)
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    outside = set()
    for path in OUTSIDE_READERS:
        tree = ast.parse(path.read_text())
        outside |= set(_loads(tree))
        # the benchmark's tracer names what it wraps by string
        outside |= {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)}
        outside |= {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
    unread = sorted(
        name for name, home in public.items()
        if name not in outside
        and not any(name in _loads(tree, name if path == home else None)
                    for path, tree in trees.items()))
    assert unread == sorted(UNIT_TEST_READERS)
    for test in UNIT_TEST_READERS.values():
        path, *_, fn = test.split("::")
        assert f"def {fn}(" in (REPO / path).read_text()


# each library result that a scenario verdict judges -> its home modules
# and the cli scenario functions that judge it; solver is a home of
# ordering_excess too, the field of the cascade's result
VERDICT_INPUTS = {
    "comparison_check": ({"analysis"}, {"comparison"}),
    "ordering_excess": ({"analysis", "solver"}, {"comparison", "cascade"}),
    "shifted_problem": ({"presets"}, {"comparison"}),
    "refinement_errors": ({"solver"}, {"manufactured"}),
    "regularization_cascade": ({"solver"}, {"cascade"}),
    "measure_levels": ({"analysis"}, {"degiorgi"}),
}


def test_each_verdict_rule_has_one_home():
    # the gate judges criteria 2-6 through the cli scenario functions, so
    # it reads none of the results they judge, and in src/ only their
    # homes and the judging cli function read them
    gate = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    read = set(_loads(gate)) | {alias.name for node in ast.walk(gate)
                                if isinstance(node, ast.ImportFrom)
                                for alias in node.names}
    assert sorted(read & set(VERDICT_INPUTS)) == []
    for name, (homes, judges) in VERDICT_INPUTS.items():
        readers = {(module, fn) for module, fn in _functions_referencing(name)
                   if module not in homes}
        assert readers == {("cli", fn) for fn in judges}, name
