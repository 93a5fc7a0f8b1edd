"""Self-tests of the benchmark: generator determinism, tracer
pass-through, and agreement of the names with BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

import anisodnl.analysis  # noqa: E402
import anisodnl.cli  # noqa: E402
import anisodnl.solver  # noqa: E402
from anisodnl import Grid, SolverConfig  # noqa: E402
from anisodnl.model import Exponents  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestGenerator:
    @pytest.mark.parametrize("workload", wl.WORKLOADS)
    def test_same_seed_same_problems(self, workload):
        assert wl.generate(workload, 7) == wl.generate(workload, 7)
        assert (wl.digest(wl.generate(workload, 7))
                == wl.digest(wl.generate(workload, 7)))

    @pytest.mark.parametrize("workload",
                             ["cascade-2d", "porous-1d", "direct-2d"])
    def test_seeds_differ(self, workload):
        assert wl.generate(workload, 1) != wl.generate(workload, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_draws_admissible_and_in_range(self, seed):
        cases = {"cascade-2d": ((2.0, 4.0), (1.0, 1.6)),
                 "porous-1d": ((2.0, 2.0), (1.5, 3.0)),
                 "direct-2d": ((1.5, 4.0), (1.0, 1.6))}
        for workload, (p_range, m_range) in cases.items():
            for d in wl.generate(workload, seed):
                exps = Exponents(tuple(d["p"]), tuple(d["m"]))
                assert exps.closeness_ok
                assert all(p_range[0] <= p <= p_range[1] for p in d["p"])
                assert all(m_range[0] <= m <= m_range[1] for m in d["m"])

    @pytest.mark.parametrize("seed", range(10))
    def test_cascade_draws_are_mirrored(self, seed):
        ops = wl.generate("cascade-2d", seed)
        centre = {"p": [3.0, 3.0], "m": [1.3, 1.3]}
        assert centre in ops
        a, b = [d for d in ops if d != centre]
        # mirror images about the centre of p in [2, 4], m in [1, 1.6]
        assert np.allclose(np.add(a["p"], b["p"]), 6.0, atol=2e-3)
        assert np.allclose(np.add(a["m"], b["m"]), 2.6, atol=2e-3)
        ms = sorted(d["m"][0] for d in wl.generate("porous-1d", seed))
        assert ms[1] == 2.25
        assert ms[0] + ms[2] == pytest.approx(4.5, abs=2e-3)

    def test_direct_starts_with_stall_reproducer(self):
        for seed in range(5):
            ops = wl.generate("direct-2d", seed)
            assert ops[0] == wl.STALL_REPRODUCER
            assert len(ops) == 1 + wl.DIRECT_2D["side"] ** 2

    def test_cli_covers_every_scenario_and_preset(self):
        ops = wl.generate("cli-scenarios", 3)
        runs = {d["scenario"] for d in ops if d["verb"] == "run"}
        validated = {d["preset"] for d in ops if d["verb"] == "validate"}
        assert runs == set(anisodnl.cli.SCENARIOS)
        assert validated == set(anisodnl.presets.PRESET_NAMES)
        assert all(d["seed"] == 3 for d in ops if d["verb"] == "run")


def _small_cascade():
    spec = wl.aniso_cascade_problem([3.0, 2.0], [1.0, 1.5])
    return spec, Grid(spec.box, (9, 9)), SolverConfig(dt=spec.T / 4)


class TestTracer:
    def test_wrapped_results_bit_identical(self):
        spec, grid, cfg = _small_cascade()
        plain = anisodnl.solver.regularization_cascade(spec, grid, cfg,
                                                       [2, 4])
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = tracer.op(0, anisodnl.solver.regularization_cascade,
                               spec, grid, cfg, [2, 4])
        finally:
            tracer.uninstall()
        for a, b in zip(plain.series, traced.series):
            assert np.array_equal(a.values_array(), b.values_array())
        assert plain.distances == traced.distances
        assert ([r.as_dict() for r in plain.reports]
                == [r.as_dict() for r in traced.reports])
        layers = tracer.layer_times({0: 1.0})
        assert layers["solver.regularization_cascade"]["calls"] == 1
        assert layers["solver.solve_problem"]["calls"] == 2
        assert layers["solver.implicit_step"]["calls"] == 8
        assert layers["analysis.vpm_distance"]["calls"] == 1
        iters = sum(r.total_iterations for r in plain.reports)
        assert layers["solver.linsolve"]["calls"] == iters
        assert tracer.counts_for({0: 1.0})["solver.newton_iters"] == iters

    def test_uninstall_restores_originals(self):
        before = (anisodnl.solver.implicit_step,
                  anisodnl.solver.vpm_distance,
                  anisodnl.analysis.vpm_distance,
                  anisodnl.solver.spla.spsolve,
                  anisodnl.cli.field_to_csv)
        tracer = tr.Tracer()
        tracer.install()
        assert anisodnl.solver.implicit_step is not before[0]
        assert anisodnl.solver.vpm_distance is anisodnl.analysis.vpm_distance
        tracer.uninstall()
        after = (anisodnl.solver.implicit_step,
                 anisodnl.solver.vpm_distance,
                 anisodnl.analysis.vpm_distance,
                 anisodnl.solver.spla.spsolve,
                 anisodnl.cli.field_to_csv)
        assert all(a is b for a, b in zip(before, after))

    def test_self_times_add_up(self):
        t = tr.Tracer()
        # root [0, 10] > a [1, 6] > b [2, 3]; root > b [7, 9]
        t.spans = [[tr.ROOT, 0.0, 10.0, -1, 0],
                   ["solver.solve_problem", 1.0, 6.0, 0, 0],
                   ["solver.implicit_step", 2.0, 3.0, 1, 0],
                   ["solver.implicit_step", 7.0, 9.0, 0, 0]]
        layers = t.layer_times({0: 1.0})
        assert layers[tr.ROOT]["self_s"] == pytest.approx(3.0)
        assert layers["solver.solve_problem"]["self_s"] == pytest.approx(4.0)
        assert layers["solver.implicit_step"]["busy_s"] == pytest.approx(3.0)
        total = sum(v["self_s"] for v in layers.values())
        assert total == pytest.approx(layers[tr.ROOT]["busy_s"])
        assert t.layer_times({0: 2.0})[tr.ROOT]["busy_s"] == 20.0


class TestSpeedMeter:
    def test_measure_returns_result_and_leaves_out_samples(self):
        meter = speed.SpeedMeter()

        def work():
            time.sleep(0.35)
            return "done"

        raw, net, scale, result = meter.measure(work)
        assert result == "done"
        assert raw >= 0.35
        # the samples taken every PERIOD during the call are left out
        assert 0 < net < raw
        assert scale > 0


class TestNames:
    def test_workloads_match(self):
        names = [w["name"] for w in SPEC["workloads"]]
        assert names == list(run.WORKLOADS) == list(wl.WORKLOADS)

    def test_end_to_end_metrics_match(self):
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
            == run.END_TO_END_UNITS

    def test_per_layer_metrics_match(self):
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
            == tr.metric_units()

    def test_traced_layers_exist(self):
        for mod_name, attr in tr.FUNCTIONS.values():
            mod = __import__(mod_name, fromlist=[attr])
            assert callable(getattr(mod, attr))

    def test_command_and_paths(self):
        assert SPEC["command"] == ["python3", "perfbench/run.py"]
        assert SPEC["paths"] == ["perfbench"]
