"""The anisodnl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run draws its workload's ops from the seed, times them in a closed
loop (one op at a time, the next after the previous one returns) for at
least ``--seconds`` and at least one full pass, checks every result, and
prints the metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op twice, once plain and once with the public functions of each anisodnl
module wrapped in spans, and reports the per-layer metrics.  Full results
(per-op times, digests, environment) and the spans go to ``perfbench/out``.
See ``perfbench/README.md``.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy can load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("cascade-2d", "porous-1d", "direct-2d", "cli-scenarios")

# Set-up (importing anisodnl in a fresh interpreter, then generating and
# building the run's problems) is measured this many times per run and the
# median reported.
SETUP_REPEATS = 3
# Run in a fresh interpreter: time the import, then sample the host's speed
# in the same process right after it (see speed.py).
IMPORT_PROBE = f"""
import sys, time
t0 = time.perf_counter()
import anisodnl, anisodnl.cli
elapsed = time.perf_counter() - t0
sys.path.insert(0, {str(BENCH_DIR)!r})
import speed
meter = speed.SpeedMeter()
print(elapsed, speed.REF_S * 5 / sum(meter.kernel() for _ in range(5)))
"""

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "newton_iters": "iters/op",
                    "solved_frac": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import anisodnl from this checkout's src/ and nowhere else."""
    if not (SRC / "anisodnl" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no anisodnl package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import anisodnl
    import anisodnl.cli  # noqa: F401
    origin = Path(anisodnl.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"benchmark: imported anisodnl from {origin}, "
                         f"not from {SRC}")


def import_probe() -> tuple[float, float]:
    """Import time of anisodnl in a fresh interpreter, and its speed scale."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=os.environ.copy())
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: import probe failed:\n{proc.stderr}")
    raw, scale = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scale)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail_percentile(samples: list[float]):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return f"p{q}", cuts[q - 1]
    return None, None


class Run:
    """One benchmark run: its ops, their timings and checked outcomes.

    Every time it keeps is corrected for the host's speed (speed.py); the
    raw times are kept next to them.
    """

    def __init__(self, wl, meter, workload: str, seed: int, workdir: Path):
        self.wl = wl
        self.meter = meter
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.descs = None
        self.ops = None
        self.setup = {"import_s": [], "build_s": []}
        self.records = []  # one dict per op execution

    def set_up(self) -> float:
        """Measure set-up SETUP_REPEATS times; return the median."""
        for _ in range(SETUP_REPEATS):
            raw, scale = import_probe()
            self.setup["import_s"].append(raw * scale)
        for _ in range(SETUP_REPEATS):
            _, net, scale, (descs, ops) = self.meter.measure(self._build)
            self.setup["build_s"].append(net * scale)
        self.descs, self.ops = descs, ops
        return sum(statistics.median(v) for v in self.setup.values())

    def _build(self):
        descs = self.wl.generate(self.workload, self.seed)
        return descs, self.wl.build(self.workload, descs, self.workdir)

    def timed_call(self, op, tracer=None, op_id=-1) -> dict:
        """Call the program once for op, timed; then check the result."""
        wl = self.wl
        if tracer is None:
            raw, net, scale, result = self.meter.measure(
                wl.call, self.workload, op)
        else:
            tracer.install()
            try:
                raw, net, scale, result = self.meter.measure(
                    tracer.op, op_id, wl.call, self.workload, op,
                    tracer=tracer)
            finally:
                tracer.uninstall()
        out = wl.check(self.workload, op, result)
        return {"time": net * scale, "raw_time": raw, "net_time": net,
                "scale": scale, "status": out.status,
                "newton_iters": out.newton_iters, "digest": out.digest,
                "problems": out.problems}

    def loop(self, seconds: float, tracer=None) -> float:
        """Cycle through the ops until the time is used and a pass is done.

        With a tracer every op runs twice, plain and traced, back to back
        in alternating order; the plain result is the op's record.
        """
        n = len(self.ops)
        start = time.perf_counter()
        i = 0
        while i < n or time.perf_counter() - start < seconds:
            op = self.ops[i % n]
            try:
                if tracer is None:
                    rec = self.timed_call(op)
                else:
                    got = {}
                    for traced in ((False, True) if i % 2 == 0
                                   else (True, False)):
                        got[traced] = self.timed_call(
                            op, tracer if traced else None, i)
                    rec = got[False]
                    rec["traced"] = {k: got[True][k] for k in
                                     ("time", "raw_time", "net_time",
                                      "scale")}
                    rec["trace_mismatch"] = any(
                        got[True][k] != rec[k]
                        for k in ("status", "newton_iters", "digest"))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rec = {"time": None, "status": "wrong", "newton_iters": 0,
                       "digest": "", "problems": ["unexpected error"]}
            rec.update(op=op.index, run_index=i)
            if op.outdir is not None:
                rec["bytes_written"] = self.wl.output_bytes(op)
            self.records.append(rec)
            i += 1
        return time.perf_counter() - start

    # -- derived results ---------------------------------------------------

    def full_passes(self) -> int:
        return len(self.records) // len(self.ops)

    def first_pass(self) -> list[dict]:
        return self.records[:len(self.ops)]

    def irreproducible(self) -> list[int]:
        """Ops whose outcome differed between repetitions."""
        first = {r["op"]: r for r in self.first_pass()}
        return sorted({r["op"] for r in self.records
                       if any(r[k] != first[r["op"]][k] for k in
                              ("status", "newton_iters", "digest"))})

    def end_to_end(self, setup_s: float) -> dict:
        first = self.first_pass()
        solved = [r for r in first if r["status"] == "solved"]
        by_op = {}
        for r in self.records:
            if r["time"] is not None:
                by_op.setdefault(r["op"], []).append(r["time"])
        medians = [statistics.median(v) for v in by_op.values()]
        return {
            # one pass over the ops, each op at its median time
            "wall_s": sum(medians),
            "op_p50_s": statistics.median(medians),
            # per solved op: a StepFailure returns no SolveReport, and a
            # total would swing with the number of failures
            "newton_iters": (sum(r["newton_iters"] for r in solved)
                             / max(len(solved), 1)),
            "solved_frac": len(solved) / len(first),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def per_layer(run: Run, tracer, tr) -> tuple[dict, list[str]]:
    """Per-layer metrics, averaged over the complete passes of a traced run.

    Returns the metrics by name and the problems found by the trace's own
    checks.
    """
    passes = run.full_passes()
    records = [r for r in run.records[:passes * len(run.ops)]
               if "traced" in r]
    # tracer op ids are run indices
    scale = {r["run_index"]: r["traced"]["scale"] for r in records}
    layers = tracer.layer_times(scale)
    counts = tracer.counts_for(scale)
    counts["cli.bytes_written"] = sum(r.get("bytes_written", 0)
                                      for r in records)
    metrics = {}
    for name in tr.LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            metrics[f"{name}.{key}"] = layers[name][key] / passes
    for name in tr.COUNTERS:
        metrics[name] = counts.get(name, 0.0) / passes
    steps = counts.get("solver.steps", 0.0)
    attempts = steps + counts.get("solver.step_failures", 0.0)
    iters = counts.get("solver.newton_iters", 0.0)
    step_busy = layers["solver.implicit_step"]["busy_s"]
    metrics["solver.converged_step_ratio"] = (steps / attempts if attempts
                                              else 0.0)
    metrics["solver.s_per_iter"] = step_busy / iters if iters else 0.0
    metrics["solver.linsolve.share"] = (
        layers[tr.LINSOLVE_NAME]["busy_s"] / step_busy if step_busy else 0.0)
    plain = sum(r["time"] for r in records)
    traced = sum(r["traced"]["time"] for r in records)
    metrics["trace.overhead_frac"] = traced / plain - 1.0

    problems = []
    mismatched = sorted({r["op"] for r in run.records
                         if r.get("trace_mismatch")})
    if mismatched:
        problems.append(f"traced result differs from plain for ops "
                        f"{mismatched}")
    # the self times of all layers add up to the traced op time
    raw = tracer.layer_times({i: 1.0 for i in scale})
    self_total = sum(rec["self_s"] for rec in raw.values())
    root_total = raw[tr.ROOT]["busy_s"]
    traced_net = sum(r["traced"]["net_time"] for r in records)
    if abs(self_total - root_total) > 1e-6 * max(root_total, 1.0):
        problems.append(f"self times sum to {self_total:.6f} s, "
                        f"traced ops took {root_total:.6f} s")
    if abs(root_total - traced_net) > 0.01 * traced_net + 0.001 * len(records):
        problems.append(f"root spans cover {root_total:.6f} s of "
                        f"{traced_net:.6f} s traced op time")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()

    import speed
    import tracer as tr
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = tr.Tracer() if args.trace else None
    try:
        run = Run(wl, speed.SpeedMeter(), args.workload, args.seed, workdir)
        setup_s = run.set_up()
        elapsed = run.loop(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = run.records
    attempted = len(records)
    failed = sum(r["status"] != "solved" for r in records)
    problems = [f"op {r['op']}: {p}" for r in records
                if r["status"] == "wrong" for p in r["problems"]]
    irreproducible = run.irreproducible()
    if irreproducible:
        problems.append(f"ops {irreproducible} gave different results on "
                        f"repetition")

    if args.trace:
        layer_metrics, trace_problems = per_layer(run, tracer, tr)
        problems += trace_problems
        metrics = {k: {"value": layer_metrics[k], "unit": u}
                   for k, u in tr.metric_units().items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in run.end_to_end(setup_s).items()}

    times = [r["time"] for r in records if r["time"] is not None]
    tail_name, tail_value = tail_percentile(times)
    first = run.first_pass()
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "elapsed_s": elapsed, "environment": environment(),
        "problems_digest": wl.digest(run.descs), "ops": run.descs,
        "op_digests": [r["digest"] for r in first],
        "output_digest": wl.digest([r["digest"] for r in first]),
        "fail_frac": failed / attempted,
        "op_count": len(times), "full_passes": run.full_passes(),
        "tail": {tail_name: tail_value} if tail_name else {},
        "setup": run.setup, "problems": problems, "records": records,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    env = detail["environment"]
    print(f"nproc {env['nproc']}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  BLAS/OpenMP threads "
          f"{env['threads']['OMP_NUM_THREADS']}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"problems {detail['problems_digest'][:16]}  "
          f"outputs {detail['output_digest'][:16]}")
    print(f"ops {len(times)} in {run.full_passes()} full passes "
          f"of {len(run.ops)}, {elapsed:.1f} s; fail_frac "
          f"{detail['fail_frac']:.4f}"
          + (f"; {tail_name} {tail_value:.4f} s" if tail_name else ""))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
