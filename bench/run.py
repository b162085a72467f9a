"""Run one benchmark workload in one process and print its metrics.

    python3 bench/run.py --workload sweep-300k --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit code is 0
only when every check on the outputs passed.

A run first starts SETUP_SAMPLES fresh interpreters, one at a time, that
import the program and build the workload's inputs (``setup_s`` is their
median).  It then repeats whole rounds of the workload's operations until
``--seconds`` have passed, and checks every output outside the timed region.
``--trace 1`` alternates untraced rounds with rounds whose spans are recorded
at the module boundaries (see spans.py), so the machine's drift falls on both
alike; the difference in ``points_per_s`` between them is the tracing
overhead.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))


def setup_probes(workload: str, seed: int, importtime: bool) -> list[tuple[float, bytes]]:
    """(seconds from process start to inputs built, stderr) per fresh interpreter."""
    flags = ["-X", "importtime"] if importtime else []
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, *flags, str(BENCH / "probe.py"), workload, str(seed)],
                              env=child_env(), cwd=str(ROOT), capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode(errors='replace')}")
        samples.append((float(proc.stdout.split()[-1]) - start, proc.stderr))
    return samples


class Phase:
    """Whole rounds of one workload, with their times and outputs."""

    def __init__(self):
        self.round_means = []                  # mean op time of each round, s
        self.ok_time = 0.0
        self.ok_points = 0
        self.attempted = self.failed = 0
        self.results = []                      # (label, seconds, output) of successes
        self.errors = {}

    def round(self, workload, tracer=None):
        times = []
        for op in workload.round():
            call = op.call
            if tracer is not None and workload.root_span:
                call = lambda op=op: tracer.span(workload.root_span, op.call)  # noqa: E731
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception:  # the benchmark counts a failed operation and goes on
                self.failed += 1
                self.errors.setdefault(op.label, traceback.format_exc())
                continue
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            self.ok_time += elapsed
            self.ok_points += op.points
            self.results.append((op.label, elapsed, out))
        if times:
            self.round_means.append(sum(times) / len(times))

    @property
    def points_per_s(self) -> float:
        return self.ok_points / self.ok_time if self.ok_time else 0.0


def run_phases(workload, seconds: float, tracer=None) -> tuple[Phase, ...]:
    """Whole rounds for at least ``seconds``.  With a tracer, an untraced and
    a traced round alternate, and the tracer is installed only for the latter."""
    phases = (Phase(), Phase()) if tracer else (Phase(),)
    start = time.perf_counter()
    while (min(len(p.round_means) for p in phases) < workload.min_rounds
           or time.perf_counter() - start < seconds):
        phases[0].round(workload)
        if tracer:
            tracer.install()
            workload.importtime = True
            try:
                phases[1].round(workload, tracer)
            finally:
                tracer.uninstall()
                workload.importtime = False
    return phases


def end_to_end(workload_name, phase, probes) -> dict:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(s for s, _ in probes),
        "op_p50_s": statistics.median(phase.round_means),
        "points_per_s": phase.points_per_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(workload_name, untraced, traced, tracer, probes, import_times) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    ops = traced.attempted
    calls, inclusive, self_time = tracer.summary()
    counts = tracer.counts
    fits = [out for _, _, out in traced.results if workload_name == "fit"]
    cli_runs = [(t, import_times(out.stderr)["import_s"])
                for _, t, out in traced.results if workload_name == "cli"]
    probe_imports = [import_times(err) for _, err in probes]
    return {
        "materials.eps_calls": ratio(calls["stack.permittivity_imag_axis"], ops),
        "materials.eps_points": ratio(counts["eps_points"], ops),
        "materials.self_s": ratio(self_time["materials"], ops),
        "stack.reflection_calls": ratio(calls["engine._reflection"]
                                        + calls["engine._static_reflection"], ops),
        "stack.reflection_points": ratio(counts["reflection_points"], ops),
        "stack.self_s": ratio(self_time["stack"], ops),
        "quad.block_calls": ratio(calls["engine._pol_integrals"]
                                  + calls["engine._pol_integrals_zero"], ops),
        "quad.terms": ratio(counts["quad_terms"], ops),
        "quad.nodes_per_term": ratio(counts["quad_term_nodes"], counts["quad_terms"]),
        "quad.self_s": ratio(self_time["quad"], ops),
        "quad.first_pass_ratio": (1.0 - ratio(counts["refined_loops"], counts["refinement_loops"])
                                  if counts["refinement_loops"] else 0.0),
        "quad.budget_exhausted": ratio(counts["budget_exhausted"], ops),
        "engine.pressure_calls": ratio(counts["pressure_calls"], ops),
        "engine.terms_per_point": ratio(counts["terms"], counts["finite_t_points"]),
        "engine.t0_integrand_calls_per_point": ratio(counts["t0_integrand_calls"], counts["t0_points"]),
        "engine.self_s": ratio(self_time["engine"], ops),
        "engine.terms_needed_ratio": ratio(counts["terms_needed"], counts["terms"]),
        "fit.objective_evals_per_fit": ratio(sum(r.n_evaluations for r in fits), len(fits)),
        "fit.objective_s": ratio(inclusive["fit.objective"], len(fits)),
        "fit.self_s": ratio(self_time["fit"], len(fits)),
        "cli.import_s": statistics.median(p["import_s"] for p in probe_imports),
        "cli.constants_import_s": statistics.median(p["constants_import_s"] for p in probe_imports),
        "cli.run_s": statistics.median(t - s for t, s in cli_runs) if cli_runs else 0.0,
        "trace.overhead_pct": 100.0 * (1.0 - ratio(traced.points_per_s, untraced.points_per_s)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lifshitz_plates" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/lifshitz_plates", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import lifshitz_plates
    import workloads
    from spans import Tracer

    if Path(lifshitz_plates.__file__).resolve().parent != SRC / "lifshitz_plates":
        print(f"error: lifshitz_plates imported from {lifshitz_plates.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")

    probes = setup_probes(args.workload, args.seed, importtime=bool(args.trace))
    if args.workload == "cli":
        workload = workloads.Cli(args.seed, child_env(), str(ROOT))
    else:
        workload = workloads.IN_PROCESS[args.workload](args.seed)

    tracer = Tracer() if args.trace else None
    phases = run_phases(workload, args.seconds, tracer)
    if tracer:
        values = per_layer(args.workload, *phases, tracer, probes, workloads.import_times)
        listed = spec["per_layer"]
    else:
        values = end_to_end(args.workload, phases[0], probes)
        listed = spec["end_to_end"]

    outputs = defaultdict(list)
    for phase in phases:
        for label, _, out in phase.results:
            outputs[label].append(out)
    checks = workloads.Checks()
    workload.check(outputs, checks)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = {k: v for p in phases for k, v in p.errors.items()}
    for label, text in errors.items():
        print(f"operation {label} failed:\n{text}", file=sys.stderr)
    for message in checks.failures:
        print(f"check failed: {message}", file=sys.stderr)

    mismatch = {m["name"] for m in listed} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "errors": errors, "check_failures": checks.failures}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
