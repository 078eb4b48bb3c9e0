"""idpacct benchmark: one workload, measured for a fixed time, checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload account_large --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in;
nothing needs to be installed or built.  Set-up runs three times first (a
fresh interpreter importing idpacct, plus generating and writing the
workload's inputs), then whole iterations of the workload run until
``--seconds`` have passed.  Every iteration's output is
checked; a crash or a wrong output counts as a failed iteration.

``--trace 0`` wraps nothing and reports the end-to-end metrics.
``--trace 1`` alternates plain and traced iterations and reports the
per-layer metrics of the traced ones plus the tracing overhead (median
traced minus median plain iteration time).  The metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is the result as
one JSON object; per-iteration samples, set-up samples, the machine and the
spans of traced iterations go to ``.perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_ITERATIONS = 3          # plain iterations, and traced ones in a traced run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """At most two BLAS threads (fewer on a smaller machine); must run
    before numpy is imported."""
    cap = min(2, os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def machine(blas_threads: int) -> dict:
    import numpy
    import scipy

    import idpacct

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "idpacct_backend": idpacct.BACKEND, "blas_threads": blas_threads}


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports idpacct and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import idpacct"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    return time.perf_counter() - t0


def iterate(workload, tracer=None) -> tuple[float, list]:
    """One timed run of the workload, then its (untimed) check.  Returns the
    run's wall time and the problems found; a crash is a problem."""
    seconds = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run()
        else:
            import spans
            with spans.traced(tracer), tracer.span("bench", "bench.iteration"):
                result = workload.run()
        seconds = time.perf_counter() - t0
        problems = workload.check(result)
    except Exception as exc:        # noqa: BLE001 - a crash fails one iteration
        traceback.print_exc()
        problems = [f"{type(exc).__name__}: {exc}"]
    if seconds is None:
        seconds = time.perf_counter() - t0
    return seconds, problems


def measure(workload, seconds: float, trace: bool) -> list[dict]:
    """Iterations until ``seconds`` have passed; with ``trace`` every other
    one is traced."""
    if trace:
        import spans

    samples: list[dict] = []
    minimum = 2 * MIN_ITERATIONS if trace else MIN_ITERATIONS
    deadline = time.perf_counter() + seconds
    while len(samples) < minimum or time.perf_counter() < deadline:
        tracer = spans.Tracer() if trace and len(samples) % 2 == 1 else None
        run_s, problems = iterate(workload, tracer)
        sample = {"run_s": run_s, "traced": tracer is not None, "problems": problems}
        if tracer is not None:
            sample["layers"] = spans.layer_metrics(tracer.spans)
            sample["spans"] = [sp.to_dict() for sp in tracer.spans]
        samples.append(sample)

    if trace:
        # the same inputs must give the same counts in every traced iteration
        traced = [s for s in samples if s["traced"]]
        for s in traced[1:]:
            for key in spans.EXACT_COUNTS:
                if s["layers"][key] != traced[0]["layers"][key]:
                    s["problems"].append(f"{key} = {s['layers'][key]}, but "
                                         f"{traced[0]['layers'][key]} in the first "
                                         f"traced iteration")
    return samples


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description="idpacct benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "idpacct" / "__init__.py").is_file():
        print(f"error: no idpacct source tree at {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.make(args.workload, workdir, args.seed, args.size)
        # one set-up = a fresh interpreter's import plus writing the inputs
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            inputs_s = time.perf_counter() - t0
            setup_samples.append({"import_s": import_seconds(), "inputs_s": inputs_s})
        samples = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    plain = [s["run_s"] for s in samples if not s["traced"]]
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        values = {m["name"]: statistics.median(s["layers"][m["name"]] for s in traced)
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(s["run_s"] for s in traced)
                                      - statistics.median(plain))
        chosen = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"]
                                         for s in setup_samples),
            "pass_share": (attempted - failed) / attempted,
        }
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    detail = results / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(detail, "w") as f:
        json.dump({"args": vars(args), "size": workloads.SIZES[args.size][args.workload],
                   "machine": machine(blas_threads),
                   "setup": setup_samples,
                   "samples": samples, "metrics": metrics}, f)
    print(f"details: {detail.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
