"""regimecast benchmark: one workload, one seed, tracing off or on.

    python3 bench/run.py --workload chain3-fit --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the package is imported from `src`.
With `--trace 0` the workload runs in a closed loop (one caller, the next
run starts when the previous one ends) for about `--seconds` seconds and
the end-to-end metrics of BENCHMARK.json are reported as medians over the
runs. With `--trace 1` half the time runs untraced and half traced, and the
per-layer metrics of BENCHMARK.json are reported per traced run. Every
output is checked; the last stdout line is the JSON result. Earlier lines
give the environment, the accuracy figures and, when traced, each layer's
share of the wall time. Spans are written to bench/out/.
"""

import os

# one BLAS thread: results and timings then do not depend on how many
# cores the machine lends the process at the moment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
CLI_PASSES = 3
NAN_PAIR = (float("nan"), float("nan"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def median(values) -> float:
    """Median of the finite values (a failed operation times as nan)."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else float("nan")


def medians(times) -> tuple:
    times = list(times)
    return median(t[0] for t in times), median(t[1] for t in times)


def closed_loop(op, seconds, min_runs=1) -> list:
    """Call `op`, which returns (wall, CPU) seconds, until the next call
    would end after `seconds`; at least `min_runs` calls."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(op())
        elapsed = time.perf_counter() - start
        # written so that a nan median (every call failed) also stops the loop
        if len(times) >= min_runs and not elapsed + medians(times)[0] <= seconds:
            return times


class Tally:
    """Operations attempted and failed, with the reasons printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)

    def guarded(self, op, check):
        """Run `op`, then `check(result)`; an exception in either is a failed
        operation and gives None."""
        try:
            result = op()
            self.record(check(result))
            return result
        except Exception as exc:  # noqa: BLE001 - a raising run is a counted failure
            self.record([f"{type(exc).__name__}: {exc}"])
            return None


def measure_setup(workdir, tally) -> float:
    """Median wall of a fresh interpreter running `regimecast.cli --version`."""

    def once():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "regimecast.cli", "--version"],
                              cwd=workdir, env=child_env(), capture_output=True, text=True,
                              timeout=60)
        return time.perf_counter() - t0, proc

    def check(res):
        proc = res[1]
        if proc.returncode != 0 or not proc.stdout.startswith("regimecast "):
            return [f"--version: exit {proc.returncode}: {proc.stderr.strip()}"]
        return []

    walls = [tally.guarded(once, check) for _ in range(SETUP_REPS)]
    return median(w[0] if w else float("nan") for w in walls)


def run_in_process(name, seed, seconds, tracer, tally, configs=None):
    import workloads

    wl = workloads.InProcess(name, seed, configs or workloads.IN_PROCESS)

    def traced_run():
        with tracer.span("bench.run"):
            times = wl.run()
        tracer.run_id += 1
        return times

    def loop(run, min_runs):
        return closed_loop(lambda: tally.guarded(run, lambda _: wl.check()) or NAN_PAIR,
                           seconds if tracer is None else seconds / 2, min_runs)

    if tracer is None:
        wall, cpu = medians(loop(wl.run, 2))
        return {"wall": wall, "cpu": cpu}, wl.accuracy()
    base = loop(wl.run, 1)
    with tracer.patch():
        traced = loop(traced_run, 1)
    return {"wall": medians(base)[0], "traced_wall": medians(traced)[0],
            "runs": len(traced)}, wl.accuracy()


def run_cli(seed, seconds, tracer, tally, workdir, sizes=None):
    """Untraced: at least CLI_PASSES passes of one process per command, each
    command's wall and CPU time the median over passes. Traced: one such
    pass for the per-command walls, then one untraced and one traced pass
    through `cli.main` in this process."""
    import workloads

    path = workloads.CliPath(workdir, seed, sizes or workloads.CLI_SIZES)
    path.generate()
    env = child_env()

    def command(label, runner):
        res = tally.guarded(lambda: runner(label), lambda r: path.check(label, r[2], r[3]))
        return NAN_PAIR if res is None else res[:2]

    def traced_command(label):
        with tracer.span(f"bench.cli.{label}"):
            res = path.run_in_process(label)
        tracer.run_id += 1
        return res

    passes = []

    def process_pass():
        passes.append({label: command(label, lambda lb: path.run_process(lb, env))
                       for label in path.LABELS})
        return tuple(sum(t[i] for t in passes[-1].values()) for i in (0, 1))

    def in_process_pass(runner):
        return sum(command(label, runner)[0] for label in path.LABELS)

    if tracer is None:
        closed_loop(process_pass, seconds, min_runs=CLI_PASSES)
    else:
        process_pass()
    per_command = {label: medians(p[label] for p in passes) for label in path.LABELS}
    timing = {"wall": sum(t[0] for t in per_command.values()),
              "cpu": sum(t[1] for t in per_command.values()),
              "per_command": {label: t[0] for label, t in per_command.items()}}
    if tracer is not None:
        timing["in_process_wall"] = in_process_pass(path.run_in_process)
        with tracer.patch():
            timing["traced_wall"] = in_process_pass(traced_command)
        timing["runs"] = 1
    return timing, path.accuracy()


def main(argv=None, configs=None, cli_sizes=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regimecast" / "__init__.py").is_file():
        print(f"error: no regimecast package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import spans

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    tracer = spans.Tracer() if args.trace else None
    try:
        setup = None if args.trace else measure_setup(workdir, tally)
        if args.workload == "cli-sachs":
            timing, accuracy = run_cli(args.seed, args.seconds, tracer, tally, workdir,
                                       cli_sizes)
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            timing, accuracy = run_in_process(args.workload, args.seed, args.seconds, tracer,
                                              tally, configs)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in sorted(accuracy.items()):
        print(f"metric {name} {value!r} {unit}")
    fail_frac = tally.failed / max(tally.attempted, 1)
    print(f"metric fail_frac {fail_frac!r} ratio")

    if args.trace:
        tracer.finish()
        values = spans.per_layer(tracer, timing)
        for layer, share in spans.layer_shares(tracer).items():
            print(f"self-share {layer} {share:.4f}")
        for name, share in list(spans.inclusive_shares(tracer).items())[:10]:
            print(f"inclusive-share {name} {share:.4f}")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"env": env, "workload": args.workload, "seed": args.seed})
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": timing["wall"],
            "cpu_s": timing["cpu"],
            "setup_s": setup,
            "peak_rss_mb": peak_kb / 1024.0,
            "ok_frac": 1.0 - fail_frac,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
