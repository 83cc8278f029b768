"""ccckit benchmark: build, exact verify, probe, JSON I/O and the CLI, timed and checked.

    python3 perfbench/run.py --workload {certify,build-io,probe,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a ccckit checkout; ccckit is imported from ./src.
Passes over the workload's item list repeat while the next one should end
within S seconds (at least one pass).  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 it has the per-layer metrics of a
traced run and the tracing overhead.  Lines before it give the details: the
environment, sample counts, quartiles and every failed check.
"""

import os
import sys
import time

T0 = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # one thread, at most nproc; set before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
THROUGHPUT = {  # name printed per workload, and what one unit is
    "certify": ("cells_per_s", "cells/s"),
    "build-io": ("entries_per_s", "entries/s"),
    "probe": ("probes_per_s", "probes/s"),
    "cli": ("cmds_per_s", "cmds/s"),
}
PER_LAYER = [
    ("exact_corr.pair_counts_s", "s"), ("exact_corr.pair_counts_calls", "count"),
    ("exact_corr.pair_counts_ops", "count"), ("exact_corr.zero_test_s", "s"),
    ("exact_corr.zero_test_rows", "count"), ("exact_corr.nonzero_rows", "count"),
    ("verify.verify_s", "s"), ("verify.cells", "count"), ("verify.violations", "count"),
    ("verify.probe_s", "s"), ("verify.probe_witness_cells", "count"),
    ("verify.probe_full_scans", "count"), ("verify.probe_witness_hit_ratio", "ratio"),
    ("construct.build_s", "s"), ("construct.build_calls", "count"), ("construct.entries", "count"),
    ("construct.bytes_computed", "bytes"), ("qary.table_s", "s"),
    ("construct.kron_s", "s"), ("construct.dump_s", "s"), ("construct.dump_bytes", "bytes"),
    ("construct.from_json_s", "s"), ("cli.load_s", "s"),
    ("cli.startup_s", "s"), ("cli.build_s", "s"), ("cli.verify_s", "s"), ("cli.profile_s", "s"),
    ("cli.probe_s", "s"), ("cli.reproduce72_s", "s"), ("cli.exit_mismatches", "count"),
    ("trace.run_s_untraced", "s"), ("trace.run_s_traced", "s"), ("trace.overhead_s", "s"),
]


def find_src() -> Path:
    src = Path.cwd() / "src"
    if not (src / "ccckit" / "__init__.py").is_file():
        raise SystemExit("perfbench: no ccckit sources at ./src/ccckit; run from a ccckit checkout")
    return src


def setup(workload: str, seed: int, workdir: Path, src: Path):
    """Import ccckit, make the inputs from the seed and fill lazy caches."""
    sys.path.insert(0, str(src))
    import ccckit
    import ccckit.cli  # noqa: F401

    ctx = workloads.Context(ccckit, workdir, src)
    return ctx, workloads.prepare(ctx, workloads.items(workload, seed))


def setup_sample(args) -> float:
    """Set-up seconds of a fresh process, measured from its first statement."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(ops, tracer=None) -> dict:
    """One pass over the ops; only op.run is timed, checks are not."""
    times, units, failures = [], 0, []
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    out = op.run()
            else:
                out = op.run()
            error = None
        except Exception as exc:  # a failed op is counted, never retried
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        try:
            error = error or op.check(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = True
        if error is None:
            units += op.units(out)
        else:
            failures.append({"op": op.name, "error": error, "known_defect": op.known_defect})
        del out
    return {"seconds": sum(times), "units": units, "attempted": len(ops), "failures": failures}


def measure(ops, seconds: float, before_pass=None, tracer=None) -> list[dict]:
    """At least one pass; another only if it should end within ``seconds``."""
    passes, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        if before_pass is not None:
            before_pass()
        passes.append(run_pass(ops, tracer))
        if len(passes) == 1:  # every pass does the same work; later ones only add allocator noise
            passes[0]["peak_rss_mb"] = peak_rss_mb()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def traced_run(ctx, ops, seconds: float, workload: str) -> tuple[list[dict], dict]:
    """Untraced passes for half the time, then traced passes; per-pass layer totals."""
    untraced = measure(ops, seconds / 2)
    tracer = spans.Tracer()
    ctx.trace_cli, ctx.cli_traces = True, []
    env = workloads.cli_env(ctx)

    def startup():  # a bare interpreter + import, once per traced cli pass
        with tracer.span("cli.startup"):
            subprocess.run([sys.executable, "-c", "import ccckit"], env=env, check=True, timeout=60)

    restore = spans.install(tracer)
    try:
        traced = measure(ops, seconds / 2, startup if workload == "cli" else None, tracer)
    finally:
        restore()
        ctx.trace_cli = False
    totals = spans.layer_totals(tracer)
    for path in ctx.cli_traces:
        with open(path) as fh:
            for key, value in json.load(fh).items():
                totals[key] = totals.get(key, 0) + value
    n = len(traced)
    layer = {name: totals.get(name, 0) / n for name, _ in PER_LAYER}
    probes = totals.get("verify.probes", 0)
    layer["verify.probe_witness_hit_ratio"] = totals.get("verify.probe_witness_hits", 0) / probes if probes else 0.0
    layer["cli.exit_mismatches"] = sum(
        f["error"].startswith(workloads.EXIT_MISMATCH) for p in traced for f in p["failures"]) / n
    run_untraced = statistics.median(p["seconds"] for p in untraced)
    run_traced = statistics.median(p["seconds"] for p in traced)
    layer.update({"trace.run_s_untraced": run_untraced, "trace.run_s_traced": run_traced,
                  "trace.overhead_s": run_traced - run_untraced})
    return untraced + traced, layer


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__, "git_rev": git_rev(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def git_rev() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = Path.cwd() / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = find_src()
    work_root = Path.cwd() / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir, src)
            print(time.perf_counter() - T0)
            return 0
        setup_times = [] if args.trace else [setup_sample(args) for _ in range(SETUP_SAMPLES)]
        ctx, ops = setup(args.workload, args.seed, workdir, src)
        if args.trace:
            passes, layer = traced_run(ctx, ops, args.seconds, args.workload)
        else:
            passes = measure(ops, args.seconds)
        return report(args, passes, setup_times, layer if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, passes: list[dict], setup_times: list[float], layer: dict | None) -> int:
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    seconds = [p["seconds"] for p in passes]
    q1, run_s, q3 = quartiles(seconds)
    units = statistics.median(p["units"] for p in passes)
    tp_name, tp_unit = THROUGHPUT[args.workload]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(), "passes": len(passes), "pass_s": seconds,
        "run_s": {"median": run_s, "q1": q1, "q3": q3, "samples": len(seconds)},
        "units_per_pass": units, "setup_s_samples": setup_times,
        "failures": sorted({(f["op"], f["error"], f["known_defect"] or "") for f in failures}),
    }
    print("detail " + json.dumps(detail))
    for f in detail["failures"]:
        print(f"FAILED {f[0]}: {f[1]}" + (f"  [known: {f[2]}]" if f[2] else ""))
    if layer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB"),
            "throughput": (units / run_s, "1/s"),
        }
        extra = {"fail_frac": (len(failures) / attempted, "ratio"), tp_name: (units / run_s, tp_unit)}
        print(f"run_s over {len(seconds)} passes: median {run_s:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s")
    else:
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER}
        extra = {"fail_frac": (len(failures) / attempted, "ratio")}
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
