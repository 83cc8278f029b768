"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads certify,cli] [--trace] \
        [--out perfbench/results/BENCH_name.json]

Run from the root of a ccckit checkout.  Each run is a separate process with
the settings in BENCHMARK.json.  For every workload and end-to-end metric it
prints the median, the quartiles and the spread (q3 - q1) / median of the
runs, the statistic the benchmark's bounds are checked against.  --trace adds
one traced run per workload (first seed) for the per-layer numbers.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "detail": detail}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [run_once(bench, workload, s, 0) for s in args.seeds]
        entry = {"runs": runs, "summary": summarise(runs)}
        if args.trace:
            entry["traced"] = run_once(bench, workload, args.seeds[0], 1)
        report["workloads"][workload] = entry
        report.setdefault("env", runs[0]["detail"]["env"])
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] is None or s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:9s} {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload:9s} correct {correct}  failed {failed}/{attempted}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
