"""Full-scan share and probe time of the necessity probe, per family.  Opt-in: pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/probe_shares.py

The families are the benchmark's eight probe families and its two smoke
families (``perfbench/workloads.py``), each with its orderings pi dropped so
that the build seed draws them.  Per family and corruption style (a constant
table or a random non-permutation), 48 seeded corruptions are probed.  Each
line gives the number of probes that needed the full scan and the total probe
time in seconds, builds included.  The exit status is 1 if a probe finds no
violation.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

import ccckit as ck  # noqa: E402
from ccckit.cli import spec_from_config  # noqa: E402


def main() -> int:
    found_all = True
    totals = dict.fromkeys(workloads.PROBE_STYLES, 0)
    families = workloads.PROBE_FAMILIES["full"] + workloads.PROBE_FAMILIES["smoke"]
    print(f"{'family':22s} {'style':8s} full scans   probe s")
    for name, cfg in families:
        cfg = {k: v for k, v in cfg.items() if k not in ("pi", "pip")}
        for style in workloads.PROBE_STYLES:
            specs = [spec_from_config(workloads.probe_pool_config(name, cfg, style, i))
                     for i in range(workloads.POOL_SIZE)]
            start = time.perf_counter()
            results = [ck.necessity_probe(spec) for spec in specs]
            seconds = time.perf_counter() - start
            full = sum(r.used_full_scan for r in results)
            found_all &= all(r.found for r in results)
            totals[style] += full
            print(f"{name:22s} {style:8s} {full:4d} / {len(results):<4d} {seconds:8.3f}", flush=True)
    for style, full in totals.items():
        print(f"{'all':22s} {style:8s} {full:4d} / {workloads.POOL_SIZE * len(families):<4d}")
    return 0 if found_all else 1


if __name__ == "__main__":
    sys.exit(main())
