"""Exact verify of three large code sets, timed.  Opt-in: pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/large_sets.py                 # every set, each in a fresh process
    PYTHONPATH=src python tests/large_sets.py kron-60x1800    # one set, in this process
    PYTHONPATH=src python tests/large_sets.py --io            # the codec on corollary1-81x2187
    PYTHONPATH=src python tests/large_sets.py --io kron-60x1800

The sets are the (60, 60, 1800) Kronecker product over Z_30, the
(81, 81, 2187) corollary1 q = 3 m = 7 n = 3 set and the (17, 17, 289)
lcm-323 product.  Each is built, then verified once by ``verify_ccc`` in
exact mode.  Its line gives the shape, the fft-gram kernel's tile plan
(k, mc), the characters per pass J, the verify time in seconds and the peak
RSS of its process (``ru_maxrss``, build included).  The exit status is 1
if a set does not verify as a CCC.

With ``--io`` the named sets (by default the 81x81x2187 one) are not
verified: each line gives the size of the canonical text and the median
seconds, over five runs, of ``CodeSet.dumps`` and of ``CodeSet.loads`` on
its bytes.  The exit status is 1 if a set does not read back as written.
"""

import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import ccckit as ck
from ccckit import exact_corr
from ccckit.cli import spec_from_config


def _spec(cfg):
    return ck.build_code_set(spec_from_config(cfg))


SETS = {
    "kron-60x1800": lambda: ck.kronecker_compose(
        _spec({"kind": "corollary3", "blocks": [{"p": 2, "m": 3}, {"p": 3, "m": 2}], "n": [1, 0], "seed": 0}),
        _spec({"kind": "theorem1", "q": 5, "m": 2, "seed": 100}),
    ),
    "corollary1-81x2187": lambda: _spec({"kind": "corollary1", "q": 3, "m": 7, "n": 3, "seed": 0}),
    "lcm323-17x289": lambda: ck.kronecker_compose(
        _spec({"kind": "theorem1", "q": 17, "m": 2, "seed": 0}), ck.CodeSet(19, np.zeros((1, 1, 1), np.int64))
    ),
}


def run(name: str) -> bool:
    C = SETS[name]()
    k, mc, nbytes = exact_corr.plan_tiles(C.K, C.M, C.L)
    J = max(1, min(exact_corr.character_units(C.q).size, exact_corr.tile_budget(C.K, C.M, C.L) // nbytes))
    start = time.perf_counter()
    report = ck.verify_ccc(C)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name:20s} ({C.K}, {C.M}, {C.L}) q={C.q:<4d} plan ({k}, {mc}) J={J:<3d} "
          f"{seconds:7.2f} s {rss_mb:7.1f} MB  {'CCC' if report.is_ccc else 'NOT a CCC'}", flush=True)
    return report.is_ccc


def time_io(name: str, repeat: int = 5) -> bool:
    C = SETS[name]()
    dump_s, load_s, same = [], [], True
    for _ in range(repeat):
        start = time.perf_counter()
        data = C.dumps()
        dump_s.append(time.perf_counter() - start)
        data = data.encode()
        start = time.perf_counter()
        back = ck.CodeSet.loads(data)
        load_s.append(time.perf_counter() - start)
        same = same and back.same_codes(C)
    print(f"{name:20s} ({C.K}, {C.M}, {C.L}) q={C.q:<4d} {len(data):>10d} bytes  dumps "
          f"{statistics.median(dump_s):.4f} s  loads {statistics.median(load_s):.4f} s", flush=True)
    return same


def main(names) -> int:
    if names[:1] == ["--io"]:
        return 0 if all([time_io(name) for name in names[1:] or ["corollary1-81x2187"]]) else 1
    if names:
        return 0 if all([run(name) for name in names]) else 1
    codes = [subprocess.run([sys.executable, __file__, name]).returncode for name in SETS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
