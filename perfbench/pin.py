"""Write pins.json: the seed-dependent outputs the benchmark checks against.

    python3 perfbench/pin.py

Run from the root of a ccckit checkout at the commit whose outputs are the
reference.  Pins are the number of violating cells of the corrupted certify
set, the SHA-256 of each build-io JSON payload and of the Kronecker product's
exponents, for every variant of every pinned item, and for each probe family
which entries of its random-corruption pool needed the full scan.
"""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def pin(ck, item: str, variant: int) -> dict:
    cfg = workloads.pinned_config(item, variant)
    if "factors" in cfg:
        a, b = (ck.build_code_set(ck.cli.spec_from_config(f)) for f in cfg["factors"])
        return {"exps_sha256": workloads.exps_sha(ck.kronecker_compose(a, b))}
    codes = ck.build_code_set(ck.cli.spec_from_config(cfg))
    if "corrupt" in cfg:
        return {"total_violations": ck.verify_ccc(codes).total_violations}
    return {"sha256": workloads.payload_sha(codes.dumps())}


def main() -> int:
    import ccckit
    import ccckit.cli  # noqa: F401

    pins = {}
    for size in workloads.PROBE_FAMILIES.values():
        for (name, cfg), style in itertools.product(size, workloads.PROBE_STYLES):
            pool = (ccckit.cli.spec_from_config(workloads.probe_pool_config(name, cfg, style, i))
                    for i in range(workloads.POOL_SIZE))
            pins[f"probe-pool/{name}/{style}"] = [ccckit.necessity_probe(s).used_full_scan for s in pool]
    for item in workloads.PINNED_ITEMS:
        pins[item] = [pin(ccckit, item, v) for v in range(workloads.VARIANTS)]
        print(item, "pinned", file=sys.stderr)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
