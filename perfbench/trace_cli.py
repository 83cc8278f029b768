"""Run ``ccckit.cli`` with the benchmark's tracer installed.

    python perfbench/trace_cli.py OUT.json <ccckit cli arguments...>

The traced cli workload starts this instead of ``python -m ccckit.cli`` so that
layer times inside each command are measured.  The per-layer totals are
written to OUT.json; the exit code is the command's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ccckit.cli

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        return ccckit.cli.main(argv)
    finally:
        restore()
        with open(out, "w") as fh:
            json.dump(spans.layer_totals(tracer), fh)


if __name__ == "__main__":
    sys.exit(main())
