"""The benchmark's traced run rebinds ccckit names; each one must still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_perfbench_span_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans._targets():
        assert attr in vars(owner), f"span {name}: {owner.__name__}.{attr} no longer exists"
