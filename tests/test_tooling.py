"""Repository checks: names the benchmark rebinds still exist; the README lists the public API."""

import fnmatch
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def test_perfbench_span_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans._targets():
        assert attr in vars(owner), f"span {name}: {owner.__name__}.{attr} no longer exists"


def test_readme_public_api_lists_the_exports():
    """The README's public-API list names exactly what `import ccckit` exports; `*` entries are globs."""
    import ccckit

    section = README.read_text().split("The public API is what `import ccckit` exports:")[1].split("\n\n")[1]
    listed = set(re.findall(r"`([A-Za-z_*][A-Za-z0-9_*]*)`", section))
    globs = {name for name in listed if "*" in name}
    exported = {n for n, v in vars(ccckit).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert listed - globs <= exported, f"listed but not exported: {sorted(listed - globs - exported)}"
    for pattern in globs:
        assert fnmatch.filter(exported, pattern), f"{pattern} matches no export"
    unlisted = [n for n in exported - listed if not any(fnmatch.fnmatchcase(n, g) for g in globs)]
    assert not unlisted, f"exported but not in the README: {sorted(unlisted)}"
