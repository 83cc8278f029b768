"""Repository checks: names the benchmark rebinds or calls still exist; the README lists the public API;
one integer counter, one exact zero test, one root table, one place-value map and a Gram by matmul."""

import ast
import fnmatch
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"
README = ROOT / "README.md"
SRC = ROOT / "src" / "ccckit"


def test_perfbench_span_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans._targets():
        assert attr in vars(owner), f"span {name}: {owner.__name__}.{attr} no longer exists"


def test_perfbench_library_names_resolve():
    """Every ccckit name the workloads and the pinning script reach (ck.*, ccckit.*, exact_corr.*) exists."""
    import ccckit
    import ccckit.cli  # noqa: F401
    from ccckit import exact_corr

    modules = {"ck": ccckit, "ccckit": ccckit, "exact_corr": exact_corr}
    seen = set()
    for script in ("workloads.py", "pin.py"):
        text = (PERFBENCH / script).read_text()
        for root, path in re.findall(r"\b(ck|ccckit|exact_corr)((?:\.[A-Za-z_]\w*)+)", text):
            obj = modules[root]
            for attr in path.split(".")[1:]:
                assert hasattr(obj, attr), f"{script}: {root}{path} does not resolve"
                obj = getattr(obj, attr)
            seen.add(root + path)
    assert {"exact_corr.reduction_matrix", "ck.cli.spec_from_config", "ck.necessity_probe"} <= seen


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


def _calls(name):
    """(module, enclosing function) of every call of ``name``, plain or as an attribute, under src/ccckit."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.append((module, where))
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_one_integer_counter_and_one_exact_zero_test():
    """np.bincount runs in pair_counts alone; no src code calls the long division, which is a test oracle now,
    or the reduction matrix, which the annihilator test replaced; only the reduction matrix builds Phi_q."""
    assert _calls("bincount") == [("exact_corr", "pair_counts")]
    assert _calls("poly_divmod_exact") == []
    assert _calls("reduction_matrix") == []
    assert _calls("cyclotomic") == [("exact_corr", "reduction_matrix")]


def test_one_root_table():
    """np.exp runs once in src, in the cached root table every complex evaluation indexes."""
    assert _calls("exp") == [("waveform", "root_table")]


def test_one_place_value_map():
    """Points, restriction classes and seed indices split into digits through mixed_radix.place_digits,
    and neither builder loops over restriction classes."""
    callers = {where for _, where in _calls("place_digits")}
    assert {"digit_matrix", "restriction_values", "seed_digits"} <= callers
    assert not {where for _, where in _calls("restriction_values")} & {"build_from_spec", "build_code_set"}


def test_gram_by_matmul():
    """The fft-gram kernel sums its Gram with one batched matmul per tile and chunk; nothing in src calls einsum."""
    assert _calls("einsum") == []
    assert ("exact_corr", "_theta") in _calls("matmul")
