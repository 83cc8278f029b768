"""Repository checks: names the benchmark rebinds or calls still exist; the README lists the public API and
the config keys; the CLI loads the worked example only for reproduce72; one integer counter, one exact zero
test, one recount of a reported cell, one root table, one-digit text read as it is written, one place-value
map, a Gram by matmul, one spec object and one check of the chain condition, one evaluator of a monomial form."""

import ast
import fnmatch
import functools
import importlib.util
import inspect
import re
from pathlib import Path

from conftest import run_python

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


def test_cli_loads_example72_only_for_reproduce72():
    """Importing the CLI leaves the bundled worked example unloaded; ``cmd_reproduce72`` imports it."""
    proc = run_python("-c", "import ccckit.cli, sys; sys.exit('ccckit.example72' in sys.modules)", timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_lists_the_config_keys():
    """The README's config-key list names, object by object, exactly the keys in cli._KEYS."""
    from ccckit.cli import _KEYS

    section = README.read_text().split("Each config object takes only the keys it reads:")[1].split("\n\n")[1]
    listed = dict(re.findall(r"^- `(\w+)`[^:\n]*: `([^`]*)`$", section, re.M))
    assert listed == _KEYS


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
    """np.bincount runs in pair_counts alone, and pair_counts takes no per-element modulo (no %, %=, mod,
    remainder, fmod or divmod): it folds 2q bins per pair instead.  No src code calls the long division, which
    is a test oracle now, or the reduction matrix, which the annihilator test replaced; only the reduction
    matrix builds Phi_q."""
    assert _calls("bincount") == [("exact_corr", "pair_counts")]
    tree = ast.parse((SRC / "exact_corr.py").read_text())
    counter = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "pair_counts")
    modulo = [
        node.lineno for node in ast.walk(counter)
        if isinstance(getattr(node, "op", None), ast.Mod)
        or (isinstance(node, ast.Attribute) and node.attr in ("mod", "remainder", "fmod", "divmod"))
        or (isinstance(node, ast.Name) and node.id in ("mod", "remainder", "fmod", "divmod"))
    ]
    assert modulo == [], f"pair_counts takes a modulo at lines {modulo}"
    assert _calls("poly_divmod_exact") == []
    assert _calls("reduction_matrix") == []
    assert _calls("cyclotomic") == [("exact_corr", "reduction_matrix")]


def test_one_recount():
    """Every reported cell, from the fft-gram kernel, the shiftwise fallback or the probe, becomes a Violation
    in verify._violation alone, by one integer recount.  In verify, pair_counts counts cells in _violation and
    _bad_keys only; character_sums counts value tables, not cells."""
    assert _calls("Violation") == [("verify", "_violation")]
    callers = {where for module, where in _calls("pair_counts") if module == "verify"}
    assert callers == {"_violation", "_bad_keys", "character_sums"}


def test_one_root_table():
    """np.exp runs once in src, in the cached root table every complex evaluation indexes."""
    assert _calls("exp") == [("waveform", "root_table")]


def test_one_digit_text_read_as_it_is_written():
    """The two-byte tokens of one-digit text are made once, at module level, for the writer and the reader;
    only the canonical scan calls the one-digit reader, and the chunk scanner has no one-byte branch."""
    assert set(_calls("_pair")) == {("construct", None)}
    assert _calls("_read_digits") == [("construct", "_scan_canonical")]
    tree = ast.parse((SRC / "construct.py").read_text())
    scan = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_scan_chunk")
    assert "len(template)" not in ast.unparse(scan)


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


def test_one_spec_object_and_one_chain_check():
    """The chain condition is evaluated in GeneralizedQuadraticSpec.chain_failures; corrupt_spec tests its
    replacement and lemma1_equiv_check tests the permutation side of the lemma.  A ConstructionSpec is the spec,
    so nothing in src reads a ``func`` attribute but the CLI's subcommand.  Per-class fields are read by
    indexing, not through a shared-or-dict helper or a per-class accessor, and the arrays the spec implies are
    cached attributes of the spec, not values handed down through ``classes``/``slots`` parameters."""
    assert {where for _, where in _calls("is_permutation_mod")} == {
        "chain_failures", "corrupt_spec", "lemma1_equiv_check"}
    reads = [(path.stem, ast.unparse(node)) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "func"]
    assert reads == [("cli", "args.func")]
    helpers = r"\b(_per_restriction|pi_for|gs_for|offset_for)\b"
    assert not [path.name for path in SRC.glob("*.py") if re.search(helpers, path.read_text())]
    params = [(path.stem, node.arg) for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.arg)]
    assert not [param for param in params if param[1] in ("classes", "slots")]
    from ccckit.qary import GeneralizedQuadraticSpec

    for name in ("restriction_classes", "slot_digits"):
        assert isinstance(vars(GeneralizedQuadraticSpec)[name], functools.cached_property), name


def test_one_evaluator_and_one_index_map():
    """A monomial form's values come from its exact table alone: nothing in src calls (np.)power, and
    MonomialForm.evaluate calls table() and does no arithmetic of its own.  Every point, an index or a digit
    vector, takes one index map: only mixed_radix.point_index calls vec_to_int.  No src module names the
    dropped ``provenance`` field."""
    assert _calls("power") == []
    assert _calls("vec_to_int") == [("mixed_radix", "point_index")]
    tree = ast.parse((SRC / "qary.py").read_text())
    form = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "MonomialForm")
    evaluate = next(node for node in form.body if isinstance(node, ast.FunctionDef) and node.name == "evaluate")
    calls = {node.func.attr for node in ast.walk(evaluate) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)}
    assert "table" in calls
    assert not [node for node in ast.walk(evaluate) if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp))]
    assert not [path.name for path in SRC.glob("*.py") if "provenance" in path.read_text()]
