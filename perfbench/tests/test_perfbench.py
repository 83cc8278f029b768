"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests

Run from the root of a ccckit checkout.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ccckit  # noqa: E402
import ccckit.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: the union 1..6 counts once
        ["d", 2.0, 3.0, 1],
        ["e", 9.0, 12.0, 0],  # reaches past its parent: only 9..10 is covered
    ]
    assert spans.self_times(tracer.spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    tracer.counts["x.calls"] += 2
    totals = spans.layer_totals(tracer)
    assert totals["a_s"] == pytest.approx(4.0)
    assert totals["x.calls"] == 2


def test_nested_spans_record_their_parent():
    tracer = spans.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert tracer.spans[inner][3] == outer
    assert tracer.parent_name(inner) == "outer"
    assert tracer.parent_name(outer) is None


def test_install_traces_imported_names_and_restores_them():
    from ccckit import exact_corr, verify

    original = verify.zero_count_rows
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert verify.zero_count_rows is not original
        codes = ccckit.build_code_set(ccckit.cli.spec_from_config({"kind": "theorem1", "q": 2, "m": 2, "seed": 1}))
        report = ccckit.verify_ccc(codes)
    finally:
        restore()
    assert verify.zero_count_rows is original and exact_corr.zero_count_rows is original
    totals = spans.layer_totals(tracer)
    assert totals["verify.cells"] == report.shifts_tested == 2 * 2 * 4
    assert totals["exact_corr.pair_counts_calls"] == 4
    assert totals["exact_corr.pair_counts_ops"] == 4 * 2 * (4 + 3 + 2 + 1)  # pairs x M x sum(L - tau)
    assert totals["construct.bytes_computed"] == codes.exps.nbytes


def test_exact_zero_test_knows_composite_vanishing_sums():
    assert oracle.is_zero([1, 0, 1, 0, 1, 0], 6)  # 1 + z^2 + z^4 = 0 for z = zeta_6
    assert oracle.is_zero([1, 0, 0, 1, 0, 0], 6)  # 1 + z^3 = 0
    assert not oracle.is_zero([1, 1, 0, 0, 0, 0], 6)
    assert oracle.is_zero([2, 2, 2], 3) and not oracle.is_zero([2, 2, 1], 3)
    for n in (1, 2, 6, 12, 30, 36):
        assert oracle.cyclotomic(n) == ccckit.cyclotomic(n)


def test_probe_cell_oracle_on_a_known_violation():
    exps = np.array([[[0, 0]]])  # one code, one sequence (+1, +1) over Z_2
    # shift 1 correlates one pair with exponent difference 0: counts (1, 0), value 1
    assert oracle.check_probe_cell(exps, None, 2, 0, 0, 1, [1, 0]) is None
    assert "recounts" in oracle.check_probe_cell(exps, None, 2, 0, 0, 1, [0, 1])
    # shift 0 of a code with itself is the peak M*L, not a violation
    assert "not a violation" in oracle.check_probe_cell(exps, None, 2, 0, 0, 0, [2, 0])
    assert "outside" in oracle.check_probe_cell(exps, None, 2, 0, 0, 2, [0, 0])


def test_probe_cell_oracle_agrees_with_a_real_probe():
    cfg = {"kind": "theorem1", "q": 3, "m": 3, "pi": [0, 1, 2], "seed": 4,
           "corrupt": {"block": 0, "chain": 0, "which": "f", "constant": 1}}
    spec = ccckit.cli.spec_from_config(cfg)
    res = ccckit.necessity_probe(spec)
    codes = ccckit.build_code_set(spec)
    assert res.found
    assert oracle.check_probe_cell(codes.exps, codes.mask, 3, res.k1, res.k2, res.tau, res.element.counts) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_items_are_deterministic_per_seed_and_differ_across_seeds(workload):
    assert workloads.items(workload, 3) == workloads.items(workload, 3)
    assert workloads.items(workload, 3) != workloads.items(workload, 4)
    assert workloads.items(workload, 3, smoke=True) == workloads.items(workload, 3, smoke=True)


def test_every_pinned_item_has_a_pin_per_variant():
    pins = workloads.load_pins()
    for item in workloads.PINNED_ITEMS:
        assert len(pins[item]) == workloads.VARIANTS


def _smoke_ops(workload, tmp_path, seed=5):
    ctx = workloads.Context(ccckit, tmp_path, ROOT / "src")
    return ctx, workloads.prepare(ctx, workloads.items(workload, seed, smoke=True))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_checks_every_output(workload, tmp_path):
    _, ops = _smoke_ops(workload, tmp_path)
    result = run.run_pass(ops)
    assert result["attempted"] == len(ops) > 0
    unexpected = [f for f in result["failures"] if not f["known_defect"]]
    assert unexpected == []
    known = [f for f in result["failures"] if f["known_defect"]]
    assert len(known) == (1 if workload == "cli" else 0)  # the ragged file exits 0, not 2
    assert result["units"] > 0


def test_a_wrong_pin_is_a_failure(tmp_path):
    ctx, ops = _smoke_ops("build-io", tmp_path)
    for item in ctx.pins:
        if item.startswith("io-"):
            ctx.pins[item] = [{"sha256": "0" * 64}] * workloads.VARIANTS
    ops = workloads.prepare(ctx, workloads.items("build-io", 5, smoke=True))
    failures = run.run_pass(ops)["failures"]
    assert [f["op"] for f in failures] == ["io-smoke"]
    assert "sha256" in failures[0]["error"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_counts_repeat_exactly(workload, tmp_path):
    ctx, ops = _smoke_ops(workload, tmp_path)
    _, first = run.traced_run(ctx, ops, 0, workload)
    _, second = run.traced_run(ctx, ops, 0, workload)
    assert set(first) == {name for name, _ in run.PER_LAYER}
    for name in ("exact_corr.pair_counts_ops", "construct.bytes_computed", "verify.cells",
                 "verify.probe_witness_cells"):
        assert first[name] == second[name]
    assert first["verify.cells"] > 0
