import itertools
import random
import re
from dataclasses import replace

import numpy as np
import pytest

import ccckit as ck
from ccckit import example72
from ccckit.cli import spec_from_config
from ccckit.exact_corr import is_zero_exact, zero_count_rows
from ccckit.qary import constant_table, identity_table
from ccckit.verify import character_sums, witness_shifts

from conftest import (
    counts_via_convolution,
    rand_nonperm_table,
    rand_perm_table,
    rand_table,
    rand_theorem1_spec,
    rand_theorem2_spec,
)


def test_trivial_code_set_verifies():
    report = ck.verify_ccc(ck.trivial_code_set())
    assert report.is_ccc and report.peak == 1


def test_verified_12_72():
    report = ck.verify_ccc(example72.build())
    assert report.is_ccc
    assert report.peak == 864
    assert report.total_violations == 0
    assert report.mode == "exact"


def test_float_mode_agrees_on_builds(rng):
    for spec in (rand_theorem1_spec(rng, 4, 2), rand_theorem2_spec(rng, 2, 3, 2, 2)):
        C = ck.build_code_set(spec)
        exact = ck.verify_ccc(C, mode="exact")
        approx = ck.verify_ccc(C, mode="float")
        assert exact.is_ccc and approx.is_ccc


def test_corrupted_4_64_fails_at_witness_shift(rng):
    spec = rand_theorem1_spec(rng, 4, 3, identity_pi=True)
    bad = ck.corrupt_spec(spec, 0, 0, "f", constant_table(4))  # slot 1 constant
    C = ck.build_code_set(bad)
    report = ck.verify_ccc(C, max_violations=1000)
    assert not report.is_ccc
    assert any(v.tau == 60 for v in report.violations)  # 4^3 - 4^(3-2)
    assert report.total_violations >= len(report.violations)
    capped = ck.verify_ccc(C, max_violations=3)
    assert len(capped.violations) == 3
    assert capped.total_violations == report.total_violations
    taus = [(v.k1, v.k2, v.tau) for v in report.violations]
    assert taus == sorted(taus)


def test_witness_shift_table():
    s32 = rand_theorem1_spec(random.Random(1), 3, 2)
    assert witness_shifts(s32) == [6, 3]
    s43 = rand_theorem1_spec(random.Random(1), 4, 3)
    assert witness_shifts(s43) == [48, 32, 16, 60, 56, 52]
    t2 = rand_theorem2_spec(random.Random(1), 2, 3, 2, 2)
    assert witness_shifts(t2) == [2, 24, 12]


def assert_probe_cell_recounts(bad, result):
    """The reported element is the exact value of the reported cell, by the convolution oracle."""
    C = ck.build_code_set(bad)
    conv = counts_via_convolution(C.code(result.k1), C.code(result.k2))
    assert result.element.counts == tuple(conv[result.tau + C.L - 1].tolist())


@pytest.mark.parametrize(
    "q,m,slot,tau",
    [(3, 2, 0, 6), (4, 3, 1, 48), (4, 3, 0, 60)],
)
def test_necessity_probe_constant_corruption(q, m, slot, tau, rng):
    spec = rand_theorem1_spec(rng, q, m, identity_pi=True)
    bad = ck.corrupt_spec(spec, 0, slot, "f", constant_table(q))
    result = ck.necessity_probe(bad)
    assert result.found
    assert result.tau == tau
    assert not result.used_full_scan
    assert not is_zero_exact(result.element)
    assert_probe_cell_recounts(bad, result)


def test_necessity_probe_theorem2_block1(rng):
    spec = rand_theorem2_spec(rng, 2, 3, 2, 2, lam=0, identity_pi=True)
    bad = ck.corrupt_spec(spec, 0, 0, "f", constant_table(6))
    result = ck.necessity_probe(bad)
    assert result.found and result.tau == 2  # 2^2 - 2^1 inside block 1
    assert_probe_cell_recounts(bad, result)


def test_necessity_probe_rejects_valid_spec(rng):
    with pytest.raises(ValueError):
        ck.necessity_probe(rand_theorem1_spec(rng, 3, 2))


@pytest.mark.parametrize("q", (2, 3, 4, 5))
@pytest.mark.parametrize("m", (2, 3, 4))
def test_constant_corruption_hits_at_its_first_shift(q, m, rng):
    """Under the identity ordering a constant table in chain j fails at q^m - q^{j+1}, the first shift scanned."""
    spec = rand_theorem1_spec(rng, q, m, identity_pi=True)
    for chain, which in itertools.product(range(m - 1), ("f", "fp")):
        bad = ck.corrupt_spec(spec, 0, chain, which, constant_table(q, rng.randrange(q)))
        result = ck.necessity_probe(bad)
        assert result.found and not result.used_full_scan, (chain, which)
        assert result.tau == result.scanned_witness_shifts[0] == q**m - q ** (chain + 1), (chain, which)
        assert result.condition == f"block 0, chain {chain}, {which} does not permute Z_{q}"
        assert_probe_cell_recounts(bad, result)


def test_constant_corruption_needs_no_full_scan_under_any_ordering(rng):
    """theorem1 under every ordering pi, and corollary1 with one pi per restriction class."""
    specs = [
        ck.theorem1_spec(q, m, [rand_perm_table(rng, q, q) for _ in range(m - 1)],
                         [rand_perm_table(rng, q, q) for _ in range(m - 1)], [rand_table(rng, q) for _ in range(m)], pi)
        for q, m in ((2, 4), (3, 3), (4, 3), (6, 3)) for pi in itertools.permutations(range(m))
    ]
    specs.append(spec_from_config({"kind": "corollary1", "q": 3, "m": 4, "n": 1,
                                   "pi": {"0": [2, 0, 1], "1": [1, 2, 0], "2": [0, 2, 1]}}))
    for spec in specs:
        q, pairs = spec.domain.q, spec.chains[0]
        for chain, which in itertools.product(range(len(pairs)), ("f", "fp")):
            result = ck.necessity_probe(ck.corrupt_spec(spec, 0, chain, which, constant_table(q, rng.randrange(q))))
            assert result.found and not result.used_full_scan, (spec.pis, chain, which)


def test_probe_order_follows_the_failing_pair():
    spec = ck.theorem1_spec(3, 3, [identity_table(3)] * 2, [identity_table(3)] * 2, [constant_table(3)] * 3, (2, 0, 1))
    result = ck.necessity_probe(ck.corrupt_spec(spec, 0, 0, "fp", constant_table(3, 1)))
    # chain 0 read through pi: 2 (3^0 + 3^1) - (n - 1) 3^0; then 27 - 3n; then n 3^pi(1); then the rest
    assert result.scanned_witness_shifts == (8, 7, 24, 21, 1, 2, 18, 9)
    assert witness_shifts(spec) == [18, 9, 24, 21]


def test_probe_order_holds_the_family_once_inside_the_set(rng):
    specs = [
        rand_theorem1_spec(rng, 4, 3),
        rand_theorem2_spec(rng, 2, 3, 3, 2),
        spec_from_config({"kind": "corollary1", "q": 2, "m": 4, "n": 1, "pi": {"0": [0, 1, 2], "1": [2, 0, 1]}}),
        spec_from_config({"kind": "corollary3", "blocks": [{"p": 2, "m": 3}, {"p": 3, "m": 2}], "n": [1, 0]}),
    ]
    for spec in specs:
        L = spec.domain.L
        for block, pairs in enumerate(spec.chains):
            p = spec.domain.blocks[block][0]
            for chain, which in itertools.product(range(len(pairs)), ("f", "fp")):
                bad = ck.corrupt_spec(spec, block, chain, which, rand_nonperm_table(rng, spec.domain.q, p))
                result = ck.necessity_probe(bad)
                taus = result.scanned_witness_shifts
                assert result.found and set(witness_shifts(spec)) <= set(taus), (block, chain, which)
                assert len(set(taus)) == len(taus) and all(0 < tau < L for tau in taus)
                assert result.condition == f"block {block}, chain {chain}, {which} does not permute Z_{p}"
                assert_probe_cell_recounts(bad, result)


def test_necessity_randomized_uniform_suite(rng):
    # randomized corruptions (non-constant too) must always be refuted
    for q in (2, 3, 4, 5, 6):
        for m in (2, 3):
            for _ in range(20):
                spec = rand_theorem1_spec(rng, q, m)
                slot = rng.randrange(m - 1)
                which = rng.choice(["f", "fp"])
                bad = ck.corrupt_spec(spec, 0, slot, which, rand_nonperm_table(rng, q, q))
                assert ck.necessity_probe(bad).found, (q, m, slot, which)


def test_necessity_randomized_mixed_suite(rng):
    for m1, m2 in ((2, 2), (3, 2)):
        for _ in range(20):
            spec = rand_theorem2_spec(rng, 2, 3, m1, m2)
            block = rng.randrange(2)
            n_chains = (m1 - 1, m2 - 1)[block]
            if n_chains == 0:
                block = 1 - block
                n_chains = (m1 - 1, m2 - 1)[block]
            slot = rng.randrange(n_chains)
            p_block = (2, 3)[block]
            bad = ck.corrupt_spec(
                spec, block, slot, rng.choice(["f", "fp"]),
                rand_nonperm_table(rng, 6, p_block),
            )
            assert ck.necessity_probe(bad).found, (m1, m2, block, slot)


def test_sufficiency_randomized_mixed_suite(rng):
    for m1, m2 in ((2, 2), (3, 2)):
        for _ in range(20):
            C = ck.build_code_set(rand_theorem2_spec(rng, 2, 3, m1, m2))
            report = ck.verify_ccc(C)
            assert report.is_ccc, (m1, m2)
            assert report.peak == 2 ** (m1 + 1) * 3 ** (m2 + 1)


def with_table(cs, block, chain, which, table):
    """cs with one chain table swapped, not flagged corrupted: the valid counterpart of corrupt_spec."""
    chains = [list(pairs) for pairs in cs.chains]
    f, fp = chains[block][chain]
    chains[block][chain] = (table, fp) if which == "f" else (f, table)
    return replace(cs, chains=tuple(map(tuple, chains)))


def single_slot_tables():
    """(spec, block, chain, which, table, p) for every table of the slots the paper's iff is checked on.

    theorem1 q=3 and q=4, m=3: every table in every chain slot.  corollary3
    (2,2)x(3,2): chain 0 of each block, every value of the entries it evaluates
    (inputs below p), the rest as built.
    """
    for q in (3, 4):
        base = spec_from_config({"kind": "theorem1", "q": q, "m": 3, "seed": 1})
        for chain, which in itertools.product(range(2), ("f", "fp")):
            for table in itertools.product(range(q), repeat=q):
                yield base, 0, chain, which, table, q
    base = spec_from_config({"kind": "corollary3", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "n": [0, 0],
                             "seed": 1})
    q = base.domain.q
    for block, (p, _) in enumerate(base.domain.blocks):
        rest = base.chains[block][0][0][p:]
        for head in itertools.product(range(q), repeat=p):
            yield base, block, 0, "f", head + rest, p


def test_ccc_iff_every_chain_table_permutes():
    """The paper's iff on every single-slot table: a CCC exactly when the table permutes Z_p.

    chain_failures names the table exactly when it does not permute.  Every
    non-permutation is also refuted by necessity_probe.  The specs use
    seeded (not identity) orderings; the spec-driven witness scan still finds
    every refutation without the full scan.
    """
    seen = refuted = full_scans = 0
    for base, block, chain, which, table, p in single_slot_tables():
        permutes = ck.is_permutation_mod(table, p)
        spec = with_table(base, block, chain, which, table) if permutes else ck.corrupt_spec(
            base, block, chain, which, table)
        assert ck.verify_ccc(ck.build_code_set(spec), max_violations=0).is_ccc == permutes, (block, chain, which, table)
        assert spec.chain_failures() == ([] if permutes else [(block, chain, which, p)]), (block, chain, which, table)
        if not permutes:
            result = ck.necessity_probe(spec)
            assert result.found and not is_zero_exact(result.element), (block, chain, which, table)
            refuted += 1
            full_scans += result.used_full_scan
        seen += 1
    # permutations per slot: 3! of 3^3, 4! of 4^4, 2! 3 of 6^2 and 3! 2^3 of 6^3
    assert (seen, refuted) == (4 * 27 + 4 * 256 + 36 + 216, 4 * (27 - 6) + 4 * (256 - 24) + (36 - 18) + (216 - 48))
    assert full_scans == 0


def test_lemma1_equivalence_exhaustive():
    assert ck.lemma1_equiv_check(1)
    assert ck.lemma1_equiv_check(2)
    assert ck.lemma1_equiv_check(3)  # all 27 maps
    assert ck.lemma1_equiv_check(4)  # all 256 maps
    assert ck.lemma1_equiv_check(6, sample=300, seed=7)


def test_lemma1_identity_table_both_sides():
    t = identity_table(2)
    assert ck.is_permutation_mod(t, 2)
    assert zero_count_rows(character_sums(t, [1]), 2).all()


def test_character_sum_counts():
    sums = character_sums(constant_table(5, 2), [3, 1])
    assert sums.tolist() == [[0, 5, 0, 0, 0], [0, 0, 5, 0, 0]]  # all mass at 2*3 mod 5, then at 2
    assert character_sums((0, 1, 2, 2), range(1, 4)).tolist() == [[1, 1, 2, 0], [3, 0, 1, 0], [1, 0, 2, 1]]


def worst_float_deviation(C):
    report = ck.verify_ccc(C, mode="float", max_violations=10**6)
    return report.is_ccc, max((v.magnitude() for v in report.violations), default=0.0)


def test_gram_float_and_exact_agree(rng):
    good = ck.build_code_set(rand_theorem2_spec(rng, 2, 3, 2, 2))
    ok, worst = worst_float_deviation(good)
    assert ok and worst < 1e-9 * 216
    bad_spec = ck.corrupt_spec(
        rand_theorem1_spec(rng, 4, 2, identity_pi=True), 0, 0, "f", constant_table(4)
    )
    bad = ck.build_code_set(bad_spec)
    ok, worst = worst_float_deviation(bad)
    assert not ok and worst > 1.0
    assert not ck.verify_ccc(bad).is_ccc


def test_gram_polynomial_identity_matches_shiftwise():
    # C(z) C^dagger(1/z) entries, expanded by convolution, match the verifier's
    # shiftwise counts on every pair of a verified set
    C = ck.build_code_set(ck.theorem1_spec(
        3, 2, [identity_table(3)], [identity_table(3)], [constant_table(3)] * 2, (0, 1)
    ))
    assert ck.verify_ccc(C).is_ccc
    for k1 in range(C.K):
        for k2 in range(C.K):
            conv = counts_via_convolution(C.code(k1), C.code(k2))
            prof = ck.correlation_profile(C.code(k1), C.code(k2))
            assert np.array_equal(conv, prof.counts)
            flags = zero_count_rows(prof.counts, C.q)
            center = C.L - 1
            if k1 == k2:
                assert not flags[center]
                assert np.delete(flags, center).all()
            else:
                assert flags.all()


def test_verify_sampled_consistent(rng):
    C = ck.build_code_set(rand_theorem2_spec(rng, 2, 3, 2, 2))
    report = ck.verify_ccc(C)
    assert report.is_ccc
    assert report.shifts_tested >= 150 + C.K


def test_verify_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ck.verify_ccc(ck.trivial_code_set(), mode="fuzzy")


def test_verify_report_summary_strings(rng):
    C = ck.build_code_set(rand_theorem1_spec(rng, 2, 2))
    assert "CCC" in ck.verify_ccc(C).summary()


def test_a_set_with_fewer_codes_than_sequences_is_no_ccc():
    """One Golay pair held as one code (K = 1, M = 2) has no violating cell, but a CCC is K x K."""
    golay = ck.CodeSet(2, np.array([[[0, 0], [0, 1]]]))
    report = ck.verify_ccc(golay)
    assert (report.is_ccc, report.total_violations, report.K, report.M) == (False, 0, 1, 2)
    assert "NOT a CCC (K = 1 != M = 2)" in report.summary()
    assert not ck.verify_ccc(golay, mode="float").is_ccc
    with pytest.raises(ValueError, match="^first factor is not a complete complementary code$"):
        ck.kronecker_compose(golay, ck.trivial_code_set())
    bad = ck.CodeSet(2, np.zeros((1, 2, 2), dtype=np.int64))
    assert "NOT a CCC (1 violating cells; K = 1 != M = 2)" in ck.verify_ccc(bad).summary()


@pytest.mark.parametrize(("make", "error", "message"), [
    (lambda: ck.lemma1_equiv_check(7), ValueError, "q=7 too large for exhaustive check; pass sample="),
], ids=["lemma1_without_sample"])
def test_verify_refusals(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
