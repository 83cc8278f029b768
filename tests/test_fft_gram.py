"""The fft-gram verify kernel against the shiftwise reference loop.

Every comparison uses a large ``max_violations`` so the full ordered list of
violating cells, with their exact counts, must agree.
"""

import resource
import tracemalloc

import numpy as np
import pytest

import ccckit as ck
from ccckit import exact_corr, verify
from ccckit.cli import main, spec_from_config
from ccckit.waveform import root_table


def blocks(*pairs):
    return [{"p": p, "m": m} for p, m in pairs]


def shiftwise(C, max_violations=10**6):
    cells, shifts = verify._shiftwise_cells(C)  # in (a, b, tau) order, as the kernel sorts its keys
    return verify._report(C, "exact", cells[:max_violations], len(cells), shifts, "shiftwise", 0.0)


def cells_of(report):
    return [(v.k1, v.k2, v.tau, v.element.counts) for v in report.violations]


def assert_same_as_shiftwise(C):
    got = ck.verify_ccc(C, max_violations=10**6)
    ref = shiftwise(C)
    assert got.kernel == "fft-gram"
    assert (got.is_ccc, got.total_violations, got.shifts_tested) == (
        ref.is_ccc,
        ref.total_violations,
        ref.shifts_tested,
    )
    assert cells_of(got) == cells_of(ref)
    return got


def with_holes(C, seed, frac=0.1):
    rng = np.random.default_rng(seed)
    mask = rng.random(C.exps.shape) >= frac
    return ck.CodeSet(C.q, C.exps, mask)


def with_flips(C, seed, count=3):
    rng = np.random.default_rng(seed)
    exps = C.exps.copy()
    for _ in range(count):
        k, m, t = (int(rng.integers(n)) for n in exps.shape)
        exps[k, m, t] = (exps[k, m, t] + 1 + rng.integers(C.q - 1)) % C.q
    return ck.CodeSet(C.q, exps)


FAMILY_CONFIGS = [
    {"kind": "theorem1", "q": 2, "m": 3},
    {"kind": "theorem1", "q": 3, "m": 2},
    {"kind": "theorem1", "q": 4, "m": 2},
    {"kind": "theorem1", "q": 5, "m": 2},
    {"kind": "theorem1", "q": 6, "m": 2},
    {"kind": "corollary1", "q": 2, "m": 4, "n": 1},
    {"kind": "corollary1", "q": 3, "m": 3, "n": 1},
    {"kind": "theorem2", "blocks": blocks((2, 2), (3, 2))},
    {"kind": "theorem2", "blocks": blocks((2, 2), (5, 2))},
    {"kind": "corollary3", "blocks": blocks((2, 2), (3, 2)), "n": [1, 0]},
    {"kind": "corollary3", "blocks": blocks((3, 2), (5, 1)), "n": [0, 0]},
]


def config_id(cfg):
    if "q" in cfg:
        return f"{cfg['kind']}-q{cfg['q']}-m{cfg['m']}"
    return cfg["kind"] + "-" + "x".join(f"{b['p']}^{b['m']}" for b in cfg["blocks"])


@pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=config_id)
@pytest.mark.parametrize("seed", [1, 2])
def test_families_match_shiftwise(cfg, seed):
    C = ck.build_code_set(spec_from_config(dict(cfg, seed=seed)))
    assert assert_same_as_shiftwise(C).is_ccc
    assert not assert_same_as_shiftwise(with_flips(C, seed)).is_ccc


def test_q30_family_matches_shiftwise():
    cfg = {"kind": "corollary3", "blocks": blocks((2, 2), (3, 1), (5, 1)), "n": [0, 0, 0], "seed": 4}
    C = ck.build_code_set(spec_from_config(cfg))
    assert C.q == 30
    assert assert_same_as_shiftwise(C).is_ccc


def test_kronecker_products_match_shiftwise():
    def build(q, seed):
        return ck.build_code_set(spec_from_config({"kind": "theorem1", "q": q, "m": 2, "seed": seed}))

    for a, b, q in [(build(2, 5), build(5, 6), 10), (build(4, 7), build(3, 8), 12)]:
        ab = ck.kronecker_compose(a, b)
        assert ab.q == q
        assert assert_same_as_shiftwise(ab).is_ccc
        assert not assert_same_as_shiftwise(with_flips(ab, q)).is_ccc


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 10, 11, 12, 15, 30, 105, 323])
def test_random_sets_match_shiftwise(q):
    rng = np.random.default_rng(q)
    for shape in [(3, 2, 7), (1, 3, 5), (4, 2, 1), (1, 1, 1), (2, 1, 16)]:
        C = ck.CodeSet(q, rng.integers(0, q, size=shape))
        assert_same_as_shiftwise(C)
        assert_same_as_shiftwise(with_holes(C, q, frac=0.3))


@pytest.mark.parametrize(
    "cfg",
    [
        {"kind": "theorem1", "q": 6, "m": 2},
        {"kind": "corollary3", "blocks": blocks((2, 2), (3, 2)), "n": [1, 0]},
    ],
)
def test_masked_sets_match_shiftwise(cfg):
    C = ck.build_code_set(spec_from_config(dict(cfg, seed=3)))
    assert not assert_same_as_shiftwise(with_holes(C, 3, frac=0.02)).is_ccc


CORRUPTED_CONFIGS = [
    {"kind": "theorem1", "q": 6, "m": 2, "seed": 1,
     "corrupt": {"block": 0, "chain": 0, "which": "f", "table": [0, 0, 1, 1, 2, 2]}},
    {"kind": "corollary1", "q": 3, "m": 4, "n": 1, "seed": 2,
     "corrupt": {"block": 0, "chain": 0, "which": "fp", "constant": 1}},
    {"kind": "corollary3", "blocks": blocks((2, 2), (3, 2)), "n": [1, 0], "seed": 3,
     "corrupt": {"block": 1, "chain": 0, "which": "f", "table": [0, 0, 0, 1, 1, 1]}},
]


def test_corrupted_specs_with_hundreds_of_violations():
    most = 0
    for cfg in CORRUPTED_CONFIGS:
        C = ck.build_code_set(spec_from_config(cfg))
        most = max(most, assert_same_as_shiftwise(C).total_violations)
    assert most >= 100


def test_k1_and_l1_sets():
    assert_same_as_shiftwise(ck.CodeSet(2, np.zeros((1, 1, 1), dtype=np.int64)))  # the (1,1) CCC
    assert_same_as_shiftwise(ck.CodeSet(6, np.array([[[0, 1, 4, 2, 5]]])))
    assert_same_as_shiftwise(ck.CodeSet(6, np.array([[[0], [3]], [[2], [5]]])))


def test_trivial_set_runs_the_kernel():
    """q = 1: Z[zeta_1] = Z, so the kernel's trivial character j = 0 decides exactly."""
    report = assert_same_as_shiftwise(ck.trivial_code_set())
    assert report.is_ccc and 0.0 < report.rounding_bound < 0.5


def test_small_tiles_cover_every_cell(monkeypatch):
    """A tiny budget forces edge tiles, off-diagonal tiles and chunked Gram sums."""
    monkeypatch.setattr(exact_corr, "TILE_BYTES", 1)
    assert exact_corr.plan_tiles(7, 5, 12)[:2] == (1, 1)
    monkeypatch.setattr(exact_corr, "TILE_BYTES", 35_000)  # k = 4, mc = 3
    k, mc, _ = exact_corr.plan_tiles(7, 5, 12)
    assert 1 < k < 7 and 7 % k and 1 < mc < 5
    rng = np.random.default_rng(11)
    for q in (6, 30):
        C = ck.CodeSet(q, rng.integers(0, q, size=(7, 5, 12)))
        assert_same_as_shiftwise(C)
        assert_same_as_shiftwise(with_holes(C, q))
    C = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 6, "m": 2, "seed": 2}))
    assert assert_same_as_shiftwise(C).is_ccc
    assert not assert_same_as_shiftwise(with_flips(C, 2)).is_ccc


NORM_TEST_MODULI = list(range(1, 31)) + [60, 105, 210, 323]


def character_values(counts, q):
    """(rows, h) values of integer count rows at the characters character_units(q)."""
    return counts @ np.stack([character_roots(q, j) for j in exact_corr.character_units(q)], axis=1)


def character_roots(q, j):
    """(q,) the root of exponent e at the character j: root_table(q)[j e mod q]."""
    return root_table(q)[(j * np.arange(q)) % q]


@pytest.mark.parametrize("q", NORM_TEST_MODULI)
def test_norm_threshold_decides_zero(q):
    """A count row is zero in Z[zeta_q] iff max over character_units |value| < 1/2; else that max is >= 1."""
    rng = np.random.default_rng(q)
    phi = np.array(exact_corr.cyclotomic(q))
    multiples = np.zeros((20, q), dtype=np.int64)
    for row in multiples:  # (random polynomial * Phi_q) folded mod x^q - 1: zero at every primitive root
        prod = np.convolve(rng.integers(-3, 4, size=q), phi)
        np.add.at(row, np.arange(prod.size) % q, prod)
    sparse = np.zeros((20, q), dtype=np.int64)
    for row in sparse:  # three roots of unity: zero, or a nonzero of small norm
        np.add.at(row, rng.integers(0, q, size=3), 1)
    counts = np.concatenate([multiples, multiples + sparse, rng.integers(-50, 50, size=(20, q))])
    zero = exact_corr.zero_count_rows(counts, q)
    assert zero[:20].all()
    largest = np.abs(character_values(counts, q)).max(axis=1)
    assert np.array_equal(zero, largest < 0.5)
    assert (largest[~zero] >= 1 - 1e-9).all()


def test_first_character_alone_cannot_decide():
    """1 + zeta^4 + zeta^7 over Z_11 is nonzero, yet |Theta_1| is about 0.31."""
    counts = np.zeros((1, 11), dtype=np.int64)
    counts[0, [0, 4, 7]] = 1
    assert not exact_corr.zero_count_rows(counts, 11)[0]
    values = np.abs(character_values(counts, 11))[0]
    assert exact_corr.character_units(11) == (1, 2, 3, 4, 5)
    assert abs(values[0] - 0.31) < 0.01 and values.max() >= 1


def test_bound_below_half_on_benchmark_sets():
    sizes = [(6, 1296, 6), (8, 1024, 2), (30, 180, 30), (12, 72, 6), (6, 72, 6), (9, 243, 3),
             (81, 2187, 3), (72, 432, 6), (60, 1800, 30), (36, 432, 6), (216, 2592, 6),
             (128, 16384, 2), (5, 25, 5)]
    for M, L, q in sizes:
        assert exact_corr.fft_gram_bound(M, L) < 0.5, (M, L, q)


def test_bound_fails_for_huge_sets():
    assert exact_corr.fft_gram_bound(2**20, 2**30) >= 0.5
    assert exact_corr.fft_gram_bound(2**30, 2**30) >= 0.5


def test_failed_bound_falls_back_to_shiftwise(monkeypatch):
    C = with_flips(ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 6, "m": 2, "seed": 1})), 1)
    fast = ck.verify_ccc(C, max_violations=10**6)
    monkeypatch.setattr(verify, "fft_gram_bound", lambda M, L: 0.5)
    slow = ck.verify_ccc(C, max_violations=10**6)
    assert (fast.kernel, slow.kernel) == ("fft-gram", "shiftwise")
    assert slow.rounding_bound == 0.0
    assert (slow.is_ccc, slow.total_violations, cells_of(slow)) == (
        fast.is_ccc,
        fast.total_violations,
        cells_of(fast),
    )


def test_kernel_disagreeing_with_recount_raises(monkeypatch):
    C = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 6, "m": 2, "seed": 1}))
    monkeypatch.setattr(verify, "fft_gram_cells", lambda *a: (1, np.array([5], dtype=np.int64)))
    with pytest.raises(ArithmeticError):
        ck.verify_ccc(C)


def test_tile_plan_stays_within_budget():
    for K, M, L in [(216, 216, 2592), (60, 60, 1800), (30, 30, 180), (6, 6, 1296)]:
        k, mc, nbytes = exact_corr.plan_tiles(K, M, L)
        assert 1 <= k <= K and 1 <= mc <= M
        assert nbytes <= exact_corr.TILE_BYTES


def test_plans_keep_gram_roundings_within_the_bound():
    """fft_gram_bound's Gram term allows M + 2 roundings a product: a matmul over mc sequences may take 2 mc
    in some BLAS order and the sum over the chunks c - 1 more, so every plan keeps 2 mc + c - 1 <= M + 2."""
    for K, M, L in [(2, 2, 3), (6, 6, 72), (7, 5, 12), (30, 30, 180), (17, 17, 289), (3, 1, 5), (2, 3, 40),
                    (60, 60, 1800), (216, 216, 2592)]:
        k, mc, _ = exact_corr.plan_tiles(K, M, L)
        assert 2 * mc + -(-M // mc) - 1 <= M + 2, (K, M, L, k, mc)


def certify_q30_set():
    """The 30x30x180 corollary3 set over Z_30 of the benchmark's certify workload."""
    cfg = {"kind": "corollary3", "blocks": blocks((2, 2), (3, 2), (5, 1)), "n": [0, 0, 0], "seed": 1}
    return ck.build_code_set(spec_from_config(cfg))


def test_kernel_memory_is_its_plan():
    """The traced peak of one kernel call is the plan's working set: plan_tiles counts every buffer."""
    C = certify_q30_set()
    assert (C.K, C.M, C.L, C.q) == (30, 30, 180, 30)
    plan = exact_corr.plan_tiles(C.K, C.M, C.L)[2]
    exact_corr.fft_gram_cells(C.exps, C.mask, C.q, 16)  # warm the caches of cyclotomic data
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert exact_corr.fft_gram_cells(C.exps, C.mask, C.q, 16)[0] == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert plan <= peak <= plan + (64 << 10)


# forced plans (k, mc, one character a pass?): one code and one sequence per tile; edge tiles with a partial
# last chunk; one tile, whole and chunked.  (7, 5) sets: 7 % 3 and 5 % 2 leave edges; (4, 3, 7) sets keep
# q = 323 quick.  A plan's bytes set how many characters share a pass: all that fit, or one.
FORCED_PLANS = {"unit": lambda K, M: (1, 1, False), "unit-one-character": lambda K, M: (1, 1, True),
                "edges": lambda K, M: (3, 2, False), "edges-one-character": lambda K, M: (3, 2, True),
                "one-tile": lambda K, M: (K, M, False), "one-tile-chunked": lambda K, M: (K, 2, True)}


def force_plan(monkeypatch, plan):
    def plan_tiles(K, M, L):
        k, mc, one = FORCED_PLANS[plan](K, M)
        nbytes = exact_corr.tile_bytes(exact_corr.fft_length(L), L, k, mc)
        return k, mc, exact_corr.TILE_BYTES if one else nbytes

    monkeypatch.setattr(exact_corr, "plan_tiles", plan_tiles)


@pytest.mark.parametrize("plan", sorted(FORCED_PLANS))
@pytest.mark.parametrize("q", [1, 2, 6, 30, 323])
def test_forced_plans_match_oracles(monkeypatch, q, plan):
    """Every plan shape gives the shiftwise oracle's cells (exact mode) and the float oracle's (float mode)."""
    force_plan(monkeypatch, plan)
    rng = np.random.default_rng(q)
    C = ck.CodeSet(q, rng.integers(0, q, size=(4, 3, 7) if q == 323 else (7, 5, 12)))
    sets = [C, with_holes(C, q, frac=0.3)]
    if q in (2, 6):  # CCCs, whose cells are all zero but the peaks, and their corruptions
        ccc = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": q, "m": 2 if q == 6 else 3, "seed": q}))
        sets += [ccc, with_flips(ccc, q), with_holes(ccc, q, frac=0.02)]
    for S in sets:
        assert_same_as_shiftwise(S)
        assert_float_matches_oracle(S)
    if q in (2, 6):
        assert assert_same_as_shiftwise(sets[2]).is_ccc and not assert_same_as_shiftwise(sets[3]).is_ccc


def kernel_values(C, js):
    """(J, K, K, N) Theta_hat_j of every pair a <= b at every bin and character j of js, from _theta on tiles."""
    K, M, L = C.exps.shape
    N, J = exact_corr.fft_length(L), js.size
    k, mc, _ = exact_corr.plan_tiles(K, M, L)
    bufs = (np.empty(N * J * k * mc, complex), np.empty(N * J * k * mc, complex), np.empty(N * J * k * k, complex),
            np.empty(N * J * k * k, complex), np.empty(L * J * k * mc, np.int64))
    roots = root_table(C.q)
    out = np.zeros((J, K, K, N), complex)
    for a0 in range(0, K, k):
        ka = min(k, K - a0)
        ua, ub = np.triu_indices(ka)
        for b0 in range(a0, K, k):
            kb = min(k, K - b0)
            if a0 == b0:
                theta = exact_corr._theta(bufs, C.exps, C.mask, roots, js, a0, ka, b0, kb, mc, ua * ka + ub)
                out[:, a0 + ua, a0 + ub] = theta.transpose(1, 2, 0)
            else:
                theta = exact_corr._theta(bufs, C.exps, C.mask, roots, js, a0, ka, b0, kb, mc)
                out[:, a0 : a0 + ka, b0 : b0 + kb] = theta.reshape(N, J, ka, kb).transpose(1, 2, 3, 0)
    return out


def largest_kernel_error(C):
    """max |Theta_hat_j - Theta_j| over the pairs a <= b, every bin and every character j.

    Bin -tau mod N holds Theta(a, b)(tau), bin tau holds conj Theta(b, a)(tau), 0 < tau < L,
    and every other bin holds 0; Theta_j comes from the integer counts.
    """
    K, M, L = C.exps.shape
    N = exact_corr.fft_length(L)
    counts = np.stack([exact_corr.pair_counts(*C.row(a), C.exps, C.mask, C.q) for a in range(K)])  # (K, K, L, q)
    a, b = np.triu_indices(K)
    taus = np.arange(1, L)
    js = np.array(exact_corr.character_units(C.q))
    got = kernel_values(C, js)
    largest = 0.0
    for i, j in enumerate(js):
        theta = counts @ character_roots(C.q, j)  # (K, K, L)
        want = np.zeros((K, K, N), complex)
        want[:, :, (-np.arange(L)) % N] = theta
        want[:, :, taus] = np.conj(theta[:, :, taus]).transpose(1, 0, 2)
        largest = max(largest, np.abs(got[i] - want)[a, b].max())
    return largest


def test_kernel_error_far_below_the_bound(monkeypatch):
    """The matmul Gram sums in BLAS order; the measured error stays two orders of magnitude under fft_gram_bound.

    Tiles of 5 codes and chunks of 5 sequences leave edge tiles and partial chunks on the 12x12 sets;
    the corrupted set has nonzero cells.
    """
    monkeypatch.setattr(exact_corr, "plan_tiles", lambda K, M, L: (5, 5, 0))  # kernel_values sizes its own buffers
    rng = np.random.default_rng(5)
    tiled = ck.build_code_set(spec_from_config(
        {"kind": "corollary3", "blocks": blocks((2, 3), (3, 2)), "n": [1, 0], "seed": 2}))
    corrupted = ck.build_code_set(spec_from_config(CORRUPTED_CONFIGS[2]))
    random323 = with_holes(ck.CodeSet(323, rng.integers(0, 323, size=(5, 4, 33))), 5)
    for C in (tiled, corrupted, random323):
        err, bound = largest_kernel_error(C), exact_corr.fft_gram_bound(C.M, C.L)
        assert 0 < err < bound / 100, (C.exps.shape, C.q, err, bound)


@pytest.mark.parametrize("q", [30030, 65536, 65537, 70000])
def test_verify_at_any_alphabet_size(tmp_path, capsys, q):
    """Verify memory does not grow with phi(q) q.

    Neither a reduction matrix nor a root table per character is built: a
    (q, phi(q)) matrix took 16 GiB at q = 65536 and 32 GiB at q = 65537, and
    the (30030, 5760) one 1.38 GB, so any of them would lift the peak
    resident size far past the margin.
    """
    C = ck.CodeSet(q, np.zeros((2, 2, 3), dtype=np.int64))  # Theta = M (L - tau) for every pair
    off_peak = [(a, b, tau) for a in range(2) for b in range(2) for tau in range(3) if (a, tau) != (b, 0)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    for mode in ("exact", "float"):
        report = ck.verify_ccc(C, mode=mode)
        assert (report.is_ccc, report.total_violations, report.kernel) == (False, 10, "fft-gram")
        assert [(v.k1, v.k2, v.tau) for v in report.violations] == off_peak
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 256 << 10
    path = tmp_path / "zero.json"
    path.write_text(C.dumps())
    assert main(["verify", str(path), "--max-violations", "1"]) == 1
    assert "NOT a CCC (10 violating cells)" in capsys.readouterr().out


def test_max_violations_caps_the_sorted_list():
    C = with_flips(ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 6, "m": 2, "seed": 1})), 1)
    full = ck.verify_ccc(C, max_violations=10**6)
    for cap in (0, 1, 5):
        capped = ck.verify_ccc(C, max_violations=cap)
        assert cells_of(capped) == cells_of(full)[:cap]
        assert capped.total_violations == full.total_violations
    with pytest.raises(ValueError):
        ck.verify_ccc(C, max_violations=-1)


def test_empty_set_is_refused():
    with pytest.raises(ValueError):
        ck.verify_ccc(ck.CodeSet(2, np.zeros((0, 0, 0), dtype=np.int64)))
    with pytest.raises(ValueError):
        ck.verify_ccc(ck.CodeSet(2, np.zeros((2, 2, 0), dtype=np.int64)))


# ---------------------------------------------------------------------------
# float mode against the float test it replaced


def float_oracle_cells(C):
    """Integer shiftwise counts -> value at zeta_q -> |Theta| >= FLOAT_ZERO_FACTOR * M * L."""
    peak = C.M * C.L
    cells = []
    for a in range(C.K):
        for b in range(C.K):
            counts = exact_corr.pair_counts(*C.row(a), *C.row(b), C.q)
            target = counts.copy()
            if a == b:
                target[0, 0] -= peak
            ok = np.abs(target.astype(float) @ root_table(C.q)) < verify.FLOAT_ZERO_FACTOR * peak
            cells += [(a, b, int(tau), tuple(int(c) for c in counts[tau])) for tau in np.flatnonzero(~ok)]
    return cells


def assert_float_matches_oracle(C):
    got = ck.verify_ccc(C, mode="float", max_violations=10**6)
    cells = float_oracle_cells(C)
    assert (got.mode, got.kernel, got.rounding_bound) == ("float", "fft-gram", 0.0)
    assert (got.is_ccc, got.total_violations, got.shifts_tested) == (not cells, len(cells), C.K * C.K * C.L)
    assert cells_of(got) == cells
    return got


@pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=config_id)
def test_float_mode_matches_oracle_on_families(cfg):
    C = ck.build_code_set(spec_from_config(dict(cfg, seed=1)))
    assert assert_float_matches_oracle(C).is_ccc
    assert not assert_float_matches_oracle(with_flips(C, 1)).is_ccc


def test_float_mode_matches_oracle_on_products_masks_and_corruptions():
    def build(q, seed):
        return ck.build_code_set(spec_from_config({"kind": "theorem1", "q": q, "m": 2, "seed": seed}))

    for a, b in [(build(2, 5), build(5, 6)), (build(4, 7), build(3, 8))]:
        ab = ck.kronecker_compose(a, b)
        assert assert_float_matches_oracle(ab).is_ccc
        assert not assert_float_matches_oracle(with_flips(ab, ab.q)).is_ccc
    for cfg in [{"kind": "theorem1", "q": 6, "m": 2}, {"kind": "corollary3", "blocks": blocks((2, 2), (3, 2)), "n": [1, 0]}]:
        C = ck.build_code_set(spec_from_config(dict(cfg, seed=3)))
        assert not assert_float_matches_oracle(with_holes(C, 3, frac=0.02)).is_ccc
    most = 0
    for cfg in CORRUPTED_CONFIGS:
        most = max(most, assert_float_matches_oracle(ck.build_code_set(spec_from_config(cfg))).total_violations)
    assert most >= 100


def test_float_mode_matches_oracle_at_q1():
    assert assert_float_matches_oracle(ck.trivial_code_set()).is_ccc
    C = ck.CodeSet(1, np.zeros((3, 2, 5), dtype=np.int64))
    assert not assert_float_matches_oracle(C).is_ccc
    assert not assert_float_matches_oracle(with_holes(C, 1, frac=0.3)).is_ccc


@pytest.mark.parametrize("budget", [1, 40_000])
def test_float_mode_matches_oracle_on_small_tiles(monkeypatch, budget):
    monkeypatch.setattr(exact_corr, "TILE_BYTES", budget)
    rng = np.random.default_rng(budget)
    for q in (6, 30):
        C = ck.CodeSet(q, rng.integers(0, q, size=(7, 5, 12)))
        assert_float_matches_oracle(C)
        assert_float_matches_oracle(with_holes(C, q))
    C = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 6, "m": 2, "seed": 2}))
    assert assert_float_matches_oracle(C).is_ccc
    assert not assert_float_matches_oracle(with_flips(C, 2)).is_ccc
