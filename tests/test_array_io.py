"""The array build, compact storage and JSON I/O against per-entry oracles.

The oracles are the loop implementations the array code replaced: a builder
that assembles each (code t, sequence d) row on its own, a writer and a
reader that visit every entry.  They work in int64 throughout, so they also
check that nothing wraps in the compact unsigned storage.
"""

import json
import random
import tracemalloc
from math import gcd, prod

import numpy as np
import pytest

import ccckit as ck
from ccckit import construct, exact_corr
from ccckit.cli import load_code_set, main, spec_from_config
from ccckit.construct import UNIFORM, CodeSet, ConfigError, exps_dtype, set_size
from ccckit.qary import build_from_spec

from conftest import oracle_digit_matrix, oracle_restriction_values, rand_perm_table, rand_table, run_python
from test_fuzz import MUTATION_BYTES

# ---------------------------------------------------------------------------
# oracles


def _uniform_digits(value, q, width):
    """Base-q digits, most significant first."""
    return tuple((value // q ** (width - 1 - i)) % q for i in range(width))


def _mixed_digits(value, func):
    """Per-block digit tuples, block 1 fastest, least significant digit first."""
    out = []
    for (p, _), ni in zip(func.domain.blocks, func.n):
        width = ni + 1
        local = value % p**width
        value //= p**width
        out.append(tuple((local // p**v) % p for v in range(width)))
    return tuple(out)


def oracle_build(cs):
    """(K, K, L) int64 exponents, one (t, d) row at a time."""
    d = cs.domain
    q = d.q
    base = build_from_spec(cs).table.astype(np.int64)
    digits = oracle_digit_matrix(d)
    K = set_size(cs)
    classes = []
    for cidx, c in enumerate(oracle_restriction_values(d, cs.flat_J)):
        mask = np.ones(d.L, dtype=bool)
        for j, cj in zip(cs.flat_J, c):
            mask &= digits[:, j] == cj
        classes.append((np.flatnonzero(mask), [cs.pis[i][cidx] for i in range(d.k)]))

    def seed(value):
        if cs.kind == UNIFORM:
            return (_uniform_digits(value, q, cs.n[0] + 1),)
        return _mixed_digits(value, cs)

    exps = np.zeros((K, K, d.L), dtype=np.int64)
    for t in range(K):
        tdig = seed(t)
        for dd in range(K):
            ddig = seed(dd)
            row = base.copy()
            for i in range(d.k):
                w = cs.chain_weight(i)
                for v, j in enumerate(cs.J[i]):
                    row = row + w * (ddig[i][v] + tdig[i][v]) * digits[:, j]
                for idx, pis in classes:
                    first, last = pis[i][0], pis[i][-1]
                    row[idx] = (
                        row[idx]
                        + w * ddig[i][-1] * digits[idx, first]
                        + w * tdig[i][-1] * digits[idx, last]
                    )
            exps[t, dd] = row % q
    return exps


def oracle_kron(C, D):
    Q = C.q * D.q // gcd(C.q, D.q)
    a = C.exps.astype(np.int64) * (Q // C.q)
    b = D.exps.astype(np.int64) * (Q // D.q)
    exps = (a[:, None, :, None, :, None] + b[None, :, None, :, None, :]) % Q
    return exps.reshape(C.K * D.K, C.M * D.M, C.L * D.L)


def oracle_to_json(C):
    codes = []
    for k in range(C.K):
        row = []
        for m in range(C.M):
            row.append(
                [
                    int(e) if C.mask is None or C.mask[k, m, i] else None
                    for i, e in enumerate(C.exps[k, m])
                ]
            )
        codes.append(row)
    return {"q": C.q, "L": C.L, "K": C.K, "M": C.M, "meta": C.meta, "codes": codes}


def oracle_dumps(C):
    return json.dumps(oracle_to_json(C), sort_keys=True, separators=(",", ":")) + "\n"


def oracle_load(data):
    """(q, int64 exps, bool mask) read one entry at a time."""
    codes = data["codes"]
    K, M, L = len(codes), len(codes[0]), len(codes[0][0])
    exps = np.zeros((K, M, L), dtype=np.int64)
    mask = np.ones((K, M, L), dtype=bool)
    for k, row in enumerate(codes):
        for m, seq in enumerate(row):
            for i, e in enumerate(seq):
                if e is None:
                    mask[k, m, i] = False
                else:
                    exps[k, m, i] = int(e)
    return data["q"], exps, mask


# ---------------------------------------------------------------------------
# randomized specs


def blocks(*pairs):
    return [{"p": p, "m": m} for p, m in pairs]


def per_class_uniform_spec(rng, q, m, n):
    """corollary1 with an ordering per restriction class: the chain slots move with the class."""
    J = tuple(range(m - n, m))
    free = list(range(m - n))
    pi = {c: tuple(rng.sample(free, len(free))) for c in range(q**n)}
    h = [rand_perm_table(rng, q, q) for _ in range(m - n - 1)]
    hp = [rand_perm_table(rng, q, q) for _ in range(m - n - 1)]
    g = [rand_table(rng, q) for _ in range(m - n)]
    return ck.corollary1_spec(q, m, n, J, pi, h, hp, g)


def per_class_mixed_spec(rng, pairs, n):
    """corollary3 with orderings, offsets and couplings drawn per restriction class."""
    d = ck.DomainSpec(pairs)
    q = d.q
    J = [d.block_positions(i)[len(d.block_positions(i)) - ni :] for i, ni in enumerate(n)]
    classes = prod(p**ni for (p, _), ni in zip(pairs, n))
    pis, chains, gs = [], [], []
    for i, (p, mi) in enumerate(pairs):
        free = [j for j in d.block_positions(i) if j not in J[i]]
        pis.append({c: tuple(rng.sample(free, len(free))) for c in range(classes)})
        chains.append(
            tuple((rand_perm_table(rng, q, p), rand_perm_table(rng, q, p)) for _ in range(mi - n[i] - 1))
        )
        gs.append(tuple(rand_table(rng, q) for _ in range(mi - n[i])))
    couplings = [(rng.randrange(q), rand_table(rng, q), rand_table(rng, q)) for _ in range(d.k - 1)]
    offsets = {c: rng.randrange(q) for c in range(classes)}
    return ck.corollary3_spec(d, J, pis, chains, gs, couplings, offsets)


FAMILY_CONFIGS = [
    {"kind": "theorem1", "q": 2, "m": 3},
    {"kind": "theorem1", "q": 5, "m": 2},
    {"kind": "theorem1", "q": 6, "m": 2},
    {"kind": "corollary1", "q": 2, "m": 4, "n": 2},
    {"kind": "corollary1", "q": 3, "m": 3, "n": 1},
    {"kind": "theorem2", "blocks": blocks((2, 2), (3, 2))},
    {"kind": "theorem2", "blocks": blocks((2, 1), (5, 2))},
    # one-variable chains (m_i - n_i = 1): the first and last slots coincide
    {"kind": "corollary3", "blocks": blocks((2, 2), (3, 2)), "n": [1, 0]},
    {"kind": "corollary3", "blocks": blocks((2, 2), (3, 1)), "n": [1, 0]},
    {"kind": "corollary3", "blocks": blocks((2, 1), (3, 2)), "n": [0, 1]},
    # q = 30: two-digit tokens
    {"kind": "corollary3", "blocks": blocks((2, 1), (3, 1), (5, 1)), "n": [0, 0, 0]},
    {"kind": "corollary3", "blocks": blocks((2, 2), (3, 1), (5, 1)), "n": [1, 0, 0]},
]


def family_specs():
    out = []
    for i, cfg in enumerate(FAMILY_CONFIGS):
        for seed in (1, 2):
            out.append(pytest.param(spec_from_config(dict(cfg, seed=seed)), id=f"{cfg['kind']}-{i}-{seed}"))
    rng = random.Random(0xA77A)
    out.append(pytest.param(per_class_uniform_spec(rng, 3, 4, 1), id="per-class-uniform-q3"))
    out.append(pytest.param(per_class_uniform_spec(rng, 2, 5, 2), id="per-class-uniform-q2"))
    out.append(pytest.param(per_class_mixed_spec(rng, ((2, 3), (3, 2)), [1, 1]), id="per-class-mixed-6"))
    out.append(pytest.param(per_class_mixed_spec(rng, ((2, 2), (3, 2)), [1, 1]), id="per-class-mixed-one-var"))
    out.append(pytest.param(per_class_mixed_spec(rng, ((2, 2), (3, 1), (5, 1)), [1, 0, 0]), id="per-class-mixed-30"))
    # corrupted specs: the builder skips the permutation check
    for cfg, corrupt in (
        ({"kind": "theorem1", "q": 3, "m": 3}, {"block": 0, "chain": 1, "which": "fp", "constant": 2}),
        ({"kind": "corollary1", "q": 3, "m": 4, "n": 1}, {"block": 0, "chain": 0, "which": "f", "table": [0, 0, 1]}),
        ({"kind": "corollary3", "blocks": blocks((2, 2), (3, 2)), "n": [1, 0]},
         {"block": 1, "chain": 0, "which": "f", "constant": 3}),
    ):
        out.append(pytest.param(spec_from_config(dict(cfg, seed=7, corrupt=corrupt)), id=f"corrupt-{cfg['kind']}"))
    return out


def with_holes(C, seed, frac=0.2):
    rng = np.random.default_rng(seed)
    return CodeSet(C.q, C.exps, rng.random(C.exps.shape) >= frac, C.meta)


def assert_io_matches_oracles(C):
    text = C.dumps()
    assert text == oracle_dumps(C)
    assert text == json.dumps(C.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    data = json.loads(text)
    assert data == C.to_json() == oracle_to_json(C)
    back = CodeSet.from_json(data)
    assert back.same_codes(C)
    assert back.exps.dtype == exps_dtype(C.q)
    q, exps, mask = oracle_load(data)
    assert q == back.q
    assert np.array_equal(np.where(mask, exps, 0), np.where(mask, back.exps, 0))
    assert np.array_equal(mask, np.ones_like(mask) if back.mask is None else back.mask)


# ---------------------------------------------------------------------------
# build, write, read


@pytest.mark.parametrize("spec", family_specs())
def test_build_matches_per_row_oracle(spec):
    C = ck.build_code_set(spec)
    assert C.exps.dtype == exps_dtype(C.q) == np.uint8
    assert not C.exps.flags.writeable
    assert np.array_equal(C.exps, oracle_build(spec))
    assert C.meta["corrupted"] == spec.corrupted


@pytest.mark.parametrize("spec", family_specs())
def test_io_matches_per_entry_oracles(spec):
    C = ck.build_code_set(spec)
    assert_io_matches_oracles(C)
    assert_io_matches_oracles(with_holes(C, seed=C.K))


def test_io_q30_multi_digit_tokens_and_holes():
    C = ck.build_code_set(spec_from_config({"kind": "corollary3", "blocks": blocks((2, 1), (3, 1), (5, 1)), "seed": 3}))
    assert C.q == 30 and C.exps.max() >= 10
    assert_io_matches_oracles(C)
    holed = with_holes(C, seed=5, frac=0.5)
    assert '"null"' not in holed.dumps() and "null" in holed.dumps()
    assert_io_matches_oracles(holed)


def test_io_edge_shapes_and_alphabets():
    assert_io_matches_oracles(ck.trivial_code_set())
    assert_io_matches_oracles(CodeSet(2, np.array([[[1]]]), np.array([[[False]]])))
    # q > 65536 is stored as int64 and written from the values present
    big = CodeSet(70000, np.array([[[69999, 5, 0], [12, 12, 69998]]]), np.array([[[True, False, True]] * 2]))
    assert big.exps.dtype == np.int64
    assert_io_matches_oracles(big)
    assert_io_matches_oracles(CodeSet(70000, np.array([[[69999, 5, 0]]])))


@pytest.mark.parametrize("q", [256, 65536])
def test_io_holes_at_the_storage_dtype_boundary(q):
    # the null token id is q, one past what the storage dtype holds
    rng = np.random.default_rng(q)
    exps = rng.integers(0, q, size=(2, 3, 7))
    exps[0, 0, :2] = 0, q - 1
    C = CodeSet(q, exps)
    assert C.exps.dtype == exps_dtype(q) != np.int64
    holed = with_holes(C, seed=1, frac=0.4)
    assert holed.dumps().count("null") == int((~holed.mask).sum())
    assert_io_matches_oracles(holed)


def test_kronecker_with_lcm_above_256_stores_uint16():
    A = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 17, "m": 2, "seed": 1}))
    B = CodeSet(19, np.zeros((1, 1, 1), dtype=np.int64))
    P = ck.kronecker_compose(A, B)
    assert (P.q, P.K, P.L) == (17 * 19, 17, 289)
    assert P.exps.dtype == np.uint16
    assert np.array_equal(P.exps, oracle_kron(A, B))
    assert_io_matches_oracles(P)


def test_kronecker_matches_oracle_with_holes():
    A = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 2, "m": 2, "seed": 3}))
    B = ck.build_code_set(spec_from_config({"kind": "corollary3", "blocks": blocks((2, 1), (3, 2)), "seed": 4}))
    P = ck.kronecker_compose(A, B)
    assert P.q == 6 and np.array_equal(P.exps, oracle_kron(A, B))
    Ph = ck.kronecker_compose(with_holes(B, 1), A, skip_verify=True)
    assert np.array_equal(Ph.exps, oracle_kron(B, A))
    assert Ph.mask is not None
    assert_io_matches_oracles(Ph)


def test_exps_dtype_boundaries():
    assert [exps_dtype(q) for q in (1, 256, 257, 65536, 65537)] == [
        np.uint8, np.uint8, np.uint16, np.uint16, np.int64
    ]


@pytest.mark.parametrize("q", [1, 2, 3, 128, 129, 32768, 32769, 70000])
def test_reduce_sums_is_mod_q_on_every_work_dtype(q):
    """Sums of two residues, [0, 2q - 2], reduce to x % q in the build's work dtype, across several slabs."""
    work = exps_dtype(2 * q - 1)
    rng = np.random.default_rng(q)
    x = np.concatenate([np.arange(2 * q - 1), rng.integers(0, 2 * q - 1, size=300_000)]).astype(work)
    want = x.astype(np.int64) % q
    construct._reduce_sums(x, q)
    assert x.dtype == work and np.array_equal(x, want)


def test_shift_counter_widens_unsigned_exponents():
    # 0 - 2 wraps to 254 in uint8, and 254 % 3 = 2; the true difference is 1 mod 3
    e1, e2 = np.array([[0]], dtype=np.uint8), np.array([[2]], dtype=np.uint8)
    assert exact_corr.pair_counts(e1, None, e2, None, 3, (0,)).tolist() == [[0, 1, 0]]


# ---------------------------------------------------------------------------
# same_codes


def test_same_codes_compares_values_not_dtype_or_meta():
    C = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 3, "m": 2, "seed": 1}))
    wide = CodeSet(3, C.exps.astype(np.int64), meta={"other": 1})
    assert wide.exps.dtype == np.uint8
    assert wide.same_codes(C) and C.same_codes(wide)
    flipped = C.exps.astype(np.int64)
    flipped[0, 0, 0] = (flipped[0, 0, 0] + 1) % 3
    assert not CodeSet(3, flipped).same_codes(C)
    assert not CodeSet(4, C.exps).same_codes(C)
    assert not CodeSet(3, C.exps[:, :, :-1]).same_codes(C)
    assert not C.same_codes(C.exps)


def test_same_codes_holes_compare_as_holes():
    C = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 3, "m": 2, "seed": 1}))
    H = with_holes(C, seed=2)
    hidden = C.exps.astype(np.int64)
    hidden[~H.mask] = (hidden[~H.mask] + 1) % 3  # differs only under the holes
    assert CodeSet(3, hidden, H.mask).same_codes(H)
    assert not H.same_codes(C) and not C.same_codes(H)
    assert not with_holes(C, seed=3).same_codes(H)
    zeros = np.zeros((1, 1, 2), dtype=np.int64)  # holes in different places, equal hidden values
    assert not CodeSet(2, zeros, [[[False, True]]]).same_codes(CodeSet(2, zeros, [[[True, False]]]))
    # an all-true mask is no mask
    assert CodeSet(3, C.exps, np.ones(C.exps.shape, bool)).same_codes(C)


# ---------------------------------------------------------------------------
# strict loader: every bad file is a ConfigError, exit 2 from the CLI

BAD_CODE_SETS = {
    "float": {"q": 2, "codes": [[[0, 0.5]]]},
    "integral_float": {"q": 2, "codes": [[[0, 1.0]]]},
    "bool": {"q": 2, "codes": [[[0, True]]]},
    "string": {"q": 2, "codes": [[[0, "1"]]]},
    "nested": {"q": 2, "codes": [[[0, [1]]]]},
    "negative": {"q": 2, "codes": [[[0, -1]]]},
    "at_q": {"q": 2, "codes": [[[0, 2]]]},
    "above_uint8": {"q": 2, "codes": [[[0, 300]]]},
    "huge": {"q": 2, "codes": [[[0, 2**70]]]},
    "negative_with_hole": {"q": 2, "codes": [[[None, -1]]]},
    "at_q_with_hole": {"q": 3, "codes": [[[None, 3]]]},
    "huge_with_hole": {"q": 2, "codes": [[[None, 2**70]]]},
    "negative_int64_storage": {"q": 70000, "codes": [[[0, -1]]]},
    "at_q_int64_storage": {"q": 70000, "codes": [[[0, 70000]]]},
    "inconsistent_K": {"q": 2, "K": 2, "codes": [[[0, 1]]]},
    "inconsistent_L_type": {"q": 2, "L": "2", "codes": [[[0, 1]]]},
    "q_float": {"q": 2.0, "codes": [[[0, 1]]]},
    "q_bool": {"q": True, "codes": [[[0]]]},
    "q_zero": {"q": 0, "codes": [[[0]]]},
    "q_missing": {"codes": [[[0]]]},
    "codes_missing": {"q": 2},
    "codes_not_list": {"q": 2, "codes": {"0": [[0]]}},
    "sequence_not_list": {"q": 2, "codes": [[[0, 1], 5]]},
    "meta_not_object": {"q": 2, "meta": [1], "codes": [[[0, 1]]]},
    "meta_empty_list": {"q": 2, "meta": [], "codes": [[[0, 1]]]},
    "meta_false": {"q": 2, "meta": False, "codes": [[[0, 1]]]},
    "meta_zero": {"q": 2, "meta": 0, "codes": [[[0, 1]]]},
    "meta_empty_string": {"q": 2, "meta": "", "codes": [[[0, 1]]]},
    "top_level_list": [[[0, 1]]],
}


@pytest.mark.parametrize("name", sorted(BAD_CODE_SETS))
def test_from_json_rejects_bad_exponents_and_headers(name):
    with pytest.raises(ConfigError):
        CodeSet.from_json(BAD_CODE_SETS[name])


@pytest.mark.parametrize("name", sorted(BAD_CODE_SETS))
def test_verify_exits_2_on_bad_file(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CODE_SETS[name]))
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_from_json_accepts_holes_and_header_fields():
    C = CodeSet.from_json({"q": 3, "K": 1, "M": 2, "L": 2, "meta": None, "codes": [[[None, 2], [1, None]]]})
    assert C.exps.dtype == np.uint8
    assert C.mask.tolist() == [[[False, True], [True, False]]]
    assert C.to_json()["codes"] == [[[None, 2], [1, None]]]


# ---------------------------------------------------------------------------
# size guard: refused before anything large is allocated

HUGE = {"kind": "theorem1", "q": 3, "m": 200}


def test_build_refuses_sizes_beyond_memory(monkeypatch):
    """Refused before the spec computes its length-L restriction classes and slot digits."""
    specs = [spec_from_config(HUGE)]
    with pytest.raises(ConfigError, match="physical memory"):
        ck.build_code_set(specs[0])
    monkeypatch.setattr(construct, "_physical_memory", lambda: 2**16)
    specs.append(spec_from_config({"kind": "corollary1", "q": 3, "m": 8, "n": 1, "seed": 1}))  # a (9, 6561) set
    with pytest.raises(ConfigError, match="physical memory"):
        ck.build_code_set(specs[1])
    assert [{"restriction_classes", "slot_digits"} & set(vars(spec)) for spec in specs] == [set(), set()]


def test_cli_build_refuses_sizes_beyond_memory(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(HUGE))
    assert main(["build", str(cfg), "--out", str(tmp_path / "out.json")]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# In a child capped at 2 GiB of address space, so a missing guard fails fast instead of exhausting the host.
CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
              "from ccckit.cli import main; sys.exit(main())")


@pytest.mark.parametrize("command", [["verify"], ["verify", "--mode", "float"], ["profile", "0", "0", "--out", "p.csv"]],
                         ids=["exact", "float", "profile"])
def test_huge_alphabets_are_refused_before_allocation(tmp_path, command):
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps({"q": 2**40, "codes": [[[0, 1]]]}))
    proc = run_python("-c", CAPPED_CLI, command[0], path.name, *command[1:], timeout=60, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Z_1099511627776" in proc.stderr and "physical memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_kronecker_refuses_sizes_beyond_memory():
    # two 1 MiB factors whose product would be 1 TiB
    A = CodeSet(2, np.zeros((1, 1, 2**20), dtype=np.uint8))
    with pytest.raises(ConfigError, match="physical memory"):
        ck.kronecker_compose(A, A, skip_verify=True)


def test_size_guard_counts_the_storage_copy(monkeypatch):
    # lcm 130: built in uint16 (sums up to 258), stored in uint8, so 3 B an entry
    assert construct._tensor_bytes(16, 130, exps_dtype(259)) == 48
    assert construct._tensor_bytes(16, 3, exps_dtype(5)) == 16
    A = CodeSet(2, np.zeros((1, 1, 4), dtype=np.uint8))
    B = CodeSet(65, np.zeros((1, 1, 4), dtype=np.uint8))
    monkeypatch.setattr(construct.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 40}[name])
    with pytest.raises(ConfigError, match="physical memory"):
        ck.kronecker_compose(A, B, skip_verify=True)
    monkeypatch.setattr(construct.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 48}[name])
    assert ck.kronecker_compose(A, B, skip_verify=True).q == 130


@pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
def test_size_guard_skipped_when_memory_is_unknown(monkeypatch, error):
    def sysconf(name):
        raise error(name)

    monkeypatch.setattr(construct.os, "sysconf", sysconf)
    construct._check_alloc(2**60, "anything")
    monkeypatch.delattr(construct.os, "sysconf")
    construct._check_alloc(2**60, "anything")
    C = ck.build_code_set(spec_from_config({"kind": "theorem1", "q": 3, "m": 2, "seed": 1}))
    assert C.K == 3


# ---------------------------------------------------------------------------
# canonical reader: the numpy scanner of ``dumps`` text against the strict path


def read_both(tmp_path, data: bytes):
    """What ``load_code_set`` and the strict path (text-mode json.load, from_json) make of a file.

    Each side is a CodeSet or the (type, message) of the exception it raised.
    """
    path = tmp_path / "codes.json"
    path.write_bytes(data)

    def strict():
        with open(path) as fh:
            return CodeSet.from_json(json.load(fh))

    out = []
    for read in (lambda: load_code_set(str(path)), strict):
        try:
            out.append(read())
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
            out.append((type(exc), str(exc)))
    return out


def assert_same_outcome(tmp_path, data: bytes):
    fast, strict = read_both(tmp_path, data)
    if isinstance(strict, CodeSet):
        assert isinstance(fast, CodeSet), fast
        assert fast.same_codes(strict) and (fast.q, fast.meta) == (strict.q, strict.meta)
        assert fast.exps.dtype == strict.exps.dtype == exps_dtype(strict.q)
    else:
        assert fast == strict
    return strict


def small_set(q, holes=False):
    rng = np.random.default_rng(q)
    exps = rng.integers(0, q, size=(2, 3, 5))
    exps.flat[:2] = 0, q - 1
    mask = rng.random(exps.shape) >= 0.3 if holes else None
    return CodeSet(q, exps, mask, {"kind": "test"})


def with_token(text, token):
    """The canonical text of a (1, 1, 2) set over Z_3 whose second entry is ``token``."""
    return text.replace("[[[0,1]]]", f"[[[0,{token}]]]").encode()


BASE = CodeSet(3, np.array([[[0, 1]]]), meta={"kind": "test"}).dumps()


@pytest.mark.parametrize("q", [1, 2, 3, 6, 10, 11, 30, 255, 256, 257, 300, 65536, 70000])
@pytest.mark.parametrize("holes", [False, True])
def test_scanner_reads_canonical_text(tmp_path, q, holes):
    C = small_set(q, holes=holes)
    text = C.dumps().encode()
    scanned = construct._scan_canonical(text)
    assert scanned is not None and scanned.same_codes(C) and scanned.meta == C.meta
    assert scanned.exps.dtype == exps_dtype(q)
    assert isinstance(assert_same_outcome(tmp_path, text), CodeSet)


@pytest.mark.parametrize("q", [256, 65536])
def test_scanner_reads_holes_at_the_storage_dtype_boundary(tmp_path, q):
    # dumps once wrote the null token wrongly at exactly these q
    C = with_holes(CodeSet(q, np.random.default_rng(q).integers(0, q, size=(3, 2, 9))), seed=q, frac=0.4)
    text = C.dumps().encode()
    assert construct._scan_canonical(text).same_codes(C)
    assert assert_same_outcome(tmp_path, text).same_codes(C)


@pytest.mark.parametrize(
    "token",
    ["01", "00", "-0", "-1", "1.0", "1e0", "true", "nul", "nulll", "nule", "nnnn", "1null", "18446744073709551616", "3"],
)
def test_tokens_outside_canonical_json_fall_back(tmp_path, token):
    data = with_token(BASE, token)
    assert construct._scan_canonical(data) is None
    assert_same_outcome(tmp_path, data)


def test_width_limits_of_the_scanner(tmp_path):
    # 18 digits are read by the scanner; 19 fit int64 but go to the strict path, 20 do not fit
    base = BASE.replace('"q":3', f'"q":{10**20}')
    for token, scanned in (("9" * 18, True), ("1" + "0" * 18, False), ("1" + "0" * 19, False)):
        data = with_token(base, token)
        assert (construct._scan_canonical(data) is not None) == scanned
        assert_same_outcome(tmp_path, data)
    assert isinstance(read_both(tmp_path, with_token(base, "1" + "0" * 18))[1], CodeSet)


@pytest.mark.parametrize("field,value", [("K", 2), ("L", 3), ("M", 2), ("L", 1), ("K", 10**17)])
def test_header_disagreeing_with_the_payload(tmp_path, field, value):
    data = BASE.replace(f'"{field}":{1 if field != "L" else 2}', f'"{field}":{value}', 1).encode()
    assert data != BASE.encode()
    assert construct._scan_canonical(data) is None
    assert_same_outcome(tmp_path, data)


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(BASE.encode() + b"x", id="trailing-garbage"),
        pytest.param(BASE.encode() + b"{}", id="trailing-object"),
        pytest.param(BASE.encode()[:-3], id="truncated-tail"),
        pytest.param(BASE.encode()[:20], id="truncated-payload"),
        pytest.param(BASE.encode().replace(b'"test"', b'"t\xffst"'), id="non-utf8-in-meta"),
        pytest.param(BASE.encode().replace(b"[[[0,", b"[[[\xff,"), id="non-utf8-in-codes"),
        pytest.param(b"\xef\xbb\xbf" + BASE.encode(), id="utf8-bom"),
        pytest.param(BASE.replace("[[[0,1]]]", "[]").encode(), id="codes-empty"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[]]").encode(), id="codes-empty-code"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[[]]]").encode(), id="codes-empty-sequence"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[[0,1]],[[0]]]").encode(), id="ragged"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[[0,1],[[1]]]]").encode(), id="nested"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[[0],1]]").encode(), id="separator-moved"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[,0,1]]]").encode(), id="separator-replaced"),
        pytest.param(BASE.replace("[[[0,1]]]", "[0[0,1]]]").encode(), id="separator-replaced-first"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[[0[1]]]").encode(), id="separator-replaced-mid"),
        pytest.param(BASE.replace("[[[0,1]]]", "[[[0,1][]]").encode(), id="separator-inserted"),
        pytest.param(BASE.replace('"q":3}', '"q":3,"codes":[[[2]]]}').encode(), id="codes-again-in-tail"),
        pytest.param(BASE.replace('"q":3}', '"q":3,"q":2}').encode(), id="q-again-in-tail"),
        pytest.param(BASE.replace('"q":3}', '"q":3,"L":2}').encode(), id="header-key-in-tail"),
        pytest.param(BASE.replace('"meta":{"kind":"test"}', '"meta":[]').encode(), id="meta-list"),
        pytest.param(BASE.replace('"meta":{"kind":"test"}', '"meta":{"a":[1],"meta":2}').encode(), id="meta-key-in-meta"),
        pytest.param(BASE.replace('"q":3', '"q":3.0').encode(), id="q-float"),
        pytest.param(BASE.replace("\n", "\r\n").encode(), id="crlf"),
        pytest.param(json.dumps(json.loads(BASE), indent=1).encode(), id="pretty-printed"),
    ],
)
def test_non_canonical_files_give_the_strict_outcome(tmp_path, data):
    assert_same_outcome(tmp_path, data)


def test_header_claims_allocate_nothing(tmp_path, capsys):
    path = tmp_path / "claims.json"
    path.write_text('{"K":1000000,"L":1000000000,"M":1000000,"codes":[[[0,1]]],"meta":{},"q":2}\n')
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="inconsistent L"):
            load_code_set(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: inconsistent L in serialized code set\n"


# The scanner's working set: layouts and temporaries of chunks of whole codes of about _SCAN_BYTES.
# With one-byte tokens it is about 360 KB here, and 448 KiB is less than a second copy of the
# 1 MB file, so a full-length bool temporary fails.  The general path, with holes, needs about 1.7 MB.
CHUNK_ALLOWANCE = {False: 7 * 2**16, True: 2**21}


@pytest.mark.parametrize("holes", [False, True])
def test_reader_memory_is_file_plus_arrays_plus_chunks(tmp_path, holes):
    C = CodeSet(3, np.random.default_rng(27).integers(0, 3, size=(27, 27, 729)))
    C = with_holes(C, seed=27) if holes else C
    path = tmp_path / "codes.json"
    path.write_text(C.dumps())
    tracemalloc.start()
    try:
        back = load_code_set(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.same_codes(C)
    assert path.stat().st_size > 16 * construct._SCAN_BYTES  # many chunks
    arrays = back.exps.nbytes + (0 if back.mask is None else back.mask.nbytes)
    assert peak <= path.stat().st_size + arrays + CHUNK_ALLOWANCE[holes]


# ---------------------------------------------------------------------------
# one-digit payloads, read as two-byte tokens, and the one-buffer writer


def one_byte_text(K, M, L, q=3):
    """The canonical text of a (K, M, L) set whose tokens are all one byte wide, and its chunking."""
    exps = np.random.default_rng(K * M * L).integers(0, min(q, 10), size=(K, M, L))
    data = CodeSet(q, exps, meta={"kind": "test"}).dumps().encode()
    start = construct._HEADER.match(data).end()
    size = 4 + M * (2 * L - 1) + 3 * (M - 1)
    return data, start, size, max(1, construct._SCAN_BYTES // (size + 1))


# (K, M, L): chunks of several codes, and codes larger than _SCAN_BYTES, one a chunk
CUT_SHAPES = {"codes-a-chunk": (200, 4, 100), "code-beyond-the-budget": (3, 4, 9000)}


def test_every_byte_of_a_one_digit_payload(tmp_path):
    """Each payload byte, through the "]" that closes the list, replaced by each mutation byte."""
    rng = np.random.default_rng(5)
    sets = [(3, (2, 3, 5)), (10, (3, 1, 4)), (30, (2, 2, 3))]  # q = 30 with every value one digit
    for q, shape in sets:
        data = CodeSet(q, rng.integers(0, min(q, 10), size=shape), meta={"kind": "test"}).dumps().encode()
        start, stop = construct._HEADER.match(data).end(), data.rfind(b'],"meta":')
        assert construct._scan_canonical(data) is not None
        for i in range(start, stop + 1):
            for byte in sorted(set(MUTATION_BYTES) - {chr(data[i])}):
                assert_same_outcome(tmp_path, data[:i] + byte.encode() + data[i + 1 :])


@pytest.mark.parametrize("shape", CUT_SHAPES.values(), ids=CUT_SHAPES.keys())
@pytest.mark.parametrize("byte", sorted(set(MUTATION_BYTES)))
def test_the_byte_between_two_chunks(tmp_path, shape, byte):
    data, start, size, c = one_byte_text(*shape)
    assert c > 1 if shape == CUT_SHAPES["codes-a-chunk"] else size > construct._SCAN_BYTES
    cut = start + c * (size + 1) - 1
    assert data[cut - 2 : cut + 3] == b"]],[["
    mutated = data[:cut] + byte.encode() + data[cut + 1 :]
    assert (construct._scan_canonical(mutated) is not None) == (byte == ",")
    assert_same_outcome(tmp_path, mutated)


@pytest.mark.parametrize("shape", CUT_SHAPES.values(), ids=CUT_SHAPES.keys())
def test_a_moved_code_boundary_keeps_the_length(tmp_path, shape):
    data, start, size, c = one_byte_text(*shape)
    for code in sorted({1, c}):  # the end of the first code, and of the first chunk
        cut = start + code * (size + 1) - 1
        # ",d]],[[" -> "]],[[d,": the first code's last sequence loses an entry, the next code gains one
        moved = data[: cut - 4] + b"]],[[" + data[cut - 3 : cut - 2] + b"," + data[cut + 3 :]
        assert len(moved) == len(data) and moved != data
        assert construct._scan_canonical(moved) is None
        assert isinstance(assert_same_outcome(tmp_path, moved), tuple)


def test_a_payload_one_byte_longer_or_shorter(tmp_path):
    data, start, size, c = one_byte_text(200, 4, 100, q=30)
    first = start + 2  # the first token: "[[" opens the first code
    cut = start + c * (size + 1) - 1  # the "," between the first two chunks
    longer = data[:first] + b"12" + data[first + 1 :]  # a two-digit value: canonical, so scanned by the search
    scanned = construct._scan_canonical(longer)
    assert scanned is not None and scanned.exps[0, 0, 0] == 12
    assert assert_same_outcome(tmp_path, longer).same_codes(scanned)
    for edited in (
        data[:first] + b"0" + data[first:],  # a leading zero
        data[:first] + data[first + 1 :],  # a token deleted
        data[: first + 1] + data[first + 2 :],  # a "," deleted: two tokens run together
        data[:cut] + data[cut + 1 :],  # the "," between two chunks deleted
    ):
        assert abs(len(edited) - len(data)) == 1
        assert construct._scan_canonical(edited) is None
        assert_same_outcome(tmp_path, edited)


@pytest.mark.parametrize("q", [1, 10, 11, 256, 70000])
@pytest.mark.parametrize("holes", [False, True])
@pytest.mark.parametrize("shape", [(3, 2, 5), (1, 3, 4), (3, 2, 1), (1, 1, 1), (12, 2, 3)])
def test_dumps_is_the_canonical_json(q, holes, shape):
    # K = 1, L = 1, and headers of odd and even length, where the one-digit writer aligns its tokens
    rng = np.random.default_rng(q)
    exps = rng.integers(0, q, size=shape)
    exps.flat[0] = q - 1
    mask = None
    if holes:
        mask = rng.random(shape) >= 0.3
        mask.flat[-1] = False
    C = CodeSet(q, exps, mask, {"kind": "test", "q": q})
    assert (C.mask is not None) == holes
    assert C.dumps() == construct._canonical(C.to_json()) + "\n"


@pytest.mark.parametrize("shape", [(0, 1, 1), (1, 0, 3), (2, 2, 0)])
def test_dumps_of_a_set_with_an_empty_axis(shape):
    C = CodeSet(3, np.zeros(shape, dtype=np.int64))
    assert C.dumps() == construct._canonical(C.to_json()) + "\n"


def text_bound(C):
    """The upper bound that sizes the writer's buffer: the widest token for every entry plus the brackets."""
    widest = max(len(str(C.q - 1)), 0 if C.mask is None else len("null"))
    head = f'{{"K":{C.K},"L":{C.L},"M":{C.M},"codes":['
    tail = f'],"meta":{construct._canonical(C.meta)},"q":{C.q}}}\n'
    return (widest + 1) * C.K * C.M * C.L + 2 * C.K * C.M + 2 * C.K + len(head) + len(tail)


@pytest.mark.parametrize("q,holes", [(3, False), (3, True), (30, False)])
def test_writer_memory_is_its_buffer_plus_the_string(q, holes):
    C = CodeSet(q, np.random.default_rng(27).integers(0, q, size=(27, 27, 729)))
    C = with_holes(C, seed=27) if holes else C
    tracemalloc.start()
    try:
        text = C.dumps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == construct._canonical(C.to_json()) + "\n"
    assert len(text) > 16 * construct._SCAN_BYTES
    assert peak <= text_bound(C) + len(text) + (64 << 10), (peak, text_bound(C), len(text))
