import dataclasses
import random
import re

import numpy as np
import pytest

import ccckit as ck
from ccckit import example72
from ccckit.cli import spec_from_config
from ccckit.construct import CodeSet, seed_digits, set_size
from ccckit.qary import (
    MonomialForm,
    SpecError,
    check_table,
    constant_table,
    identity_table,
)

from conftest import oracle_restriction_index, rand_perm_table, rand_table, rand_theorem2_spec


def test_theorem1_reference_pair():
    C = ck.build_code_set(ck.theorem1_spec(
        2, 2, [identity_table(2)], [identity_table(2)], [constant_table(2)] * 2, (0, 1)
    ))
    assert (C.K, C.M, C.L, C.q) == (2, 2, 4, 2)
    assert C.sequence(0, 0).entries == (0, 0, 0, 1)  # (+, +, +, -)
    assert C.sequence(0, 1).entries == (0, 1, 0, 0)  # (+, -, +, +)
    report = ck.verify_ccc(C)
    assert report.is_ccc and report.peak == 8


def test_theorem1_rejects_non_permutation():
    with pytest.raises(SpecError, match="^block 0, chain 0, f does not permute Z_4$"):
        ck.build_code_set(ck.theorem1_spec(
            4, 2, [constant_table(4)], [identity_table(4)], [constant_table(4)] * 2, (0, 1)
        ))


def test_corrupt_spec_bypasses_validation_and_flags():
    spec = ck.theorem1_spec(
        3, 2, [identity_table(3)], [identity_table(3)], [constant_table(3)] * 2, (0, 1)
    )
    bad = ck.corrupt_spec(spec, 0, 0, "f", constant_table(3))
    assert bad.corrupted
    C = ck.build_code_set(bad)
    assert C.meta["corrupted"]
    assert not ck.verify_ccc(C).is_ccc


def test_construction_kind_is_checked():
    spec = rand_theorem2_spec(random.Random(0), 2, 3, 2, 2)
    with pytest.raises(SpecError, match="uniform constructions need a single-block domain"):
        dataclasses.replace(spec, kind="uniform")
    with pytest.raises(SpecError, match="unknown construction kind 'diagonal'"):
        dataclasses.replace(spec, kind="diagonal")
    assert dataclasses.replace(spec, kind="mixed") == spec


def test_corrupt_spec_rejects_permutation_replacement():
    spec = ck.theorem1_spec(
        2, 2, [identity_table(2)], [identity_table(2)], [constant_table(2)] * 2, (0, 1)
    )
    with pytest.raises(SpecError):
        ck.corrupt_spec(spec, 0, 0, "f", (1, 0))  # NOT still permutes Z_2


def test_corollary1_n0_reduces_to_theorem1(rng):
    q, m = 3, 3
    h = [rand_perm_table(rng, q, q) for _ in range(m - 1)]
    hp = [rand_perm_table(rng, q, q) for _ in range(m - 1)]
    g = [rand_table(rng, q) for _ in range(m)]
    pi = (2, 0, 1)
    A = ck.build_code_set(ck.theorem1_spec(q, m, h, hp, g, pi))
    # theorem1's g[j] acts on x_j; the restricted form's slot j acts on x_{pi(j)}
    g_slots = [g[pi[j]] for j in range(m)]
    B = ck.build_code_set(ck.corollary1_spec(q, m, 0, J=(), pi=pi, h=h, hp=hp, g=g_slots, offsets=None))
    assert A.same_codes(B)


# The bodies of theorem1_spec and theorem2_spec from before they delegated to
# corollary1_spec and corollary3_spec: each built its own GeneralizedQuadraticSpec.


def _theorem1_before(q, m, h, hp, g, pi):
    if m < 2:
        raise SpecError("need at least two variables")
    d = ck.DomainSpec(((q, m),))
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(m)):
        raise SpecError(f"pi must order positions 0..{m - 1}, got {pi}")
    g = [check_table(t, q) for t in g]
    if len(g) != m:
        raise SpecError(f"need m={m} per-variable tables, got {len(g)}")
    gs = tuple(g[pi[j]] for j in range(m))
    return ck.ConstructionSpec(domain=d, J=((),), pis=(pi,), chains=(tuple(zip(h, hp)),), gs=(gs,), kind="uniform")


def _theorem2_before(p1, p2, m1, m2, pi, pip, f, fp, h, hp, g, gp, f0, h0, lam):
    d = ck.DomainSpec(((p1, m1), (p2, m2)))
    q = d.q
    pi = tuple(int(v) for v in pi)
    pip = tuple(int(v) for v in pip)
    g = [check_table(t, q) for t in g]
    gp = [check_table(t, q) for t in gp]
    if len(g) != m1 or len(gp) != m2:
        raise SpecError("need m1 tables in g and m2 tables in gp")
    gs1 = tuple(g[pi[j]] for j in range(m1))
    gs2 = tuple(gp[pip[j] - m1] for j in range(m2))
    chains = (tuple(zip(f, fp)), tuple(zip(h, hp)))
    return ck.ConstructionSpec(
        domain=d, J=((), ()), pis=(pi, pip), chains=chains, gs=(gs1, gs2), couplings=((lam, f0, h0),), kind="mixed"
    )


def _spoil(rng, args: dict, key: str, q: int):
    """One way to break args[key]: a list grows or shrinks, an index leaves its range, a table entry reaches q."""
    value = list(args[key])
    how = rng.randrange(4)
    if how == 0:
        value.append(value[-1] if value else 0)
    elif how == 1:
        value = value[:-1]
    elif value and key.startswith("pi"):
        value[rng.randrange(len(value))] = rng.choice([-1, 9, value[0]])
    elif value:
        value[rng.randrange(len(value))] = (q,) * q
    args[key] = value


def _outcome(make, args):
    try:
        return make(**args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@pytest.mark.parametrize("theorem", ["theorem1", "theorem2"])
def test_theorem_specs_match_their_former_bodies(theorem):
    """On random and broken inputs, the delegating spec equals the former body's, or fails alike.

    The one intended difference: a theorem 2 ordering that indexed past its
    tables raised IndexError before; it is a SpecError now.
    """
    rng = random.Random(theorem)
    new, old = (ck.theorem1_spec, _theorem1_before) if theorem == "theorem1" else (ck.theorem2_spec, _theorem2_before)
    outcomes = set()
    for trial in range(400):
        if theorem == "theorem1":
            q, m = rng.choice([2, 3, 4, 6]), rng.randrange(1, 5)
            args = dict(q=q, m=m, pi=rng.sample(range(m), m),
                        h=[rand_perm_table(rng, q, q) for _ in range(m - 1)],
                        hp=[rand_perm_table(rng, q, q) for _ in range(m - 1)],
                        g=[rand_table(rng, q) for _ in range(m)])
        else:
            (p1, p2), m1, m2 = rng.choice([(2, 3), (2, 5), (3, 5)]), rng.randrange(1, 4), rng.randrange(1, 4)
            q = p1 * p2
            args = dict(p1=p1, p2=p2, m1=m1, m2=m2, pi=rng.sample(range(m1), m1),
                        pip=[m1 + i for i in rng.sample(range(m2), m2)],
                        f=[rand_perm_table(rng, q, p1) for _ in range(m1 - 1)],
                        fp=[rand_perm_table(rng, q, p1) for _ in range(m1 - 1)],
                        h=[rand_perm_table(rng, q, p2) for _ in range(m2 - 1)],
                        hp=[rand_perm_table(rng, q, p2) for _ in range(m2 - 1)],
                        g=[rand_table(rng, q) for _ in range(m1)], gp=[rand_table(rng, q) for _ in range(m2)],
                        f0=rand_table(rng, q), h0=rand_table(rng, q), lam=rng.randrange(q))
        if trial % 4:
            _spoil(rng, args, rng.choice([k for k in args if isinstance(args[k], list)]), q)
        got, want = _outcome(new, args), _outcome(old, args)
        if isinstance(want, ck.ConstructionSpec):
            assert isinstance(got, ck.ConstructionSpec), (args, got)
            assert got == want
        else:
            assert got == (SpecError if want is IndexError else want), (args, got, want)
        outcomes.add(want if isinstance(want, type) else "spec")
    assert outcomes >= {"spec", SpecError} | ({IndexError} if theorem == "theorem2" else set())


def test_corollary1_4_8_verifies(rng):
    q, m, n = 2, 3, 1
    C = ck.build_code_set(ck.corollary1_spec(
        q, m, n, J=(2,), pi=(0, 1),
        h=[rand_perm_table(rng, q, q)], hp=[rand_perm_table(rng, q, q)],
        g=[rand_table(rng, q) for _ in range(2)],
    ))
    assert (C.K, C.L) == (4, 8)
    report = ck.verify_ccc(C)
    assert report.is_ccc and report.peak == 32


def test_corollary1_default_offsets_follow_digit_formula(rng):
    q, m, n = 3, 3, 2
    spec = ck.corollary1_spec(
        q, m, n, J=(1, 2), pi=(0,), h=[], hp=[], g=[rand_table(rng, q)]
    )
    # restriction digits (c1, c2) pinned at positions (1, 2): offset = c1*q + c2 mod q = c2
    offsets = spec.offsets
    from ccckit.qary import restriction_values

    for c in restriction_values(spec.domain, (1, 2)):
        idx = oracle_restriction_index(spec.domain, (1, 2), c)
        assert offsets[idx] == (c[0] * q + c[1]) % q


def test_theorem2_6_36(rng):
    spec = rand_theorem2_spec(rng, 2, 3, 2, 2)
    C = ck.build_code_set(spec)
    assert (C.K, C.M, C.L, C.q) == (6, 6, 36, 6)
    report = ck.verify_ccc(C)
    assert report.is_ccc and report.peak == 216


def test_theorem2_m1_equals_1(rng):
    spec = rand_theorem2_spec(rng, 2, 3, 1, 2)
    C = ck.build_code_set(spec)
    assert (C.K, C.L) == (6, 18)
    assert ck.verify_ccc(C).is_ccc


def test_corollary3_on_single_block_matches_corollary1_as_sets(rng):
    # same spec, both enumeration conventions: the codes coincide as sets
    q, m, n = 2, 3, 1
    h = [rand_perm_table(rng, q, q)]
    hp = [rand_perm_table(rng, q, q)]
    g = [rand_table(rng, q) for _ in range(2)]
    A = ck.build_code_set(ck.corollary1_spec(q, m, n, J=(2,), pi=(0, 1), h=h, hp=hp, g=g, offsets=None))
    d = ck.DomainSpec(((q, m),))
    B = ck.build_code_set(ck.corollary3_spec(
        d, J=((2,),), pi=((0, 1),), chains=((tuple(zip(h, hp))[0],),), gs=((g[0], g[1]),)
    ))

    def canon(C):
        return sorted(
            tuple(sorted(C.exps[k, mm].tobytes() for mm in range(C.M)))
            for k in range(C.K)
        )

    assert (A.q, A.K, A.M, A.L) == (B.q, B.K, B.M, B.L)
    assert canon(A) == canon(B)


def test_corollary3_12_72_shape():
    C = example72.build()
    assert (C.K, C.M, C.L, C.q) == (12, 12, 72, 6)
    assert C.meta["kind"] == "mixed"
    assert C.meta["n"] == [1, 0]


def test_code_index_convention_frozen():
    # code t=1, sequence d=0 must be psi(f + 3 * x2): t_1 digits (1, 0), t_2 = 0
    C = example72.build()
    f = example72.monomial_form()
    plus = dict(f.coeffs)
    plus[(0, 1, 0, 0, 0)] = (plus.get((0, 1, 0, 0, 0), 0) + 3) % 6
    expect = MonomialForm(example72.DOMAIN, plus).table()
    assert np.array_equal(C.exps[1, 0], expect)
    # code t=11: t_1 = 3 -> digits (1,1), t_2 = 2: f + 3x2 + 3x3 + 4x5
    plus = dict(f.coeffs)
    plus[(0, 1, 0, 0, 0)] = (plus.get((0, 1, 0, 0, 0), 0) + 3) % 6
    plus[(0, 0, 1, 0, 0)] = (plus.get((0, 0, 1, 0, 0), 0) + 3) % 6
    plus[(0, 0, 0, 0, 1)] = (plus.get((0, 0, 0, 0, 1), 0) + 2 * 2) % 6
    expect = MonomialForm(example72.DOMAIN, plus).table()
    assert np.array_equal(C.exps[11, 0], expect)


def test_sequence_index_convention_block1_fastest():
    # sequence d=1 of code t=0: block-1 digit d_{1,1} = 1 -> + 3 * x2
    C = example72.build()
    f = example72.monomial_form()
    plus = dict(f.coeffs)
    plus[(0, 1, 0, 0, 0)] = (plus.get((0, 1, 0, 0, 0), 0) + 3) % 6
    expect = MonomialForm(example72.DOMAIN, plus).table()
    assert np.array_equal(C.exps[0, 1], expect)
    # sequence d=4: block-2 digit d_{2,1} = 1 -> + 2 * x4
    plus = dict(f.coeffs)
    plus[(0, 0, 0, 1, 0)] = (plus.get((0, 0, 0, 1, 0), 0) + 2) % 6
    expect = MonomialForm(example72.DOMAIN, plus).table()
    assert np.array_equal(C.exps[0, 4], expect)


def test_digit_enumeration_bijective():
    spec = example72.construction_spec()
    K = set_size(spec)
    assert K == 12
    seen = {tuple(np.concatenate([S[t] for S in seed_digits(spec)]).tolist()) for t in range(K)}
    assert len(seen) == K
    (S,) = seed_digits(spec_from_config({"kind": "corollary1", "q": 3, "m": 3, "n": 1}))
    assert {tuple(row) for row in S.tolist()} == {
        (a, b) for a in range(3) for b in range(3)
    }
    assert S[5].tolist() == [1, 2]  # 5 = 1*3 + 2, most significant first


def test_kronecker_2x4_with_3x9():
    A = ck.build_code_set(ck.theorem1_spec(
        2, 2, [identity_table(2)], [identity_table(2)], [constant_table(2)] * 2, (0, 1)
    ))
    B = ck.build_code_set(ck.theorem1_spec(
        3, 2, [identity_table(3)], [identity_table(3)], [constant_table(3)] * 2, (0, 1)
    ))
    C = ck.kronecker_compose(A, B)
    assert (C.K, C.M, C.L, C.q) == (6, 6, 36, 6)
    report = ck.verify_ccc(C)
    assert report.is_ccc and report.peak == 216


def test_kronecker_identity_and_verify_gate():
    X = example72.build()
    T = ck.trivial_code_set()
    assert ck.kronecker_compose(X, T, skip_verify=True).same_codes(X)
    broken = CodeSet(2, np.zeros((2, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        ck.kronecker_compose(broken, T)


def test_kronecker_lambda0_regression(rng):
    # the lambda = 0 two-block build equals kron(block-2 build, block-1 build)
    d = ck.DomainSpec(((2, 2), (3, 2)))
    q = d.q
    f1, f1p = (rng.sample(range(2), 2) for _ in range(2))
    h1, h1p = (rng.sample(range(3), 3) for _ in range(2))
    g1 = [tuple(rng.randrange(2) for _ in range(2)) for _ in range(2)]
    g2 = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)]

    def lift_chain(t, p):
        return tuple(t[u % p] for u in range(q))

    def lift_g(t, p):
        return tuple((q // p) * t[u % p] % q for u in range(q))

    C3 = ck.build_code_set(ck.corollary3_spec(
        d, J=((), ()), pi=((0, 1), (2, 3)),
        chains=(((lift_chain(f1, 2), lift_chain(f1p, 2)),),
                ((lift_chain(h1, 3), lift_chain(h1p, 3)),)),
        gs=((lift_g(g1[0], 2), lift_g(g1[1], 2)), (lift_g(g2[0], 3), lift_g(g2[1], 3))),
    ))
    B1 = ck.build_code_set(ck.corollary1_spec(2, 2, 0, J=(), pi=(0, 1), h=[tuple(f1)], hp=[tuple(f1p)],
                                              g=g1, offsets=None))
    B2 = ck.build_code_set(ck.corollary1_spec(3, 2, 0, J=(), pi=(0, 1), h=[tuple(h1)], hp=[tuple(h1p)],
                                              g=g2, offsets=None))
    composed = ck.kronecker_compose(B2, B1)  # block 2 is the slow factor
    assert composed.same_codes(C3)
    assert not ck.kronecker_compose(B1, B2).same_codes(C3)


def test_codeset_json_roundtrip():
    C = example72.build()
    data = C.to_json()
    back = CodeSet.from_json(data)
    assert back.same_codes(C)
    # masked sequences serialize with nulls
    masked = CodeSet(
        4,
        np.array([[[0, 1, 2]]]),
        np.array([[[True, False, True]]]),
        {"kind": "demo"},
    )
    again = CodeSet.from_json(masked.to_json())
    assert again.same_codes(masked)
    assert again.to_json()["codes"][0][0] == [0, None, 2]


@pytest.mark.parametrize("exps, mask, message", [
    (np.array([[[1.7, 2.9]]]), None, "integer dtype, got float64"),
    ([[[0.7]]], None, "integer dtype, got float64"),
    (np.array([[[True, False]]]), None, "integer dtype, got bool"),
    (np.array([[[1, 2]]], dtype=object), None, "integer dtype, got object"),
    ([[[1, 2]]], [[[2, 0.5]]], "dtype bool, got float64"),
    ([[[1, 2]]], [[[1, 0]]], "dtype bool, got int64"),
], ids=["float", "float_list", "bool", "object", "float_mask", "int_mask"])
def test_codeset_refuses_non_integer_exponents_and_non_boolean_masks(exps, mask, message):
    """Nothing is cast: 1.7 would be stored as 1, and a mask of 2 and 0.5 would read as all-defined."""
    with pytest.raises(ValueError, match=message):
        CodeSet(3, exps, mask)


def test_codeset_from_json_consistency_check():
    data = example72.build().to_json()
    data["K"] = 13
    with pytest.raises(ValueError):
        CodeSet.from_json(data)


MALFORMED_CODE_SETS = {
    "ragged": {"q": 2, "codes": [[[0, 1], [0]]]},
    "empty": {"q": 2, "codes": []},
    "m_mismatch": {"q": 2, "codes": [[[0, 1]], [[0, 1], [1, 0]]]},
    "no_sequences": {"q": 2, "codes": [[]]},
    "empty_sequence": {"q": 2, "codes": [[[]]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CODE_SETS))
def test_codeset_from_json_rejects_non_rectangular_sets(name):
    from ccckit.construct import ConfigError

    with pytest.raises(ConfigError):
        CodeSet.from_json(MALFORMED_CODE_SETS[name])


@pytest.mark.parametrize(("make", "error", "message"), [
    (lambda: CodeSet(2, np.zeros((2, 2), dtype=np.int64)), ValueError, "exps must have shape (K, M, L)"),
    (lambda: CodeSet(2, np.zeros((1, 2, 2), dtype=np.int64), np.ones((1, 2, 3), dtype=bool)), ValueError,
     "mask shape must match exps"),
], ids=["exps_2d", "mask_shape"])
def test_construct_refusals(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
