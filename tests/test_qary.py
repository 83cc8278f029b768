import dataclasses
import itertools
import random
import re
from math import prod

import numpy as np
import pytest

import ccckit as ck
from ccckit import example72
from ccckit.mixed_radix import DomainSpec, digit_matrix

from conftest import (
    oracle_digit_matrix,
    oracle_int_to_vec,
    oracle_restriction_index,
    oracle_restriction_values,
    rand_perm_table,
    rand_table,
    rand_theorem2_spec,
)
from ccckit.qary import (
    GeneralizedQuadraticSpec,
    MonomialForm,
    SpecError,
    build_from_spec,
    constant_table,
    identity_table,
    is_permutation_mod,
    monomials_upto,
    restriction_values,
)

D72 = example72.DOMAIN


# ---------------------------------------------------------------------------
# monomials


def test_monomials_upto_reference_counts():
    mons = monomials_upto(D72, 2)
    assert len(mons) == 27
    assert len(set(mons)) == 27
    assert monomials_upto(D72, 0) == [(0, 0, 0, 0, 0)]


def test_monomials_upto_against_bruteforce():
    for blocks, r in [(((2, 3), (3, 2)), 2), (((2, 2), (3, 1)), 3), (((5, 2),), 2)]:
        d = DomainSpec(blocks)
        brute = {
            tuple(int(v) for v in row)
            for row in digit_matrix(d)
            if int((np.asarray(row) != 0).sum()) <= r
        }
        assert set(monomials_upto(d, r)) == brute


def test_function_space_size_is_q_pow_monomials():
    # 27 weight-<=2 monomials over Z_6 coefficients span 6^27 formal combinations
    assert 6 ** len(monomials_upto(D72, 2)) == 6**27


def test_constant_monomial_is_one_everywhere():
    mf = MonomialForm(D72, {(0, 0, 0, 0, 0): 4})
    assert np.array_equal(mf.table(), np.full(72, 4))


def test_hamming_degree():
    assert example72.monomial_form().hamming_degree() == 2
    assert MonomialForm(D72, {(0, 0, 0, 0, 0): 5}).hamming_degree() == 0
    assert MonomialForm(D72, {}).hamming_degree() == 0
    d = DomainSpec(((2, 3),))
    assert MonomialForm(d, {(1, 1, 1): 1}).hamming_degree() == 3


def test_monomial_form_validation():
    with pytest.raises(SpecError):
        MonomialForm(D72, {(2, 0, 0, 0, 0): 1})  # block-1 exponent bound
    with pytest.raises(SpecError):
        MonomialForm(D72, {(0, 0, 0): 1})


# ---------------------------------------------------------------------------
# evaluation


def test_reference_function_values():
    f = example72.function()
    assert list(f.table[:8]) == [2, 2, 3, 5, 2, 5, 1, 0]
    assert f(7) == 0
    assert f(2) == 3
    assert f((1, 1, 1, 0, 0)) == 0
    with pytest.raises(ValueError):
        f(72)


@pytest.mark.parametrize("x", [(1, 1, 0, 0), (5, 1, 0, 0, 0), (1.9, 1, 0, 0, 0), (True, 1, 0, 0, 0), 72, -1, True])
def test_evaluate_refuses_malformed_points(x):
    """Four digits for five positions, a digit past its radix, a float or bool digit, an index out of range, a bool."""
    form = example72.monomial_form()
    assert form.evaluate((1, 1, 1, 0, 0)) == form.evaluate(np.int64(7)) == form.evaluate(7) == 0
    with pytest.raises(ValueError, match="must be an integer|expected 5 digits"):
        form.evaluate(x)


def test_zero_function():
    z = MonomialForm(D72, {}).to_function()
    assert not z.table.any()
    assert z(17) == 0


# ---------------------------------------------------------------------------
# permutation-mod test


def test_is_permutation_mod():
    ident = identity_table(6)
    assert is_permutation_mod(ident, 2)
    assert is_permutation_mod(ident, 3)
    assert is_permutation_mod(ident, 6)
    assert not is_permutation_mod(constant_table(6, 0), 2)
    assert not is_permutation_mod(constant_table(6, 0), 3)
    shifted = tuple((u + 3) % 6 for u in range(6))
    assert is_permutation_mod(shifted, 3)  # {3,4,5} mod 3 = {0,1,2}
    assert is_permutation_mod(shifted, 2)  # {3,4} mod 2 = {1,0}
    doubled = tuple((2 * u) % 6 for u in range(6))
    assert not is_permutation_mod(doubled, 2)  # {0,2} mod 2 = {0,0}
    assert is_permutation_mod(doubled, 3)  # {0,2,4} mod 3 = {0,2,1}
    with pytest.raises(ValueError):
        is_permutation_mod(ident, 4)


# ---------------------------------------------------------------------------
# structured specs


def test_build_from_spec_matches_monomials_on_example():
    f = build_from_spec(example72.construction_spec())
    assert np.array_equal(f.table, example72.function().table)


def test_build_from_spec_zero_components():
    q = 6
    zero = constant_table(q)
    spec = GeneralizedQuadraticSpec(
        domain=D72,
        J=((), ()),
        pis=((0, 1, 2), (3, 4)),
        chains=(((zero, zero), (zero, zero)), ((zero, zero),)),
        gs=((zero, zero, zero), (zero, zero)),
        couplings=((0, zero, zero),),
    )
    assert not build_from_spec(spec).table.any()


def test_build_from_spec_single_block_product():
    d = DomainSpec(((2, 2),))
    ident = identity_table(2)
    spec = GeneralizedQuadraticSpec(
        domain=d,
        J=((),),
        pis=((0, 1),),
        chains=(((ident, ident),),),
        gs=((constant_table(2), constant_table(2)),),
    )
    f = build_from_spec(spec)
    # direct evaluation oracle over the 4 points: f = x1 * x2
    expect = [(a * b) % 2 for b in range(2) for a in range(2)]
    assert list(f.table) == expect


def test_build_from_spec_formula_oracle(rng):
    # mixed spec vs an independent pointwise evaluation of the defining sum
    d = DomainSpec(((2, 2), (3, 2)))
    q = d.q
    chains = (
        ((rand_perm_table(rng, q, 2), rand_perm_table(rng, q, 2)),),
        ((rand_perm_table(rng, q, 3), rand_perm_table(rng, q, 3)),),
    )
    gs = ((rand_table(rng, q), rand_table(rng, q)), (rand_table(rng, q), rand_table(rng, q)))
    lam, f0, h0 = 5, rand_table(rng, q), rand_table(rng, q)
    spec = GeneralizedQuadraticSpec(
        domain=d,
        J=((), ()),
        pis=((1, 0), (3, 2)),
        chains=chains,
        gs=gs,
        couplings=((lam, f0, h0),),
    )
    f = build_from_spec(spec)
    for x in range(d.L):
        v = ck.int_to_vec(x, d)
        expect = 0
        expect += 3 * chains[0][0][0][v[1]] * chains[0][0][1][v[0]]  # pi_1 = (1, 0)
        expect += gs[0][0][v[1]] + gs[0][1][v[0]]
        expect += 2 * chains[1][0][0][v[3]] * chains[1][0][1][v[2]]  # pi_2 = (3, 2)
        expect += gs[1][0][v[3]] + gs[1][1][v[2]]
        expect += lam * f0[v[0]] * h0[v[3]]  # last slot of block 1, first of block 2
        assert f(x) == expect % q


def test_per_restriction_permutations():
    # Different pi per restriction value must route the chain differently.
    d = DomainSpec(((3, 3),))
    q = 3
    ident = identity_table(q)
    zero = constant_table(q)
    spec = GeneralizedQuadraticSpec(
        domain=d,
        J=((2,),),
        pis=({0: (0, 1), 1: (1, 0), 2: (0, 1)},),
        chains=(((ident, ident),),),
        gs=((tuple((2 * u) % 3 for u in range(3)), zero),),
    )
    f = build_from_spec(spec)
    for x in range(d.L):
        x1, x2, c = ck.int_to_vec(x, d)
        if c == 1:
            expect = (x2 * x1 + 2 * x2) % 3
        else:
            expect = (x1 * x2 + 2 * x1) % 3
        assert f(x) == expect


def test_spec_validation_errors():
    q = 6
    ident = identity_table(q)
    zero = constant_table(q)
    with pytest.raises(SpecError):  # pi not a bijection onto the free positions
        GeneralizedQuadraticSpec(
            domain=D72, J=((), ()), pis=((0, 1, 1), (3, 4)),
            chains=(((ident, ident), (ident, ident)), ((ident, ident),)),
            gs=((zero, zero, zero), (zero, zero)), couplings=((0, zero, zero),),
        )
    with pytest.raises(SpecError):  # |J| > m - 1
        GeneralizedQuadraticSpec(
            domain=D72, J=((0, 1, 2), ()), pis=((), (3, 4)),
            chains=((), ((ident, ident),)),
            gs=((), (zero, zero)), couplings=((0, zero, zero),),
        )
    with pytest.raises(SpecError):  # table length mismatch
        GeneralizedQuadraticSpec(
            domain=D72, J=((1,), ()), pis=((0, 2), (3, 4)),
            chains=((((0, 1), (0, 1)),), ((ident, ident),)),
            gs=((zero, zero), (zero, zero)), couplings=((0, zero, zero),),
        )
    with pytest.raises(SpecError):  # wrong chain count
        GeneralizedQuadraticSpec(
            domain=D72, J=((), ()), pis=((0, 1, 2), (3, 4)),
            chains=(((ident, ident),), ((ident, ident),)),
            gs=((zero, zero, zero), (zero, zero)), couplings=((0, zero, zero),),
        )


def test_per_restriction_dict_coverage():
    d = DomainSpec(((3, 3),))
    ident = identity_table(3)
    zero = constant_table(3)
    with pytest.raises(SpecError, match="misses restriction classes"):
        GeneralizedQuadraticSpec(
            domain=d, J=((2,),), pis=({0: (0, 1), 1: (1, 0)},),  # class 2 missing
            chains=(((ident, ident),),), gs=((zero, zero),),
        )
    with pytest.raises(SpecError, match="unknown restriction classes"):
        GeneralizedQuadraticSpec(
            domain=d, J=((2,),), pis=((0, 1),),
            chains=(((ident, ident),),), gs=((zero, zero),), offsets={5: 1},
        )
    with pytest.raises(SpecError, match=r"pis\[0\] carries unknown restriction classes \[3\]"):
        GeneralizedQuadraticSpec(
            domain=d, J=((2,),), pis=({0: (0, 1), 1: (1, 0), 2: (0, 1), 3: (1, 0)},),
            chains=(((ident, ident),),), gs=((zero, zero),),
        )
    with pytest.raises(SpecError, match=r"gs\[0\] carries unknown restriction classes \[-1\]"):
        GeneralizedQuadraticSpec(
            domain=d, J=((2,),), pis=((0, 1),),
            chains=(((ident, ident),),), gs=({c: (zero, zero) for c in (-1, 0, 1, 2)},),
        )


def test_a_shared_pi_or_gs_is_checked_once_per_block(monkeypatch):
    d = DomainSpec(((3, 4),))  # J = (2, 3): nine restriction classes
    ident = identity_table(3)
    zero = constant_table(3)
    calls = {"_check_pi": 0, "_check_gs": 0}
    for name in calls:
        check = getattr(GeneralizedQuadraticSpec, name)

        def counted(self, value, block, check=check, name=name):
            calls[name] += 1
            return check(self, value, block)

        monkeypatch.setattr(GeneralizedQuadraticSpec, name, counted)
    spec = GeneralizedQuadraticSpec(domain=d, J=((2, 3),), pis=((0, 1),), chains=(((ident, ident),),),
                                    gs=((zero, ident),))
    assert calls == {"_check_pi": 1, "_check_gs": 1}
    assert spec.pis[0] == dict.fromkeys(range(9), (0, 1))
    assert spec.gs[0] == dict.fromkeys(range(9), (zero, ident))
    dataclasses.replace(spec)  # the stored dicts hold one value under every class
    assert calls == {"_check_pi": 2, "_check_gs": 2}


@pytest.mark.parametrize("field,bad", [
    ("pis", (0, 0)),  # not a bijection onto the free positions
    ("gs", ((0, 1, 2),)),  # one table where two are needed
    ("gs", ((0, 1, 2), (0, 1))),  # a table of the wrong length
    ("gs", ((0, 1, 2), (0, 1, 3))),  # an entry outside Z_3
])
def test_a_bad_shared_pi_or_gs_raises_the_per_class_error(field, bad):
    d = DomainSpec(((3, 4),))
    ident = identity_table(3)
    fields = {"pis": ((0, 1),), "gs": ((ident, ident),)}
    errors = []
    for value in (bad, {c: bad for c in range(9)}):  # shared, and the same value keyed by every class
        with pytest.raises(SpecError) as err:
            GeneralizedQuadraticSpec(domain=d, J=((2, 3),), chains=(((ident, ident),),), **{**fields, field: (value,)})
        errors.append(str(err.value))
    assert errors[0] == errors[1], errors


@pytest.mark.parametrize("offsets", ["x", [1], (0, 1), 3])
def test_offsets_must_be_a_mapping(offsets):
    """A mapping or None is stored keyed by every class, in class order, so leaving a class out means 0."""
    spec = example72.construction_spec()
    with pytest.raises(SpecError, match="offsets must be a mapping"):
        dataclasses.replace(spec, offsets=offsets)
    assert list(dataclasses.replace(spec, offsets={0: 7}).offsets.items()) == [(0, 7 % spec.domain.q), (1, 0)]
    zero = [dataclasses.replace(spec, offsets=ok) for ok in (None, {}, {1: 0, 0: 0})]
    assert zero[0] == zero[1] == zero[2] != spec
    assert [list(s.offsets.items()) for s in zero] == [[(0, 0), (1, 0)]] * 3


def test_validate_chains_reports_offender():
    q = 6
    ident = identity_table(q)
    zero = constant_table(q)
    spec = GeneralizedQuadraticSpec(
        domain=D72,
        J=((), ()),
        pis=((0, 1, 2), (3, 4)),
        chains=(((ident, ident), (ident, zero)), ((ident, ident),)),
        gs=((zero, zero, zero), (zero, zero)),
        couplings=((0, zero, zero),),
    )
    assert spec.chain_failures() == [(0, 1, "fp", 2)]
    with pytest.raises(SpecError, match="^block 0, chain 1, fp does not permute Z_2$"):
        spec.validate_chains()


@pytest.mark.parametrize("x", [True, False, 1.5, 0.0])
@pytest.mark.parametrize("view", ["function", "restriction", "form"])
def test_a_bool_or_float_index_raises_value_error(view, x):
    """The index map refuses a bool or a float, for a function, its restriction and its monomial form alike."""
    f = example72.function()
    g = {"function": f, "restriction": ck.restrict(f, (1,), (0,)), "form": example72.monomial_form().evaluate}[view]
    assert g(0) == f(0)
    with pytest.raises(ValueError, match="must be an integer"):
        g(x)


# ---------------------------------------------------------------------------
# restrictions


def test_restriction_matches_reference_formulas():
    f = example72.function()
    for c in (0, 1):
        view = ck.restrict(f, (1,), (c,))
        form = example72.restriction_form(c)
        for x in view.support:
            assert view(int(x)) == form.evaluate(int(x))


def test_restriction_off_support_error():
    f = example72.function()
    view = ck.restrict(f, (1,), (0,))
    with pytest.raises(ValueError):
        view(2)  # x = 2 has x2 = 1


def test_empty_restriction_is_whole_function():
    f = example72.function()
    view = ck.restrict(f, (), ())
    assert len(view.support) == 72
    assert all(view(x) == f(x) for x in range(72))


def test_restriction_partition():
    f = example72.function()
    J = (1, 3)  # one position in each block
    supports = []
    for c in restriction_values(D72, J):
        supports.append(set(int(x) for x in ck.restrict(f, J, c).support))
    sizes = [len(s) for s in supports]
    assert all(size == 72 // (2 * 3) for size in sizes)
    union = set().union(*supports)
    assert union == set(range(72))
    assert sum(sizes) == 72  # pairwise disjoint given the union is everything


def test_restriction_digit_bound_error():
    f = example72.function()
    with pytest.raises(SpecError):
        ck.restrict(f, (1,), (2,))  # block-1 digit bound is 2


def test_restriction_index_order():
    """restriction_values lists the classes in the order of the itertools and per-block oracles."""
    rng = np.random.default_rng(7)
    for blocks in [((2, 3), (3, 2)), ((4, 3),), ((6, 2),), ((2, 2), (3, 2), (5, 1)), ((3, 2), (5, 2)), ((2, 4),)]:
        d = DomainSpec(blocks)
        for size in range(min(d.m, 4) + 1):
            for J in itertools.combinations(range(d.m), size):
                J = tuple(rng.permutation(J).tolist())  # J listed in any order, across blocks
                values = restriction_values(d, J)
                assert values == oracle_restriction_values(d, J), (blocks, J)
                assert [oracle_restriction_index(d, J, c) for c in values] == list(range(len(values))), (blocks, J)


# ---------------------------------------------------------------------------
# structured specs against the per-class loops the array build replaced


def oracle_build_from_spec(s):
    """Value table of s, one restriction class at a time, with the itertools class enumeration."""
    d = s.domain
    q = d.q
    digits = oracle_digit_matrix(d)
    table = np.zeros(d.L, dtype=np.int64)
    flat_J = s.flat_J
    for cidx, c in enumerate(oracle_restriction_values(d, flat_J)):
        mask = np.ones(d.L, dtype=bool)
        for j, cj in zip(flat_J, c):
            mask &= digits[:, j] == cj
        sel = digits[mask]
        acc = np.full(sel.shape[0], s.offsets[cidx], dtype=np.int64)
        pis = [s.pis[i][cidx] for i in range(d.k)]
        for i in range(d.k):
            w = s.chain_weight(i)
            pi = pis[i]
            for j, (f, fp) in enumerate(s.chains[i]):
                fa = np.asarray(f, dtype=np.int64)[sel[:, pi[j]]]
                fb = np.asarray(fp, dtype=np.int64)[sel[:, pi[j + 1]]]
                acc = (acc + w * fa * fb) % q
            for j, g in enumerate(s.gs[i][cidx]):
                acc = (acc + np.asarray(g, dtype=np.int64)[sel[:, pi[j]]]) % q
        for i, (lam, f, h) in enumerate(s.couplings):
            if lam:
                fa = np.asarray(f, dtype=np.int64)[sel[:, pis[i][-1]]]
                hb = np.asarray(h, dtype=np.int64)[sel[:, pis[i + 1][0]]]
                acc = (acc + lam * fa * hb) % q
        table[mask] = acc
    return table


def oracle_classes_and_slots(s):
    """(L,) class of every point and, per block, its (L, m_i - n_i) chain-slot digits, class by class."""
    d = s.domain
    digits = oracle_digit_matrix(d)
    classes = np.full(d.L, -1)
    slots = [np.full((d.L, len(s.chains[i]) + 1), -1) for i in range(d.k)]
    for cidx, c in enumerate(oracle_restriction_values(d, s.flat_J)):
        idx = np.flatnonzero((digits[:, list(s.flat_J)] == c).all(axis=1))
        classes[idx] = cidx
        for i in range(d.k):
            slots[i][idx] = digits[np.ix_(idx, s.pis[i][cidx])]
    return classes, slots


def rand_general_spec(rng):
    """1-3 blocks, n_i = m_i - 1 or m_i - 2 with J in any order, per-class or shared pi and g, nonzero couplings."""
    k = rng.randint(1, 3)
    if k == 1 and rng.random() < 0.3:
        blocks = ((rng.choice([4, 6]), rng.randint(1, 3)),)
    else:
        blocks = tuple((p, rng.randint(2, {2: 4, 3: 3, 5: 2}[p])) for p in sorted(rng.sample([2, 3, 5], k)))
    d = DomainSpec(blocks)
    q = d.q
    J = tuple(tuple(rng.sample(d.block_positions(i), max(0, mi - rng.randint(1, 2)))) for i, (_, mi) in enumerate(blocks))
    C = prod(p ** len(Ji) for (p, _), Ji in zip(blocks, J))
    pis, chains, gs = [], [], []
    for i, (p, _) in enumerate(blocks):
        free = [j for j in d.block_positions(i) if j not in J[i]]
        pis.append({c: tuple(rng.sample(free, len(free))) for c in range(C)} if rng.random() < 0.6
                   else tuple(rng.sample(free, len(free))))
        chains.append(tuple((rand_perm_table(rng, q, p), rand_perm_table(rng, q, p)) for _ in free[1:]))
        gs.append({c: tuple(rand_table(rng, q) for _ in free) for c in range(C)} if rng.random() < 0.6
                  else tuple(rand_table(rng, q) for _ in free))
    couplings = tuple((rng.randrange(1, q), rand_table(rng, q), rand_table(rng, q)) for _ in range(k - 1))
    offsets = {c: rng.randrange(q) for c in range(C) if rng.random() < 0.7}
    return GeneralizedQuadraticSpec(d, J, tuple(pis), tuple(chains), tuple(gs), couplings, offsets)


def assert_matches_the_per_class_oracle(s):
    """s's derived arrays and value table against the oracles; the arrays are read-only and read once."""
    classes, slots = oracle_classes_and_slots(s)
    assert np.array_equal(s.restriction_classes, classes)
    for got, want in zip(s.slot_digits, slots, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(build_from_spec(s).table, oracle_build_from_spec(s))
    assert s.restriction_classes is s.restriction_classes and s.slot_digits is s.slot_digits
    for array in (s.restriction_classes, *s.slot_digits):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("seed", range(48))
def test_build_from_spec_matches_the_per_class_oracle(seed):
    """A random spec, and the specs replace and corrupt_spec make from it once its arrays were read: none is stale."""
    s = rand_general_spec(random.Random(seed))
    assert_matches_the_per_class_oracle(s)
    # reversed orderings move the chain slots of every block with two or more
    assert_matches_the_per_class_oracle(dataclasses.replace(
        s, pis=tuple({c: pi[::-1] for c, pi in pis.items()} for pis in s.pis), offsets=None))
    for block in (i for i, pairs in enumerate(s.chains) if pairs):
        assert_matches_the_per_class_oracle(ck.corrupt_spec(s, block, 0, "fp", constant_table(s.domain.q)))


# ---------------------------------------------------------------------------
# one evaluator and the refusals


@pytest.mark.parametrize("blocks", [((17, 2),), ((23, 1),), ((2, 2), (17, 1))], ids=["Z17^2", "Z23", "Z2^2xZ17"])
def test_monomial_values_are_exact_past_the_int64_wrap(blocks):
    """Every one-term form x_j^e (e < p_j) and 30 seeded two-term forms: table() equals a Python pow oracle at
    every point, past 16^16 = 2^64, and evaluate reads that table, given an index or a digit vector."""
    d = DomainSpec(blocks)
    q, radix = d.q, d.radix_per_position
    forms = [{tuple(e * (t == j) for t in range(d.m)): 1} for j in range(d.m) for e in range(radix[j])]
    rng = random.Random(2024)
    forms += [{tuple(rng.randrange(p) for p in radix): rng.randrange(1, q) for _ in range(2)} for _ in range(30)]
    points = [oracle_int_to_vec(x, d) for x in range(d.L)]
    for coeffs in forms:
        form = MonomialForm(d, coeffs)
        want = [sum(c * prod(pow(xj, ej, q) for xj, ej in zip(x, e)) for e, c in coeffs.items()) % q for x in points]
        assert form.table().tolist() == want, coeffs
        assert [form.evaluate(x) for x in range(d.L)] == want, coeffs
        assert [form.evaluate(x) for x in points] == want, coeffs
        assert form.table() is form.table() and not form.table().flags.writeable


def _refusal_spec():
    return rand_theorem2_spec(random.Random(0), 2, 3, 3, 2)


@pytest.mark.parametrize(("make", "message"), [
    (lambda: ck.QaryFunction(D72, np.zeros(71, dtype=np.int64)), "table shape (71,) != (L,) = (72,)"),
    (lambda: ck.QaryFunction(D72, np.full(72, 6)), "table values must lie in [0, 6)"),
    (lambda: ck.restrict(example72.function(), (0, 0), (1, 1)), "duplicate positions in J=(0, 0)"),
    (lambda: ck.restrict(example72.function(), (0, 1), (1,)), "J and c must have equal length"),
    (lambda: ck.restrict(example72.function(), (5,), (0,)), "position 5 out of range"),
    (lambda: dataclasses.replace(_refusal_spec(), J=((),)), "J, pis, chains, gs must each have one entry per block"),
    (lambda: dataclasses.replace(_refusal_spec(), J=((3,), ())), "J[0]=(3,) must be distinct positions of block 0"),
    (lambda: dataclasses.replace(_refusal_spec(), couplings=()), "need 1 coupling triples, got 0"),
], ids=["table_shape", "table_range", "restrict_repeated_position", "restrict_unequal_J_c",
        "restrict_position_off_domain", "spec_block_entries", "spec_J_outside_block", "spec_couplings"])
def test_qary_refusals(make, message):
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        make()
