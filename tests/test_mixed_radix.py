import random

import numpy as np
import pytest

from ccckit.mixed_radix import DomainSpec, digit_matrix, int_to_vec, prime_divisors, vec_to_int

from conftest import oracle_digit_matrix, oracle_int_to_vec

D72 = DomainSpec(((2, 3), (3, 2)))


def test_derived_parameters():
    assert (D72.q, D72.L, D72.m, D72.k) == (6, 72, 5, 2)
    assert D72.deltas == (1, 8)
    assert D72.block_sizes == (8, 9)
    assert D72.block_offsets == (0, 3)
    assert D72.radix_per_position == (2, 2, 2, 3, 3)
    assert D72.weights == (1, 2, 4, 8, 24)
    assert D72.L % D72.q == 0


def test_prime_divisors():
    cases = {1: (), 2: (2,), 4: (2,), 12: (2, 3), 97: (97,), 30030: (2, 3, 5, 7, 11, 13), 65536: (2,),
             65537: (65537,), 70000: (2, 5, 7)}
    assert {n: prime_divisors(n) for n in cases} == cases


def test_delta_recursion():
    d = DomainSpec(((2, 2), (3, 2), (5, 1)))
    assert d.deltas[0] == 1
    for i in range(d.k - 1):
        assert d.deltas[i + 1] == d.deltas[i] * d.block_sizes[i]


@pytest.mark.parametrize(
    "x,vec",
    [
        (7, (1, 1, 1, 0, 0)),
        (11, (1, 1, 0, 1, 0)),
        (70, (0, 1, 1, 2, 2)),
        (0, (0, 0, 0, 0, 0)),
    ],
)
def test_reference_rows(x, vec):
    assert int_to_vec(x, D72) == vec
    assert vec_to_int(vec, D72) == x


@pytest.mark.parametrize(
    "blocks",
    [((2, 3), (3, 2)), ((2, 2), (3, 1), (5, 1)), ((4, 3),), ((6, 2),), ((7, 1),)],
)
def test_round_trip_exhaustive(blocks):
    d = DomainSpec(blocks)
    seen = set()
    for x in range(d.L):
        v = int_to_vec(x, d)
        assert vec_to_int(v, d) == x
        seen.add(v)
    assert len(seen) == d.L  # bijection onto the whole product set


def test_single_block_is_base_p_lsb_first():
    d = DomainSpec(((5, 4),))
    for x in range(d.L):
        digits = []
        y = x
        for _ in range(4):
            digits.append(y % 5)
            y //= 5
        assert int_to_vec(x, d) == tuple(digits)


def test_digit_matrix_matches_scalar_map():
    mat = digit_matrix(D72)
    for x in range(D72.L):
        assert tuple(int(v) for v in mat[x]) == int_to_vec(x, D72)
    with pytest.raises(ValueError):
        mat[0, 0] = 9  # read-only


def test_range_errors():
    with pytest.raises(ValueError):
        int_to_vec(-1, D72)
    with pytest.raises(ValueError):
        int_to_vec(72, D72)
    with pytest.raises(ValueError):
        vec_to_int((2, 0, 0, 0, 0), D72)  # block-1 digit bound is 2
    with pytest.raises(ValueError):
        vec_to_int((0, 0, 0, 3, 0), D72)  # block-2 digit bound is 3
    with pytest.raises(ValueError):
        vec_to_int((0, 0, 0, 0), D72)  # wrong arity


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(1.0), True, np.True_, "1", None])
def test_non_integer_indices_and_digits_are_refused(bad):
    """Only Python and NumPy integers are points and digits: no float is truncated and no bool read as 0 or 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        int_to_vec(bad, D72)
    with pytest.raises(ValueError, match="must be an integer"):
        vec_to_int((bad, 1, 0, 0, 0), D72)
    assert int_to_vec(np.int64(70), D72) == (0, 1, 1, 2, 2) == int_to_vec(np.uint8(70), D72)
    assert vec_to_int(np.array([0, 1, 1, 2, 2]), D72) == 70
    big = DomainSpec(((2, 70),))  # L = 2^70: Python integer arithmetic, no int64 overflow
    assert vec_to_int(np.ones(70, dtype=np.int64), big) == 2**70 - 1
    assert int_to_vec(2**70 - 1, big) == (1,) * 70


def test_block_structure_validation():
    with pytest.raises(ValueError):
        DomainSpec(())
    with pytest.raises(ValueError):
        DomainSpec(((1, 2),))
    with pytest.raises(ValueError):
        DomainSpec(((2, 0),))
    with pytest.raises(ValueError):
        DomainSpec(((3, 2), (2, 2)))  # not increasing
    with pytest.raises(ValueError):
        DomainSpec(((2, 2), (4, 1)))  # composite radix in multi-block
    # a single composite block is the uniform-domain case and is allowed
    assert DomainSpec(((6, 3),)).L == 216


def test_block_of_position():
    assert [D72.block_of_position(j) for j in range(5)] == [0, 0, 0, 1, 1]
    assert D72.block_positions(1) == (3, 4)
    with pytest.raises(ValueError):
        D72.block_of_position(5)


# every domain this file uses
DOMAINS = [((2, 3), (3, 2)), ((2, 2), (3, 1), (5, 1)), ((4, 3),), ((6, 2),), ((7, 1),), ((5, 4),),
           ((2, 2), (3, 2), (5, 1)), ((6, 3),)]


@pytest.mark.parametrize("blocks", DOMAINS)
def test_place_value_map_matches_per_block_oracles(blocks):
    d = DomainSpec(blocks)
    mat = digit_matrix(d)
    assert mat.dtype == np.int64 and np.array_equal(mat, oracle_digit_matrix(d))
    for x in range(d.L):
        assert int_to_vec(x, d) == oracle_int_to_vec(x, d)
    units = [tuple(int(t == j) for t in range(d.m)) for j in range(d.m)]
    assert d.weights == tuple(vec_to_int(u, d) for u in units)


def test_index_maps_beyond_int64():
    """int_to_vec and vec_to_int stay on Python integers, so L above 2^63 works."""
    d = DomainSpec(((2, 40), (3, 30), (5, 20)))
    assert d.L > 2**63
    rng = random.Random(5)
    for x in [0, 1, d.L - 1] + [rng.randrange(d.L) for _ in range(200)]:
        v = int_to_vec(x, d)
        assert v == oracle_int_to_vec(x, d)
        assert all(type(digit) is int for digit in v)
        assert vec_to_int(v, d) == x
