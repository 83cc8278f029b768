"""Index <-> digit-vector maps for mixed-radix domains.

A domain is a product of blocks Z_{p_1}^{m_1} x ... x Z_{p_k}^{m_k}.  A point
is a flat digit vector (x_1, ..., x_m), m = m_1 + ... + m_k, where the digits
of block i lie in {0, ..., p_i - 1}.  Integers x in [0, L), L = prod p_i^{m_i},
correspond bijectively to points: block 1 varies fastest, and within a block
the first digit is the least significant one.  Concretely

    x = sigma_1 * delta_1 + sigma_2 * delta_2 + ... + sigma_k * delta_k,

where sigma_i is the base-p_i value of block i's digits (LSB first) and the
strides satisfy delta_1 = 1, delta_{i+1} = delta_i * p_i^{m_i}.

For k = 1 this degenerates to the ordinary base-p expansion, least significant
digit first.  Multi-block domains require strictly increasing distinct primes;
a single block may use any radix >= 2 (the uniform case is also used with
composite moduli, e.g. Z_6^m).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod

import numpy as np


@functools.lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending (none at n = 1)."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(primes) + ((n,) if n > 1 else ())


@dataclass(frozen=True)
class DomainSpec:
    """A mixed-radix domain given as ((p_1, m_1), ..., (p_k, m_k)).

    p_i is the digit bound (radix) of block i and m_i the number of digits.
    Derived quantities: q = prod p_i (the common modulus the blocks embed in),
    L = prod p_i^{m_i} (number of points), m = sum m_i (number of variables).
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("domain needs at least one block")
        object.__setattr__(self, "blocks", tuple((int(p), int(mi)) for p, mi in self.blocks))
        for p, mi in self.blocks:
            if p < 2:
                raise ValueError(f"block radix must be >= 2, got {p}")
            if mi < 1:
                raise ValueError(f"block length must be >= 1, got {mi}")
        if len(self.blocks) > 1:
            radices = [p for p, _ in self.blocks]
            if any(prime_divisors(p) != (p,) for p in radices):
                raise ValueError(f"multi-block domains require prime radices, got {radices}")
            if any(a >= b for a, b in zip(radices, radices[1:])):
                raise ValueError(f"block radices must be strictly increasing, got {radices}")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def q(self) -> int:
        return prod(p for p, _ in self.blocks)

    @property
    def m(self) -> int:
        return sum(mi for _, mi in self.blocks)

    @property
    def L(self) -> int:
        return prod(p**mi for p, mi in self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """L_i = p_i^{m_i} for each block."""
        return tuple(p**mi for p, mi in self.blocks)

    @property
    def deltas(self) -> tuple[int, ...]:
        """Strides delta_i: delta_1 = 1, delta_{i+1} = delta_i * L_i."""
        out = [1]
        for size in self.block_sizes[:-1]:
            out.append(out[-1] * size)
        return tuple(out)

    @property
    def weights(self) -> tuple[int, ...]:
        """Place value of each of the m flat positions: digit j of block i weighs delta_i * p_i^j."""
        return tuple(delta * p**j for delta, (p, mi) in zip(self.deltas, self.blocks) for j in range(mi))

    @property
    def block_offsets(self) -> tuple[int, ...]:
        """Start index of each block in the flat digit vector."""
        out = [0]
        for _, mi in self.blocks[:-1]:
            out.append(out[-1] + mi)
        return tuple(out)

    @property
    def radix_per_position(self) -> tuple[int, ...]:
        """Digit bound of each of the m flat positions."""
        out = []
        for p, mi in self.blocks:
            out.extend([p] * mi)
        return tuple(out)

    def block_of_position(self, j: int) -> int:
        """Block index owning flat position j (0-based)."""
        if not 0 <= j < self.m:
            raise ValueError(f"position {j} out of range for m={self.m}")
        for i, (off, (_, mi)) in enumerate(zip(self.block_offsets, self.blocks)):
            if off <= j < off + mi:
                return i
        raise AssertionError

    def block_positions(self, i: int) -> tuple[int, ...]:
        """Flat positions belonging to block i."""
        off = self.block_offsets[i]
        return tuple(range(off, off + self.blocks[i][1]))


def place_digits(x, radix, weight) -> np.ndarray:
    """Digits of x under a place-value map: digit t is x // weight[t] % radix[t], on a new last axis.

    Every index <-> digit split in ccckit is one of these maps: points
    (``digit_matrix``), restriction classes (``qary.restriction_values``) and
    seed indices (``construct.seed_digits``).  int64 arithmetic.
    """
    x = np.asarray(x, dtype=np.int64)[..., None]
    return x // np.asarray(weight, dtype=np.int64) % np.asarray(radix, dtype=np.int64)


def int_to_vec(x: int, d: DomainSpec) -> tuple[int, ...]:
    """Digit vector of x, block 1 first, least significant digit first; x is a Python or NumPy integer, not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < d.L:
        raise ValueError(f"index {x} must be an integer in [0, {d.L})")
    return tuple(int(x) // w % p for w, p in zip(d.weights, d.radix_per_position))


def vec_to_int(v, d: DomainSpec) -> int:
    """Inverse of int_to_vec; every digit must be an integer within its bound, as int_to_vec's index must."""
    v = tuple(v)
    if len(v) != d.m:
        raise ValueError(f"expected {d.m} digits, got {len(v)}")
    for j, (digit, p) in enumerate(zip(v, d.radix_per_position)):
        if isinstance(digit, bool) or not isinstance(digit, (int, np.integer)) or not 0 <= digit < p:
            raise ValueError(f"digit {digit} at position {j} must be an integer in [0, {p})")
    return sum(int(digit) * w for digit, w in zip(v, d.weights))


def point_index(x, d: DomainSpec) -> int:
    """The index of a point given as an index or as a digit vector; a bool, a float or a point off the domain raises."""
    return vec_to_int(int_to_vec(x, d) if np.ndim(x) == 0 else x, d)


@functools.lru_cache(maxsize=64)
def digit_matrix(d: DomainSpec) -> np.ndarray:
    """(L, m) int64 array whose row x is int_to_vec(x, d).  Read-only."""
    out = place_digits(np.arange(d.L), d.radix_per_position, d.weights)
    out.setflags(write=False)
    return out
