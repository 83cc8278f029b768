"""Shared generators for randomized construction specs, and the test oracles several modules use."""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccckit as ck
from ccckit.exact_corr import _stack_row
from ccckit.mixed_radix import prime_divisors
from ccckit.qary import is_permutation_mod

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, timeout: float, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports ccckit from this checkout; text output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True,
                          timeout=timeout, cwd=cwd)


def rand_table(rng: random.Random, q: int) -> tuple:
    return tuple(rng.randrange(q) for _ in range(q))


def rand_perm_table(rng: random.Random, q: int, p: int) -> tuple:
    """Length-q table whose values mod p permute {0..p-1} on inputs {0..p-1}."""
    sigma = rng.sample(range(p), p)
    return tuple(sigma[u % p] + p * rng.randrange(q // p) for u in range(q))


def rand_nonperm_table(rng: random.Random, q: int, p: int) -> tuple:
    while True:
        t = rand_table(rng, q)
        if not is_permutation_mod(t, p):
            return t


def rand_theorem1_spec(rng: random.Random, q: int, m: int, identity_pi: bool = False):
    pi = tuple(range(m)) if identity_pi else tuple(rng.sample(range(m), m))
    h = [rand_perm_table(rng, q, q) for _ in range(m - 1)]
    hp = [rand_perm_table(rng, q, q) for _ in range(m - 1)]
    g = [rand_table(rng, q) for _ in range(m)]
    return ck.theorem1_spec(q, m, h, hp, g, pi)


def rand_theorem2_spec(rng: random.Random, p1, p2, m1, m2, lam=None, identity_pi=False):
    q = p1 * p2
    if identity_pi:
        pi = tuple(range(m1))
        pip = tuple(range(m1, m1 + m2))
    else:
        pi = tuple(rng.sample(range(m1), m1))
        pip = tuple(m1 + i for i in rng.sample(range(m2), m2))
    return ck.theorem2_spec(
        p1, p2, m1, m2, pi=pi, pip=pip,
        f=[rand_perm_table(rng, q, p1) for _ in range(m1 - 1)],
        fp=[rand_perm_table(rng, q, p1) for _ in range(m1 - 1)],
        h=[rand_perm_table(rng, q, p2) for _ in range(m2 - 1)],
        hp=[rand_perm_table(rng, q, p2) for _ in range(m2 - 1)],
        g=[rand_table(rng, q) for _ in range(m1)],
        gp=[rand_table(rng, q) for _ in range(m2)],
        f0=rand_table(rng, q),
        h0=rand_table(rng, q),
        lam=rng.randrange(q) if lam is None else lam,
    )


def rand_root_sequence(rng: random.Random, q: int, L: int, holes: bool = False) -> ck.RootSequence:
    ents = []
    for _ in range(L):
        if holes and rng.random() < 0.3:
            ents.append(None)
        else:
            ents.append(rng.randrange(q))
    return ck.RootSequence(q, tuple(ents))


def counts_via_convolution(row1, row2) -> np.ndarray:
    """(2L-1, q) counts for tau = -(L-1) .. L-1 via generating polynomials.

    The test oracle for the shiftwise counts, independent of them: each
    sequence becomes a polynomial in z with one-hot group-ring coefficients,
    and the product A(z) * conj(B)(1/z) is expanded with integer convolutions
    per residue pair.  Row index tau + L - 1 holds the counts at shift tau.
    """
    e1, m1, q = _stack_row(row1)
    e2, m2, _ = _stack_row(row2)
    M, L = e1.shape
    out = np.zeros((2 * L - 1, q), dtype=np.int64)
    for m in range(M):
        hot1 = np.zeros((q, L), dtype=np.int64)
        hot2 = np.zeros((q, L), dtype=np.int64)
        idx = np.arange(L)
        hot1[e1[m], idx] = m1[m].astype(np.int64)
        hot2[e2[m], idx] = m2[m].astype(np.int64)
        for r1 in range(q):
            if not hot1[r1].any():
                continue
            for r2 in range(q):
                if not hot2[r2].any():
                    continue
                # convolve pairs hot1[t] with hot2[t + (L-1-u)]; reversing maps
                # output index u back to shift tau = t' - t with tau + L - 1 = u
                conv = np.convolve(hot1[r1], hot2[r2][::-1])[::-1]
                out[:, (r1 - r2) % q] += conv
    return out


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficients, trailing zeros trimmed): the long-division oracle of cyclotomic


def poly_trim(p) -> tuple[int, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_divmod_exact(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide by a monic integer polynomial; quotient and remainder stay integral."""
    den = poly_trim(den)
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    d = len(den) - 1
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quot[i - d] = c
            for j, dj in enumerate(den):
                rem[i - d + j] -= c * dj
    return poly_trim(quot), poly_trim(rem)


@functools.lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """Phi_n in Python integers: Phi_r(x^s) with r = rad(n), the product of the primes of n, s = n / r,
    and Phi_r the exact quotient of x^r - 1 by Phi_d for every proper divisor d of r."""
    r = math.prod(prime_divisors(n))
    if r < n:
        phi, s = cyclotomic_by_division(r), n // r
        out = [0] * ((len(phi) - 1) * s + 1)
        out[::s] = phi
        return tuple(out)
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod_exact(poly, cyclotomic_by_division(d))
            assert not rem, (n, d)
    return poly


# ---------------------------------------------------------------------------
# index <-> digit oracles: per-block loops, independent of mixed_radix.place_digits


def oracle_int_to_vec(x: int, d: ck.DomainSpec) -> tuple:
    """Split x per block (block 1 first), then each block's value into base-p digits, least significant first."""
    digits = []
    for p, mi in d.blocks:
        sigma, x = x % p**mi, x // p**mi
        for _ in range(mi):
            digits.append(sigma % p)
            sigma //= p
    return tuple(digits)


def oracle_digit_matrix(d: ck.DomainSpec) -> np.ndarray:
    """(L, m) digits of every point, one block and one digit column at a time."""
    cols = []
    idx = np.arange(d.L)
    for (p, mi), delta in zip(d.blocks, d.deltas):
        sigma = (idx // delta) % (p**mi)
        for j in range(mi):
            cols.append((sigma // p**j) % p)
    return np.stack(cols, axis=1).astype(np.int64)


def oracle_restriction_index(d: ck.DomainSpec, J, c) -> int:
    """Per block, the digits of c at that block's J-positions, least significant first; block 1 fastest."""
    idx = 0
    stride = 1
    for i, (p, _) in enumerate(d.blocks):
        members = [cj for j, cj in zip(J, c) if d.block_of_position(j) == i]
        idx += sum(cj * p**t for t, cj in enumerate(members)) * stride
        stride *= p ** len(members)
    return idx


def oracle_restriction_values(d: ck.DomainSpec, J) -> list:
    """Every digit tuple c on positions J, listed by itertools.product in restriction-index order."""
    J = tuple(J)
    radix = d.radix_per_position
    per_block = [[] for _ in d.blocks]
    for pos_in_J, j in enumerate(J):
        per_block[d.block_of_position(j)].append(pos_in_J)
    order = [pos for members in per_block for pos in members]
    out = []
    for combo in itertools.product(*reversed([range(radix[J[pos]]) for pos in order])):
        c = [0] * len(J)
        for pos, val in zip(order, reversed(combo)):
            c[pos] = val
        out.append(tuple(c))
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0DE)
