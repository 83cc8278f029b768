"""Benchmark-local checks that do not go through ccckit's kernels.

The zero test here uses the Moebius product for the cyclotomic polynomial,
Phi_n = prod_{d | n} (x^d - 1)^{mu(n/d)}, and plain Python integers, so it
shares no code with ``ccckit.exact_corr``.
"""

from __future__ import annotations

import functools

import numpy as np


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division by a monic polynomial (ascending coefficients)."""
    rem = list(num)
    d = len(den) - 1
    quot = [0] * max(len(rem) - d, 1)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quot[i - d] = c
            for j, dj in enumerate(den):
                rem[i - d + j] -= c * dj
    return quot, rem[:d]


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    top, bottom = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            factor = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            mu = _mobius(n // d)
            if mu == 1:
                top = _mul(top, factor)
            elif mu == -1:
                bottom = _mul(bottom, factor)
    quot, rem = _divmod(top, bottom)
    if any(rem):
        raise AssertionError(f"inexact cyclotomic product for n={n}")
    while quot and quot[-1] == 0:
        quot.pop()
    return tuple(quot)


def is_zero(counts, q: int) -> bool:
    """True iff sum_j counts[j] * zeta_q^j == 0 exactly."""
    _, rem = _divmod([int(c) for c in counts], list(cyclotomic(q)))
    return not any(rem)


def cell_counts(exps: np.ndarray, mask, k1: int, k2: int, tau: int, q: int) -> np.ndarray:
    """Code-level counts of Theta(code k1, code k2)(tau) for tau >= 0."""
    L = exps.shape[2]
    a = exps[k1, :, : L - tau].astype(np.int64)
    b = exps[k2, :, tau:].astype(np.int64)
    diff = (a - b) % q
    if mask is not None:
        diff = diff[mask[k1, :, : L - tau] & mask[k2, :, tau:]]
    return np.bincount(diff.ravel(), minlength=q)


def check_probe_cell(exps, mask, q: int, k1: int, k2: int, tau: int, reported) -> str | None:
    """None if the reported violating cell recounts to the same nonzero value."""
    if not 0 <= tau < exps.shape[2]:
        return f"reported shift {tau} outside [0, {exps.shape[2]})"
    counts = cell_counts(exps, mask, k1, k2, tau, q)
    if [int(c) for c in counts] != [int(c) for c in reported]:
        return f"cell ({k1},{k2},{tau}) recounts to {counts.tolist()}, reported {list(reported)}"
    target = counts.copy()
    if k1 == k2 and tau == 0:
        target[0] -= exps.shape[1] * exps.shape[2]  # the peak M*L is not a violation
    if is_zero(target, q):
        return f"cell ({k1},{k2},{tau}) is not a violation under the exact test"
    return None
