import hashlib
import random
import re

import numpy as np
import pytest

import ccckit as ck
from ccckit import construct, example72
from ccckit.construct import ConfigError
from ccckit.exact_corr import (
    GroupRingElement,
    code_accf,
    correlation_profile,
    cyclotomic,
    is_zero_exact,
    pair_counts,
    reduction_matrix,
    zero_count_rows,
)
from ccckit.mixed_radix import prime_divisors
from ccckit.qary import restriction_values
from ccckit.verify import character_sums
from ccckit.waveform import RootSequence, psi, psi_restricted

from conftest import counts_via_convolution, cyclotomic_by_division, poly_divmod_exact, rand_root_sequence


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [*range(1, 31), 64, 72, 100])
def test_cyclotomic_product_identity(n):
    prod = np.ones(1, dtype=np.int64)
    for d in range(1, n + 1):
        if n % d == 0:
            prod = np.convolve(prod, cyclotomic(d))
    expect = [-1] + [0] * (n - 1) + [1]
    assert prod.tolist() == expect


def test_cyclotomic_matches_long_division():
    """The Moebius product over numpy gives the long-division polynomials for every n < 1200."""
    for n in range(1, 1200):
        assert cyclotomic(n) == cyclotomic_by_division(n), n


def test_cyclotomic_30030_identity():
    """Phi_30030(x) Phi_2310(x) = Phi_2310(x^13), since 13 does not divide 2310: exact on ints."""
    big, small = np.array(cyclotomic(30030)), np.array(cyclotomic(2310))
    assert big.size == 5761 and small.size == 481
    spread = np.zeros(480 * 13 + 1, dtype=np.int64)
    spread[::13] = small
    assert np.array_equal(np.convolve(big, small), spread)


def test_reduction_matrix_unchanged_up_to_1000():
    """The SHA-256 of every reduction_matrix(q), q = 1..1000, as little-endian int64, pinned from the
    build on the long-division cyclotomic."""
    digest = hashlib.sha256()
    for q in range(1, 1001):
        digest.update(reduction_matrix.__wrapped__(q).astype("<i8").tobytes())  # uncached: together 1.6 GB
    assert digest.hexdigest() == "621b1a59446ba159583839c55620b69230aaa4081cd8cda164397d6eb2356914"


def test_poly_divmod_requires_monic():
    with pytest.raises(ValueError):
        poly_divmod_exact((1, 2, 3), (1, 2))


# ---------------------------------------------------------------------------
# group-ring elements and the exact zero test


def test_is_zero_reference_cases():
    assert is_zero_exact(GroupRingElement(6, (1, 0, 1, 0, 1, 0)))  # 1 + w^2 + w^4
    assert not is_zero_exact(GroupRingElement(6, (1, 1, 0, 0, 0, 0)))
    for q in range(1, 13):
        assert is_zero_exact(GroupRingElement(q, (3,) * q)) == (q > 1)


def test_is_zero_mixed_orbit_sums():
    # sums of complete p-orbits inside Z_6 vanish; lone roots do not
    assert is_zero_exact(GroupRingElement(6, (1, 0, 0, 1, 0, 0)))  # 1 + w^3
    assert is_zero_exact(GroupRingElement(6, (0, 2, 0, 0, 2, 0)))  # 2w(1 + w^3)
    assert not is_zero_exact(GroupRingElement(6, (0, 0, 1, 0, 0, 0)))


def test_is_zero_agrees_with_float(rng):
    for _ in range(500):
        q = rng.choice([2, 3, 4, 5, 6, 8, 12])
        if rng.random() < 0.5:
            counts = [rng.randrange(-30, 31) for _ in range(q)]
        else:
            base = [rng.randrange(-5, 6) for _ in range(q)]
            counts = [0] * q
            phi = cyclotomic(q)
            for i, b in enumerate(base):
                for j, c in enumerate(phi):
                    counts[(i + j) % q] += b * c
        g = GroupRingElement(q, tuple(counts))
        if is_zero_exact(g):
            assert g.magnitude() < 1e-6
        else:
            assert g.magnitude() > 1e-7


def _multiple_of_phi(rng, q, phi, terms):
    """sum_i b_i x^{a_i} Phi_q(x) modulo x^q - 1, for ``terms`` random shifts a_i and small b_i."""
    row = np.zeros(q, dtype=np.int64)
    for _ in range(terms):
        a, b = rng.randrange(q), rng.choice([-3, -2, -1, 1, 2, 3])
        row[(a + np.arange(len(phi))) % q] += b * np.asarray(phi, dtype=np.int64)
    return row


def test_zero_count_rows_matches_scalar():
    """The annihilator test agrees with polynomial long division by Phi_q, squarefree q or not."""
    rng = random.Random(5)
    for q in (1, 2, 6, 4, 8, 9, 12, 18, 30, 50, 64, 105, 210, 323, 360):
        phi = cyclotomic(q)
        rows = []
        for i in range(200):
            if i % 2:  # a multiple of Phi_q in Z[x]/(x^q - 1): zero, unless the last step perturbs it by +-1
                row = _multiple_of_phi(rng, q, phi, q).tolist()
                row[rng.randrange(q)] += rng.choice([0, 0, 1, -1])
            else:
                row = [rng.randrange(-4, 5) for _ in range(q)]
            rows.append(row)
        flags = zero_count_rows(np.array(rows, dtype=np.int64), q)
        for row, flag in zip(rows, flags):
            assert (not poly_divmod_exact(row, phi)[1]) == bool(flag), q
        assert 0 < flags.sum() < len(rows), q


@pytest.mark.parametrize("q", [30030, 65536, 65537, 70000])
def test_zero_count_rows_at_large_alphabets(q):
    """Constructed zeros, multiples of Phi_q plus sums of whole p-orbits x^a (1 + x^{q/p} + ...), stay zero;
    one entry moved by +-1 makes each nonzero.  The rows are not written into."""
    rng = random.Random(q)
    phi = cyclotomic(q)
    zeros = []
    for _ in range(6):
        row = _multiple_of_phi(rng, q, phi, 8)
        for p in prime_divisors(q):
            for _ in range(4):
                row[(rng.randrange(q) + np.arange(p) * (q // p)) % q] += rng.randrange(-5, 6)
        zeros.append(row << 30)  # entries up to 2^38, inside the 2^48 the docstring allows
    perturbed = [row.copy() for row in zeros]
    for row in perturbed:
        row[rng.randrange(q)] += rng.choice([-1, 1])
    rows = np.array(zeros + perturbed)
    before = rows.copy()
    assert zero_count_rows(rows, q).tolist() == [True] * 6 + [False] * 6
    assert np.array_equal(rows, before)


@pytest.mark.parametrize("shape", [(2, 5), (2, 7), (6,), (1, 2, 6)])
def test_zero_count_rows_needs_rows_q_wide(shape):
    with pytest.raises(ValueError):
        zero_count_rows(np.zeros(shape, dtype=np.int64), 6)


def test_reduction_matrix_rows_are_powers_of_x_mod_phi():
    for q in (1, 2, 6, 9, 12, 30):
        phi = cyclotomic(q)
        for j, row in enumerate(reduction_matrix(q).tolist()):
            rem = poly_divmod_exact((0,) * j + (1,), phi)[1]
            assert row == list(rem) + [0] * (len(phi) - 1 - len(rem)), (q, j)


def test_reduction_matrix_refuses_sizes_beyond_memory(monkeypatch):
    # (65537, 65536) int64 is 32 GiB; the guard runs before numpy allocates it
    monkeypatch.setattr(construct.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}[name])
    with pytest.raises(ConfigError, match="reduction matrix .*physical memory"):
        reduction_matrix(65537)


def test_conjugate():
    g = GroupRingElement(6, (1, 2, 3, 4, 5, 6))
    assert g.conjugate().counts == (1, 6, 5, 4, 3, 2)
    val = g.to_complex()
    assert abs(g.conjugate().to_complex() - val.conjugate()) < 1e-9


# ---------------------------------------------------------------------------
# accf


def test_accf_zero_shift_self():
    seq = psi(example72.function())
    g = code_accf(seq, seq, 0)
    assert g.counts[0] == 72 and sum(g.counts) == 72
    assert abs(g.to_complex() - 72) < 1e-9


def test_accf_hand_example():
    a = RootSequence(2, (0, 0, 0, 1))  # (+, +, +, -)
    g = code_accf(a, a, 1)
    assert g.counts == (2, 1)
    assert abs(g.to_complex() - 1) < 1e-12


def _accf_complex_oracle(a: RootSequence, b: RootSequence, tau: int) -> complex:
    # independent brute-force evaluation straight from the defining sum
    va, vb = a.to_complex(), b.to_complex()
    L = len(a)
    if tau >= 0:
        return sum(va[t] * np.conj(vb[t + tau]) for t in range(L - tau))
    return sum(va[t - tau] * np.conj(vb[t]) for t in range(L + tau))


def test_accf_against_bruteforce(rng):
    for _ in range(25):
        q = rng.choice([2, 3, 4, 6])
        L = rng.randrange(2, 12)
        a = rand_root_sequence(rng, q, L, holes=True)
        b = rand_root_sequence(rng, q, L, holes=True)
        for tau in range(-(L - 1), L):
            g = code_accf(a, b, tau)
            assert abs(g.to_complex() - _accf_complex_oracle(a, b, tau)) < 1e-9
            assert sum(g.counts) <= L - abs(tau)


def test_accf_restricted_support_counts():
    f = example72.function()
    seq = psi_restricted(f, (1,), (0,))
    g = code_accf(seq, seq, 1)
    # support pairs (t, t+1) both defined: only the (4n, 4n+1) pairs, 18 of them
    assert sum(g.counts) == 18
    assert abs(g.to_complex() - _accf_complex_oracle(seq, seq, 1)) < 1e-9


def test_accf_conjugate_symmetry(rng):
    for _ in range(10):
        q = rng.choice([3, 4, 6])
        L = rng.randrange(2, 10)
        a = rand_root_sequence(rng, q, L, holes=True)
        b = rand_root_sequence(rng, q, L, holes=True)
        for tau in range(L):
            assert code_accf(a, b, -tau).counts == code_accf(b, a, tau).conjugate().counts


def test_accf_errors():
    a = RootSequence(2, (0, 1))
    with pytest.raises(ValueError):
        code_accf(a, RootSequence(3, (0, 1)), 0)
    with pytest.raises(ValueError):
        code_accf(a, RootSequence(2, (0, 1, 0)), 0)
    with pytest.raises(ValueError):
        code_accf(a, a, 2)


# ---------------------------------------------------------------------------
# code-level correlation


def test_code_accf_golay_pair():
    row = [RootSequence(2, (0, 0, 0, 1)), RootSequence(2, (0, 1, 0, 0))]
    g = code_accf(row, row, 1)
    assert is_zero_exact(g)
    g0 = code_accf(row, row, 0)
    assert g0.counts[0] == 8 and sum(g0.counts) == 8


def test_code_accf_verified_set_cross_row():
    codes = example72.build()
    g = code_accf(codes.code(0), codes.code(5), 0)
    assert is_zero_exact(g)
    g = code_accf(codes.code(0), codes.code(0), 0)
    assert is_zero_exact(g - GroupRingElement(6, (864, 0, 0, 0, 0, 0)))  # the peak M*L = 864 at shift 0


def test_code_accf_shape_errors():
    row = [RootSequence(2, (0, 0, 0, 1))]
    with pytest.raises(ValueError):
        code_accf(row, [RootSequence(2, (0, 0, 0, 1))] * 2, 0)


# ---------------------------------------------------------------------------
# profiles and the convolution cross-check


@pytest.mark.parametrize("holes", [False, True])
def test_pair_counts_one_code_against_the_set(holes):
    """A (K, M, L) set against one code gives (K, len(taus), q), each pair as its own call would."""
    gen = np.random.default_rng(3)
    K, M, L, q = 4, 3, 7, 6
    exps = gen.integers(q, size=(K, M, L)).astype(np.uint8)
    mask = gen.random((K, M, L)) >= 0.2 if holes else None
    taus = (0, 3, -2, 6)
    for a in range(K):
        row = (exps[a], None if mask is None else mask[a])
        together = pair_counts(*row, exps, mask, q, taus)
        assert together.shape == (K, len(taus), q)
        for b in range(K):
            alone = pair_counts(*row, exps[b], None if mask is None else mask[b], q, taus)
            assert np.array_equal(together[b], alone), (a, b)
        assert np.array_equal(pair_counts(exps, mask, *row, q, taus)[a], together[a])


def _tally(e1, m1, e2, m2, q, tau):
    """The q counts of (e1_t - e2_{t+tau}) mod q over the defined pairs of two (M, L) rows, one element at a time."""
    counts = [0] * q
    M, L = e1.shape
    for m in range(M):
        for t in range(max(0, -tau), min(L, L - tau)):
            if (m1 is None or m1[m, t]) and (m2 is None or m2[m, t + tau]):
                counts[(int(e1[m, t]) - int(e2[m, t + tau])) % q] += 1
    return counts


@pytest.mark.parametrize("q", [1, 2, 3, 6, 256, 257, 65536, 65537])
@pytest.mark.parametrize("holes", [False, True])
def test_pair_counts_fold_matches_a_per_element_count(q, holes):
    """The 2q-bin fold counts every residue of e1 - e2 exactly, in each storage dtype, at the extreme
    differences +-(q - 1), with masks, at shifts 0, +-1 and +-(L - 1), and in every broadcast shape."""
    gen = np.random.default_rng(q + holes)
    K, M, L = 3, 2, 7
    exps = gen.integers(q, size=(K, M, L)).astype(construct.exps_dtype(q))
    exps[0, :, ::2], exps[1, :, ::2] = 0, q - 1  # d = -(q - 1) for (0, 1) and q - 1 for (1, 0) at shift 0
    exps[0, :, 1::2], exps[1, :, 1::2] = q - 1, 0
    mask = gen.random((K, M, L)) >= 0.25 if holes else None
    taus = (0, 1, -1, L - 1, 1 - L)
    for a in range(K):
        row = (exps[a], None if mask is None else mask[a])
        against_set = pair_counts(*row, exps, mask, q, taus)
        set_against = pair_counts(exps, mask, *row, q, taus)
        for b in range(K):
            other = (exps[b], None if mask is None else mask[b])
            want = [_tally(*row, *other, q, tau) for tau in taus]
            assert pair_counts(*row, *other, q, taus).tolist() == want, (a, b)
            assert against_set[b].tolist() == want, (a, b)
            assert set_against[b].tolist() == [_tally(*other, *row, q, tau) for tau in taus], (a, b)
    rs = (1, q - 1, gen.integers(q))
    table = gen.integers(q, size=q)
    table[::2] = q - 1
    want = [np.bincount(r * table % q, minlength=q).tolist() for r in rs]
    assert character_sums(table, rs).tolist() == want  # the (R, 1, q) set against one all-zero code


def test_profile_negative_shifts_match_direct(rng):
    q, L, M = 6, 9, 2
    row1 = [rand_root_sequence(rng, q, L, holes=True) for _ in range(M)]
    row2 = [rand_root_sequence(rng, q, L, holes=True) for _ in range(M)]
    prof = correlation_profile(row1, row2)
    for tau in prof.taus:
        assert prof.element(tau).counts == code_accf(row1, row2, tau).counts


def test_profile_matches_convolution_path(rng):
    for holes in (False, True):
        q, L, M = 6, 11, 3
        row1 = [rand_root_sequence(rng, q, L, holes=holes) for _ in range(M)]
        row2 = [rand_root_sequence(rng, q, L, holes=holes) for _ in range(M)]
        prof = correlation_profile(row1, row2)
        conv = counts_via_convolution(row1, row2)
        assert np.array_equal(prof.counts, conv)


def test_profile_verified_set_shapes():
    codes = example72.build()
    prof = correlation_profile(codes.code(1), codes.code(1))
    mags = prof.magnitudes()
    center = codes.L - 1
    assert abs(mags[center] - 864) < 1e-6
    off = np.delete(mags, center)
    assert off.max() < 1e-6
    flags = zero_count_rows(prof.counts, codes.q)
    assert not flags[center]
    assert np.delete(flags, center).all()
    # cross profile of two distinct codes: exactly zero at every shift
    cross = correlation_profile(codes.code(1), codes.code(11))
    assert zero_count_rows(cross.counts, codes.q).all()
    assert cross.magnitudes().max() < 1e-6


def test_profile_empty_overlap_is_zero():
    # single-support sequences: at the extreme positive shift nothing overlaps
    a = RootSequence(4, (None, None, 0))
    b = RootSequence(4, (2, None, None))
    prof = correlation_profile([a], [b])
    assert prof.element(2).counts == (0, 0, 0, 0)
    assert sum(prof.element(0).counts) == 0
    assert prof.element(-2).counts == (0, 0, 1, 0)  # exponent 0 - 2 mod 4


def test_profile_element_rejects_out_of_range_shifts():
    a = RootSequence(4, (0, 1, 3))
    prof = correlation_profile([a], [a])
    assert prof.element(-2).counts == (0, 0, 0, 1) and prof.element(2).counts == (0, 1, 0, 0)
    for tau in (-3, 3):
        with pytest.raises(ValueError, match="out of range for length 3"):
            prof.element(tau)


def test_restricted_decomposition_exhaustive(rng):
    # Theta(psi f, psi g)(tau) = sum over (c1, c2) of the restricted correlations
    d = ck.DomainSpec(((2, 2), (3, 1)))
    J = (1, 2)
    table_f = [rng.randrange(6) for _ in range(d.L)]
    table_g = [rng.randrange(6) for _ in range(d.L)]
    f = ck.QaryFunction(d, np.array(table_f))
    g = ck.QaryFunction(d, np.array(table_g))
    parts_f = [psi_restricted(f, J, c) for c in restriction_values(d, J)]
    parts_g = [psi_restricted(g, J, c) for c in restriction_values(d, J)]
    full_f, full_g = psi(f), psi(g)
    for tau in range(-(d.L - 1), d.L):
        total = GroupRingElement.zero(6)
        for pf in parts_f:
            for pg in parts_g:
                total = total + code_accf(pf, pg, tau)
        assert total.counts == code_accf(full_f, full_g, tau).counts


GOLAY = RootSequence(2, (0, 0, 0, 1))


@pytest.mark.parametrize(("make", "error", "message"), [
    (lambda: cyclotomic(0), ValueError, "n must be >= 1"),
    (lambda: GroupRingElement(3, (1, 2)), ValueError, "need 3 multiplicities, got 2"),
    (lambda: GroupRingElement.zero(2) + GroupRingElement.zero(3), ValueError, "modulus mismatch"),
    (lambda: GroupRingElement.zero(2) - GroupRingElement.zero(3), ValueError, "modulus mismatch"),
    (lambda: code_accf([GOLAY, (0, 0, 0, 1)], [GOLAY, GOLAY], 0), TypeError,
     "expected RootSequence, got <class 'tuple'>"),
    (lambda: code_accf([GOLAY, RootSequence(3, (0, 0, 0, 1))], [GOLAY, GOLAY], 0), ValueError,
     "mixed moduli in code row: [2, 3]"),
    (lambda: code_accf([GOLAY, RootSequence(2, (0, 1))], [GOLAY, GOLAY], 0), ValueError,
     "mixed lengths in code row: [2, 4]"),
], ids=["cyclotomic_0", "element_length", "add_across_moduli", "sub_across_moduli", "row_not_root_sequence",
        "row_mixed_moduli", "row_mixed_lengths"])
def test_exact_corr_refusals(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
