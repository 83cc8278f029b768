"""Aperiodic correlation with exact zero-testing in the group ring Z[Z_q].

A correlation value Theta(a, b)(tau) of root-of-unity sequences is a sum of
q-th roots of unity.  We never collapse it to floating point for decisions:
the sum is kept as an integer multiplicity vector counts[0..q-1] (counts[j] =
how many terms contributed the root with exponent j).  Such an element is
zero as a complex number iff Phi_q divides its counts polynomial, which
``zero_count_rows`` decides with integers and no table.  This matters as for
composite q there are nontrivial vanishing sums of roots of unity, so a small
float magnitude proves nothing and a large one can still mislead near the
tolerance.  Float evaluation is a prefilter/diagnostic only.

The one exception is ``fft_gram_cells``, which zero-tests every cell of a
code set at once.  It evaluates each cell at the characters zeta -> zeta^j,
j a unit <= q/2, through FFTs in float64 and calls the cell nonzero when
some |Theta_j| >= 1/2.  That is exact: a nonzero cell has a nonzero integer
norm, the product of its images over all units j, so one image has modulus
>= 1, and ``fft_gram_bound`` proves every computed image within 1/2 of the
true one.  Its FFT length N is the least 2^a 3^b 5^c >= 2L - 1
(``fft_length``), and ``fft_error`` bounds numpy's FFT error there pass by
pass over the radix-8/4/2/3/5 passes its pocketfft runs, after Percival
(Math. Comp. 72 (2003) 387-395).  Callers check the bound first and fall
back to the integer shiftwise counts when it fails.  It works in tiles of
code pairs: per chunk of sequences, one FFT call gives a block's spectra,
bin-major, and one batched matmul over the bins the tile's Gram; a diagonal
tile transforms its pairs a <= b only.  Its buffers, inside which flagged
cells are decoded, fit one budget that grows with the set,
``tile_budget``: min(64 MiB, max(4 MiB, 16 K M L), physical memory / 8).
``plan_tiles`` picks the tile shape of least modelled time within it.
Evaluated at the one character j = 1 against a magnitude threshold, it is
also the advisory float check.

Shift convention: Theta(a,b)(tau) = sum_t a_t * conj(b_{t+tau}) over the t
with 0 <= t, t + tau < L, for any tau in (-L, L).  ``pair_counts`` is the one
integer counter; every exact count outside the fft-gram kernel comes from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .construct import _check_alloc, _physical_memory
from .mixed_radix import prime_divisors
from .waveform import RootSequence, root_table

# ---------------------------------------------------------------------------
# cyclotomic polynomials


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    With r = rad(n) > 1 and s = n / r, Phi_n(x) = Phi_r(x^s), and Phi_r
    is the Moebius product prod_{d | r} (1 - x^{r/d})^{mu(d)}, taken modulo
    x^r, which keeps all phi(r) + 1 < r + 1 coefficients of Phi_r.  Each
    r/d divides r: multiplying by 1 - x^{r/d} is a shift-subtract, and
    dividing by it a running sum with stride r/d, one reshape and cumsum.
    Every step is a ring operation on int64, so numpy's silent wrap mod 2^64
    in an intermediate coefficient cannot change a final one that fits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    primes, r = prime_divisors(n), math.prod(prime_divisors(n))
    factors = [(r, 1)]  # (r/d, mu(d)) for every d | r, which is squarefree
    for p in primes:
        factors += [(k // p, -mu) for k, mu in factors]
    phi = np.zeros(r, dtype=np.int64)
    phi[0] = 1
    for k, mu in factors:
        if mu > 0:
            phi[k:] -= phi[:-k]
        else:
            phi = phi.reshape(-1, k).cumsum(axis=0).ravel()
    degree, s = math.prod(p - 1 for p in primes), n // r
    out = np.zeros(degree * s + 1, dtype=np.int64)
    out[::s] = phi[: degree + 1]
    return tuple(out.tolist())


# Nothing in src calls this; perfbench's setup still warms it (ROADMAP item 1).
@functools.lru_cache(maxsize=None)
def reduction_matrix(q: int) -> np.ndarray:
    """(q, deg Phi_q) int64 matrix; row j holds x^j reduced modulo Phi_q.

    counts @ matrix is the remainder of the counts polynomial, so a batch of
    group-ring elements can be zero-tested with one integer matmul.  A matrix
    beyond physical memory is refused before allocation (``ConfigError``).
    """
    low = np.array(cyclotomic(q)[:-1], dtype=np.int64)  # Phi_q is monic: x^d = -low (mod Phi_q)
    d = low.size
    _check_alloc(8 * q * d, f"the ({q}, {d}) reduction matrix of Phi_{q}")
    rows = np.zeros((q, d), dtype=np.int64)
    rows[:d] = np.eye(d, dtype=np.int64)
    for j in range(d, q):  # x^j = x * x^(j-1)
        rows[j, 1:] = rows[j - 1, :-1]
        rows[j] -= rows[j - 1, -1] * low
    rows.setflags(write=False)
    return rows


# ---------------------------------------------------------------------------
# group-ring elements


@dataclass(frozen=True)
class GroupRingElement:
    """sum_j counts[j] * zeta_q^j held exactly as integer multiplicities; ``is_zero_exact`` tests it for 0."""

    q: int
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.q:
            raise ValueError(f"need {self.q} multiplicities, got {len(counts)}")
        object.__setattr__(self, "counts", counts)

    @staticmethod
    def zero(q: int) -> "GroupRingElement":
        return GroupRingElement(q, (0,) * q)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.q != other.q:
            raise ValueError("modulus mismatch")
        return GroupRingElement(self.q, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.q != other.q:
            raise ValueError("modulus mismatch")
        return GroupRingElement(self.q, tuple(a - b for a, b in zip(self.counts, other.counts)))

    def conjugate(self) -> "GroupRingElement":
        """Complex conjugation: exponent j becomes -j mod q."""
        return GroupRingElement(self.q, tuple(self.counts[(-j) % self.q] for j in range(self.q)))

    def to_complex(self) -> complex:
        return complex(np.dot(np.asarray(self.counts, dtype=np.float64), root_table(self.q)))

    def magnitude(self) -> float:
        return abs(self.to_complex())


def is_zero_exact(g: GroupRingElement) -> bool:
    """True iff g is zero as a complex number: ``zero_count_rows`` on its one row."""
    return bool(zero_count_rows(np.array([g.counts], dtype=np.int64), g.q)[0])


def zero_count_rows(counts: np.ndarray, q: int) -> np.ndarray:
    """Boolean vector: which rows of an (N, q) counts matrix are exactly zero.

    A row c is zero iff c(zeta_q) = 0, iff the monic Phi_q divides it.  The
    test multiplies by A(x) = prod_{p | q} (1 - x^{q/p}) modulo x^q - 1, one
    cyclic shift-subtract per prime: as x^q - 1 is squarefree, Q[x]/(x^q - 1)
    is the product of the fields Q[x]/Phi_d, d | q; a proper divisor d
    divides some q/p, so A is 0 in Q[x]/Phi_d, and A(zeta_q) != 0 as all
    q/p < q, so c A = 0 iff c(zeta_q) = 0.  No table is built, ``counts`` is
    not written into, and with each factor at most doubling the largest entry
    and omega(q) <= 15 for an int64 q, nothing wraps while all |c_j| < 2^48.
    """
    rows = np.asarray(counts, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != q:
        raise ValueError(f"count rows must be (N, {q}), got {rows.shape}")
    for p in prime_divisors(q):
        k = q // p
        rows = rows - np.concatenate((rows[:, -k:], rows[:, :-k]), axis=1)  # times 1 - x^k: c_j - c_{j-k mod q}
    return ~rows.any(axis=1)


# ---------------------------------------------------------------------------
# correlation of sequences and code rows


def _stack_row(row):
    """Stack a code row (list of RootSequence) into (exps (M,L), mask (M,L), q)."""
    if isinstance(row, RootSequence):
        row = [row]
    exps, masks, qs = [], [], set()
    for seq in row:
        if not isinstance(seq, RootSequence):
            raise TypeError(f"expected RootSequence, got {type(seq)!r}")
        e, m = seq.to_arrays()
        exps.append(e)
        masks.append(m)
        qs.add(seq.q)
    if len(qs) != 1:
        raise ValueError(f"mixed moduli in code row: {sorted(qs)}")
    lens = {len(e) for e in exps}
    if len(lens) != 1:
        raise ValueError(f"mixed lengths in code row: {sorted(lens)}")
    return np.stack(exps), np.stack(masks), qs.pop()


def _stack_pair(row1, row2) -> tuple:
    """(e1, m1, e2, m2, q) of two code rows, as pair_counts takes them; the rows must share q, M and L."""
    (e1, m1, q), (e2, m2, q2) = _stack_row(row1), _stack_row(row2)
    if q != q2 or e1.shape != e2.shape:
        raise ValueError("code rows must share modulus, length and sequence count")
    return e1, m1, e2, m2, q


def code_accf(row1, row2, tau: int) -> GroupRingElement:
    """Correlation of two code rows at one shift, summed over paired sequences, exactly.

    A row is a RootSequence or a list of them.  Entries that are literal zeros
    (None) contribute nothing.  Conjugation of row2 negates its exponents mod q.
    """
    pair = _stack_pair(row1, row2)
    return GroupRingElement(pair[-1], pair_counts(*pair, (tau,))[0])


def pair_counts(e1, m1, e2, m2, q, taus=None) -> np.ndarray:
    """(..., len(taus), q) int64 counts of code rows (..., M, L) at each shift in taus.

    Entry [..., i, :] holds the multiplicities of the exponents of Theta(tau)
    for tau = taus[i], any shift in (-L, L); the default is 0 .. L-1.  The
    leading axes of the two rows broadcast: two (M, L) rows give
    (len(taus), q), one code against a (K, M, L) set gives (K, len(taus), q).
    A mask of None means every entry is defined.

    Every exponent must lie in [0, q), as ``CodeSet`` and ``RootSequence``
    enforce, so d = e1 - e2 + q lies in [1, 2q - 1] and no modulo is taken.
    Each shift is one bincount with every pair in its own 2q bins, pair * 2q
    + d; bins r and q + r both hold the residue r, so summing a pair's two
    halves gives its q counts exactly.
    """
    L = e1.shape[-1]
    taus = range(L) if taus is None else taus
    batch = np.broadcast_shapes(e1.shape[:-2], e2.shape[:-2])
    bins = np.arange(q, 2 * q * math.prod(batch), 2 * q, dtype=np.int64).reshape(batch + (1, 1))
    out = np.empty(batch + (len(taus), q), dtype=np.int64)
    for i, tau in enumerate(taus):
        if not -L < tau < L:
            raise ValueError(f"shift {tau} out of range for length {L}")
        s1, s2 = (slice(0, L - tau), slice(tau, L)) if tau >= 0 else (slice(-tau, L), slice(0, L + tau))
        d = bins + e1[..., s1]  # the int64 bins widen the unsigned stored exponents
        d -= e2[..., s2]
        valid = None
        for mask, s in ((m1, s1), (m2, s2)):
            if mask is not None:
                valid = mask[..., s] if valid is None else valid & mask[..., s]
        d = d.ravel() if valid is None else d[np.broadcast_to(valid, d.shape)]
        halves = np.bincount(d, minlength=bins.size * 2 * q).reshape(batch + (2, q))
        np.add(halves[..., 0, :], halves[..., 1, :], out=out[..., i, :])
    return out


# perfbench/spans.py traces the counter under this name; it is the same function.
pair_counts_nonneg_shifts = pair_counts


@dataclass(frozen=True)
class CorrelationProfile:
    """Exact counts for every shift of a pair of code rows.

    counts[tau + L - 1] is the multiplicity vector at shift tau, for
    tau = -(L-1) .. L-1.  Narrowing to complex numbers is derived data.
    """

    q: int
    L: int
    M: int
    counts: np.ndarray

    @property
    def taus(self) -> range:
        return range(-(self.L - 1), self.L)

    def element(self, tau: int) -> GroupRingElement:
        if not -self.L < tau < self.L:
            raise ValueError(f"shift {tau} out of range for length {self.L}")
        return GroupRingElement(self.q, tuple(int(c) for c in self.counts[tau + self.L - 1]))

    def complex_values(self) -> np.ndarray:
        return self.counts.astype(np.float64) @ root_table(self.q)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.complex_values())


def correlation_profile(row1, row2) -> CorrelationProfile:
    """All shifts -(L-1) .. L-1 of the code-level correlation between two rows."""
    e1, m1, e2, m2, q = _stack_pair(row1, row2)
    M, L = e1.shape
    return CorrelationProfile(q, L, M, pair_counts(e1, m1, e2, m2, q, range(1 - L, L)))


# ---------------------------------------------------------------------------
# fft-gram kernel: every cell of a code set, zero-tested through characters
#
# A cell (a, b, tau) holds alpha = Theta(a, b)(tau) - M*L*[a == b, tau == 0],
# an element of Z[zeta_q].  Its image under the embedding zeta -> zeta^j is
# Theta_j(a, b)(tau) less the same peak: the correlation with every root raised
# to the j-th power.  If alpha != 0, its norm, the product of those images over
# the units j, is a nonzero integer, so some image has modulus >= 1; since
# Theta_{q-j} = conj(Theta_j), the units j <= q/2 already show it.  So alpha is
# zero iff max_{j unit, j <= q/2} |Theta_j| < 1/2 whenever every computed
# Theta_j is within 1/2 of the true one, which ``fft_gram_bound`` proves.
# Each Theta_j comes from the frequency-domain Gram identity C(z) C^H(1/z):
# FFT every sequence, sum X_a conj(X_b) over the M sequences at every bin (a
# batched matmul), inverse FFT.

UNIT_ROUNDOFF = 2.0**-53
ROOT_ERROR = 16 * UNIT_ROUNDOFF  # |fl(exp(2 pi i r / q)) - exp(2 pi i r / q)|, r < q


def fft_length(L: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2L - 1: circular correlation without wrap-around, in radix-8/4/2/3/5 passes.

    For each 3^b 5^c below the best length so far, the least power of two
    that lifts it to 2L - 1 or more.
    """
    n = 2 * L - 1
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        p = p3
        while p < best:
            best = min(best, p << ((n - 1) // p).bit_length())
            p *= 5
        p3 *= 3
    return best


def character_units(q: int) -> np.ndarray:
    """The units j <= q/2 of Z_q, one per conjugate pair of embeddings of Z[zeta_q], as an int64 array.

    A sieve: every multiple of a prime divisor of q is struck from 0 .. q // 2.
    [0] at q = 1, where Z[zeta_1] = Z and the trivial character is the only one.
    """
    unit = np.ones(q // 2 + 1, dtype=bool)
    for p in prime_divisors(q):
        unit[::p] = False
    return np.flatnonzero(unit).astype(np.int64, copy=False)


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): n roundings, each a factor 1 + delta with |delta| <= u, stay within gamma_n."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def fft_error(N: int) -> float:
    """eta_F: a bound on the relative 2-norm error of numpy's fft, or ifft, of a 5-smooth length N.

    It rests on these facts about numpy >= 2.0, whose FFT is the C++
    pocketfft (``pocketfft_c``), pinned by ``test_fft_error_bounds_numpy``:
    * At a 5-smooth N the plan is ``cfftp``, never Bluestein (which needs a
      prime factor p with p^2 > N >= 50).  It takes the factor 8 while 8
      divides, then 4, then one 2, then the 3s and 5s, and runs one
      radix-r pass per factor.
    * A pass maps each group z of r entries to W F_r z: the radix-r
      butterfly, then a product by unit twiddles (W = I on the first
      group).  In double precision each input component enters each output
      component once, times the real or imaginary part of its DFT
      coefficient, through at most d_r roundings, the rounding of a stored
      constant counted: d = 1, 2, 6 for r = 2, 4, 8 (radix 8: two levels of
      sums, the 1/sqrt 2 rotation's sum, product and constant, the last
      sum) and d = 4, 6 for r = 3, 5 (radix 5: a sum, the constant, the
      product, two sums, the last sum).  An FMA only lowers d.
    * A twiddle is the complex product of two table entries, each
      (cos, sin) of an angle k' fl(pi / 4N) in the first octant, so within
      2u (the angle) + 4u (a libm within two ulps) of exact; mu = 16u
      covers twice that plus the product's sqrt 2 gamma_2.
    * ifft scales by fl(1/N), one product a component, so gamma_2 more.
    * No underflow or overflow: the data are sums of unit roots.
    A pass is then within eta_r sqrt r ||z|| of the exact W F_r z: an
    output's real and imaginary parts are each off by gamma_d ||z||_1, so the
    r butterfly outputs by sqrt(2 r) gamma_d sqrt r ||z|| in 2-norm, and the
    twiddle product adds mu and sqrt 2 gamma_2: 1 + eta_r = (1 + mu)
    (1 + sqrt 2 gamma_2)(1 + sqrt(2 r) gamma_{d_r}).  Each exact pass is
    sqrt r times a unitary map, so the per-stage induction of Percival
    (Math. Comp. 72 (2003) 387-395), taken pass by pass in the manner of
    Schatzman (SIAM J. Sci. Comput. 17 (1996)), bounds eta_F by
    (1 + gamma_2) prod (1 + eta_r) - 1 <= e^S - 1 <= S / (1 - S), S the sum
    of gamma_2 and of every pass's mu + sqrt 2 gamma_2 + sqrt(2 r) gamma_{d_r}.
    ValueError if N is not 5-smooth.
    """
    rounds = {2: 1, 4: 2, 8: 6, 3: 4, 5: 6}  # d_r
    twos = (N & -N).bit_length() - 1
    radices = [8] * (twos // 3) + [[], [2], [4]][twos % 3]
    rest = N >> twos
    for p in (3, 5):
        while rest % p == 0:
            rest //= p
            radices.append(p)
    if rest != 1:
        raise ValueError(f"FFT length {N} is not 5-smooth")
    mu, twiddle = 16 * UNIT_ROUNDOFF, math.sqrt(2) * _gamma(2)
    s = _gamma(2) + sum(mu + twiddle + math.sqrt(2 * r) * _gamma(rounds[r]) for r in radices)
    return s / (1 - s)


def fft_gram_bound(M: int, L: int) -> float:
    """A-priori bound on |Theta_hat_j - Theta_j| for every cell and character j.

    u = 2^-53, gamma_n = n u / (1 - n u), N = fft_length(L), P = M L.
    * Transforms: ``fft_error(N)`` bounds the relative 2-norm error eta_F of
      numpy's fft and ifft pass by pass, for the radix-8/4/2/3/5 passes its
      pocketfft runs at N, and states what it assumes of pocketfft.  With
      the root-table error e, a spectrum is off by at most d1 sqrt(N L) in
      2-norm, d1 = e + eta_F (1 + e).
    * Gram and inverse transform: Cauchy-Schwarz over the N bins gives
      |Theta_hat - Theta| <= P (2 d1 + d1^2 + g (1 + d1)^2)
      + eta_F P sqrt(L) (1 + sqrt(N / L) d1) (1 + d1) (1 + g), g = sqrt 2 gamma_{M+2}.
    The root table is within ROOT_ERROR for every q, so q does not enter.
    A bound below 1/2 makes the threshold test of fft_gram_cells exact; the
    caller checks it.

    g bounds the Gram sum whatever order BLAS zgemm adds in.  Its real and
    imaginary parts are sums of the real products ar br, ai bi, ai br, ar bi;
    a product that passes through at most D roundings on its way into the
    sum is off by at most gamma_D of itself, in any summation order, and an
    FMA, which rounds a product and an addition once, only lowers D.  Since
    |ar br| + |ai bi| and |ai br| + |ar bi| have a root-sum-square of at most
    sqrt 2 |a| |b|, the Gram error is at most sqrt 2 gamma_D sum |a| |b|.  A
    matmul over mc sequences, split any way, gives D <= 2 mc; the sum over
    c chunks adds c - 1, and plan_tiles keeps 2 mc + c - 1 <= M + 2.
    """
    N = fft_length(L)
    eta_f = fft_error(N)
    d1 = ROOT_ERROR + eta_f * (1 + ROOT_ERROR)
    g = math.sqrt(2) * _gamma(M + 2)
    peak = M * L
    theta_err = peak * (2 * d1 + d1 * d1 + g * (1 + d1) ** 2)
    theta_err += eta_f * peak * math.sqrt(L) * (1 + math.sqrt(N / L) * d1) * (1 + d1) * (1 + g)
    return theta_err


def tile_budget(K: int, M: int, L: int) -> int:
    """Bytes fft_gram_cells may hold for a (K, M, L) set: min(64 MiB, max(4 MiB, 16 K M L), physical memory / 8).

    16 K M L, the set as complex entries, gives a long set wide tiles: each
    block is transformed fewer times and BLAS gets larger Gram products.  A
    small machine gets smaller tiles rather than a refusal; where physical
    memory cannot be read, that term is left out.
    """
    budget = min(64 << 20, max(4 << 20, 16 * K * M * L))
    memory = _physical_memory()
    return min(budget, memory // 8) if memory else budget


def tile_bytes(N: int, L: int, k: int, mc: int) -> int:
    """Working set of one character slot of fft_gram_cells under the plan (k, mc) at FFT length N.

    Two spectrum blocks (N, k, mc), the Gram (N, k, k) and one scratch of the
    same size (a Gram chunk, the upper triangle of a diagonal tile, or
    |Theta|), the int64 exponents j e mod q of one block (L, k, mc), and two
    (N, k, k) flag arrays.  The decode of a tile's flagged cells runs in the
    Gram, the scratch and one flag array, so nothing comes on top.
    """
    return 16 * N * (2 * k * mc + 2 * k * k) + 8 * L * k * mc + 2 * N * k * k


def plan_tiles(K: int, M: int, L: int) -> tuple[int, int, int]:
    """(k, mc, bytes): codes per tile side, sequences per Gram chunk, working set of one character.

    Among the plans within tile_budget(K, M, L), the one of least modelled time
    per character.  For each k two chunkings are weighed: the fewest chunks that
    fit, with mc the least that gives as many, and mc = 1.  A set of M >= 3
    sequences takes two chunks at least, which keeps the roundings of each
    Gram product within fft_gram_bound's M + 2.  The model, in seconds on a
    2-vCPU x86-64 host with one BLAS thread: every sequence is filled and
    transformed once per block of its tile row, K M ceil(K/k) times, at
    1.2 ns N log2 N + 10 ns L each; each (tile, chunk) costs 40 us of Python
    and a batched matmul of N Gram products, each 0.45 us + 0.5 ns per
    multiply-add in BLAS zgemm, or 4.5 ns per multiply-add in numpy's own
    loop, which takes an outer product (mc = 1) or a vector (k = 1); each
    tile costs 30 us more.  k = mc = 1 is the floor when nothing fits.  A
    plan that leaves room for several characters evaluates them together
    (fft_gram_cells).
    """
    N = fft_length(L)
    budget = tile_budget(K, M, L)
    fft = 1.2e-9 * N * max(N.bit_length() - 1, 1) + 10e-9 * L
    best = (math.inf, 1, 1)
    k = 1
    while k <= K and tile_bytes(N, L, k, 1) <= budget:
        room = budget - tile_bytes(N, L, k, 0)
        blocks = -(-K // k)
        tiles = blocks * (blocks + 1) // 2
        for chunks in (-(-M // min(M, room // (32 * N * k + 8 * L * k))), M):
            while 2 * -(-M // chunks) + chunks - 1 > M + 2:
                chunks += 1
            mc = -(-M // chunks)
            product = 4.5e-9 * k * k * mc if min(k, mc) == 1 else 0.45e-6 + 0.5e-9 * k * k * mc
            t = K * M * blocks * fft + tiles * (chunks * (40e-6 + N * product) + 30e-6)
            if t < best[0]:
                best = (t, k, mc)
        k += 1
    _, k, mc = best
    return k, mc, tile_bytes(N, L, k, mc)


def _spectra(buf, index, exps, mask, roots, js, k0, kk, m0, mm, N):
    """Bin-major FFT (N, J, kk, mm), zero-padded to N, of exps[k0:k0+kk, m0:m0+mm] at the J characters js, in buf.

    roots is the one table root_table(q); the entry of exponent e at the
    character j is roots[j e mod q], looked up through the int64 buffer ``index``,
    which then holds the holes of ``mask``.
    """
    L = exps.shape[2]
    J = js.size
    x = buf[: N * J * kk * mm].reshape(N, J, kk, mm)
    e = index[: L * J * kk * mm].reshape(L, J, kk, mm)
    np.copyto(e, exps[k0 : k0 + kk, m0 : m0 + mm].transpose(2, 0, 1)[:, None])  # widen: j e overflows the storage dtype
    e *= js[:, None, None]
    e %= roots.size
    roots.take(e, out=x[:L], mode="clip")
    if mask is not None:  # the holes, inverted into the spent index buffer: no cast, no buffer outside the plan
        holes = index.view(bool)[: L * kk * mm].reshape(L, 1, kk, mm)
        np.logical_not(mask[k0 : k0 + kk, m0 : m0 + mm].transpose(2, 0, 1)[:, None], out=holes)
        np.copyto(x[:L], 0, where=holes)
    x[L:] = 0
    return np.fft.fft(x, axis=0, out=x)


def _theta(bufs, exps, mask, roots, js, a0, ka, b0, kb, mc, N, upper=None):
    """Theta_hat of the code pairs of the tile (a0, b0) at every bin and character of js: an (N, J, pairs) view.

    bufs = (spec_a, spec_b, gram, scratch, index), sized by plan_tiles for at
    least J = js.size characters at the FFT length N = fft_length(L).  Pairs
    run in row-major (a, b) order; on a diagonal tile only the pairs a <= b,
    the flat indices ``upper`` of the ka x ka Gram, which is moved into the
    scratch.  Otherwise the values stay in the Gram.  Per chunk of mc
    sequences, each block's spectra come from one FFT call and the Gram from
    one batched matmul over the bins and characters, summed over the chunks.
    """
    spec_a, spec_b, gram, scratch, index = bufs
    M, J = exps.shape[1], js.size
    th = gram[: N * J * ka * kb].reshape(N, J, ka, kb)
    for m0 in range(0, M, mc):
        mm = min(mc, M - m0)
        xa = _spectra(spec_a, index, exps, mask, roots, js, a0, ka, m0, mm, N)
        if upper is not None:
            xb = np.conjugate(xa, out=spec_b[: xa.size].reshape(xa.shape))
        else:
            xb = _spectra(spec_b, index, exps, mask, roots, js, b0, kb, m0, mm, N)
            np.conjugate(xb, out=xb)
        if m0:
            th += np.matmul(xa, xb.transpose(0, 1, 3, 2), out=scratch[: th.size].reshape(th.shape))
        else:
            np.matmul(xa, xb.transpose(0, 1, 3, 2), out=th)
    theta = th.reshape(N, J, ka * kb)
    if upper is not None:
        theta = theta.take(upper, axis=2, out=scratch[: N * J * upper.size].reshape(N, J, upper.size), mode="clip")
    return np.fft.ifft(theta, axis=0, out=theta)


def fft_gram_cells(exps: np.ndarray, mask, q: int, limit: int, tol: float | None = None) -> tuple[int, np.ndarray]:
    """Zero-test every cell of a (K, M, L) code set over Z_q.

    A cell (a, b, tau), tau in [0, L), is nonzero when |Theta_j - M*L*delta|
    reaches the threshold at some character j evaluated.  Returns the number
    of nonzero cells and the smallest ``limit`` of their keys (a K + b) L + tau,
    sorted.  By default the characters are character_units(q) and the
    threshold is 1/2: the exact test while fft_gram_bound(M, L) < 1/2.
    Given a float ``tol``, the advisory test runs instead: the one character
    j = 1 against the threshold tol.

    Tiles of code pairs (a-block <= b-block) share preallocated buffers sized
    by plan_tiles, for as many characters at once as tile_budget holds (one at
    least); _theta computes a tile's values.  One inverse FFT per pair gives
    tau >= 0 of (a, b) at bins N - tau and, through conjugation, tau >= 0 of
    (b, a) at bins tau, so a diagonal tile needs its pairs a <= b only.

    A tile's flagged cells are decoded in its free buffers: the flags, ORed
    over the characters, go into one flag array, and the keys of both
    readings of every cell in the support, 2 L per pair, into the Gram as
    int64 (their pair terms into the scratch), each set to K^2 L, beyond
    every key, where its cell is not flagged, and sorted in place.  N >= L,
    so they fit.
    """
    K, M, L = exps.shape
    N = fft_length(L)
    js, threshold = (character_units(q), 0.5) if tol is None else (np.array([1]), tol)
    k, mc, nbytes = plan_tiles(K, M, L)
    J = max(1, min(js.size, tile_budget(K, M, L) // nbytes))  # characters per pass
    bufs = (
        np.empty(N * J * k * mc, complex),  # the spectra of the a-block
        np.empty(N * J * k * mc, complex),  # the conjugate spectra of the b-block
        np.empty(N * J * k * k, complex),  # the Gram
        np.empty(N * J * k * k, complex),  # its scratch
        np.empty(L * J * k * mc, np.int64),  # the exponents j e mod q
    )
    gram, scratch = bufs[2:4]
    flag = np.empty(N * J * k * k, bool)
    bad = np.empty(N * J * k * k, bool)
    roots = root_table(q)  # q entries: one table serves every character
    peak, end = M * L, K * K * L
    # tau of the decode rows: (a, b) at bins N - L + 1 .. N - 1, then 0; (b, a) at bins 0 .. L - 1
    taus = np.stack([np.arange(L - 1, -1, -1), np.arange(L)])[:, :, None]
    total, kept = 0, np.empty(0, np.int64)
    for a0 in range(0, K, k):
        ka = min(k, K - a0)
        upper_a, upper_b = np.triu_indices(ka)
        upper = upper_a * ka + upper_b
        peaks = np.where(upper_a == upper_b, complex(peak), 0)  # bin 0 of the pairs (a, a) holds the peak
        for b0 in range(a0, K, k):
            diagonal = b0 == a0
            kb = min(k, K - b0)
            cols = upper.size if diagonal else ka * kb
            nz = bad[: N * J * cols].reshape(N, J, cols)  # flagged cells, per character slot
            nz[:] = False
            for c0 in range(0, js.size, J):
                part = js[c0 : c0 + J]
                theta = _theta(bufs, exps, mask, roots, part, a0, ka, b0, kb, mc, N, upper if diagonal else None)
                if diagonal:
                    theta[0] -= peaks
                size = (gram if diagonal else scratch)[: theta.size].real.reshape(theta.shape)  # the free buffer
                f = flag[: theta.size].reshape(theta.shape)
                np.greater_equal(np.abs(theta, out=size), threshold, out=f)
                nz[:, : part.size] |= f
            hit = np.any(nz, axis=1, out=flag[: N * cols].reshape(N, cols))  # (bin, pair) flagged
            if not hit.any():
                continue
            if hit[L : N - L + 1].any():
                raise ArithmeticError("fft-gram kernel: nonzero value beyond the correlation support")
            a, b = (upper_a, upper_b) if diagonal else np.divmod(np.arange(cols), kb)
            a, b = a + a0, b + b0
            keys = gram.view(np.int64)[: 2 * L * cols].reshape(2, L, cols)
            pairs = scratch.view(np.int64)[: keys.size].reshape(keys.shape)
            np.copyto(keys, taus)
            np.copyto(pairs[0], (a * K + b) * L)  # (a, b) at tau = -bin mod N
            np.copyto(pairs[1], np.where(a != b, (b * K + a) * L, end))  # (b, a) at tau = bin; (a, a) is read once
            keys += pairs
            miss = np.logical_not(hit, out=hit)
            np.copyto(keys[0, :-1], end, where=miss[N - L + 1 :])
            np.copyto(keys[0, -1], end, where=miss[0])
            np.copyto(keys[1], end, where=miss[:L])
            keys = keys.reshape(-1)
            keys.sort()
            n = int(np.searchsorted(keys, end))
            total += n
            kept = np.sort(np.concatenate([kept, keys[: min(n, limit)]]))[:limit]
    return total, kept
