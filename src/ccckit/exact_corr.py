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
true one (FFT error after Percival, Math. Comp. 72 (2003) 387-395).  Callers
check the bound first and fall back to the integer shiftwise counts when it
fails.  It works in tiles of code pairs: per chunk of sequences, one FFT call
gives a block's spectra, bin-major, and one batched matmul over the bins the
tile's Gram; a diagonal tile transforms its pairs a <= b only.  Its buffers
fit one fixed budget, ``TILE_BYTES``, and ``plan_tiles`` picks the tile
shape of least modelled time within it.  Evaluated at the one character
j = 1 against a magnitude threshold, it is also the advisory float check.

Shift convention: Theta(a,b)(tau) = sum_t a_t * conj(b_{t+tau}) over the t
with 0 <= t, t + tau < L, for any tau in (-L, L).  ``pair_counts`` is the one
integer counter; every exact count outside the fft-gram kernel comes from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .construct import _check_alloc
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

    def shifted(self, const: int) -> "GroupRingElement":
        """Subtract the integer const (as const * zeta^0)."""
        counts = list(self.counts)
        counts[0] -= const
        return GroupRingElement(self.q, tuple(counts))

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


def code_accf(row1, row2, tau: int) -> GroupRingElement:
    """Correlation of two code rows at one shift, summed over paired sequences, exactly.

    A row is a RootSequence or a list of them.  Entries that are literal zeros
    (None) contribute nothing.  Conjugation of row2 negates its exponents mod q.
    """
    e1, m1, q1 = _stack_row(row1)
    e2, m2, q2 = _stack_row(row2)
    if q1 != q2 or e1.shape != e2.shape:
        raise ValueError("code rows must share modulus, length and sequence count")
    return GroupRingElement(q1, tuple(pair_counts(e1, m1, e2, m2, q1, (tau,))[0].tolist()))


def pair_counts(e1, m1, e2, m2, q, taus=None) -> np.ndarray:
    """(..., len(taus), q) int64 counts of code rows (..., M, L) at each shift in taus.

    Entry [..., i, :] holds the multiplicities of the exponents of Theta(tau)
    for tau = taus[i], any shift in (-L, L); the default is 0 .. L-1.  The
    leading axes of the two rows broadcast: two (M, L) rows give
    (len(taus), q), one code against a (K, M, L) set gives (K, len(taus), q).
    Each shift is one bincount, every pair in its own q bins.  A mask of None
    means every entry is defined.
    """
    L = e1.shape[-1]
    taus = range(L) if taus is None else taus
    batch = np.broadcast_shapes(e1.shape[:-2], e2.shape[:-2])
    bins = np.arange(math.prod(batch), dtype=np.int64).reshape(batch + (1, 1)) * q
    out = np.empty(batch + (len(taus), q), dtype=np.int64)
    for i, tau in enumerate(taus):
        if not -L < tau < L:
            raise ValueError(f"shift {tau} out of range for length {L}")
        s1, s2 = (slice(0, L - tau), slice(tau, L)) if tau >= 0 else (slice(-tau, L), slice(0, L + tau))
        d = np.subtract(e1[..., s1], e2[..., s2], dtype=np.int64) % q  # widen: stored exponents are unsigned
        d += bins
        valid = None
        for mask, s in ((m1, s1), (m2, s2)):
            if mask is not None:
                valid = mask[..., s] if valid is None else valid & mask[..., s]
        d = d.ravel() if valid is None else d[np.broadcast_to(valid, d.shape)]
        out[..., i, :] = np.bincount(d, minlength=bins.size * q).reshape(batch + (q,))
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

    def zero_flags(self) -> np.ndarray:
        return zero_count_rows(self.counts, self.q)


def correlation_profile(row1, row2) -> CorrelationProfile:
    """All shifts -(L-1) .. L-1 of the code-level correlation between two rows."""
    e1, m1, q = _stack_row(row1)
    e2, m2, q2 = _stack_row(row2)
    if q != q2 or e1.shape != e2.shape:
        raise ValueError("code rows must share modulus, length and sequence count")
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

TILE_BYTES = 3 << 19  # working set of one fft_gram_cells call (1.5 MiB), whatever the set size
UNIT_ROUNDOFF = 2.0**-53
ROOT_ERROR = 16 * UNIT_ROUNDOFF  # |fl(exp(2 pi i r / q)) - exp(2 pi i r / q)|, r < q


def fft_length(L: int) -> int:
    """Smallest power of two >= 2L - 1: circular correlation without wrap-around."""
    return 1 << (2 * L - 2).bit_length()


@functools.lru_cache(maxsize=None)
def character_units(q: int) -> tuple[int, ...]:
    """The units j <= q/2 of Z_q, one per conjugate pair of embeddings of Z[zeta_q].

    (0,) at q = 1, where Z[zeta_1] = Z and the trivial character is the only one.
    """
    return tuple(j for j in range(q // 2 + 1) if math.gcd(j, q) == 1)


def fft_gram_bound(M: int, L: int) -> float:
    """A-priori bound on |Theta_hat_j - Theta_j| for every cell and character j.

    u = 2^-53, gamma_n = n u / (1 - n u), N = fft_length(L), P = M L.
    * Transforms: Percival (Math. Comp. 72 (2003) 387-395) bounds the relative
      2-norm error of a power-of-two FFT with twiddles accurate to mu by
      s eta / (1 - s eta), eta = mu + gamma_4 (sqrt 2 + mu), s = log2 N.  We
      take mu = 4u and s = 2 log2 N, a margin for mixed radix-2/4 passes.
      With the root-table error e, a spectrum is off by at most
      d1 sqrt(N L) in 2-norm, d1 = e + eta_F (1 + e).
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
    u = UNIT_ROUNDOFF

    def gamma(n):
        return n * u / (1 - n * u)

    N = fft_length(L)
    stages = 2 * max(N.bit_length() - 1, 1)
    eta = 4 * u + gamma(4) * (math.sqrt(2) + 4 * u)
    eta_f = stages * eta / (1 - stages * eta)
    d1 = ROOT_ERROR + eta_f * (1 + ROOT_ERROR)
    g = math.sqrt(2) * gamma(M + 2)
    peak = M * L
    theta_err = peak * (2 * d1 + d1 * d1 + g * (1 + d1) ** 2)
    theta_err += eta_f * peak * math.sqrt(L) * (1 + math.sqrt(N / L) * d1) * (1 + d1) * (1 + g)
    return theta_err


def tile_bytes(N: int, L: int, k: int, mc: int) -> int:
    """Working set of one character slot of fft_gram_cells under the plan (k, mc) at FFT length N.

    Two spectrum blocks (N, k, mc), the Gram (N, k, k) and one scratch of the
    same size (a Gram chunk, the upper triangle of a diagonal tile, or
    |Theta|), the int64 exponents j e mod q of one block (L, k, mc), and two
    (N, k, k) flag arrays.
    """
    return 16 * N * (2 * k * mc + 2 * k * k) + 8 * L * k * mc + 2 * N * k * k


def plan_tiles(K: int, M: int, L: int) -> tuple[int, int, int]:
    """(k, mc, bytes): codes per tile side, sequences per Gram chunk, working set of one character.

    Among the plans within TILE_BYTES, the one of least modelled time per
    character.  For each k two chunkings are weighed: the fewest chunks that
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
    fft = 1.2e-9 * N * max(N.bit_length() - 1, 1) + 10e-9 * L
    best = (math.inf, 1, 1)
    k = 1
    while k <= K and tile_bytes(N, L, k, 1) <= TILE_BYTES:
        room = TILE_BYTES - tile_bytes(N, L, k, 0)
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
    character j is roots[j e mod q], looked up through the int64 buffer ``index``.
    """
    L = exps.shape[2]
    J = js.size
    x = buf[: N * J * kk * mm].reshape(N, J, kk, mm)
    e = index[: L * J * kk * mm].reshape(L, J, kk, mm)
    np.copyto(e, exps[k0 : k0 + kk, m0 : m0 + mm].transpose(2, 0, 1)[:, None])  # widen: j e overflows the storage dtype
    e *= js[:, None, None]
    e %= roots.size
    roots.take(e, out=x[:L], mode="clip")
    if mask is not None:
        x[:L] *= mask[k0 : k0 + kk, m0 : m0 + mm].transpose(2, 0, 1)[:, None]
    x[L:] = 0
    return np.fft.fft(x, axis=0, out=x)


def _theta(bufs, exps, mask, roots, js, a0, ka, b0, kb, mc, upper=None):
    """Theta_hat of the code pairs of the tile (a0, b0) at every bin and character of js: an (N, J, pairs) view.

    bufs = (spec_a, spec_b, gram, scratch, index), sized by plan_tiles for at
    least J = js.size characters.  Pairs run in row-major (a, b) order; on a
    diagonal tile only the pairs a <= b, the flat indices ``upper`` of the
    ka x ka Gram, which is moved into the scratch.  Otherwise the values stay
    in the Gram.  Per chunk of mc sequences, each block's spectra come from
    one FFT call and the Gram from one batched matmul over the bins and
    characters, summed over the chunks.
    """
    spec_a, spec_b, gram, scratch, index = bufs
    M, L = exps.shape[1:]
    N, J = fft_length(L), js.size
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
    by plan_tiles, for as many characters at once as TILE_BYTES holds (one at
    least); _theta computes a tile's values.  One inverse FFT per pair gives
    tau >= 0 of (a, b) at bins N - tau and, through conjugation, tau >= 0 of
    (b, a) at bins tau, so a diagonal tile needs its pairs a <= b only.
    """
    K, M, L = exps.shape
    N = fft_length(L)
    js, threshold = (np.array(character_units(q)), 0.5) if tol is None else (np.array([1]), tol)
    k, mc, nbytes = plan_tiles(K, M, L)
    J = max(1, min(js.size, TILE_BYTES // nbytes))  # characters per pass
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
    peak = M * L
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
                theta = _theta(bufs, exps, mask, roots, part, a0, ka, b0, kb, mc, upper if diagonal else None)
                if diagonal:
                    theta[0] -= peaks
                size = (gram if diagonal else scratch)[: theta.size].real.reshape(theta.shape)  # the free buffer
                f = flag[: theta.size].reshape(theta.shape)
                np.greater_equal(np.abs(theta, out=size), threshold, out=f)
                nz[:, : part.size] |= f
            n, c = np.nonzero(nz.any(axis=1))  # (bin, pair) of the flagged cells, sorted
            if not n.size:
                continue
            if diagonal:
                a, b = a0 + upper_a[c], a0 + upper_b[c]
            else:
                ai, bi = np.divmod(c, kb)
                a, b = a0 + ai, b0 + bi
            if ((n >= L) & (n <= N - L)).any():
                raise ArithmeticError("fft-gram kernel: nonzero value beyond the correlation support")
            fwd = (n == 0) | (n > N - L)  # (a, b) at tau = -n mod N
            rev = (n < L) & (a != b)  # (b, a) at tau = n
            keys = np.concatenate([(a[fwd] * K + b[fwd]) * L + (-n[fwd]) % N,
                                   (b[rev] * K + a[rev]) * L + n[rev]])
            total += keys.size
            kept = np.sort(np.concatenate([kept, keys]))[:limit]
    return total, kept
