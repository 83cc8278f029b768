"""Certification and refutation of the complete-complementarity property.

``verify_ccc`` checks every code pair at every shift.  In exact mode each
correlation value is an integer multiplicity vector, zero-tested exactly by
``zero_count_rows``; there are no false positives or negatives.  Float mode
uses a magnitude threshold and is advisory only -- for composite alphabets a
tiny float magnitude is expected for true zeros but can never certify one.

Exact mode runs the fft-gram kernel (``exact_corr.fft_gram_cells``): it
evaluates every cell at the characters j, the units j <= q/2 (j = 0 alone at
q = 1), in float64 and calls a cell nonzero when some |Theta_j| >= 1/2.  A
nonzero cell has a nonzero integer norm, so one of its |Theta_j| is >= 1;
the test is exact because the proven error bound ``fft_gram_bound`` on each
|Theta_j| is checked to be below 1/2 before the kernel runs.  Float mode is
the same loop with the character j = 1 and the threshold
FLOAT_ZERO_FACTOR * M * L.  The kernel works in tiles of code pairs whose
spectra come from one FFT call a chunk and whose Gram is one batched matmul
over the bins.  Its buffers, inside which a tile's flagged cells are
decoded, fit ``exact_corr.tile_budget``: min(64 MiB, max(4 MiB, 16 K M L),
physical memory / 8), so a set of up to 2^18 entries gets 4 MiB and a long
set wide tiles.  When the bound fails, the shiftwise loop runs instead: one
integer bincount per shift and code, which counts that code against the
whole set.  It is also the kernel's test oracle.

Both kernels hand over a flagged cell as its key (a K + b) L + tau, and one
integer recount, ``_violation``, turns a key into a ``Violation``, so every
reported cell is recounted with integers and a disagreement raises.

``necessity_probe`` drives the converse direction: specs whose chain tables
were deliberately corrupted must fail.  The spec says where to look: for each
chain pair (block i, pair j) with a table that does not permute Z_{p_i}, the
probe scans that pair's own witness shifts first, read through the ordering
pi of each restriction class (under the identity ordering they are
delta_i (p_i^{k_i} - n p_i^{j+1}), and a constant table provably fails at
n = 1), then those shifts at the identity ordering, then n delta_i p_i^e with
e the in-block position of the pair's second variable pi(j + 1), then the
rest of ``witness_shifts``, and only then the full grid.  Each shift goes
through the same integer scan as the shiftwise loop.  Every exact zero test
here is ``zero_count_rows``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

import numpy as np

from .construct import CodeSet, ConstructionSpec, _check_alloc, build_code_set
from .exact_corr import (
    GroupRingElement,
    fft_gram_bound,
    fft_gram_cells,
    pair_counts,
    zero_count_rows,
)
from .mixed_radix import place_digits
from .qary import chain_failure_text, is_permutation_mod

FLOAT_ZERO_FACTOR = 1e-9  # float mode calls |Theta| < factor * M * L "zero"


@dataclass(frozen=True)
class Violation:
    k1: int
    k2: int
    tau: int
    element: GroupRingElement

    def magnitude(self) -> float:
        return self.element.magnitude()


@dataclass(frozen=True)
class VerifyReport:
    is_ccc: bool
    peak: int
    mode: str
    K: int
    M: int
    L: int
    q: int
    shifts_tested: int
    violations: tuple = ()
    total_violations: int = 0
    kernel: str = "shiftwise"  # "fft-gram" or "shiftwise"
    rounding_bound: float = 0.0  # proven bound on each |Theta_j| error of fft-gram; 0 when integer-exact

    def summary(self) -> str:
        reasons = [f"{self.total_violations} violating cells"] * bool(self.total_violations)
        reasons += [f"K = {self.K} != M = {self.M}"] * (self.K != self.M)
        verdict = "CCC" if self.is_ccc else f"NOT a CCC ({'; '.join(reasons)})"
        return (
            f"({self.K},{self.L}) set over Z_{self.q}: {verdict}; "
            f"peak {self.peak} = M*L; mode={self.mode}; cells tested {self.shifts_tested}"
        )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["violations"] = [
            {"k1": v.k1, "k2": v.k2, "tau": v.tau, "counts": list(v.element.counts)} for v in self.violations
        ]
        return out


def verify_ccc(C: CodeSet, mode: str = "exact", max_violations: int = 16) -> VerifyReport:
    """Check the full CCC property of a code set.

    All ordered pairs are scanned at shifts 0..L-1; negative shifts are
    covered by the conjugate-reversal symmetry, which maps them onto the
    reversed pair's positive shifts.  Requirements: K == M, same-code shift
    0 equals exactly M*L, everything else is zero.  Exact mode uses the
    fft-gram kernel while its rounding bound is below 1/2 (see the module docstring);
    float mode always uses it, flagging |Theta| >= FLOAT_ZERO_FACTOR * M * L.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_violations < 0:
        raise ValueError(f"max_violations must be >= 0, got {max_violations}")
    K, M, L, q = C.K, C.M, C.L, C.q
    if not (K and M and L):
        raise ValueError(f"cannot verify an empty code set (K={K}, M={M}, L={L})")
    if mode == "float":
        bound, tol = 0.0, FLOAT_ZERO_FACTOR * M * L
    else:
        bound, tol = fft_gram_bound(M, L), None
    # the root table, the character list and the recount rows, each with 2q bins and q counts
    rows = 1 if bound < 0.5 else K
    _check_alloc(16 * q + 8 * (q // 2 + 1) + 24 * q * rows, f"verifying a ({K}, {L}) code set over Z_{q}")
    if bound < 0.5:
        total, keys = fft_gram_cells(C.exps, C.mask, q, max_violations, tol)
        keys, kernel = keys.tolist(), "fft-gram"
    else:
        keys = sorted(_bad_keys(C, range(L)))
        total, keys, kernel, bound = len(keys), keys[:max_violations], "shiftwise", 0.0
    return VerifyReport(
        is_ccc=not total and K == M, peak=M * L, mode=mode, K=K, M=M, L=L, q=q, shifts_tested=K * K * L,
        violations=tuple(_violation(C, key) for key in keys), total_violations=total, kernel=kernel,
        rounding_bound=bound,
    )


def _violation(C: CodeSet, key: int) -> Violation:
    """The cell with key (a K + b) L + tau, recounted with integers; ArithmeticError if it recounts to zero."""
    ab, tau = divmod(key, C.L)
    a, b = divmod(ab, C.K)
    counts = pair_counts(*C.row(a), *C.row(b), C.q, (tau,))
    target = counts.copy()
    if a == b and tau == 0:
        target[0, 0] -= C.M * C.L
    if zero_count_rows(target, C.q)[0]:
        raise ArithmeticError(f"cell ({a},{b},{tau}) was flagged nonzero but recounts to zero")
    return Violation(a, b, tau, GroupRingElement(C.q, counts[0]))


def _bad_keys(C: CodeSet, taus, limit: int | None = None) -> list[int]:
    """The keys (a K + b) L + tau of the nonzero cells at the shifts taus, in (tau, a, b) order, the first ``limit``.

    A cell's value is Theta(a, b)(tau) less M*L when a == b and tau == 0.  One
    pair_counts call counts code a against the whole set at one shift and one
    zero_count_rows call tests the K cells, so the temporaries stay O(K M L).
    """
    K, M, L, q = C.K, C.M, C.L, C.q
    keys: list[int] = []
    for tau in taus:
        for a in range(K):
            counts = pair_counts(*C.row(a), C.exps, C.mask, q, (tau,))[:, 0]
            if tau == 0:
                counts[a, 0] -= M * L  # demand exactly M*L at shift 0
            for b in np.flatnonzero(~zero_count_rows(counts, q)).tolist():
                keys.append((a * K + b) * L + tau)
                if len(keys) == limit:
                    return keys
    return keys


# ---------------------------------------------------------------------------
# necessity probes


def witness_shifts(cs: ConstructionSpec) -> list[int]:
    """The shift family where corrupted chain tables provably surface.

    Per block i with p = p_i, free length k_i = m_i - n_i and stride delta_i:
    tau = delta_i * (p^{k_i} - n * p^{k_i - s}) for s = 1..k_i-1, n = 1..p-1.
    Shift s probes chain index k_i - 1 - s (0-based, as ``corrupt_spec``
    counts), so under the identity ordering a constant table in chain j fires
    at s = k_i - 1 - j, n = 1: tau = delta_i * (p^{k_i} - p^{j+1}).
    """
    d = cs.domain
    out: list[int] = []
    for i, ((p, _), ni, delta) in enumerate(zip(d.blocks, cs.n, d.deltas)):
        k_i = d.blocks[i][1] - ni
        for s in range(1, k_i):
            for n in range(1, p):
                tau = delta * (p**k_i - n * p ** (k_i - s))
                if 0 < tau < d.L and tau not in out:
                    out.append(tau)
    return out


def _probe_order(cs: ConstructionSpec) -> tuple[tuple[int, ...], str]:
    """The probe's shift order and the chain conditions the spec fails, joined by "; ".

    Per chain pair (block i, pair j) with an entry in ``chain_failures``, and
    per ordering pi of its restriction classes (in-block positions, in class order):
    first the pair's family read through pi, delta (sum_{s > j} (p - 1) p^{pi(s)}
    - (n - 1) p^{pi(j+1)}), whose n = 1 shift takes a point that is 0 at every
    chain slot after j to one that is p - 1 there; under the identity ordering
    it is the pair's ``witness_shifts`` entries delta (p^k - n p^{j+1}), which
    come next.  Then n delta p^{pi(j+1)}, and last the rest of
    ``witness_shifts``.  Every shift lies in (0, L) and none repeats.
    """
    d, failures = cs.domain, cs.chain_failures()
    order = []
    for i, j in dict.fromkeys((i, j) for i, j, *_ in failures):
        (p, mi), ni, delta, start = d.blocks[i], cs.n[i], d.deltas[i], d.block_offsets[i]
        pis = [[e - start for e in pi] for pi in dict.fromkeys(cs.pis[i].values())]
        ns = range(1, p)
        order += [delta * (sum((p - 1) * p**e for e in pi[j + 1:]) - (n - 1) * p ** pi[j + 1])
                  for pi in pis for n in ns]
        order += [delta * (p ** (mi - ni) - n * p ** (j + 1)) for n in ns]
        order += [n * delta * p ** pi[j + 1] for pi in pis for n in ns]
    return tuple(dict.fromkeys(order + witness_shifts(cs))), "; ".join(chain_failure_text(*f) for f in failures)


@dataclass(frozen=True)
class ProbeResult:
    found: bool
    tau: int = -1
    k1: int = -1
    k2: int = -1
    element: GroupRingElement | None = None
    scanned_witness_shifts: tuple = ()  # the witness scan's shifts, in scan order
    used_full_scan: bool = False
    condition: str = ""  # the chain tables that do not permute, e.g. "block 0, chain 1, f does not permute Z_3"

    def summary(self) -> str:
        if not self.found:
            text = "no violation found (corrupted spec still verifies -- unexpected)"
        else:
            where = "witness scan" if not self.used_full_scan else "full scan"
            text = (
                f"violation at shift {self.tau} between codes {self.k1} and {self.k2} "
                f"({where}); |Theta| = {self.element.magnitude():.6g}"
            )
        return f"{text}; {self.condition}" if self.condition else text


def necessity_probe(cs: ConstructionSpec) -> ProbeResult:
    """Hunt for the correlation violation a corrupted spec must produce.

    Scans the witness shifts in the order ``_probe_order`` takes from the
    spec's failing chain tables (a constant table provably shows up at its
    pair's first shift when the position ordering is the identity), then the
    whole pair/shift grid.  Only flagged-corrupted specs are accepted: for
    valid specs the builders already guarantee the property.
    """
    if not cs.corrupted:
        raise ValueError("necessity_probe expects a spec flagged corrupted")
    C = build_code_set(cs)
    taus, condition = _probe_order(cs)
    hits = [_violation(C, key) for key in _bad_keys(C, taus, 1)]
    full_scan = not hits
    if full_scan:
        hits = verify_ccc(C, max_violations=1).violations
    if not hits:
        return ProbeResult(found=False, scanned_witness_shifts=taus, condition=condition)
    v = hits[0]
    return ProbeResult(True, v.tau, v.k1, v.k2, v.element, taus, full_scan, condition)


# ---------------------------------------------------------------------------
# the permutation <-> vanishing-character-sum equivalence


def character_sums(table, rs) -> np.ndarray:
    """(len(rs), q) int64 counts: row i holds sum_x zeta_q^{r t(x)} for r = rs[i], one pair_counts call.

    Each row r t mod q is a one-sequence code counted against the all-zero one at shift 0.
    """
    q = len(table)
    exps = np.outer(np.array(rs, dtype=np.int64), table).reshape(-1, 1, q) % q
    return pair_counts(exps, None, np.zeros((1, q), np.int64), None, q, (0,))[:, 0]


def lemma1_equiv_check(q: int, sample: int | None = None, seed: int = 0) -> bool:
    """Confirm: all nonzero-character sums vanish exactly iff the map permutes Z_q.

    Exhaustive over all q^q tables when feasible (q <= 4 is 256 tables);
    otherwise checks `sample` random tables.  Returns True iff there is no
    counterexample.
    """
    if sample is None:
        if q**q > 100_000:
            raise ValueError(f"q={q} too large for exhaustive check; pass sample=")
        tables = place_digits(np.arange(q**q), (q,) * q, [q**u for u in range(q)]).tolist()  # t(u) = idx // q^u % q
    else:
        rng = random.Random(seed)
        tables = [[rng.randrange(q) for _ in range(q)] for _ in range(sample)]
        base = list(range(q))
        for _ in range(max(sample // 10, 1)):  # permutations too, so both sides of the equivalence are exercised
            rng.shuffle(base)
            tables.append(list(base))
    return all(zero_count_rows(character_sums(t, range(1, q)), q).all() == is_permutation_mod(t, q) for t in tables)
