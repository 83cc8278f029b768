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
FLOAT_ZERO_FACTOR * M * L.  The kernel's memory is one fixed 1.5 MiB
budget (``exact_corr.TILE_BYTES``), whatever the set size: tiles of code
pairs whose spectra come from one FFT call a chunk and whose Gram is one
batched matmul over the bins.  Every violation it reports is recounted with
integer arithmetic.  When the bound fails, the shiftwise loop runs instead:
one integer bincount per shift and code, which counts that code against the
whole set.  It is also the kernel's test oracle.

``necessity_probe`` drives the converse direction: specs whose chain tables
were deliberately corrupted must fail, and for uniform-domain specs with a
constant chain table the failure provably localizes at the witness shifts
tau = q^m - n * q^{m-i}, which are scanned first, by the same integer scan
as the shiftwise loop.  Every exact zero test here is ``zero_count_rows``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .construct import CodeSet, ConstructionSpec, build_code_set
from .exact_corr import (
    GroupRingElement,
    fft_gram_bound,
    fft_gram_cells,
    pair_counts,
    zero_count_rows,
)
from .mixed_radix import place_digits
from .qary import is_permutation_mod

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
        verdict = "CCC" if self.is_ccc else f"NOT a CCC ({self.total_violations} violating cells)"
        return (
            f"({self.K},{self.L}) set over Z_{self.q}: {verdict}; "
            f"peak {self.peak} = M*L; mode={self.mode}; cells tested {self.shifts_tested}"
        )

    def to_dict(self) -> dict:
        return {
            "is_ccc": self.is_ccc,
            "peak": self.peak,
            "mode": self.mode,
            "K": self.K,
            "M": self.M,
            "L": self.L,
            "q": self.q,
            "shifts_tested": self.shifts_tested,
            "total_violations": self.total_violations,
            "kernel": self.kernel,
            "rounding_bound": self.rounding_bound,
            "violations": [
                {"k1": v.k1, "k2": v.k2, "tau": v.tau, "counts": list(v.element.counts)}
                for v in self.violations
            ],
        }


def verify_ccc(C: CodeSet, mode: str = "exact", max_violations: int = 16) -> VerifyReport:
    """Check the full CCC property of a code set.

    All ordered pairs are scanned at shifts 0..L-1; negative shifts are
    covered by the conjugate-reversal symmetry, which maps them onto the
    reversed pair's positive shifts.  Requirements: same-code shift 0 equals
    exactly M*L, everything else is zero.  Exact mode uses the fft-gram
    kernel while its rounding bound is below 1/2 (see the module docstring);
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
    if bound < 0.5:
        total, keys = fft_gram_cells(C.exps, C.mask, q, max_violations, tol)
        bad_cells = []
        for key in keys.tolist():
            ab, tau = divmod(key, L)
            a, b = divmod(ab, K)
            counts = pair_counts(*C.row(a), *C.row(b), q, (tau,))
            target = counts.copy()
            if a == b and tau == 0:
                target[0, 0] -= M * L
            if zero_count_rows(target, q)[0]:
                raise ArithmeticError(f"fft-gram kernel flagged cell ({a},{b},{tau}), which recounts to zero")
            bad_cells.append((a, b, tau, counts[0]))
        return _report(C, mode, bad_cells, total, K * K * L, "fft-gram", bound)
    bad_cells, shifts = _shiftwise_cells(C)
    return _report(C, mode, bad_cells[:max_violations], len(bad_cells), shifts, "shiftwise", 0.0)


def _report(C: CodeSet, mode, cells, total, shifts, kernel, bound) -> VerifyReport:
    violations = tuple(
        Violation(a, b, tau, GroupRingElement(C.q, tuple(int(c) for c in row)))
        for a, b, tau, row in cells
    )
    return VerifyReport(
        is_ccc=not total,
        peak=C.M * C.L,
        mode=mode,
        K=C.K,
        M=C.M,
        L=C.L,
        q=C.q,
        shifts_tested=shifts,
        violations=violations,
        total_violations=total,
        kernel=kernel,
        rounding_bound=bound,
    )


def _bad_cells(C: CodeSet, taus, limit: int | None = None) -> list:
    """The nonzero cells (a, b, tau, counts) at the shifts taus, in (tau, a, b) order, the first ``limit``.

    A cell's value is Theta(a, b)(tau) less M*L when a == b and tau == 0.  One
    pair_counts call counts code a against the whole set at one shift and one
    zero_count_rows call tests the K cells, so the temporaries stay O(K M L).
    """
    K, M, L, q = C.K, C.M, C.L, C.q
    cells: list[tuple[int, int, int, np.ndarray]] = []
    for tau in taus:
        for a in range(K):
            counts = pair_counts(*C.row(a), C.exps, C.mask, q, (tau,))[:, 0]
            target = counts
            if tau == 0:
                target = counts.copy()
                target[a, 0] -= M * L  # demand exactly M*L at shift 0
            for b in np.flatnonzero(~zero_count_rows(target, q)).tolist():
                cells.append((a, b, tau, counts[b]))
                if len(cells) == limit:
                    return cells
    return cells


def _shiftwise_cells(C: CodeSet) -> tuple[list, int]:
    """(bad cells (a, b, tau, counts) in key order, cells tested): every shift 0 .. L-1."""
    return sorted(_bad_cells(C, range(C.L)), key=lambda cell: cell[:3]), C.K * C.K * C.L


# ---------------------------------------------------------------------------
# necessity probes


def witness_shifts(cs: ConstructionSpec) -> list[int]:
    """The shift family where corrupted chain tables provably surface.

    Per block i with p = p_i, free length k_i = m_i - n_i and stride delta_i:
    tau = delta_i * (p^{k_i} - n * p^{k_i - s}) for s = 1..k_i-1, n = 1..p-1.
    Shift s probes chain slot k_i - s, so a constant table in slot j fires at
    s = k_i - j (n = 1) and the scan below visits exactly that cell early.
    """
    func = cs.func
    d = func.domain
    out: list[int] = []
    for i, ((p, _), ni, delta) in enumerate(zip(d.blocks, func.n, d.deltas)):
        k_i = d.blocks[i][1] - ni
        for s in range(1, k_i):
            for n in range(1, p):
                tau = delta * (p**k_i - n * p ** (k_i - s))
                if 0 < tau < d.L and tau not in out:
                    out.append(tau)
    return out


@dataclass(frozen=True)
class ProbeResult:
    found: bool
    tau: int = -1
    k1: int = -1
    k2: int = -1
    element: GroupRingElement | None = None
    scanned_witness_shifts: tuple = ()
    used_full_scan: bool = False

    def summary(self) -> str:
        if not self.found:
            return "no violation found (corrupted spec still verifies -- unexpected)"
        where = "witness scan" if not self.used_full_scan else "full scan"
        return (
            f"violation at shift {self.tau} between codes {self.k1} and {self.k2} "
            f"({where}); |Theta| = {self.element.magnitude():.6g}"
        )


def necessity_probe(cs: ConstructionSpec) -> ProbeResult:
    """Hunt for the correlation violation a corrupted spec must produce.

    Scans the witness shifts first (constant-table corruptions provably show
    up there when the position ordering is the identity), then the whole
    pair/shift grid.  Only flagged-corrupted specs are accepted: for
    valid specs the builders already guarantee the property.
    """
    if not cs.corrupted:
        raise ValueError("necessity_probe expects a spec flagged corrupted")
    C = build_code_set(cs)
    taus = tuple(witness_shifts(cs))
    hit = _bad_cells(C, taus, 1)
    full_scan = not hit
    if full_scan:
        report = verify_ccc(C, mode="exact", max_violations=1)
        hit = [(v.k1, v.k2, v.tau, v.element.counts) for v in report.violations]
    if not hit:
        return ProbeResult(found=False, scanned_witness_shifts=taus)
    k1, k2, tau, counts = hit[0]
    return ProbeResult(True, tau, k1, k2, GroupRingElement(C.q, counts), taus, full_scan)


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
