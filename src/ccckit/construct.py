"""Builders for complete complementary code sets.

Every construction starts from a structured function whose restrictions are
quadratic chains (``GeneralizedQuadraticSpec``) and turns it into K = M codes
of M sequences by adding seed-and-shift linear terms, one exponent table per
(code index t, sequence index d).  Two enumeration conventions exist:

* ``uniform`` -- domain Z_q^m (single block, any q >= 2).  Code/sequence
  indices split into n+1 base-q digits, most significant first, matching the
  t = sum t_i q^{n+1-i} convention of the uniform-domain family.
* ``mixed``   -- domain Z_{p_1}^{m_1} x ... x Z_{p_k}^{m_k}.  Indices split
  per block (block 1 fastest) and into base-p_i digits least significant
  first, matching t = t_1 + sum_b t_b prod_{a<b} p_a^{n_a+1} with
  t_u = sum_v t_{u,v} p_u^{v-1}.

Chain tables must permute {0..p_i-1} mod p_i; builders reject offenders with
the failing index.  Necessity experiments bypass the check only through
``corrupt_spec``, which flags the spec so the origin of a failed verification
is never ambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import gcd, prod

import numpy as np

from .mixed_radix import DomainSpec, digit_matrix
from .qary import (
    GeneralizedQuadraticSpec,
    SpecError,
    build_from_spec,
    check_table,
    is_permutation_mod,
    restriction_index,
    restriction_values,
)
from .waveform import RootSequence

UNIFORM = "uniform"
MIXED = "mixed"


class ConfigError(ValueError):
    """A build config or serialized code set is malformed."""


@dataclass(frozen=True)
class CodeSet:
    """K codes of M sequences, length L, exponents mod q.

    exps has shape (K, M, L); mask is None for all-defined sequences or a
    boolean array of the same shape (False marks a literal zero entry).
    """

    q: int
    exps: np.ndarray
    mask: np.ndarray | None = None
    meta: dict | None = None

    def __post_init__(self):
        exps = np.asarray(self.exps, dtype=np.int64)
        if exps.ndim != 3:
            raise ValueError("exps must have shape (K, M, L)")
        if exps.size and (exps.min() < 0 or exps.max() >= self.q):
            raise ValueError(f"exponents must lie in [0, {self.q})")
        exps.setflags(write=False)
        object.__setattr__(self, "exps", exps)
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != exps.shape:
                raise ValueError("mask shape must match exps")
            if mask.all():
                mask = None
            else:
                mask.setflags(write=False)
            object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "meta", dict(self.meta or {}))

    @property
    def K(self) -> int:
        return self.exps.shape[0]

    @property
    def M(self) -> int:
        return self.exps.shape[1]

    @property
    def L(self) -> int:
        return self.exps.shape[2]

    def sequence(self, k: int, m: int) -> RootSequence:
        row = self.exps[k, m]
        if self.mask is None:
            return RootSequence(self.q, tuple(int(e) for e in row))
        dm = self.mask[k, m]
        return RootSequence(self.q, tuple(int(e) if dm[i] else None for i, e in enumerate(row)))

    def code(self, k: int) -> list[RootSequence]:
        return [self.sequence(k, m) for m in range(self.M)]

    def same_codes(self, other: "CodeSet") -> bool:
        """Equality of the code arrays (metadata ignored, holes compare as holes)."""
        if not isinstance(other, CodeSet):
            return False
        if (self.q, self.K, self.M, self.L) != (other.q, other.K, other.M, other.L):
            return False
        a = np.ones(self.exps.shape, bool) if self.mask is None else self.mask
        b = np.ones(other.exps.shape, bool) if other.mask is None else other.mask
        if not np.array_equal(a, b):
            return False
        return bool(np.array_equal(self.exps[a], other.exps[b]))

    def to_json(self) -> dict:
        codes = []
        for k in range(self.K):
            row = []
            for m in range(self.M):
                if self.mask is None:
                    row.append([int(e) for e in self.exps[k, m]])
                else:
                    row.append(
                        [
                            int(e) if self.mask[k, m, i] else None
                            for i, e in enumerate(self.exps[k, m])
                        ]
                    )
            codes.append(row)
        return {"q": self.q, "L": self.L, "K": self.K, "M": self.M, "meta": self.meta, "codes": codes}

    @staticmethod
    def from_json(data: dict) -> "CodeSet":
        codes = data["codes"]
        K = len(codes)
        M = len(codes[0]) if K else 0
        L = len(codes[0][0]) if M else 0
        if not (K and M and L):
            raise ConfigError(f"code set must be non-empty, got K={K}, M={M}, L={L}")
        exps = np.zeros((K, M, L), dtype=np.int64)
        mask = np.ones((K, M, L), dtype=bool)
        for k, row in enumerate(codes):
            if len(row) != M:
                raise ConfigError(f"code {k} has {len(row)} sequences, code 0 has {M}")
            for m, seq in enumerate(row):
                if len(seq) != L:
                    raise ConfigError(f"sequence ({k},{m}) has length {len(seq)}, sequence (0,0) has {L}")
                for i, e in enumerate(seq):
                    if e is None:
                        mask[k, m, i] = False
                    else:
                        exps[k, m, i] = int(e)
        cs = CodeSet(int(data["q"]), exps, mask if not mask.all() else None, data.get("meta") or {})
        for name in ("L", "K", "M"):
            if name in data and int(data[name]) != getattr(cs, name):
                raise ValueError(f"inconsistent {name} in serialized code set")
        return cs

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def trivial_code_set() -> CodeSet:
    """The (1,1) code over the unit alphabet: a single all-ones sequence."""
    return CodeSet(1, np.zeros((1, 1, 1), dtype=np.int64), meta={"kind": "trivial"})


# ---------------------------------------------------------------------------
# construction specs


@dataclass(frozen=True)
class ConstructionSpec:
    """A structured function plus the index-enumeration convention to use."""

    kind: str
    func: GeneralizedQuadraticSpec

    def __post_init__(self):
        if self.kind not in (UNIFORM, MIXED):
            raise SpecError(f"unknown construction kind {self.kind!r}")
        if self.kind == UNIFORM and self.func.domain.k != 1:
            raise SpecError("uniform constructions need a single-block domain")

    @property
    def corrupted(self) -> bool:
        return self.func.corrupted


def _default_uniform_offsets(d: DomainSpec, J) -> dict:
    """Offset c = sum_i c_i q^{n-i} (digits in J order) for each restriction."""
    q = d.q
    n = len(J)
    out = {}
    for c in restriction_values(d, J):
        cidx = restriction_index(d, J, c)
        out[cidx] = sum(ci * q ** (n - i) for i, ci in enumerate(c, start=1)) % q
    return out


def theorem1_spec(q: int, m: int, h, hp, g, pi) -> ConstructionSpec:
    """Uniform-domain spec with no restricted variables.

    h, hp: the m-1 chain table pairs; g: m tables, g[j] applied to variable j
    directly; pi: ordering of the m variable positions (0-based).
    """
    if m < 2:
        raise SpecError("need at least two variables")
    d = DomainSpec(((q, m),))
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(m)):
        raise SpecError(f"pi must order positions 0..{m - 1}, got {pi}")
    g = [check_table(t, q) for t in g]
    if len(g) != m:
        raise SpecError(f"need m={m} per-variable tables, got {len(g)}")
    gs = tuple(g[pi[j]] for j in range(m))  # reindex: slot j acts on x_{pi(j)}
    func = GeneralizedQuadraticSpec(
        domain=d,
        J=((),),
        pis=(pi,),
        chains=(tuple(zip(h, hp)),),
        gs=(gs,),
        couplings=(),
        offsets=None,
    )
    return ConstructionSpec(UNIFORM, func)


def corollary1_spec(q: int, m: int, n: int, J, pi, h, hp, g, offsets="auto") -> ConstructionSpec:
    """Uniform-domain spec with n restricted variables.

    J: the n restricted positions (0-based, order pairs with the t/d digits);
    pi: ordering of the m-n free positions, shared or per restriction index;
    g: m-n tables applied through pi (slot j acts on x_{pi(j)}), shared or per
    restriction.  offsets: "auto" applies c = sum c_i q^{n-i}; a dict gives
    explicit per-restriction constants; None means all zero.
    """
    d = DomainSpec(((q, m),))
    J = tuple(int(j) for j in J)
    if len(J) != n:
        raise SpecError(f"|J| = {len(J)} != n = {n}")
    if offsets == "auto":
        offsets = _default_uniform_offsets(d, J)
    func = GeneralizedQuadraticSpec(
        domain=d,
        J=(J,),
        pis=(pi,),
        chains=(tuple(zip(h, hp)),),
        gs=(tuple(check_table(t, q) for t in g) if not isinstance(g, dict) else g,),
        couplings=(),
        offsets=offsets,
    )
    return ConstructionSpec(UNIFORM, func)


def theorem2_spec(p1, p2, m1, m2, pi, pip, f, fp, h, hp, g, gp, f0, h0, lam) -> ConstructionSpec:
    """Two-block spec with no restricted variables.

    pi orders block-1 positions 0..m1-1, pip block-2 positions m1..m1+m2-1.
    f/fp and h/hp are the block chain pairs; g[a] acts on variable a of block 1
    and gp[b] on variable m1+b of block 2 (both unpermuted); lam scales the
    coupling f0(last pi slot of block 1) * h0(first pip slot of block 2).
    """
    d = DomainSpec(((p1, m1), (p2, m2)))
    q = d.q
    pi = tuple(int(v) for v in pi)
    pip = tuple(int(v) for v in pip)
    g = [check_table(t, q) for t in g]
    gp = [check_table(t, q) for t in gp]
    if len(g) != m1 or len(gp) != m2:
        raise SpecError("need m1 tables in g and m2 tables in gp")
    gs1 = tuple(g[pi[j]] for j in range(m1))
    gs2 = tuple(gp[pip[j] - m1] for j in range(m2))
    func = GeneralizedQuadraticSpec(
        domain=d,
        J=((), ()),
        pis=(pi, pip),
        chains=(tuple(zip(f, fp)), tuple(zip(h, hp))),
        gs=(gs1, gs2),
        couplings=((lam, f0, h0),),
        offsets=None,
    )
    return ConstructionSpec(MIXED, func)


def corollary3_spec(
    domain: DomainSpec, J, pi, chains, gs, couplings=None, offsets=None
) -> ConstructionSpec:
    """General mixed-domain spec; arguments mirror GeneralizedQuadraticSpec."""
    if couplings is None:
        zero = (0,) * domain.q
        couplings = tuple((0, zero, zero) for _ in range(domain.k - 1))
    func = GeneralizedQuadraticSpec(
        domain=domain,
        J=tuple(tuple(Ji) for Ji in J),
        pis=tuple(pi),
        chains=tuple(tuple(ch) for ch in chains),
        gs=tuple(gs),
        couplings=tuple(couplings),
        offsets=offsets,
    )
    return ConstructionSpec(MIXED, func)


def corrupt_spec(cs: ConstructionSpec, block: int, chain: int, which: str, replacement) -> ConstructionSpec:
    """Swap one chain table for a non-permutation and flag the spec.

    which is "f" (left factor) or "fp" (right factor); chain indexes the
    block's chain list (0-based).  Refuses replacements that still permute
    {0..p-1} mod p: those would not corrupt anything.
    """
    func = cs.func
    p = func.domain.blocks[block][0]
    replacement = check_table(replacement, func.domain.q)
    if is_permutation_mod(replacement, p):
        raise SpecError("replacement table still permutes; not a corruption")
    if which not in ("f", "fp"):
        raise SpecError("which must be 'f' or 'fp'")
    pairs = list(func.chains[block])
    old_f, old_fp = pairs[chain]
    pairs[chain] = (replacement, old_fp) if which == "f" else (old_f, replacement)
    chains = list(func.chains)
    chains[block] = tuple(pairs)
    note = f"block {block} chain {chain} {which} replaced by non-permutation"
    corrupted = replace(func, chains=tuple(chains), corrupted=True, corruption_note=note)
    return ConstructionSpec(cs.kind, corrupted)


# ---------------------------------------------------------------------------
# code-set assembly


def _uniform_digits(value: int, q: int, width: int) -> tuple[int, ...]:
    """Base-q digits, most significant first: value = sum digits[i] q^{width-1-i}."""
    return tuple((value // q ** (width - 1 - i)) % q for i in range(width))


def _mixed_digits(value: int, spec: GeneralizedQuadraticSpec) -> tuple[tuple[int, ...], ...]:
    """Per-block digit tuples, block 1 fastest, least significant digit first."""
    out = []
    for (p, _), ni in zip(spec.domain.blocks, spec.n):
        width = ni + 1
        local = value % p**width
        value //= p**width
        out.append(tuple((local // p**v) % p for v in range(width)))
    return tuple(out)


def set_size(cs: ConstructionSpec) -> int:
    if cs.kind == UNIFORM:
        q = cs.func.domain.q
        return q ** (cs.func.n[0] + 1)
    return prod(p ** (ni + 1) for (p, _), ni in zip(cs.func.domain.blocks, cs.func.n))


def build_code_set(cs: ConstructionSpec) -> CodeSet:
    """Materialize the K x M code matrix for a construction spec.

    Sequence index d and code index t run through the same digit enumeration.
    Entry (t, d) is the exponent table of the base function plus the seed
    terms: per block, weight q/p_i times [(d_v + t_v) on the restricted
    positions, d_last on the first chain slot, t_last on the last chain slot].
    """
    func = cs.func
    if not func.corrupted:
        func.validate_chains()
    d = func.domain
    q = d.q
    base = build_from_spec(func)
    digits = digit_matrix(d)
    K = set_size(cs)
    flat_J = func.flat_J

    # restriction classes (index arrays) and the pi columns they use
    classes = []
    for c in restriction_values(d, flat_J):
        cidx = restriction_index(d, flat_J, c)
        mask = np.ones(d.L, dtype=bool)
        for j, cj in zip(flat_J, c):
            mask &= digits[:, j] == cj
        pis = [func.pi_for(i, cidx) for i in range(d.k)]
        classes.append((np.flatnonzero(mask), pis))

    def seed_digits(value: int):
        if cs.kind == UNIFORM:
            return (_uniform_digits(value, q, func.n[0] + 1),)
        return _mixed_digits(value, func)

    exps = np.zeros((K, K, d.L), dtype=np.int64)
    base_tab = base.table.astype(np.int64)
    for t in range(K):
        tdig = seed_digits(t)
        for dd in range(K):
            ddig = seed_digits(dd)
            row = base_tab.copy()
            for i in range(d.k):
                w = func.chain_weight(i)
                for v, j in enumerate(func.J[i]):
                    coef = w * (ddig[i][v] + tdig[i][v])
                    row = row + coef * digits[:, j]
                for idx, pis in classes:
                    first, last = pis[i][0], pis[i][-1]
                    row[idx] = (
                        row[idx]
                        + w * ddig[i][-1] * digits[idx, first]
                        + w * tdig[i][-1] * digits[idx, last]
                    )
            exps[t, dd] = row % q
    meta = {
        "kind": cs.kind,
        "blocks": [list(b) for b in d.blocks],
        "n": list(func.n),
        "corrupted": func.corrupted,
    }
    if func.corrupted:
        meta["corruption"] = func.corruption_note
    return CodeSet(q, exps, meta=meta)


# ---------------------------------------------------------------------------
# named builders


def build_theorem1(q: int, m: int, h, hp, g, pi) -> CodeSet:
    """(q, q^m) code set from m-1 chain pairs; K = M = q."""
    return build_code_set(theorem1_spec(q, m, h, hp, g, pi))


def build_corollary1(q: int, m: int, n: int, J, pi, h, hp, g, offsets="auto") -> CodeSet:
    """(q^{n+1}, q^m) code set with n restricted variables."""
    return build_code_set(corollary1_spec(q, m, n, J, pi, h, hp, g, offsets))


def build_theorem2(p1, p2, m1, m2, pi, pip, f, fp, h, hp, g, gp, f0, h0, lam) -> CodeSet:
    """(p1 p2, p1^{m1} p2^{m2}) code set over the two-block domain."""
    return build_code_set(theorem2_spec(p1, p2, m1, m2, pi, pip, f, fp, h, hp, g, gp, f0, h0, lam))


def build_corollary3(domain, J, pi, chains, gs, couplings=None, offsets=None) -> CodeSet:
    """(prod p_i^{n_i+1}, prod p_i^{m_i}) code set over a general mixed domain."""
    return build_code_set(corollary3_spec(domain, J, pi, chains, gs, couplings, offsets))


def kronecker_compose(C: CodeSet, D: CodeSet, *, skip_verify: bool = False) -> CodeSet:
    """Kronecker composition: (K_C K_D, L_C L_D) codes over the lcm alphabet.

    Entry ((u,v), (r,s)) at position i*L_D + j multiplies the factor entries,
    i.e. adds exponents after embedding both alphabets into Z_lcm.  C is the
    slow factor: its indices are most significant.  Inputs must verify as
    complete complementary codes unless skip_verify is set.
    """
    if not skip_verify:
        from .verify import verify_ccc

        for name, cset in (("first", C), ("second", D)):
            report = verify_ccc(cset, mode="exact")
            if not report.is_ccc:
                raise ValueError(f"{name} factor is not a complete complementary code")
    Q = C.q * D.q // gcd(C.q, D.q)
    sc, sd = Q // C.q, Q // D.q
    exps = (
        sc * C.exps[:, None, :, None, :, None] + sd * D.exps[None, :, None, :, None, :]
    ) % Q
    K, M, L = C.K * D.K, C.M * D.M, C.L * D.L
    exps = exps.reshape(K, M, L)
    mask = None
    if C.mask is not None or D.mask is not None:
        mc = np.ones(C.exps.shape, bool) if C.mask is None else C.mask
        md = np.ones(D.exps.shape, bool) if D.mask is None else D.mask
        mask = (mc[:, None, :, None, :, None] & md[None, :, None, :, None, :]).reshape(K, M, L)
    meta = {"kind": "kronecker", "factors": [C.meta.get("kind"), D.meta.get("kind")]}
    return CodeSet(Q, exps, mask, meta)
