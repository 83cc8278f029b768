"""Functions from a mixed-radix domain into Z_q.

Three representations cooperate here:

* ``QaryFunction`` -- a plain length-L value table over Z_q.  This is the
  ground truth everything else is checked against.
* ``MonomialForm`` -- a linear combination of monomials x^e with exponent
  vectors e drawn from the domain.  A monomial only carries factors for the
  strictly positive exponents, so the all-zero exponent vector is the constant
  monomial 1.  Its values are one exact table, which ``evaluate`` reads.
* ``GeneralizedQuadraticSpec`` -- the structured family of functions whose
  restrictions are chains of products of univariate maps plus per-variable
  terms, per-block coupling terms, and per-restriction offsets.  Univariate
  component maps are stored as explicit length-q tables so that exhaustive
  checks at small q stay possible.

Restrictions pin a subset J of variables to digits c; the surviving points
N_c partition the domain as c ranges over all digit choices.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from math import prod

import numpy as np

from .mixed_radix import DomainSpec, digit_matrix, int_to_vec, place_digits, point_index


class SpecError(ValueError):
    """A structured-function description violates its invariants."""


# ---------------------------------------------------------------------------
# univariate tables

def identity_table(q: int) -> tuple[int, ...]:
    return tuple(range(q))


def constant_table(q: int, value: int = 0) -> tuple[int, ...]:
    return (value % q,) * q


def check_table(t, q: int) -> tuple[int, ...]:
    t = tuple(int(v) for v in t)
    if len(t) != q:
        raise SpecError(f"table length {len(t)} != modulus {q}")
    if any(not 0 <= v < q for v in t):
        raise SpecError(f"table entries must lie in [0, {q})")
    return t


def is_permutation_mod(t, p: int) -> bool:
    """True iff u -> t(u) mod p restricted to u in {0..p-1} is a bijection of {0..p-1}.

    p must divide the table modulus q = len(t).  For uniform-modulus
    constructions call with p = q, which is the plain permutation test.
    """
    q = len(t)
    if p < 1 or q % p != 0:
        raise ValueError(f"p={p} does not divide q={q}")
    return {t[u] % p for u in range(p)} == set(range(p))


# ---------------------------------------------------------------------------
# monomial forms

def monomials_upto(d: DomainSpec, r: int) -> list[tuple[int, ...]]:
    """All exponent vectors over the domain with Hamming weight <= r.

    Ordered by weight, then by support positions, then by digit values.
    """
    if r > d.m:
        r = d.m
    radix = d.radix_per_position
    out: list[tuple[int, ...]] = []
    for w in range(r + 1):
        for positions in itertools.combinations(range(d.m), w):
            ranges = [range(1, radix[j]) for j in positions]
            for digits in itertools.product(*ranges):
                e = [0] * d.m
                for j, val in zip(positions, digits):
                    e[j] = val
                out.append(tuple(e))
    return out


@dataclass(frozen=True)
class MonomialForm:
    """Z_q-linear combination of monomials; coeffs maps exponent vector -> coefficient."""

    domain: DomainSpec
    coeffs: dict

    def __post_init__(self):
        radix = self.domain.radix_per_position
        clean = {}
        for e, c in self.coeffs.items():
            e = tuple(int(v) for v in e)
            if len(e) != self.domain.m:
                raise SpecError(f"exponent vector {e} has wrong length")
            if any(not 0 <= ej < pj for ej, pj in zip(e, radix)):
                raise SpecError(f"exponent vector {e} violates digit bounds")
            c = int(c) % self.domain.q
            if c:
                clean[e] = c
        object.__setattr__(self, "coeffs", clean)

    def hamming_degree(self) -> int:
        """Max Hamming weight over nonzero coefficients; 0 for the zero form."""
        if not self.coeffs:
            return 0
        return max(sum(1 for v in e if v) for e in self.coeffs)

    def evaluate(self, x) -> int:
        return int(self.table()[point_index(x, self.domain)])

    def table(self) -> np.ndarray:
        """(L,) value of the form at every point.  Read-only."""
        return self._table

    @functools.cached_property
    def _table(self) -> np.ndarray:
        d, digits = self.domain, digit_matrix(self.domain)
        acc = np.zeros(d.L, dtype=np.int64)
        for e, c in self.coeffs.items():
            term = c
            for j, ej in enumerate(e):
                if ej:  # x_j^ej, exact: a lookup of pow(u, ej, q) over the digits u of position j
                    power = np.array([pow(u, ej, d.q) for u in range(d.radix_per_position[j])], dtype=np.int64)
                    term = term * power[digits[:, j]] % d.q
            acc = (acc + term) % d.q
        acc.setflags(write=False)
        return acc

    def to_function(self) -> "QaryFunction":
        return QaryFunction(self.domain, self.table())


# ---------------------------------------------------------------------------
# value tables

@dataclass(frozen=True)
class QaryFunction:
    """A function domain -> Z_q held as an explicit value table."""

    domain: DomainSpec
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.shape != (self.domain.L,):
            raise SpecError(f"table shape {t.shape} != (L,) = ({self.domain.L},)")
        if t.min(initial=0) < 0 or t.max(initial=0) >= self.domain.q:
            raise SpecError(f"table values must lie in [0, {self.domain.q})")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def q(self) -> int:
        return self.domain.q

    def __call__(self, x) -> int:
        return int(self.table[point_index(x, self.domain)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QaryFunction)
            and self.domain == other.domain
            and bool(np.array_equal(self.table, other.table))
        )


# ---------------------------------------------------------------------------
# restrictions

def restriction_weights(d: DomainSpec, J) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(radix, weight) of each position of J in the place-value map of restriction classes.

    Per block, the positions of J in that block are read least significant
    first, in J's order; block 1 contributes the fastest-varying part.
    """
    J = tuple(J)
    block = [d.block_of_position(j) for j in J]
    radix = tuple(d.radix_per_position[j] for j in J)
    weight = [0] * len(J)
    w = 1
    for t in sorted(range(len(J)), key=block.__getitem__):  # stable: J's order within a block
        weight[t], w = w, w * radix[t]
    return radix, tuple(weight)


def restriction_values(d: DomainSpec, J) -> list[tuple[int, ...]]:
    """All digit tuples c for positions J; the one at list index i is restriction class i."""
    radix, weight = restriction_weights(d, J)
    return [tuple(c) for c in place_digits(np.arange(prod(radix)), radix, weight).tolist()]


@dataclass(frozen=True)
class RestrictedFunction:
    """View of f on N_c = {x : digits of x at J equal c}; undefined elsewhere."""

    base: QaryFunction
    J: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        d = self.base.domain
        object.__setattr__(self, "J", tuple(int(j) for j in self.J))
        object.__setattr__(self, "c", tuple(int(v) for v in self.c))
        if len(self.J) != len(set(self.J)):
            raise SpecError(f"duplicate positions in J={self.J}")
        if len(self.J) != len(self.c):
            raise SpecError("J and c must have equal length")
        radix = d.radix_per_position
        for j, cj in zip(self.J, self.c):
            if not 0 <= j < d.m:
                raise SpecError(f"position {j} out of range")
            if not 0 <= cj < radix[j]:
                raise SpecError(f"restriction digit {cj} violates bound {radix[j]} at position {j}")

    @property
    def support(self) -> np.ndarray:
        d = self.base.domain
        digits = digit_matrix(d)
        mask = np.ones(d.L, dtype=bool)
        for j, cj in zip(self.J, self.c):
            mask &= digits[:, j] == cj
        return np.flatnonzero(mask)

    def __call__(self, x) -> int:
        idx = point_index(x, self.base.domain)
        digits = int_to_vec(idx, self.base.domain)
        if any(digits[j] != cj for j, cj in zip(self.J, self.c)):
            raise ValueError(f"point {idx} is outside the restriction support")
        return int(self.base.table[idx])


def restrict(f: QaryFunction, J, c) -> RestrictedFunction:
    """The view of f on the points whose digits at positions J equal c."""
    return RestrictedFunction(f, tuple(J), tuple(c))


# ---------------------------------------------------------------------------
# structured (generalized quadratic) functions

@dataclass(frozen=True)
class GeneralizedQuadraticSpec:
    """Structured description of a function whose restrictions are quadratic chains.

    Per block i (with digit bound p_i and m_i positions):

    * ``J[i]``       -- restricted flat positions inside the block, n_i <= m_i - 1;
    * ``pis[i]``     -- ordering of the m_i - n_i unrestricted positions used by the
                        chain, per restriction class;
    * ``chains[i]``  -- m_i - n_i - 1 pairs (f, f') of length-q tables; the product
                        term f(x_a) f'(x_b) enters with weight q / p_i;
    * ``gs[i]``      -- m_i - n_i length-q tables applied to the ordered positions,
                        per restriction class.

    ``pis[i]`` and ``gs[i]`` may be given shared (one value for every class) or
    as a dict keyed by every restriction class, its index in restriction_values;
    either way they are stored as that dict, in class order.  ``couplings``
    holds k - 1 triples (lam, f, h): lam * f(last position of block i)
    * h(first position of block i+1).  ``offsets`` maps restriction index -> Z_q
    constant and is stored the same way, a class it leaves out at 0.  ``corrupted``
    marks a spec whose chain tables intentionally fail the permutation
    requirement; constructors only accept such specs through the corruption API.
    The arrays ``restriction_classes`` and ``slot_digits`` are read-only and
    computed on first read, not in ``__post_init__``, then kept on the spec.
    """

    domain: DomainSpec
    J: tuple
    pis: tuple
    chains: tuple
    gs: tuple
    couplings: tuple = ()
    offsets: dict | None = None
    corrupted: bool = False
    corruption_note: str = ""

    def __post_init__(self):
        d = self.domain
        q = d.q
        if len(self.J) != d.k or len(self.pis) != d.k or len(self.chains) != d.k or len(self.gs) != d.k:
            raise SpecError("J, pis, chains, gs must each have one entry per block")
        J = tuple(tuple(int(j) for j in Ji) for Ji in self.J)
        object.__setattr__(self, "J", J)
        for i, Ji in enumerate(J):
            positions = set(d.block_positions(i))
            if len(set(Ji)) != len(Ji) or not set(Ji) <= positions:
                raise SpecError(f"J[{i}]={Ji} must be distinct positions of block {i}")
            if len(Ji) > d.blocks[i][1] - 1:
                raise SpecError(f"|J[{i}]| = {len(Ji)} exceeds m_{i} - 1 = {d.blocks[i][1] - 1}")
        chains = []
        for i, pairs in enumerate(self.chains):
            want = d.blocks[i][1] - len(J[i]) - 1
            pairs = tuple((check_table(f, q), check_table(fp, q)) for f, fp in pairs)
            if len(pairs) != want:
                raise SpecError(f"block {i} needs {want} chain pairs, got {len(pairs)}")
            chains.append(pairs)
        object.__setattr__(self, "chains", tuple(chains))
        # per-class entries: a shared value goes to every class, a dict must key every class and no other
        classes = set(range(self.restriction_count()))
        for name, check in (("pis", self._check_pi), ("gs", self._check_gs)):
            stored = []
            for i, entry in enumerate(getattr(self, name)):
                shared = not isinstance(entry, dict)
                entry = dict.fromkeys(classes, entry) if shared else {int(c): v for c, v in entry.items()}
                if classes - set(entry):
                    raise SpecError(f"{name}[{i}] misses restriction classes {sorted(classes - set(entry))}")
                if set(entry) - classes:
                    raise SpecError(f"{name}[{i}] carries unknown restriction classes {sorted(set(entry) - classes)}")
                checked = {}  # id of a value -> its checked form: a value shared by classes is checked once
                for c in sorted(classes):
                    if id(entry[c]) not in checked:
                        checked[id(entry[c])] = check(entry[c], i)
                stored.append({c: checked[id(entry[c])] for c in sorted(classes)})
            object.__setattr__(self, name, tuple(stored))
        couplings = tuple(
            (int(lam) % q, check_table(f, q), check_table(h, q)) for lam, f, h in self.couplings
        )
        if len(couplings) != d.k - 1:
            raise SpecError(f"need {d.k - 1} coupling triples, got {len(couplings)}")
        object.__setattr__(self, "couplings", couplings)
        if not isinstance(self.offsets, (Mapping, type(None))):
            raise SpecError(f"offsets must be a mapping or None, got {type(self.offsets).__name__}")
        offsets = {int(k): int(v) % q for k, v in (self.offsets or {}).items()}
        if not set(offsets) <= classes:
            raise SpecError("offsets carry unknown restriction classes")
        object.__setattr__(self, "offsets", {c: offsets.get(c, 0) for c in sorted(classes)})

    def _check_pi(self, pi, block: int) -> tuple[int, ...]:
        free = set(self.domain.block_positions(block)) - set(self.J[block])
        pi = tuple(int(j) for j in pi)
        if set(pi) != free or len(pi) != len(free):
            raise SpecError(f"pi for block {block} must order the unrestricted positions {sorted(free)}, got {pi}")
        return pi

    def _check_gs(self, tables, block: int) -> tuple[tuple[int, ...], ...]:
        want = self.domain.blocks[block][1] - len(self.J[block])
        tables = tuple(check_table(t, self.domain.q) for t in tables)
        if len(tables) != want:
            raise SpecError(f"block {block} needs {want} per-variable tables, got {len(tables)}")
        return tables

    @property
    def n(self) -> tuple[int, ...]:
        return tuple(len(Ji) for Ji in self.J)

    @property
    def flat_J(self) -> tuple[int, ...]:
        return tuple(j for Ji in self.J for j in Ji)

    def restriction_count(self) -> int:
        return prod(p**ni for (p, _), ni in zip(self.domain.blocks, self.n))

    @functools.cached_property
    def restriction_classes(self) -> np.ndarray:
        """(L,) restriction index of every point.  Read-only."""
        _, weight = restriction_weights(self.domain, self.flat_J)
        out = digit_matrix(self.domain)[:, list(self.flat_J)] @ np.asarray(weight, dtype=np.int64)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def slot_digits(self) -> tuple[np.ndarray, ...]:
        """Per block i, the (L, m_i - n_i) chain-slot digits of every point, in its class's pi order.  Read-only."""
        digits, out = digit_matrix(self.domain), []
        for pis in self.pis:
            out.append(np.take_along_axis(digits, np.array(list(pis.values()))[self.restriction_classes], axis=1))
            out[-1].setflags(write=False)
        return tuple(out)

    def chain_weight(self, block: int) -> int:
        return self.domain.q // self.domain.blocks[block][0]

    def chain_failures(self) -> list[tuple[int, int, str, int]]:
        """(block i, chain j, "f" or "fp", p_i) of every chain table that does not permute {0..p_i-1} mod p_i.

        Listed by block, then chain, f before fp; the spec meets the paper's
        condition exactly when the list is empty.
        """
        return [
            (i, j, which, p)
            for i, ((p, _), pairs) in enumerate(zip(self.domain.blocks, self.chains))
            for j, pair in enumerate(pairs)
            for which, table in zip(("f", "fp"), pair)
            if not is_permutation_mod(table, p)
        ]

    def validate_chains(self):
        """Raise on the first of ``chain_failures``, e.g. "block 0, chain 1, fp does not permute Z_2"."""
        for failure in self.chain_failures()[:1]:
            raise SpecError(chain_failure_text(*failure))


def chain_failure_text(block: int, chain: int, which: str, p: int) -> str:
    """The words for a ``chain_failures`` entry, in the builder's error and the probe's condition alike."""
    return f"block {block}, chain {chain}, {which} does not permute Z_{p}"


def build_from_spec(s: GeneralizedQuadraticSpec) -> QaryFunction:
    """Materialize the value table of the structured function.

    On each restriction class N_c the value is

        sum_i [ (q/p_i) * sum_j f_{i,j}(x_{pi_i(j)}) f'_{i,j}(x_{pi_i(j+1)})
                + sum_j' g_{i,j'}(x_{pi_i(j')}) ]
        + sum_{i'} lam_{i'} * f_{i'}(x at last chain slot of block i')
                            * h_{i'}(x at first chain slot of block i'+1)
        + offset(c),  all mod q.

    Each point reads its class's pi, g and offset through s.restriction_classes and s.slot_digits.
    """
    q, classes, slots = s.domain.q, s.restriction_classes, s.slot_digits
    table = np.array(list(s.offsets.values()), dtype=np.int64)[classes]
    for i, x in enumerate(slots):
        w = s.chain_weight(i)
        for j, (f, fp) in enumerate(s.chains[i]):
            f, fp = np.asarray(f, dtype=np.int64), np.asarray(fp, dtype=np.int64)
            table = (table + w * f[x[:, j]] * fp[x[:, j + 1]]) % q
        g = np.array(list(s.gs[i].values()), dtype=np.int64)
        for j in range(x.shape[1]):
            table = (table + g[classes, j, x[:, j]]) % q
    for i, (lam, f, h) in enumerate(s.couplings):
        if lam:
            fa = np.asarray(f, dtype=np.int64)[slots[i][:, -1]]
            hb = np.asarray(h, dtype=np.int64)[slots[i + 1][:, 0]]
            table = (table + lam * fa * hb) % q
    return QaryFunction(s.domain, table)
