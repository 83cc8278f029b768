"""Sequences attached to q-ary functions.

``eta`` is the raw Z_q value list of a function.  ``psi`` turns it into a
unimodular sequence whose entries are q-th roots of unity, represented by
their integer exponents.  ``psi_restricted`` keeps the exponent only on the
restriction support N_c and stores a literal zero (``None``) elsewhere;
correlation code skips those entries instead of faking them with exponent
tricks, so everything downstream stays exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qary import QaryFunction, restrict


@functools.lru_cache(maxsize=None)
def root_table(q: int) -> np.ndarray:
    """The read-only (q,) complex table whose entry a is exp(2 pi i a / q): every root of unity evaluated."""
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    roots.setflags(write=False)
    return roots


@dataclass(frozen=True)
class RootSequence:
    """Length-L sequence of exponents in Z_q, with None for a literal zero entry."""

    q: int
    entries: tuple

    def __post_init__(self):
        for e in self.entries:
            if e is not None and (isinstance(e, bool) or not isinstance(e, (int, np.integer))):
                raise ValueError(f"exponents must be integers or None, got {e!r}")
        ents = tuple(None if e is None else int(e) for e in self.entries)
        if self.q < 1:
            raise ValueError("modulus must be >= 1")
        if any(e is not None and not 0 <= e < self.q for e in ents):
            raise ValueError(f"exponents must lie in [0, {self.q})")
        object.__setattr__(self, "entries", ents)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e is not None)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponents int64 with 0 at holes, defined-mask bool)."""
        mask = np.array([e is not None for e in self.entries], dtype=bool)
        exps = np.array([0 if e is None else e for e in self.entries], dtype=np.int64)
        return exps, mask

    def to_complex(self) -> np.ndarray:
        exps, mask = self.to_arrays()
        return np.where(mask, root_table(self.q)[exps], 0)


def eta(f: QaryFunction) -> list[int]:
    """The Z_q value list (f_0, f_1, ..., f_{L-1})."""
    return [int(v) for v in f.table]


def psi(f: QaryFunction) -> RootSequence:
    """Exponent sequence: entry x is f(x), nothing is zeroed out."""
    return RootSequence(f.q, tuple(int(v) for v in f.table))


def psi_restricted(f: QaryFunction, J, c) -> RootSequence:
    """Exponent sequence of f on N_c, literal zero (None) off the support."""
    support = set(restrict(f, J, c).support.tolist())
    return RootSequence(f.q, tuple(int(v) if x in support else None for x, v in enumerate(f.table)))
