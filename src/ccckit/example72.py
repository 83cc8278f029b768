"""Bundled worked example: a 6-ary function on Z_2^3 x Z_3^2 and its (12,72) codes.

The function

    f = 2 x1 x2 + 4 x2 x3 + x2 x4 + x2 x5 + 3 x1 x3 + 2 x4 x5 + x2 + 2   (mod 6)

has a 72-entry value table frozen below as ``ETA_REFERENCE``.  Restricting at
x2 = 0 and x2 = 1 gives

    f|_{x2=0} = 3 x1 x3 + 2 x4 x5 + 2
    f|_{x2=1} = 3 x1 x3 + 2 x4 x5 + 2 x1 + 4 x3 + x4 + x5 + 3

which fit the chain shape with both chain tables the identity, so the
construction machinery turns f into a (12,72) code set over the 6th roots of
unity.  ``reproduce()`` re-derives everything from scratch and compares
against the frozen references; it is wired to the ``reproduce72`` CLI
subcommand and to the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .construct import ConstructionSpec, build_code_set, corollary3_spec
from .mixed_radix import DomainSpec
from .qary import MonomialForm, QaryFunction, constant_table, identity_table, restrict
from .verify import verify_ccc
from .waveform import psi_restricted

DOMAIN = DomainSpec(((2, 3), (3, 2)))

# fmt: off
ETA_REFERENCE = (
    2, 2, 3, 5, 2, 5, 1, 0,  2, 2, 4, 0, 2, 5, 2, 1,  2, 2, 5, 1, 2, 5, 3, 2,
    2, 2, 4, 0, 2, 5, 2, 1,  4, 4, 1, 3, 4, 1, 5, 4,  0, 0, 4, 0, 0, 3, 2, 1,
    2, 2, 5, 1, 2, 5, 3, 2,  0, 0, 4, 0, 0, 3, 2, 1,  4, 4, 3, 5, 4, 1, 1, 0,
)
# fmt: on

# exponent pairs of psi(f | x2 = 0); every pair is followed by two zero entries
_PSI_RESTRICTED_PAIRS = (
    (2, 2), (2, 5), (2, 2), (2, 5), (2, 2), (2, 5), (2, 2), (2, 5),
    (4, 4), (4, 1), (0, 0), (0, 3), (2, 2), (2, 5), (0, 0), (0, 3),
    (4, 4), (4, 1),
)

PSI_RESTRICTED_X2_0 = tuple(
    e for a, b in _PSI_RESTRICTED_PAIRS for e in (a, b, None, None)
)


def monomial_form() -> MonomialForm:
    return MonomialForm(
        DOMAIN,
        {
            (1, 1, 0, 0, 0): 2,
            (0, 1, 1, 0, 0): 4,
            (0, 1, 0, 1, 0): 1,
            (0, 1, 0, 0, 1): 1,
            (1, 0, 1, 0, 0): 3,
            (0, 0, 0, 1, 1): 2,
            (0, 1, 0, 0, 0): 1,
            (0, 0, 0, 0, 0): 2,
        },
    )


def restriction_form(c: int) -> MonomialForm:
    """Monomial form of f with x2 pinned to c (c = 0, 1)."""
    shared = {(1, 0, 1, 0, 0): 3, (0, 0, 0, 1, 1): 2}
    if c == 0:
        return MonomialForm(DOMAIN, {**shared, (0, 0, 0, 0, 0): 2})
    if c == 1:
        return MonomialForm(
            DOMAIN,
            {
                **shared,
                (1, 0, 0, 0, 0): 2,
                (0, 0, 1, 0, 0): 4,
                (0, 0, 0, 1, 0): 1,
                (0, 0, 0, 0, 1): 1,
                (0, 0, 0, 0, 0): 3,
            },
        )
    raise ValueError("c must be 0 or 1")


def construction_spec() -> ConstructionSpec:
    """The restricted-chain description of f: J = {x2}, identity chains."""
    q = DOMAIN.q
    ident = identity_table(q)
    zero = constant_table(q, 0)
    g_two = tuple(2 * u % q for u in range(q))
    g_four = tuple(4 * u % q for u in range(q))
    return corollary3_spec(
        DOMAIN,
        J=((1,), ()),
        pi=((0, 2), (3, 4)),
        chains=(((ident, ident),), ((ident, ident),)),
        gs=(
            {0: (zero, zero), 1: (g_two, g_four)},
            {0: (zero, zero), 1: (ident, ident)},
        ),
        offsets={0: 2, 1: 3},
    )


def function() -> QaryFunction:
    return monomial_form().to_function()


def build():
    return build_code_set(construction_spec())


def reproduce() -> list[tuple[str, bool, str]]:
    """Re-derive the example and compare with the frozen references.

    Returns (check name, passed, detail) triples; all-pass is the expected
    outcome and anything else points at the named mismatch.
    """
    checks: list[tuple[str, bool, str]] = []

    f = function()
    ok = tuple(int(v) for v in f.table) == ETA_REFERENCE
    checks.append(("eta-reference-72-symbols", ok, "value table vs frozen reference"))

    from .qary import build_from_spec

    spec = construction_spec()
    g = build_from_spec(spec)
    checks.append(
        (
            "structured-spec-matches-monomials",
            bool(np.array_equal(g.table, f.table)),
            "restricted-chain build vs monomial build",
        )
    )

    for c in (0, 1):
        view = restrict(f, (1,), (c,))
        form = restriction_form(c)
        ok = all(view(int(x)) == form.evaluate(int(x)) for x in view.support)
        checks.append(
            (f"restriction-x2={c}", ok, "restricted values vs closed-form table")
        )

    seq = psi_restricted(f, (1,), (0,))
    checks.append(
        (
            "psi-restricted-zero-pattern",
            tuple(seq.entries) == PSI_RESTRICTED_X2_0,
            "support/exponent layout vs frozen reference",
        )
    )

    codes = build()
    shape_ok = (codes.K, codes.M, codes.L, codes.q) == (12, 12, 72, 6)
    checks.append(("code-set-shape-(12,72)", shape_ok, f"K={codes.K} M={codes.M} L={codes.L}"))

    report = verify_ccc(codes, mode="exact")
    checks.append(
        (
            "exact-verification-peak-864",
            report.is_ccc and report.peak == 864,
            report.summary(),
        )
    )
    return checks
