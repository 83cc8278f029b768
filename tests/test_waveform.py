import re

import numpy as np
import pytest

from ccckit import example72
from ccckit.mixed_radix import DomainSpec
from ccckit.qary import MonomialForm, restriction_values
from ccckit.waveform import RootSequence, eta, psi, psi_restricted


def test_eta_reference_sequence():
    assert tuple(eta(example72.function())) == example72.ETA_REFERENCE


def test_eta_zero_function():
    assert eta(MonomialForm(example72.DOMAIN, {}).to_function()) == [0] * 72


def test_eta_single_variable():
    d = DomainSpec(((2, 1),))
    f = MonomialForm(d, {(1,): 1}).to_function()
    assert eta(f) == [0, 1]


def test_psi_matches_eta_and_is_full():
    f = example72.function()
    seq = psi(f)
    assert seq.q == 6
    assert None not in seq.entries
    assert tuple(seq.entries) == example72.ETA_REFERENCE
    assert seq.support == tuple(range(72))


def test_psi_zero_function_is_all_ones():
    seq = psi(MonomialForm(example72.DOMAIN, {}).to_function())
    vals = seq.to_complex()
    assert np.allclose(vals, 1.0)


def test_psi_product_function():
    d = DomainSpec(((2, 2),))
    f = MonomialForm(d, {(1, 1): 1}).to_function()
    assert psi(f).entries == (0, 0, 0, 1)  # (+, +, +, -)


def test_psi_restricted_reference_pattern():
    f = example72.function()
    seq = psi_restricted(f, (1,), (0,))
    assert tuple(seq.entries) == example72.PSI_RESTRICTED_X2_0
    assert len(seq.support) == 36


def test_psi_restricted_empty_J():
    f = example72.function()
    assert psi_restricted(f, (), ()).entries == psi(f).entries


def test_restriction_support_sizes_and_superposition():
    f = example72.function()
    J = (1, 4)
    parts = [psi_restricted(f, J, c) for c in restriction_values(example72.DOMAIN, J)]
    assert all(len(p.support) == 72 // (2 * 3) for p in parts)
    supports = [set(p.support) for p in parts]
    assert set().union(*supports) == set(range(72))
    assert sum(len(s) for s in supports) == 72
    full = psi(f).entries
    for p in parts:
        assert all(e == (full[i] if i in p.support else None) for i, e in enumerate(p.entries))


def test_root_sequence_rejects_non_integer_exponents():
    for bad in (0.7, 1.0, True, np.float64(1), np.bool_(True), "1"):
        with pytest.raises(ValueError, match="integers"):
            RootSequence(3, (0, bad, 2))
    assert RootSequence(3, (np.int64(2), np.uint8(1), 0, None)).entries == (2, 1, 0, None)


def test_root_sequence_validation():
    with pytest.raises(ValueError):
        RootSequence(6, (0, 6))
    with pytest.raises(ValueError):
        RootSequence(6, (-1,))
    seq = RootSequence(6, (0, None, 5))
    assert seq.support == (0, 2)
    vals = seq.to_complex()
    assert vals[1] == 0
    assert abs(vals[2] - np.exp(2j * np.pi * 5 / 6)) < 1e-12


@pytest.mark.parametrize(("make", "error", "message"), [
    (lambda: RootSequence(0, ()), ValueError, "modulus must be >= 1"),
], ids=["modulus_0"])
def test_waveform_refusals(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
