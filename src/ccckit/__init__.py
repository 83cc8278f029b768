"""ccckit: complete complementary codes from q-ary functions, verified exactly.

Build (K, L) code sets over root-of-unity alphabets from structured q-ary
functions on mixed-radix domains, and certify or refute the complementarity
property with exact cyclotomic-integer arithmetic.
"""

from .construct import (
    CodeSet,
    ConstructionSpec,
    build_code_set,
    corollary1_spec,
    corollary3_spec,
    corrupt_spec,
    kronecker_compose,
    theorem1_spec,
    theorem2_spec,
    trivial_code_set,
)
from .exact_corr import (
    CorrelationProfile,
    GroupRingElement,
    code_accf,
    correlation_profile,
    cyclotomic,
    is_zero_exact,
)
from .mixed_radix import DomainSpec, int_to_vec, vec_to_int
from .qary import (
    GeneralizedQuadraticSpec,
    MonomialForm,
    QaryFunction,
    SpecError,
    build_from_spec,
    is_permutation_mod,
    monomials_upto,
    restrict,
)
from .verify import (
    ProbeResult,
    VerifyReport,
    lemma1_equiv_check,
    necessity_probe,
    verify_ccc,
    witness_shifts,
)
from .waveform import RootSequence, eta, psi, psi_restricted

__version__ = "0.1.0"
