"""Building complete complementary code sets and certifying them.

One builder, ``build_code_set``, turns the spec of any of the four families
into a code set: the uniform domain Z_q^m (with and without restricted
variables) and the mixed domain Z_{p_1}^{m_1} x ... x Z_{p_k}^{m_k}; the
Kronecker composition multiplies set sizes and lengths.  Exact verification
checks every pair of codes at every shift.
"""

import random

import ccckit as ck
from ccckit import example72
from ccckit.qary import constant_table, identity_table

rng = random.Random(42)

# smallest interesting case: binary, 2 variables -> a (2,4) set
C = ck.build_code_set(ck.theorem1_spec(
    2, 2, [identity_table(2)], [identity_table(2)], [constant_table(2)] * 2, (0, 1)
))
print("binary (2,4) set, code 0:")
for m in range(C.M):
    print("  ", C.sequence(0, m).entries)
print(" ", ck.verify_ccc(C).summary())

# restricted variables multiply the set size: (q^{n+1}, q^m)
q, m, n = 3, 3, 1
h = [tuple(rng.sample(range(q), q))]
hp = [tuple(rng.sample(range(q), q))]
g = [tuple(rng.randrange(q) for _ in range(q)) for _ in range(m - n)]
C9 = ck.build_code_set(ck.corollary1_spec(q, m, n, J=(2,), pi=(0, 1), h=h, hp=hp, g=g))
print("\n", ck.verify_ccc(C9).summary())

# the bundled mixed-domain example: a (12,72) set over the 6th roots of unity
C72 = example72.build()
print("\n", ck.verify_ccc(C72).summary())

# cross-code profile data (what a correlation plot would show)
prof = ck.correlation_profile(C72.code(1), C72.code(11))
print("  max |cross-correlation| over all shifts:",
      float(prof.magnitudes().max()))
prof = ck.correlation_profile(C72.code(1), C72.code(1))
mags = prof.magnitudes()
print("  auto: peak at shift 0 =", round(float(mags[C72.L - 1])),
      ", max elsewhere =", float(max(mags[: C72.L - 1].max(), mags[C72.L :].max())))

# composing verified sets multiplies parameters: (2,4) x (3,9) -> (6,36)
B = ck.build_code_set(ck.theorem1_spec(
    3, 2, [identity_table(3)], [identity_table(3)], [constant_table(3)] * 2, (0, 1)
))
K = ck.kronecker_compose(C, B)
print("\ncomposed:", ck.verify_ccc(K).summary())
