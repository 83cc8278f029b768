"""Why correlation zero-tests are done in exact integer arithmetic.

Sums of q-th roots of unity can vanish in ways floating point cannot certify.
Every correlation value is kept as an integer multiplicity vector; it is zero
as a complex number iff the associated polynomial is divisible by the q-th
cyclotomic polynomial, which is an exact computation.
"""

import ccckit as ck
from ccckit.exact_corr import GroupRingElement, cyclotomic, zero_count_rows
from ccckit.verify import character_sums

print("cyclotomic polynomials (constant term first):")
for n in (1, 2, 3, 4, 6, 12, 30):
    print(f"  Phi_{n:<2d} = {cyclotomic(n)}")

# a nontrivial vanishing sum over Z_6: 1 + w^2 + w^4 = 0 for w = exp(2 pi i / 6)
g = GroupRingElement(6, (1, 0, 1, 0, 1, 0))
print(f"\ncounts {g.counts}: exact zero? {ck.is_zero_exact(g)}; "
      f"float magnitude {g.magnitude():.2e}")

h = GroupRingElement(6, (1, 1, 0, 0, 0, 0))
print(f"counts {h.counts}: exact zero? {ck.is_zero_exact(h)}; "
      f"float magnitude {h.magnitude():.2e}")

# correlation of two short sequences, every shift exact
a = ck.RootSequence(2, (0, 0, 0, 1))   # +, +, +, -
b = ck.RootSequence(2, (0, 1, 0, 0))   # +, -, +, +
print("\nGolay pair behaviour: per-sequence autocorrelations cancel")
for tau in range(4):
    ga = ck.code_accf(a, a, tau)
    gb = ck.code_accf(b, b, tau)
    total = ga + gb
    print(f"  tau={tau}: counts {ga.counts} + {gb.counts} -> {total.counts}"
          f"  zero={ck.is_zero_exact(total)}")

# profiles collect all shifts at once; holes (literal zeros) just drop terms
f = ck.RootSequence(6, (0, 2, None, 4, None, 1))
prof = ck.correlation_profile([f], [f])
print("\nmasked-sequence autocorrelation profile (tau, counts, |value|):")
for tau in prof.taus:
    e = prof.element(tau)
    print(f"  {tau:+d}  {e.counts}  {abs(e.to_complex()):.3f}")

# character sums: a table permutes Z_q iff all nonzero character sums vanish
print("\npermutation test vs exact character sums over Z_4:")
for table in ((0, 1, 2, 3), (0, 1, 2, 2), (1, 3, 0, 2)):
    sums = zero_count_rows(character_sums(table, range(1, 4)), 4)
    print(f"  {table}: permutation={ck.is_permutation_mod(table, 4)}, "
          f"character sums vanish={all(sums)}")
