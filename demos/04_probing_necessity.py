"""The permutation requirement is necessary, not just sufficient.

Chain tables that fail to permute {0..p-1} mod p cannot produce a complete
complementary set.  Corrupting one table and probing shows the failure.  The
probe reads from the spec which chain table does not permute, names it, and
scans that chain pair's own witness shifts first, read through the position
order pi; under the identity order they are q^m - n * q^{j+1} (chain j,
0-based), and a constant corruption provably fails at the first, n = 1.
"""

import random

import ccckit as ck
from ccckit.qary import constant_table
from ccckit.verify import witness_shifts

rng = random.Random(7)
q, m = 4, 3
perm = lambda: tuple(rng.sample(range(q), q))
spec = ck.theorem1_spec(
    q, m,
    h=[perm() for _ in range(m - 1)],
    hp=[perm() for _ in range(m - 1)],
    g=[tuple(rng.randrange(q) for _ in range(q)) for _ in range(m)],
    pi=tuple(range(m)),
)
print("valid spec:", ck.verify_ccc(ck.build_code_set(spec)).summary())

print("\nwitness shift family for q=4, m=3:", witness_shifts(spec))

for slot in (0, 1):
    bad = ck.corrupt_spec(spec, 0, slot, "f", constant_table(q))
    result = ck.necessity_probe(bad)
    print(f"\nchain {slot} constant -> {result.summary()}")
    report = ck.verify_ccc(ck.build_code_set(bad), max_violations=4)
    print("  full verification:", report.summary())
    for v in report.violations:
        print(f"    k1={v.k1} k2={v.k2} tau={v.tau} counts={v.element.counts}")

# replacement tables that still permute are refused: they corrupt nothing
try:
    ck.corrupt_spec(spec, 0, 0, "f", tuple((u + 1) % q for u in range(q)))
except ck.SpecError as exc:
    print("\nrefused a permutation replacement:", exc)
