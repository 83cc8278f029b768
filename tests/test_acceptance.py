"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted, nothing is deferred.
"""

import random
import time

import ccckit as ck
from ccckit import example72
from ccckit.exact_corr import GroupRingElement, cyclotomic, is_zero_exact
from ccckit.qary import constant_table, monomials_upto

from conftest import rand_perm_table, rand_table, rand_theorem1_spec, rand_theorem2_spec


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_golden_example():
    t0 = time.perf_counter()
    checks = example72.reproduce()
    elapsed = time.perf_counter() - t0
    failed = [name for name, ok, _ in checks if not ok]
    ok = not failed and elapsed < 5.0
    report(
        1,
        ok,
        f"worked example re-derived: {len(checks)} checks, failures={failed}, "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_theorem1_sufficiency():
    rng = random.Random(202)
    t0 = time.perf_counter()
    tested = 0
    for q in (2, 3, 4, 5, 6):
        for m in (2, 3):
            for _ in range(20):
                C = ck.build_code_set(rand_theorem1_spec(rng, q, m))
                rep = ck.verify_ccc(C, mode="exact")
                assert rep.is_ccc, (q, m)
                assert rep.peak == q ** (m + 1), (q, m)
                g0 = ck.code_accf(C.code(0), C.code(0), 0)
                assert g0.counts[0] == q ** (m + 1) and sum(g0.counts) == q ** (m + 1)
                tested += 1
    elapsed = time.perf_counter() - t0
    ok = tested == 200 and elapsed < 60.0
    report(2, ok, f"{tested} random valid specs verified exactly, peaks q^(m+1); "
                  f"{elapsed:.1f}s (budget 60s)")


def test_criterion_03_theorem1_necessity():
    rng = random.Random(303)
    t0 = time.perf_counter()
    cases = []
    for q, m, i in ((3, 2, 1), (4, 3, 1), (4, 3, 2)):
        tau_expect = q**m - q ** (m - i)
        slot = m - i  # the chain slot that shift family probes (1-based)
        spec = rand_theorem1_spec(rng, q, m, identity_pi=True)
        bad = ck.corrupt_spec(spec, 0, slot - 1, "f", constant_table(q))
        probe = ck.necessity_probe(bad)
        rep = ck.verify_ccc(ck.build_code_set(bad))
        good = (
            probe.found
            and probe.tau == tau_expect
            and not is_zero_exact(probe.element)
            and not rep.is_ccc
        )
        cases.append(((q, m, i), tau_expect, good))
    elapsed = time.perf_counter() - t0
    ok = all(c[2] for c in cases) and elapsed < 10.0
    detail = ", ".join(f"{qmi}->tau={tau}" for qmi, tau, _ in cases)
    report(3, ok, f"constant-chain corruptions refuted at witness shifts ({detail}); "
                  f"{elapsed:.1f}s (budget 10s)")


def test_criterion_04_corollary1_9_27():
    rng = random.Random(404)
    q, m, n = 3, 3, 1
    C = ck.build_code_set(ck.corollary1_spec(
        q, m, n, J=(2,), pi=(0, 1),
        h=[rand_perm_table(rng, q, q)], hp=[rand_perm_table(rng, q, q)],
        g=[rand_table(rng, q), rand_table(rng, q)],
    ))
    rep = ck.verify_ccc(C, mode="exact")
    ok = (C.K, C.L) == (9, 27) and rep.is_ccc and rep.peak == q ** (m + n + 1) == 243
    report(4, ok, f"(9,27) set exact-verified, peak {rep.peak} = q^(m+n+1) = 243")


def test_criterion_05_theorem2_6_36():
    rng = random.Random(505)
    C = ck.build_code_set(rand_theorem2_spec(rng, 2, 3, 2, 2))
    rep = ck.verify_ccc(C, mode="exact")
    ok = (C.K, C.L) == (6, 36) and rep.is_ccc and rep.peak == 2**3 * 3**3 == 216
    report(5, ok, f"(6,36) set exact-verified, peak {rep.peak} = p1^(m1+1) p2^(m2+1) = 216")


def test_criterion_06_corollary3_30_180():
    rng = random.Random(606)
    d = ck.DomainSpec(((2, 2), (3, 2), (5, 1)))
    q = d.q
    spec = ck.corollary3_spec(
        d, J=((), (), ()), pi=((0, 1), (2, 3), (4,)),
        chains=(
            ((rand_perm_table(rng, q, 2), rand_perm_table(rng, q, 2)),),
            ((rand_perm_table(rng, q, 3), rand_perm_table(rng, q, 3)),),
            (),
        ),
        gs=(
            (rand_table(rng, q), rand_table(rng, q)),
            (rand_table(rng, q), rand_table(rng, q)),
            (rand_table(rng, q),),
        ),
        couplings=(
            (rng.randrange(q), rand_table(rng, q), rand_table(rng, q)),
            (rng.randrange(q), rand_table(rng, q), rand_table(rng, q)),
        ),
    )
    C = ck.build_code_set(spec)
    approx = ck.verify_ccc(C, mode="float")
    exact = ck.verify_ccc(C)
    ok = (
        (C.K, C.L, C.q) == (30, 180, 30)
        and approx.is_ccc
        and exact.is_ccc
        and exact.shifts_tested >= 200
    )
    report(6, ok, f"(30,180) set: float Gram check {approx.total_violations} flagged cells, "
                  f"{exact.total_violations} of all {exact.shifts_tested} cells nonzero off-peak")


def test_criterion_07_lemma1_equivalence():
    ok3 = ck.lemma1_equiv_check(3)
    ok4 = ck.lemma1_equiv_check(4)
    report(7, ok3 and ok4, "character sums vanish iff permutation: all 27 maps "
                           "Z_3->Z_3 and all 256 maps Z_4->Z_4, zero counterexamples")


def test_criterion_08_kronecker():
    from ccckit.qary import identity_table

    A = ck.build_code_set(ck.theorem1_spec(
        2, 2, [identity_table(2)], [identity_table(2)], [constant_table(2)] * 2, (0, 1)
    ))
    B = ck.build_code_set(ck.theorem1_spec(
        3, 2, [identity_table(3)], [identity_table(3)], [constant_table(3)] * 2, (0, 1)
    ))
    assert ck.verify_ccc(A).is_ccc and ck.verify_ccc(B).is_ccc
    C = ck.kronecker_compose(A, B)
    rep = ck.verify_ccc(C, mode="exact")
    compose_ok = (C.K, C.L) == (6, 36) and rep.is_ccc

    # factor-order regression: lambda = 0 two-block build == kron(block2, block1)
    rng = random.Random(808)
    d = ck.DomainSpec(((2, 2), (3, 2)))
    q = d.q
    f1, f1p = rng.sample(range(2), 2), rng.sample(range(2), 2)
    h1, h1p = rng.sample(range(3), 3), rng.sample(range(3), 3)
    g1 = [tuple(rng.randrange(2) for _ in range(2)) for _ in range(2)]
    g2 = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)]
    lift = lambda t, p: tuple(t[u % p] for u in range(q))
    lift_g = lambda t, p: tuple((q // p) * t[u % p] % q for u in range(q))
    C3 = ck.build_code_set(ck.corollary3_spec(
        d, J=((), ()), pi=((0, 1), (2, 3)),
        chains=(((lift(f1, 2), lift(f1p, 2)),), ((lift(h1, 3), lift(h1p, 3)),)),
        gs=((lift_g(g1[0], 2), lift_g(g1[1], 2)), (lift_g(g2[0], 3), lift_g(g2[1], 3))),
    ))
    B1 = ck.build_code_set(ck.corollary1_spec(2, 2, 0, (), (0, 1), [tuple(f1)], [tuple(f1p)], g1, None))
    B2 = ck.build_code_set(ck.corollary1_spec(3, 2, 0, (), (0, 1), [tuple(h1)], [tuple(h1p)], g2, None))
    order_ok = ck.kronecker_compose(B2, B1).same_codes(C3)
    ok = compose_ok and (C.K, C.L) == (6, 36) and order_ok
    report(8, ok, f"(2,4) x (3,9) -> (6,36) exact-verified (peak {rep.peak}); "
                  "lambda=0 build equals kron(block2, block1) exactly")


def test_criterion_09_index_machinery():
    d = example72.DOMAIN
    round_trip = all(ck.vec_to_int(ck.int_to_vec(x, d), d) == x for x in range(72))
    spots = (
        ck.int_to_vec(7, d) == (1, 1, 1, 0, 0)
        and ck.int_to_vec(11, d) == (1, 1, 0, 1, 0)
        and ck.int_to_vec(70, d) == (0, 1, 1, 2, 2)
    )
    mono = len(monomials_upto(d, 2)) == 27
    ok = round_trip and spots and mono
    report(9, ok, "exhaustive index round trip at L=72, reference rows x=7,11,70, "
                  "27 weight-<=2 monomials")


def test_criterion_10_exactness_guard():
    import mpmath

    rng = random.Random(1010)
    q = 6
    phi = cyclotomic(q)
    mpmath.mp.prec = 200
    roots = [mpmath.expjpi(mpmath.mpf(2 * j) / q) for j in range(q)]

    def high_prec_abs(counts):
        total = mpmath.mpc(0)
        for c, r in zip(counts, roots):
            total += c * r
        return abs(total)

    def random_zero():
        # random integer multiple of Phi_q, exponents wrapped mod q
        counts = [0] * q
        for i in range(q):
            b = rng.randrange(-20, 21)
            if b:
                for j, c in enumerate(phi):
                    counts[(i + j) % q] += b * c
        return counts

    checked = 0
    disagreements = 0
    zeros_seen = 0
    for trial in range(10_000):
        kind = trial % 4
        if kind == 0:
            counts = [rng.randrange(-99, 100) for _ in range(q)]
        elif kind == 1:
            counts = random_zero()
        elif kind == 2:
            a, b, r1, r2 = (rng.randrange(-30, 31) for _ in range(4))
            counts = [0] * q
            for j in (0, 2, 4):  # full orbit of the cube roots
                counts[(j + r1) % q] += a
            for j in (0, 3):  # order-2 orbit
                counts[(j + r2) % q] += b
        else:
            counts = random_zero()
            counts[rng.randrange(q)] += rng.choice([-1, 1])
        g = GroupRingElement(q, tuple(counts))
        exact = is_zero_exact(g)
        numeric = high_prec_abs(counts) < mpmath.mpf("1e-30")
        zeros_seen += exact
        disagreements += exact != numeric
        if exact:
            assert g.magnitude() < 1e-6  # float64 is a safe prefilter for true zeros
        checked += 1
    ok = checked == 10_000 and disagreements == 0 and zeros_seen > 1000
    report(10, ok, f"{checked} random group-ring elements, {zeros_seen} exact zeros, "
                   f"{disagreements} disagreements with 200-bit evaluation")
