"""The four workloads: item lists made from the seed, setup, and checked operations.

``items(workload, seed)`` is plain data (build configs for ``ccckit.cli``),
so it is deterministic without importing ccckit.  ``prepare`` turns the items
into ``Op`` objects; one pass runs every op once.  An op's ``run`` is timed,
its ``check`` is not: the check returns None or a failure message.

Outputs that depend on the seed are pinned in ``pins.json`` (written by
``pin.py`` at the commit that defined the benchmark).  So that every seed
has pins, a pinned item draws its build seed from ``range(VARIANTS)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

WORKLOADS = ("certify", "build-io", "probe", "cli")
VARIANTS = 16
PINS_PATH = Path(__file__).with_name("pins.json")

# ROADMAP item 1: these malformed files should exit 2; they are kept failing.
KNOWN_DEFECT = "ROADMAP item 1 (malformed code-set files)"
EXIT_MISMATCH = "exit code"  # prefix of a cli check failure on the exit code


def _blocks(*pairs):
    return [{"p": p, "m": m} for p, m in pairs]


CERTIFY_VALID = {
    "full": [
        ("theorem1-q6-m4", {"kind": "theorem1", "q": 6, "m": 4}),
        ("corollary1-q2-m10-n2", {"kind": "corollary1", "q": 2, "m": 10, "n": 2}),
        ("corollary3-30x180", {"kind": "corollary3", "blocks": _blocks((2, 2), (3, 2), (5, 1)), "n": [0, 0, 0]}),
        ("corollary3-12x72", {"kind": "corollary3", "blocks": _blocks((2, 3), (3, 2)), "n": [1, 0]}),
        ("theorem2-6x72", {"kind": "theorem2", "blocks": _blocks((2, 3), (3, 2))}),
    ],
    "smoke": [
        ("theorem1-q3-m2", {"kind": "theorem1", "q": 3, "m": 2}),
        ("corollary3-6x36", {"kind": "corollary3", "blocks": _blocks((2, 2), (3, 2)), "n": [0, 0]}),
    ],
}


def pinned_config(item: str, variant: int) -> dict:
    """Build config of a pinned item; its outputs are in pins.json per variant."""
    v = variant
    if item == "certify-corrupt":  # 9x9x243 over Z_3, constant chain table
        return {"kind": "corollary1", "q": 3, "m": 5, "n": 1, "seed": v,
                "corrupt": {"block": 0, "chain": v % 3, "which": "f", "constant": v % 3}}
    if item == "certify-corrupt-smoke":
        return {"kind": "corollary1", "q": 3, "m": 3, "n": 1, "seed": v,
                "corrupt": {"block": 0, "chain": 0, "which": "f", "constant": v % 3}}
    if item == "io-corollary1-81x2187":
        return {"kind": "corollary1", "q": 3, "m": 7, "n": 3, "seed": v}
    if item == "io-corollary3-72x432":
        return {"kind": "corollary3", "blocks": _blocks((2, 4), (3, 3)), "n": [2, 1], "seed": v}
    if item == "io-smoke":
        return {"kind": "corollary1", "q": 3, "m": 3, "n": 1, "seed": v}
    if item == "kron-60x1800":  # (12,72) over Z_6 times (5,25) over Z_5
        return {"factors": [
            {"kind": "corollary3", "blocks": _blocks((2, 3), (3, 2)), "n": [1, 0], "seed": v},
            {"kind": "theorem1", "q": 5, "m": 2, "seed": 100 + v},
        ]}
    if item == "kron-smoke":
        return {"factors": [{"kind": "theorem1", "q": 2, "m": 2, "seed": v},
                            {"kind": "theorem1", "q": 3, "m": 2, "seed": v}]}
    raise KeyError(item)


PINNED_ITEMS = ("certify-corrupt", "certify-corrupt-smoke", "io-corollary1-81x2187",
                "io-corollary3-72x432", "io-smoke", "kron-60x1800", "kron-smoke")
IO_SETS = {"full": ["io-corollary1-81x2187", "io-corollary3-72x432"], "smoke": ["io-smoke"]}

# Probe families.  Constant corruptions use the identity ordering, under which they
# surface at the witness shifts (when the family has no other terms in the way).
# Random corruptions use the seeded ordering of spec_from_config.  Each family and
# style draws from a fixed pool of corruptions; pins.json records which pool
# entries needed the full scan at the reference commit, and every pass takes the
# pool's share of those, so the mix of witness hits and full scans, which differ
# in cost by 10x, does not change with the seed.
PROBE_FAMILIES = {
    "full": [
        ("theorem1-q3-m5", {"kind": "theorem1", "q": 3, "m": 5, "pi": [0, 1, 2, 3, 4]}),
        ("theorem1-q5-m3", {"kind": "theorem1", "q": 5, "m": 3, "pi": [0, 1, 2]}),
        ("theorem1-q2-m8", {"kind": "theorem1", "q": 2, "m": 8, "pi": list(range(8))}),
        ("corollary1-q2-m7-n2", {"kind": "corollary1", "q": 2, "m": 7, "n": 2}),
        ("corollary1-q3-m5-n1", {"kind": "corollary1", "q": 3, "m": 5, "n": 1}),
        ("theorem2-6x72", {"kind": "theorem2", "blocks": _blocks((2, 3), (3, 2)),
                           "pi": [0, 1, 2], "pip": [3, 4]}),
        ("corollary3-12x72", {"kind": "corollary3", "blocks": _blocks((2, 3), (3, 2)), "n": [1, 0]}),
        ("corollary3-10x100", {"kind": "corollary3", "blocks": _blocks((2, 2), (5, 2)), "n": [0, 0]}),
    ],
    "smoke": [
        ("theorem1-q3-m3", {"kind": "theorem1", "q": 3, "m": 3, "pi": [0, 1, 2]}),
        ("corollary3-6x36", {"kind": "corollary3", "blocks": _blocks((2, 2), (3, 2)), "n": [0, 0]}),
    ],
}
PROBES_PER_STYLE = {"full": 8, "smoke": 1}  # per family and pass
PROBE_STYLES = ("constant", "random")
POOL_SIZE = 48


def probe_pool_config(name: str, cfg: dict, style: str, index: int) -> dict:
    """Entry ``index`` of a family's pool of corruptions of one style."""
    rng = random.Random(f"ccckit-perfbench/probe-pool/{name}/{style}/{index}")
    base = cfg if style == "constant" else {k: v for k, v in cfg.items() if k not in ("pi", "pip")}
    return dict(base, seed=rng.randrange(2**31), corrupt=_corruption(rng, base, style))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ccckit-perfbench/{workload}/{seed}")


def _domain(cfg: dict) -> tuple[list[tuple[int, int]], list[int]]:
    """(blocks, restricted counts n per block) of a build config."""
    if "blocks" in cfg:
        blocks = [(b["p"], b["m"]) for b in cfg["blocks"]]
        return blocks, list(cfg.get("n", [0] * len(blocks)))
    return [(cfg["q"], cfg["m"])], [cfg.get("n", 0)]


def _corruption(rng: random.Random, cfg: dict, style: str) -> dict:
    blocks, n = _domain(cfg)
    q = _modulus(cfg)
    chained = [i for i, (p, m) in enumerate(blocks) if m - n[i] - 1 >= 1]
    block = rng.choice(chained)
    p, m = blocks[block]
    out = {"block": block, "chain": rng.randrange(m - n[block] - 1), "which": rng.choice(["f", "fp"])}
    if style == "constant":
        out["constant"] = rng.randrange(q)
        return out
    while True:  # a random table that does not permute {0..p-1} mod p
        table = [rng.randrange(q) for _ in range(q)]
        if len({table[u] % p for u in range(p)}) < p:
            out["table"] = table
            return out


def items(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's item list for this seed: plain, JSON-able data."""
    size = "smoke" if smoke else "full"
    rng = _rng(workload, seed)
    if workload == "certify":
        out = [{"op": "certify", "name": name, "cfg": dict(cfg, seed=rng.randrange(2**31))}
               for name, cfg in CERTIFY_VALID[size]]
        pinned = "certify-corrupt-smoke" if smoke else "certify-corrupt"
        v = rng.randrange(VARIANTS)
        out.append({"op": "certify", "name": pinned, "variant": v, "cfg": pinned_config(pinned, v)})
        return out
    if workload == "build-io":
        out = []
        for name in IO_SETS[size]:
            v = rng.randrange(VARIANTS)
            out.append({"op": "roundtrip", "name": name, "variant": v, "cfg": pinned_config(name, v)})
        name = "kron-smoke" if smoke else "kron-60x1800"
        v = rng.randrange(VARIANTS)
        out.append({"op": "kron", "name": name, "variant": v, "cfg": pinned_config(name, v)})
        return out
    if workload == "probe":
        per_style = PROBES_PER_STYLE[size]
        pins = load_pins()
        out = []
        for name, cfg in PROBE_FAMILIES[size]:
            for style in PROBE_STYLES:
                pool = pins[f"probe-pool/{name}/{style}"]
                full = [i for i, used_full_scan in enumerate(pool) if used_full_scan]
                hits = [i for i, used_full_scan in enumerate(pool) if not used_full_scan]
                take = round(per_style * len(full) / len(pool))
                for i in sorted(rng.sample(full, take) + rng.sample(hits, per_style - take)):
                    out.append({"op": "probe", "name": f"{name}/{style}-{i}",
                                "cfg": probe_pool_config(name, cfg, style, i)})
        return out
    if workload == "cli":
        return _cli_items(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_items(rng: random.Random, smoke: bool) -> list[dict]:
    s = lambda: rng.randrange(2**31)  # noqa: E731
    t1 = {"kind": "theorem1", "q": 3, "m": 3, "seed": s()}
    c1 = {"kind": "corollary1", "q": 2, "m": 5, "n": 1, "seed": s()}
    t2 = {"kind": "theorem2", "blocks": _blocks((2, 2), (3, 2)), "seed": s()}
    c3 = {"kind": "corollary3", "blocks": _blocks((2, 2), (3, 2)), "n": [1, 0], "seed": s()}
    bad = {"kind": "theorem1", "q": 3, "m": 3, "pi": [0, 1, 2], "seed": s(),
           "corrupt": {"block": 0, "chain": rng.randrange(2), "which": "f", "constant": rng.randrange(3)}}
    rand_bad = {"kind": "corollary1", "q": 3, "m": 4, "n": 1, "seed": s()}
    rand_bad["corrupt"] = _corruption(rng, rand_bad, "random")
    # files the commands read; "build:<cfg>" files are written from the library in setup
    files = {
        "t1.cfg": t1, "c1.cfg": c1, "t2.cfg": t2, "c3.cfg": c3, "bad.cfg": bad, "rand_bad.cfg": rand_bad,
        "kron.cfg": {"kind": "kronecker", "inputs": ["t1.json", "c1.json"]},
        "t1.json": "build:t1.cfg", "c1.json": "build:c1.cfg", "t2.json": "build:t2.cfg",
        "c3.json": "build:c3.cfg", "bad.json": "build:bad.cfg",
        "ragged.json": {"q": 2, "codes": [[[0, 1], [0]]]},
        "empty.json": {"q": 2, "codes": []},
        "m_mismatch.json": {"q": 2, "codes": [[[0, 1]], [[0, 1], [1, 0]]]},
    }
    cmds = [
        ("build", ["build", "t1.cfg", "--out", "out_t1.json"], 0, {"same_as": "t1.json"}),
        ("build", ["build", "c1.cfg", "--out", "out_c1.json"], 0, {"same_as": "c1.json"}),
        ("build", ["build", "t2.cfg", "--out", "out_t2.json"], 0, {"same_as": "t2.json"}),
        ("build", ["build", "c3.cfg", "--out", "out_c3.json"], 0, {"same_as": "c3.json"}),
        ("verify", ["verify", "t1.json", "--json"], 0, {"report_of": "t1.json"}),
        ("verify", ["verify", "c3.json"], 0, {"stdout_has": ": CCC;"}),
        ("verify", ["verify", "c1.json", "--mode", "float"], 0, {"stdout_has": "mode=float"}),
        ("verify", ["verify", "bad.json"], 1, {"stdout_has": "NOT a CCC"}),
        ("profile", ["profile", "t2.json", "0", "1", "--out", "profile.csv"], 0, {"csv_rows_of": "t2.json"}),
        ("probe", ["probe", "bad.cfg"], 0, {"stdout_has": "violation at shift"}),
        ("probe", ["probe", "rand_bad.cfg"], 0, {"stdout_has": "violation at shift"}),
        ("build", ["build", "kron.cfg", "--out", "out_kron.json"], 0, {"kron_of": ["t1.json", "c1.json"]}),
        ("reproduce72", ["reproduce72"], 0, {"stdout_has": "all checks passed"}),
        ("verify", ["verify", "ragged.json"], 2, {"known_defect": KNOWN_DEFECT}),
        ("verify", ["verify", "empty.json"], 2, {"known_defect": KNOWN_DEFECT}),
        ("verify", ["verify", "m_mismatch.json"], 2, {"known_defect": KNOWN_DEFECT}),
    ]
    if smoke:
        cmds = [cmds[0], cmds[4], cmds[7], cmds[13]]
    return [{"op": "cli", "name": f"{kind} {' '.join(argv)}", "kind": kind, "argv": argv,
             "expect_exit": code, "expect": expect, "files": files} for kind, argv, code, expect in cmds]


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    units: Callable[[Any], int]  # throughput units of one successful run
    known_defect: str | None = None
    span: str | None = None  # benchmark-level span name in the traced run


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def payload_sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def exps_sha(codes) -> str:
    """Hash of the exponent tensor, independent of the dtype it is stored in."""
    import numpy as np

    data = np.ascontiguousarray(codes.exps, dtype="<i8").tobytes()
    mask = b"" if codes.mask is None else np.packbits(codes.mask).tobytes()
    return hashlib.sha256(repr(codes.exps.shape).encode() + data + mask).hexdigest()


def _modulus(cfg: dict) -> int:
    return math.lcm(*(p for p, _ in _domain(cfg)[0]))


def _shape(cfg: dict) -> tuple[int, int, int]:
    """(K, M, L) of the set a build config describes."""
    blocks, n = _domain(cfg)
    K = math.prod(p ** (ni + 1) for (p, _), ni in zip(blocks, n))
    return K, K, math.prod(p**m for p, m in blocks)


def moduli(workload_items: list[dict]) -> set[int]:
    """Every alphabet size q the items verify in this process (cli ops run in others)."""
    qs = set()
    for it in workload_items:
        if it["op"] == "kron":
            a, b = (_modulus(f) for f in it["cfg"]["factors"])
            qs |= {a, b, math.lcm(a, b)}
        elif it["op"] != "cli":
            qs.add(_modulus(it["cfg"]))
    return qs


class Context:
    """What the ops of one workload share: the ccckit modules, pins and a work dir."""

    def __init__(self, ck, workdir: Path, src: Path):
        self.ck = ck
        self.workdir = workdir
        self.src = src
        self.pins = load_pins()
        self.trace_cli = False  # run cli ops under trace_cli.py, collecting their spans
        self.cli_traces: list[Path] = []


def prepare(ctx: Context, workload_items: list[dict]) -> list[Op]:
    """Turn items into ops: build specs, write input files, fill lazy caches."""
    from ccckit import exact_corr

    for q in sorted(moduli(workload_items)):
        exact_corr.cyclotomic(q)
        exact_corr.reduction_matrix(q)
    make = {"certify": _certify_op, "roundtrip": _roundtrip_op, "kron": _kron_op,
            "probe": _probe_op, "cli": _cli_op}
    if workload_items and workload_items[0]["op"] == "cli":
        _write_cli_files(ctx, workload_items[0]["files"])
    return [make[it["op"]](ctx, it) for it in workload_items]


def _pin(ctx: Context, it: dict):
    return ctx.pins[it["name"]][it["variant"]]


def _certify_op(ctx: Context, it: dict) -> Op:
    ck = ctx.ck
    spec = ck.cli.spec_from_config(it["cfg"])
    corrupted = "corrupt" in it["cfg"]
    expected_violations = _pin(ctx, it)["total_violations"] if corrupted else 0
    shape = _shape(it["cfg"])

    def run():
        return ck.verify_ccc(ck.build_code_set(spec))

    def check(rep):
        K, M, L = rep.K, rep.M, rep.L
        if (K, M, L) != shape:
            return f"verified a {K}x{M}x{L} set, expected {'x'.join(map(str, shape))}"
        if rep.is_ccc == corrupted:
            return f"verdict is_ccc={rep.is_ccc}, expected {not corrupted}"
        if rep.peak != M * L:
            return f"peak {rep.peak} != M*L = {M * L}"
        if rep.shifts_tested != K * K * L:
            return f"shifts_tested {rep.shifts_tested} != K^2*L = {K * K * L}"
        if rep.total_violations != expected_violations:
            return f"total_violations {rep.total_violations} != pinned {expected_violations}"
        return None

    return Op(it["name"], run, check, units=lambda rep: rep.shifts_tested)  # cells certified


def _roundtrip_op(ctx: Context, it: dict) -> Op:
    ck = ctx.ck
    spec = ck.cli.spec_from_config(it["cfg"])
    path = ctx.workdir / f"{it['name']}.json"
    want = _pin(ctx, it)["sha256"]

    def run():
        codes = ck.build_code_set(spec)
        payload = codes.dumps()
        with open(path, "w") as fh:
            fh.write(payload)
        return codes, payload, ck.cli.load_code_set(str(path))

    def check(out):
        codes, payload, loaded = out
        if payload_sha(payload) != want:
            return f"payload sha256 {payload_sha(payload)[:16]}.. != pinned {want[:16]}.."
        if not loaded.same_codes(codes):
            return "code set read back differs from the one written"
        return None

    # exponent entries built, written and read back
    return Op(it["name"], run, check, units=lambda out: int(out[0].exps.size))


def _kron_op(ctx: Context, it: dict) -> Op:
    ck = ctx.ck
    specs = [ck.cli.spec_from_config(f) for f in it["cfg"]["factors"]]
    want = _pin(ctx, it)["exps_sha256"]

    def run():
        a, b = (ck.build_code_set(s) for s in specs)
        return a, b, ck.kronecker_compose(a, b)

    def check(out):
        a, b, prod = out
        if (prod.K, prod.M, prod.L) != (a.K * b.K, a.M * b.M, a.L * b.L):
            return f"product shape {(prod.K, prod.M, prod.L)} is wrong"
        if exps_sha(prod) != want:
            return f"product sha256 {exps_sha(prod)[:16]}.. != pinned {want[:16]}.."
        return None

    return Op(it["name"], run, check, units=lambda out: 0)


def _probe_op(ctx: Context, it: dict) -> Op:
    ck = ctx.ck
    spec = ck.cli.spec_from_config(it["cfg"])

    def run():
        return ck.necessity_probe(spec)

    def check(res):
        if not res.found:
            return "probe found no violation in a corrupted spec"
        codes = ck.build_code_set(spec)
        return oracle.check_probe_cell(codes.exps, codes.mask, codes.q, res.k1, res.k2, res.tau,
                                       res.element.counts)

    return Op(it["name"], run, check, units=lambda res: 1)  # corrupted spec refuted


def _write_cli_files(ctx: Context, files: dict):
    for name, content in files.items():
        if isinstance(content, str):  # "build:<config file>": the library's build of it
            content = ctx.ck.cli.build_from_config(files[content.removeprefix("build:")]).dumps()
        else:
            content = json.dumps(content)
        (ctx.workdir / name).write_text(content)


def cli_env(ctx: Context) -> dict:
    return dict(os.environ, PYTHONPATH=str(ctx.src))


def _cli_op(ctx: Context, it: dict) -> Op:
    ck = ctx.ck
    wd = ctx.workdir
    expect = it["expect"]
    env = cli_env(ctx)

    def run():
        cmd = [sys.executable, "-m", "ccckit.cli", *it["argv"]]
        if ctx.trace_cli:
            trace_out = wd / f"trace-{len(ctx.cli_traces)}.json"
            ctx.cli_traces.append(trace_out)
            cmd = [sys.executable, str(Path(__file__).with_name("trace_cli.py")), str(trace_out), *it["argv"]]
        return subprocess.run(cmd, cwd=wd, env=env, capture_output=True, text=True, timeout=120)

    def check(proc):
        if proc.returncode != it["expect_exit"]:
            tail = (proc.stderr.strip().splitlines() or [""])[-1][:160]
            return f"{EXIT_MISMATCH} {proc.returncode}, expected {it['expect_exit']} ({tail})"
        if "stdout_has" in expect and expect["stdout_has"] not in proc.stdout:
            return f"stdout lacks {expect['stdout_has']!r}"
        if "same_as" in expect:
            out = (wd / it["argv"][3]).read_bytes()
            if out != (wd / expect["same_as"]).read_bytes():
                return f"CLI build output differs from the library's dumps of {expect['same_as']}"
        if "report_of" in expect:
            codes = ck.cli.load_code_set(str(wd / expect["report_of"]))
            rep = json.loads(proc.stdout)
            if not rep["is_ccc"] or rep["shifts_tested"] != codes.K**2 * codes.L or rep["peak"] != codes.M * codes.L:
                return f"verify --json report is wrong: {rep}"
        if "csv_rows_of" in expect:
            codes = ck.cli.load_code_set(str(wd / expect["csv_rows_of"]))
            rows = (wd / it["argv"][-1]).read_text().splitlines()
            if len(rows) != 2 * codes.L:  # header + 2L-1 shifts
                return f"profile has {len(rows)} lines, expected {2 * codes.L}"
        if "kron_of" in expect:
            a, b = (ck.cli.load_code_set(str(wd / f)) for f in expect["kron_of"])
            want = ck.kronecker_compose(a, b).dumps()
            if (wd / it["argv"][3]).read_text() != want:
                return "CLI kronecker output differs from the library's composition"
        return None

    return Op(it["name"], run, check, units=lambda proc: 1,  # invocation completed
              known_defect=expect.get("known_defect"), span=f"cli.{it['kind']}")
