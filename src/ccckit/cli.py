"""Command-line front end: build, verify, profile, probe, reproduce72.

Build configs are JSON.  Every construction kind shares ``seed`` (fills any
omitted tables/permutations deterministically) and writes the same code-set
JSON schema: {"q", "L", "K", "M", "meta", "codes": [[[exponent or null]]]}.

    {"kind": "theorem1",  "q": 2, "m": 2, "h": [...], "hp": [...], "g": [...], "pi": [...]}
    {"kind": "corollary1","q": 3, "m": 3, "n": 1, "J": [2], ...}
    {"kind": "theorem2",  "blocks": [{"p":2,"m":2},{"p":3,"m":2}], "lam": 4, ...}
    {"kind": "corollary3","blocks": [...], "n": [1,0], "J": [[1],[]],
     "pi": [[0,2],[3,4]], "chains": [[[f,fp]],...], "g": [...] ,
     "couplings": [{"lam":0,"f":[...],"h":[...]}], "offsets": {"0":2,"1":3}}
    {"kind": "kronecker", "inputs": ["a.json", "b.json"]}

Tables are length-q integer lists; per-restriction values may be given as
{"<restriction index>": value}.  A ``corrupt`` stanza ({"block": 0, "chain": 0,
"which": "f", "table": [...]}) flags the spec for the necessity probe.

Exit codes: 0 success (verify: is a CCC; probe: violation found),
1 verification/probe failure, 2 usage or config errors and running out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import re
import sys

from .construct import (
    CodeSet,
    ConfigError,
    ConstructionSpec,
    _check_alloc,
    build_code_set,
    corollary1_spec,
    corollary3_spec,
    corrupt_spec,
    kronecker_compose,
    theorem1_spec,
    theorem2_spec,
)
from .exact_corr import CorrelationProfile, pair_counts
from .mixed_radix import DomainSpec
from .verify import necessity_probe, verify_ccc


# ---------------------------------------------------------------------------
# randomized filling of unconstrained slots


def _rand_table(rng: random.Random, q: int) -> tuple:
    return tuple(rng.randrange(q) for _ in range(q))


def _rand_perm_table(rng: random.Random, q: int, p: int) -> tuple:
    """Random length-q table that permutes {0..p-1} mod p."""
    sigma = rng.sample(range(p), p)
    return tuple(sigma[u % p] + p * rng.randrange(q // p) for u in range(q))


def _int(v) -> int:
    """A JSON integer, as it is: a bool, float, string or anything else is a config error, never cast."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"expected a JSON integer, got {v!r}")
    return v


def _ints(t) -> tuple:
    if not isinstance(t, list):
        raise ConfigError(f"expected a JSON list of integers, got {t!r}")
    return tuple(_int(v) for v in t)


def _tables(ts) -> tuple:
    if not isinstance(ts, list):
        raise ConfigError(f"expected a JSON list of tables, got {ts!r}")
    return tuple(_ints(t) for t in ts)


# The keys each config object reads; a construction kind also reads _SHARED, a kronecker config only "kind".
# Any other key is a config error.
_KEYS = {
    "theorem1": "q m pi h hp g",
    "corollary1": "q m n J pi h hp g offsets",
    "theorem2": "blocks pi pip f fp h hp g gp f0 h0 lam",
    "corollary3": "blocks n J pi chains g couplings offsets",
    "kronecker": "inputs skip_verify",
    "block": "p m",
    "coupling": "lam f h",
    "corrupt": "block chain which table constant",
}
_SHARED = "kind seed corrupt"


def _known(obj, what: str, shared: str = "") -> dict:
    """obj if it is a JSON object whose keys are all in _KEYS[what] or ``shared``; a ConfigError otherwise."""
    if not isinstance(obj, dict):
        raise ConfigError(f"a {what} config must be a JSON object")
    allowed = f"{_KEYS[what]} {shared}".split()
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown {what} config key {key!r}; the allowed keys are {' '.join(allowed)}")
    return obj


def _coupling(c) -> tuple:
    c = _known(c, "coupling")
    return _int(c.get("lam", 0)), _ints(c["f"]), _ints(c["h"])


def _per_block(cfg, key, count, default, convert) -> list:
    """cfg[key], a list of ``count`` entries (per block, chain or variable), each through ``convert``.

    When the key is absent, the entries are ``default(i)`` for i = 0..count-1,
    drawn in that order.
    """
    if key not in cfg:
        return [default(i) for i in range(count)]
    raw = cfg[key]
    if not isinstance(raw, list) or len(raw) != count:
        raise ConfigError(f"{key} must be a list of {count} entries")
    return [convert(v) for v in raw]


def _class_key(k) -> int:
    """A restriction-class key of a config object: canonical decimal ("0", "12"), never " 1", "+1", "01" or "1_0"."""
    if not isinstance(k, str) or not re.fullmatch("0|[1-9][0-9]*", k):
        raise ConfigError(f"restriction class keys must be canonical decimal strings, got {k!r}")
    return int(k)


def _offsets(raw):
    """An offsets config, a JSON object keyed by restriction class, as a dict; None when absent."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("offsets must be a JSON object")
    return {_class_key(k): _int(v) for k, v in raw.items()}


def _maybe_per_restriction(raw, convert):
    if isinstance(raw, dict):
        return {_class_key(k): convert(v) for k, v in raw.items()}
    return convert(raw)


def spec_from_config(cfg: dict, seed: int | None = None) -> ConstructionSpec:
    """Turn a build config into a construction spec, filling gaps from the seed."""
    if not isinstance(cfg, dict):
        raise ConfigError("a build config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in ("theorem1", "corollary1", "theorem2", "corollary3"):
        raise ConfigError(f"unknown construction kind {kind!r}")
    _known(cfg, kind, _SHARED)
    corrupt = _known(cfg["corrupt"], "corrupt") if "corrupt" in cfg else None
    if corrupt is not None and ("table" in corrupt) == ("constant" in corrupt):
        raise ConfigError("a corrupt stanza needs exactly one of 'table' and 'constant'")
    rng = random.Random(_int(cfg.get("seed", 0)) if seed is None else seed)
    if kind == "theorem1":
        q, m = _int(cfg["q"]), _int(cfg["m"])
        pi = _ints(cfg["pi"]) if "pi" in cfg else tuple(rng.sample(range(m), m))
        h = _per_block(cfg, "h", m - 1, lambda _: _rand_perm_table(rng, q, q), _ints)
        hp = _per_block(cfg, "hp", m - 1, lambda _: _rand_perm_table(rng, q, q), _ints)
        g = _per_block(cfg, "g", m, lambda _: _rand_table(rng, q), _ints)
        spec = theorem1_spec(q, m, h, hp, g, pi)
    elif kind == "corollary1":
        q, m, n = _int(cfg["q"]), _int(cfg["m"]), _int(cfg["n"])
        J = _ints(cfg["J"]) if "J" in cfg else tuple(range(m - n, m))
        free = sorted(set(range(m)) - set(J))
        pi = _maybe_per_restriction(cfg["pi"], _ints) if "pi" in cfg else tuple(free)
        h = _per_block(cfg, "h", m - n - 1, lambda _: _rand_perm_table(rng, q, q), _ints)
        hp = _per_block(cfg, "hp", m - n - 1, lambda _: _rand_perm_table(rng, q, q), _ints)
        if "g" in cfg:
            g = _maybe_per_restriction(cfg["g"], _tables)
        else:
            g = tuple(_rand_table(rng, q) for _ in range(m - n))
        offsets = cfg.get("offsets", "auto")
        if offsets != "auto":
            offsets = _offsets(offsets)
        spec = corollary1_spec(q, m, n, J, pi, h, hp, g, offsets)
    else:
        blocks = [_known(b, "block") for b in cfg["blocks"]]
        domain = DomainSpec(tuple((_int(b["p"]), _int(b["m"])) for b in blocks))
        q, k = domain.q, domain.k
        if kind == "theorem2":
            if k != 2:
                raise ConfigError("theorem2 needs exactly two blocks")
            (p1, m1), (p2, m2) = domain.blocks
            pi = _ints(cfg["pi"]) if "pi" in cfg else tuple(rng.sample(range(m1), m1))
            pip = _ints(cfg["pip"]) if "pip" in cfg else tuple(m1 + i for i in rng.sample(range(m2), m2))
            f = _per_block(cfg, "f", m1 - 1, lambda _: _rand_perm_table(rng, q, p1), _ints)
            fp = _per_block(cfg, "fp", m1 - 1, lambda _: _rand_perm_table(rng, q, p1), _ints)
            h = _per_block(cfg, "h", m2 - 1, lambda _: _rand_perm_table(rng, q, p2), _ints)
            hp = _per_block(cfg, "hp", m2 - 1, lambda _: _rand_perm_table(rng, q, p2), _ints)
            g = _per_block(cfg, "g", m1, lambda _: _rand_table(rng, q), _ints)
            gp = _per_block(cfg, "gp", m2, lambda _: _rand_table(rng, q), _ints)
            f0 = _ints(cfg["f0"]) if "f0" in cfg else _rand_table(rng, q)
            h0 = _ints(cfg["h0"]) if "h0" in cfg else _rand_table(rng, q)
            lam = _int(cfg.get("lam", rng.randrange(q)))
            spec = theorem2_spec(p1, p2, m1, m2, pi, pip, f, fp, h, hp, g, gp, f0, h0, lam)
        else:
            p, m = zip(*domain.blocks)
            n = _per_block(cfg, "n", k, lambda _: 0, _int)
            J = _per_block(cfg, "J", k, lambda i: domain.block_positions(i)[m[i] - n[i] :], _ints)
            free = [tuple(j for j in domain.block_positions(i) if j not in J[i]) for i in range(k)]
            pis = _per_block(cfg, "pi", k, lambda i: free[i], lambda v: _maybe_per_restriction(v, _ints))

            def rand_chains(i):
                perm = functools.partial(_rand_perm_table, rng, q, p[i])
                return tuple((perm(), perm()) for _ in range(m[i] - n[i] - 1))

            def rand_coupling(_):
                return rng.randrange(q), _rand_table(rng, q), _rand_table(rng, q)

            chains = _per_block(cfg, "chains", k, rand_chains, lambda pairs: tuple(map(_tables, pairs)))
            gs = _per_block(cfg, "g", k, lambda i: tuple(_rand_table(rng, q) for _ in range(m[i] - n[i])),
                            lambda v: _maybe_per_restriction(v, _tables))
            couplings = _per_block(cfg, "couplings", k - 1, rand_coupling, _coupling)
            offsets = _offsets(cfg.get("offsets"))
            spec = corollary3_spec(domain, J, pis, chains, gs, couplings, offsets)

    if corrupt is not None:
        if "table" in corrupt:
            table = _ints(corrupt["table"])
        else:
            table = [_int(corrupt["constant"])] * spec.domain.q
        spec = corrupt_spec(
            spec,
            _int(corrupt.get("block", 0)),
            _int(corrupt.get("chain", 0)),
            corrupt.get("which", "f"),
            table,
        )
    return spec


def build_from_config(cfg: dict, seed: int | None = None) -> CodeSet:
    if isinstance(cfg, dict) and cfg.get("kind") == "kronecker":
        _known(cfg, "kronecker", "kind")
        if seed is not None:
            raise ConfigError("a kronecker config reads no seed, so --seed does not apply to it")
        inputs = cfg.get("inputs") or []
        if not isinstance(inputs, list) or len(inputs) < 2 or not all(isinstance(p, str) for p in inputs):
            raise ConfigError("kronecker needs a list of at least two input code-set paths")
        sets = [load_code_set(path) for path in inputs]
        out = sets[0]
        skip = cfg.get("skip_verify", False)
        if not isinstance(skip, bool):
            raise ConfigError(f"skip_verify must be a JSON bool, got {skip!r}")
        for nxt in sets[1:]:
            out = kronecker_compose(out, nxt, skip_verify=skip)
        return out
    return build_code_set(spec_from_config(cfg, seed))


def load_config(path: str):
    """A build or probe config read from a JSON file; a key given twice in one object is a ConfigError."""

    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise ConfigError(f"duplicate key {key!r} in a config object")
            out[key] = value
        return out

    with open(path) as fh:
        return json.load(fh, object_pairs_hook=unique)


def load_code_set(path: str) -> CodeSet:
    with open(path, "rb") as fh:
        return CodeSet.loads(fh.read())


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    codes = build_from_config(load_config(args.config), args.seed)
    payload = codes.dumps()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote ({codes.K},{codes.L}) code set over Z_{codes.q} to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_verify(args) -> int:
    codes = load_code_set(args.codeset)
    report = verify_ccc(codes, mode=args.mode, max_violations=args.max_violations)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for v in report.violations:
            val = v.element.to_complex()
            print(
                f"  violation k1={v.k1} k2={v.k2} tau={v.tau} counts={v.element.counts} "
                f"value={val.real:+.6g}{val.imag:+.6g}j"
            )
    return 0 if report.is_ccc else 1


def cmd_profile(args) -> int:
    codes = load_code_set(args.codeset)
    if not (0 <= args.k1 < codes.K and 0 <= args.k2 < codes.K):
        raise ConfigError(f"code indices must lie in [0, {codes.K})")
    q, taus = codes.q, range(1 - codes.L, codes.L)
    # the root table, one shift's 2q bins, and the counts with their complex values at every shift
    _check_alloc(32 * q + 24 * q * len(taus), f"the correlation profile of two codes over Z_{q}")
    prof = CorrelationProfile(q, codes.L, codes.M, pair_counts(*codes.row(args.k1), *codes.row(args.k2), q, taus))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau"] + [f"count_{j}" for j in range(q)] + ["re", "im", "magnitude"])
        for tau, row, val in zip(taus, prof.counts.tolist(), prof.complex_values()):
            writer.writerow([tau] + row + [f"{val.real:.12g}", f"{val.imag:.12g}", f"{abs(val):.12g}"])
    print(f"wrote {len(taus)} profile rows to {args.out}")
    return 0


def cmd_probe(args) -> int:
    spec = spec_from_config(load_config(args.config), args.seed)
    if not spec.corrupted:
        raise ConfigError("probe needs a config with a 'corrupt' stanza")
    result = necessity_probe(spec)
    print(result.summary())
    return 0 if result.found else 1


def cmd_reproduce72(args) -> int:
    from . import example72  # only this command needs it

    checks = example72.reproduce()
    ok = True
    for name, passed, detail in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    print("reproduce72:", "all checks passed" if ok else "MISMATCH")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccckit",
        description="Build and exactly verify complete complementary code sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a code set from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify the complementarity of a code-set file")
    p.add_argument("codeset")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--max-violations", type=int, default=16)
    p.add_argument("--json", action="store_true", help="emit the full report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profile", help="dump the full correlation profile of a code pair")
    p.add_argument("codeset")
    p.add_argument("k1", type=int)
    p.add_argument("k2", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("probe", help="hunt the violation of a corrupted construction")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("reproduce72", help="re-derive the bundled (12,72) example")
    p.set_defaults(func=cmd_reproduce72)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:  # only a config lookup raises it under main
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2
    except (
        OSError,
        OverflowError,
        RecursionError,
        TypeError,
        ValueError,  # ConfigError, SpecError and json.JSONDecodeError among them
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
