"""Property tests of the two outside inputs: code-set files and build configs.

The invariant for both: an input either loads (or builds) and is then judged
by the exact verifier, or the CLI refuses it with exit code 2.  Exit code 1
may only mean "not a CCC" or "probe found nothing", and nothing may end in a
traceback.  Sizes stay small (q <= 6, L <= 7 or a few hundred) so every
example verifies in milliseconds.

A third target feeds mutated canonical ``dumps`` text to ``CodeSet.loads``
and to the strict ``from_json`` path: both must give the same set or the
same error.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ccckit as ck
from ccckit.cli import _KEYS, _SHARED, main
from ccckit.construct import ConfigError

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
    st.integers(-(2**70), 2**70),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# code-set files


entries = st.one_of(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 8), st.none(), JUNK)
sequences = st.lists(entries, max_size=7)
code_sets = st.fixed_dictionaries(
    {
        "q": st.one_of(st.integers(1, 6), st.integers(-1, 7), JUNK),
        "codes": st.one_of(st.lists(st.lists(sequences, max_size=3), max_size=3), JUNK),
    },
    optional={
        "K": st.integers(0, 4),
        "M": st.integers(0, 4),
        "L": st.integers(0, 8),
        "meta": st.one_of(st.dictionaries(st.text(max_size=2), st.integers()), JUNK),
    },
)


@st.composite
def well_formed_sets(draw):
    """Rectangular sets of in-range exponents with a few holes: these load."""
    q = draw(st.integers(1, 6))
    K, M, L = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, q - 1), st.integers(0, q - 1), st.integers(0, q - 1), st.none())
    for n in (L, M, K):
        entry = st.lists(entry, min_size=n, max_size=n)
    return {"q": q, "codes": draw(entry)}


@FUZZ
@given(payload=st.one_of(well_formed_sets(), code_sets, JUNK, st.lists(st.integers(), max_size=3)))
def test_code_set_file_loads_or_exits_2(workdir, payload):
    try:
        C = ck.CodeSet.from_json(payload)
    except ConfigError:
        expected = 2
    else:
        expected = 0 if ck.verify_ccc(C).is_ccc else 1
    assert main(["verify", write(workdir / "codes.json", payload)]) == expected


# ---------------------------------------------------------------------------
# build configs


def for_kind(configs):
    """Configs from ``configs`` without the keys their kind does not read (cli._KEYS), which it refuses."""
    return configs.map(lambda cfg: {k: v for k, v in cfg.items() if k in (_KEYS[cfg["kind"]] + " " + _SHARED).split()})


ODD = st.sampled_from([float("inf"), float("-inf"), float("nan"), 2.5, True, "2", None, [2], {}])
small = st.one_of(st.integers(-1, 4), st.integers(-1, 4), ODD)
tables = st.lists(st.integers(-1, 6), max_size=7)
table_lists = st.lists(tables, max_size=3)
positions = st.lists(st.integers(-1, 5), max_size=4)
blocks = st.lists(
    st.fixed_dictionaries({"p": st.sampled_from([1, 2, 3, 4, 5]), "m": st.integers(0, 2)}),
    max_size=2,
)
corrupt = st.fixed_dictionaries(
    {},
    optional={
        "block": small,
        "chain": small,
        "which": st.sampled_from(["f", "fp", "g"]),
        "constant": small,
        "table": tables,
    },
)
corrupt_ok = st.fixed_dictionaries(
    {"block": st.integers(0, 1), "chain": st.integers(0, 1), "which": st.sampled_from(["f", "fp"]),
     "constant": st.integers(0, 1)}
)
maybe = {"seed": st.integers(0, 3), "corrupt": st.one_of(corrupt_ok, corrupt, JUNK)}
maybe_ok = {"seed": st.integers(0, 3), "corrupt": corrupt_ok}
uniform = for_kind(st.fixed_dictionaries(
    {"kind": st.sampled_from(["theorem1", "corollary1"]), "q": st.one_of(st.integers(-1, 5), ODD),
     "m": small},
    optional=dict(maybe, n=small, J=positions, pi=positions, h=table_lists, hp=table_lists, g=table_lists),
))
mixed = for_kind(st.fixed_dictionaries(
    {"kind": st.sampled_from(["theorem2", "corollary3"]), "blocks": st.one_of(blocks, JUNK)},
    optional=dict(
        maybe,
        n=st.one_of(st.lists(small, max_size=3), JUNK),
        J=st.lists(positions, max_size=3),
        pi=st.lists(positions, max_size=3),
        chains=st.lists(st.lists(table_lists, max_size=2), max_size=3),
        g=st.lists(table_lists, max_size=3),
        couplings=st.lists(st.fixed_dictionaries({"f": tables, "h": tables}), max_size=2),
        lam=small,
    ),
))
# Well-formed configs whose omitted tables the seed fills in: these build.
uniform_ok = for_kind(st.fixed_dictionaries(
    {"kind": st.sampled_from(["theorem1", "corollary1"]), "q": st.integers(2, 5), "m": st.integers(2, 3),
     "n": st.integers(0, 1)},
    optional=maybe_ok,
))
mixed_ok = for_kind(st.fixed_dictionaries(
    {"kind": st.sampled_from(["theorem2", "corollary3"]),
     "blocks": st.sampled_from([[(2, 2), (3, 1)], [(2, 1), (3, 2)], [(2, 2), (3, 2)], [(2, 1), (5, 1)]]).map(
         lambda bs: [{"p": p, "m": m} for p, m in bs])},
    optional=dict(maybe_ok, n=st.lists(st.integers(0, 1), min_size=2, max_size=2)),
))
configs = st.one_of(uniform_ok, uniform_ok, mixed_ok, mixed_ok, uniform, mixed, JUNK, st.lists(uniform, max_size=1))


@FUZZ
@given(cfg=configs)
def test_build_config_builds_and_verifies_or_exits_2(workdir, cfg):
    path = write(workdir / "cfg.json", cfg)
    out = workdir / "out.json"
    rc = main(["build", path, "--out", str(out)])
    assert rc in (0, 2)
    corrupted = main(["probe", path])
    if rc == 2:
        assert corrupted == 2
        return
    report = ck.verify_ccc(ck.CodeSet.from_json(json.loads(out.read_text())))
    if corrupted == 2:  # no corrupt stanza: the construction must give a CCC
        assert report.is_ccc
    else:  # the probe must find the violation a corrupted chain table causes
        assert (corrupted, report.is_ccc) == (0, False)


@st.composite
def misspelt(draw):
    """(config, object, typo): a well-formed config with a misspelling of a _KEYS key added to its top level, a
    block or its corrupt stanza, the object that carries it."""
    cfg = draw(st.one_of(uniform_ok, mixed_ok))
    what = draw(st.sampled_from([cfg["kind"]] + ["block"] * ("blocks" in cfg) + ["corrupt"] * ("corrupt" in cfg)))
    key = draw(st.sampled_from(_KEYS[what].split()))
    i = draw(st.integers(0, len(key) - 1))
    typo = draw(st.sampled_from([key[:i] + key[i + 1 :], key[:i] + key[i] * 2 + key[i + 1 :],
                                 key[:i] + key[i].swapcase() + key[i + 1 :], key + "s", " " + key]))
    assume(typo not in (_KEYS[what] + " " + _SHARED).split())
    obj = cfg["blocks"][0] if what == "block" else cfg["corrupt"] if what == "corrupt" else cfg
    obj[typo] = obj.get(key, 0)
    return cfg, obj, typo


@FUZZ
@given(case=misspelt())
def test_a_misspelt_config_key_exits_2(workdir, case):
    """A misspelt key never builds.  The error names it, unless it sits in a block and the config is refused
    without it too; the top level and the corrupt stanza are read before any spec is built, so a typo there
    is always named."""
    cfg, obj, typo = case
    path = write(workdir / "typo.json", cfg)
    del obj[typo]
    clean = write(workdir / "clean.json", cfg)
    named_first = obj is cfg or obj is cfg.get("corrupt")
    for command in ("build", "probe"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([command, path]) == 2
            named = repr(typo) in err.getvalue()
            assert named or (not named_first and main([command, clean]) == 2), (command, err.getvalue())


def test_a_corrupt_stanza_typo_is_named_before_the_spec_fails(workdir):
    """Block 0 has no free position once n = [1, 0] restricts its one variable, so the spec fails to build;
    the misspelt corrupt key is named all the same."""
    cfg = {"kind": "corollary3", "blocks": [{"p": 2, "m": 1}, {"p": 3, "m": 1}], "n": [1, 0],
           "corrupt": {"blok": 0, "constant": 0}}
    path = write(workdir / "typo-first.json", cfg)
    for command in ("build", "probe"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([command, path]) == 2
        assert "'blok'" in err.getvalue(), (command, err.getvalue())


# ---------------------------------------------------------------------------
# the canonical reader against the strict path, on mutated ``dumps`` text

QS = [1, 2, 3, 4, 5, 6, 256, 300, 65536, 70000]  # uint8, uint16 and int64 storage
MUTATION_BYTES = '0123456789,[]nul-.e" '


@st.composite
def canonical_texts(draw):
    q = draw(st.sampled_from(QS))
    K, M, L = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n = K * M * L
    exps = np.array(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))).reshape(K, M, L)
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(K, M, L)
    meta = draw(st.sampled_from([{}, {"kind": "fuzz"}, {"a": [1], "meta": {"q": 2}}]))
    return ck.CodeSet(q, exps, mask, meta).dumps()


@st.composite
def mutated_texts(draw):
    text = draw(canonical_texts())
    i = draw(st.integers(0, len(text) - 1))
    c = draw(st.one_of(st.sampled_from(",[]"), st.sampled_from(MUTATION_BYTES)))  # layout bytes more often
    mutation = draw(st.sampled_from(
        ["none", "delete", "insert", "replace", "codes-first", "codes-last", "q-last", "append", "truncate"]
    ))
    return {
        "none": text,
        "delete": text[:i] + text[i + 1 :],
        "insert": text[:i] + c + text[i:],
        "replace": text[:i] + c + text[i + 1 :],
        "codes-first": text.replace('"codes":', '"codes":[[[0]]],"codes":', 1),  # JSON keeps the last one
        "codes-last": text[:-2] + ',"codes":[[[1,0]]]}\n',
        "q-last": text[:-2] + ',"q":2}\n',
        "append": text + draw(st.sampled_from(["x", "}", " ", "\n\n", "[]", "0", c])),
        "truncate": text[:i],
    }[mutation]


def outcome(read):
    try:
        return read()
    except ValueError as exc:  # ConfigError and JSONDecodeError are ValueErrors
        return type(exc), str(exc)


@FUZZ
@given(text=mutated_texts())
def test_canonical_reader_matches_the_strict_path(workdir, text):
    fast = outcome(lambda: ck.CodeSet.loads(text.encode()))
    strict = outcome(lambda: ck.CodeSet.from_json(json.loads(text)))
    if isinstance(strict, ck.CodeSet):
        assert isinstance(fast, ck.CodeSet), fast
        assert fast.same_codes(strict) and (fast.q, fast.meta) == (strict.q, strict.meta)
        expected = 0 if ck.verify_ccc(strict).is_ccc else 1
    else:
        assert fast == strict
        expected = 2
    path = workdir / "canonical.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == expected
