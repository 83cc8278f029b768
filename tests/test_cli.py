import csv
import json

import pytest

import ccckit as ck
from ccckit.cli import build_from_config, main, spec_from_config


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


THEOREM1_22 = {
    "kind": "theorem1", "q": 2, "m": 2,
    "h": [[0, 1]], "hp": [[0, 1]], "g": [[0, 0], [0, 0]], "pi": [0, 1],
}


def test_build_and_verify_roundtrip(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", THEOREM1_22)
    out = tmp_path / "codes.json"
    assert main(["build", cfg, "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "CCC" in printed
    # file-based verify equals in-memory verify
    codes = ck.CodeSet.from_json(json.loads(out.read_text()))
    mem = ck.verify_ccc(build_from_config(THEOREM1_22))
    file_report = ck.verify_ccc(codes)
    assert (mem.is_ccc, mem.peak, mem.total_violations) == (
        file_report.is_ccc,
        file_report.peak,
        file_report.total_violations,
    )


def test_verify_json_report(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", THEOREM1_22)
    out = tmp_path / "codes.json"
    main(["build", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_ccc"] is True
    assert report["peak"] == 8
    assert report["violations"] == []


def test_verify_json_reports_kernel(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"kind": "theorem1", "q": 6, "m": 2, "seed": 4})
    out = tmp_path / "codes.json"
    main(["build", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernel"] == "fft-gram"
    assert 0 < report["rounding_bound"] < 0.5
    assert main(["verify", str(out), "--mode", "float", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["kernel"], report["rounding_bound"]) == ("fft-gram", 0.0)


@pytest.mark.parametrize(
    "payload",
    [
        {"q": 2, "codes": [[[0, 1], [0]]]},  # ragged
        {"q": 2, "codes": []},  # empty
        {"q": 2, "codes": [[[0, 1]], [[0, 1], [1, 0]]]},  # codes with different M
    ],
    ids=["ragged", "empty", "m_mismatch"],
)
def test_verify_malformed_code_set_exits_2(tmp_path, capsys, payload):
    path = write(tmp_path / "bad.json", payload)
    assert main(["verify", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_determinism(tmp_path):
    cfg = write(tmp_path / "cfg.json", {"kind": "theorem1", "q": 5, "m": 2, "seed": 9})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", cfg, "--out", str(a)]) == 0
    assert main(["build", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["build", cfg, "--out", str(c), "--seed", "10"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_verify_exit_code_on_corruption(tmp_path, capsys):
    cfg = write(
        tmp_path / "bad.json",
        {
            "kind": "theorem1", "q": 3, "m": 2, "seed": 2, "pi": [0, 1],
            "corrupt": {"block": 0, "chain": 0, "which": "f", "constant": 1},
        },
    )
    out = tmp_path / "bad_codes.json"
    assert main(["build", cfg, "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "violation" in printed
    assert main(["verify", str(out), "--mode", "float"]) == 1


def test_profile_csv(tmp_path):
    cfg = write(tmp_path / "cfg.json", THEOREM1_22)
    codes = tmp_path / "codes.json"
    main(["build", cfg, "--out", str(codes)])
    out = tmp_path / "prof.csv"
    assert main(["profile", str(codes), "0", "0", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "count_0", "count_1", "re", "im", "magnitude"]
    assert len(rows) == 1 + 7  # header + 2L-1
    taus = [int(r[0]) for r in rows[1:]]
    assert taus == list(range(-3, 4))
    center = dict(zip(taus, rows[1:]))[0]
    assert float(center[-1]) == 8.0  # peak M*L
    off = [float(r[-1]) for r in rows[1:] if int(r[0]) != 0]
    assert max(off) < 1e-9


def test_profile_index_range(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", THEOREM1_22)
    codes = tmp_path / "codes.json"
    main(["build", cfg, "--out", str(codes)])
    assert main(["profile", str(codes), "0", "7", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_probe_subcommand(tmp_path, capsys):
    cfg = write(
        tmp_path / "bad.json",
        {
            "kind": "theorem1", "q": 4, "m": 3, "seed": 3, "pi": [0, 1, 2],
            "corrupt": {"block": 0, "chain": 1, "which": "f", "constant": 0},
        },
    )
    assert main(["probe", cfg]) == 0
    assert "shift 48" in capsys.readouterr().out
    cfg2 = write(tmp_path / "ok.json", {"kind": "theorem1", "q": 4, "m": 3})
    assert main(["probe", cfg2]) == 2  # no corrupt stanza is a usage error


def test_kronecker_config(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["build", write(tmp_path / "ca.json", THEOREM1_22), "--out", str(a)])
    main(
        [
            "build",
            write(tmp_path / "cb.json", {"kind": "theorem1", "q": 3, "m": 2, "seed": 4}),
            "--out", str(b),
        ]
    )
    kr_cfg = write(tmp_path / "kr.json", {"kind": "kronecker", "inputs": [str(a), str(b)]})
    out = tmp_path / "kr_codes.json"
    assert main(["build", kr_cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["K"], data["L"], data["q"]) == (6, 36, 6)
    assert main(["verify", str(out)]) == 0


def test_reproduce72_subcommand(capsys):
    assert main(["reproduce72"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_parse_and_usage_errors(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["build", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_spec_from_config_mixed_defaults():
    spec = spec_from_config(
        {"kind": "corollary3", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "n": [1, 0]}
    )
    assert spec.kind == "mixed"
    assert spec.func.J == ((1,), ())  # defaults to the last n_i positions
    C = ck.build_code_set(spec)
    assert (C.K, C.L) == (12, 36)
    assert ck.verify_ccc(C).is_ccc


def test_spec_from_config_corollary1_example72_equivalent(tmp_path):
    cfg = {
        "kind": "corollary3",
        "blocks": [{"p": 2, "m": 3}, {"p": 3, "m": 2}],
        "n": [1, 0],
        "J": [[1], []],
        "pi": [[0, 2], [3, 4]],
        "chains": [
            [[[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]]],
            [[[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]]],
        ],
        "g": [
            {"0": [[0] * 6, [0] * 6], "1": [[0, 2, 4, 0, 2, 4], [0, 4, 2, 0, 4, 2]]},
            {"0": [[0] * 6, [0] * 6], "1": [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]]},
        ],
        "couplings": [{"lam": 0, "f": [0] * 6, "h": [0] * 6}],
        "offsets": {"0": 2, "1": 3},
    }
    from ccckit import example72

    C = build_from_config(cfg)
    assert C.same_codes(example72.build())


CORRUPT_THEOREM1_32 = {"kind": "theorem1", "q": 3, "m": 2, "seed": 1}
CORRUPT_COROLLARY1 = {"kind": "corollary1", "q": 3, "m": 3, "n": 1, "corrupt": {"constant": 0}}
CORRUPT_COROLLARY3 = {"kind": "corollary3", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 1}],
                      "corrupt": {"constant": 0}}


@pytest.mark.parametrize("command", ["build", "probe"])
@pytest.mark.parametrize(
    "payload",
    [
        [{"kind": "theorem1", "q": 2, "m": 2}],
        {"kind": "corollary3", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 1}], "n": [1],
         "corrupt": {"constant": 0}},
        dict(CORRUPT_THEOREM1_32, corrupt={"block": 3, "constant": 0}),
        dict(CORRUPT_THEOREM1_32, corrupt={"chain": 9, "constant": 0}),
        dict(CORRUPT_THEOREM1_32, q=float("inf"), corrupt={"constant": 0}),
        {"kind": "kronecker", "inputs": [0, 1], "corrupt": {"constant": 0}},
        dict(CORRUPT_COROLLARY3, couplings=[5]),
        dict(CORRUPT_COROLLARY3, offsets=[1, 2]),
        dict(CORRUPT_COROLLARY1, offsets=[1]),
        dict(CORRUPT_COROLLARY1, offsets=7),
        dict(CORRUPT_COROLLARY1, offsets="x"),
        {"kind": "theorem2", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "pi": [0, 5]},
    ],
    ids=["top_level_list", "n_shorter_than_blocks", "corrupt_block_3", "corrupt_chain_9", "q_infinity",
         "kronecker_inputs_not_paths", "coupling_not_object", "corollary3_offsets_list",
         "corollary1_offsets_list", "corollary1_offsets_int", "corollary1_offsets_string",
         "theorem2_pi_out_of_range"],
)
def test_malformed_config_exits_2(tmp_path, capsys, command, payload):
    path = write(tmp_path / "bad.json", payload)
    assert main([command, path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "theorem1", "q": 3.7, "m": 2},
        {"kind": "theorem1", "q": 3, "m": 2.9},
        {"kind": "corollary3", "blocks": [{"p": 2, "m": 2.5}, {"p": 3, "m": 2}]},
        dict(CORRUPT_THEOREM1_32, corrupt={"constant": 1.5}),
        {"kind": "theorem1", "q": True, "m": 2},
        {"kind": "corollary1", "q": 3, "m": 3, "n": "1"},
        {"kind": "theorem2", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "lam": 4.0},
        dict(CORRUPT_COROLLARY3, offsets={"0": 1.5}),
        dict(CORRUPT_THEOREM1_32, corrupt={"table": [0, 0, 1.0]}),
    ],
    ids=["q_float", "m_float", "block_m_float", "corrupt_constant_float", "q_bool", "n_string",
         "lam_float", "offsets_value_float", "corrupt_table_float"],
)
def test_non_integer_config_values_exit_2(tmp_path, capsys, payload):
    """Config integers are read as JSON integers only; 3.7 is refused, not truncated to 3."""
    out = tmp_path / "out.json"
    assert main(["build", write(tmp_path / "cfg.json", payload), "--out", str(out)]) == 2
    assert "expected a JSON integer" in capsys.readouterr().err
    assert not out.exists()


def test_verify_gives_a_verdict_at_q_65537_in_1_gib(tmp_path, capsys, monkeypatch):
    """At q = 65537 the exact zero test builds no table (a reduction matrix would take 32 GiB): with 1 GiB of
    physical memory the recount of a flagged cell still runs and verify gives its verdict."""
    from ccckit import construct

    monkeypatch.setattr(construct.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}[name])
    path = write(tmp_path / "codes.json", {"q": 65537, "codes": [[[0, 1, 2]], [[0, 0, 0]]]})
    assert main(["verify", path, "--max-violations", "1"]) == 1
    captured = capsys.readouterr()
    assert "NOT a CCC" in captured.out and not captured.err


def test_build_refuses_text_beyond_memory(tmp_path, capsys, monkeypatch):
    """theorem1 q=17 m=2 is a 17x17x289 uint8 tensor (about 170 KB with the build's work arrays), but its
    canonical text needs up to 3 bytes an entry, twice over for the joined copy (about 500 KB): with 300 KB
    of memory the build passes its guard and dumps refuses before building any text."""
    from ccckit import construct

    cfg = write(tmp_path / "cfg.json", {"kind": "theorem1", "q": 17, "m": 2, "seed": 1})
    out = tmp_path / "codes.json"
    monkeypatch.setattr(construct.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 300_000}[name])
    assert main(["build", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "canonical text of a (17, 289) code set over Z_17" in err and "physical memory" in err
    assert not out.exists()
    monkeypatch.setattr(construct.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 600_000}[name])
    assert main(["build", cfg, "--out", str(out)]) == 0
    assert ck.CodeSet.loads(out.read_bytes()).K == 17


@pytest.mark.parametrize("command", ["build", "probe", "verify"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# corollary1 over Z_2^3 with J = [0]: restriction classes 0 and 1, one chain
KEYED = {"kind": "corollary1", "q": 2, "m": 3, "n": 1, "J": [0], "seed": 1}
KEYED_ENTRIES = {
    "offsets": lambda key: {"0": 1, key: 1},
    "pi": lambda key: {"0": [1, 2], key: [2, 1]},
    "g": lambda key: {"0": [[0, 1], [1, 1]], key: [[1, 0], [0, 0]]},
}


@pytest.mark.parametrize("command", ["build", "probe"])
@pytest.mark.parametrize("entry", sorted(KEYED_ENTRIES))
@pytest.mark.parametrize("key", [" +1 ", "+1", "01", "0_1", "1 ", "1\n", "١"],
                         ids=["padded_signed", "signed", "leading_zero", "underscore", "trailing_space",
                              "trailing_newline", "arabic_indic_one"])
def test_class_keys_must_be_canonical_decimal(tmp_path, capsys, command, entry, key):
    """Every spelling above reads as class 1 under int(); a config names a class in canonical decimal only."""
    cfg = dict(KEYED, **{entry: KEYED_ENTRIES[entry](key)}, corrupt={"constant": 0})
    assert main([command, write(tmp_path / "cfg.json", cfg)]) == 2
    assert "canonical decimal" in capsys.readouterr().err
    cfg = dict(KEYED, **{entry: KEYED_ENTRIES[entry]("1")}, corrupt={"constant": 0})
    assert main([command, write(tmp_path / "cfg.json", cfg)]) == 0


def test_unknown_class_in_a_per_restriction_dict_exits_2(tmp_path, capsys):
    cfg = dict(KEYED, pi={"0": [1, 2], "1": [2, 1], "2": [1, 2]})
    assert main(["build", write(tmp_path / "cfg.json", cfg)]) == 2
    assert "unknown restriction classes [2]" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [True, 1.5, "abc", None, [1]])
def test_config_seed_is_a_json_integer(tmp_path, capsys, seed):
    """true is not seed 1, and 1.5 or "abc" are not seeds at all."""
    out = tmp_path / "out.json"
    assert main(["build", write(tmp_path / "cfg.json", dict(KEYED, seed=seed)), "--out", str(out)]) == 2
    assert "expected a JSON integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("skip", ["no", "false", 0, 1, None])
def test_kronecker_skip_verify_is_a_json_bool(tmp_path, capsys, skip):
    """"no" is truthy in Python; it must not skip the check that refuses a non-CCC factor."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    corrupt = {"block": 0, "chain": 0, "which": "f", "constant": 1}
    assert main(["build", write(tmp_path / "cb.json", dict(THEOREM1_22, corrupt=corrupt)), "--out", str(bad)]) == 0
    assert main(["build", write(tmp_path / "cg.json", THEOREM1_22), "--out", str(good)]) == 0
    cfg = {"kind": "kronecker", "inputs": [str(bad), str(good)]}
    out = tmp_path / "out.json"
    assert main(["build", write(tmp_path / "kr.json", dict(cfg, skip_verify=skip)), "--out", str(out)]) == 2
    assert "skip_verify must be a JSON bool" in capsys.readouterr().err
    assert main(["build", write(tmp_path / "kr.json", cfg), "--out", str(out)]) == 2  # the bad factor is refused
    assert main(["build", write(tmp_path / "kr.json", dict(cfg, skip_verify=True)), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["build", "probe"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"kind": "theorem1", "q": 3, "q": 5, "m": 2, "corrupt": {"constant": 0}}', "'q'"),
        ('{"kind": "theorem1", "q": 3, "m": 2, "corrupt": {"constant": 0, "constant": 1}}', "'constant'"),
    ],
    ids=["top_level", "in_corrupt_stanza"],
)
def test_duplicate_config_keys_exit_2(tmp_path, capsys, command, text, key):
    """JSON keeps the last of two equal keys; a config that repeats one is refused and the key named."""
    path = tmp_path / "dup.json"
    path.write_text(text)
    out = tmp_path / "out.json"
    assert main([command, str(path)] + (["--out", str(out)] if command == "build" else [])) == 2
    err = capsys.readouterr().err
    assert "duplicate key" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "probe"])
@pytest.mark.parametrize("corrupt", [{"block": 0}, {}, {"chain": 0, "which": "fp"}])
def test_corrupt_stanza_needs_table_or_constant(tmp_path, capsys, command, corrupt):
    assert main([command, write(tmp_path / "cfg.json", dict(CORRUPT_THEOREM1_32, corrupt=corrupt))]) == 2
    err = capsys.readouterr().err
    assert "'table'" in err and "'constant'" in err


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ({"kind": "corollary1", "q": 3, "m": 3, "n": 1, "J": []}, "error:"),
        ({"kind": "corollary1", "q": 3, "m": 3, "n": 1, "pi": []}, "error:"),
        ({"kind": "corollary1", "q": 3, "m": 3, "n": 1, "pi": {}}, "error:"),
        ({"kind": "corollary1", "q": 3, "m": 3, "n": 1, "g": None}, "expected a JSON list of tables, got None"),
        ({"kind": "theorem1", "q": 3, "m": 2, "pi": []}, "error:"),
        ({"kind": "theorem1", "q": 3, "m": 2, "pi": None}, "expected a JSON list of integers, got None"),
        ({"kind": "theorem1", "q": 3, "m": 2, "h": None}, "error:"),
        ({"kind": "theorem2", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "pip": []}, "error:"),
        ({"kind": "theorem2", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "f0": []}, "error:"),
        ({"kind": "theorem2", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "h0": []}, "error:"),
        ({"kind": "corollary3", "blocks": [{"p": 2, "m": 2}, {"p": 3, "m": 2}], "J": None}, "error:"),
    ],
    ids=["corollary1_J_empty", "corollary1_pi_empty", "corollary1_pi_empty_object", "corollary1_g_null",
         "theorem1_pi_empty", "theorem1_pi_null", "theorem1_h_null", "theorem2_pip_empty", "theorem2_f0_empty",
         "theorem2_h0_empty", "corollary3_J_null"],
)
def test_present_config_keys_must_be_valid(tmp_path, capsys, payload, message):
    """An absent key takes its seeded default; a present one, even empty or null, is read as given.
    A null where a list of integers or of tables belongs is refused with the expected type named."""
    out = tmp_path / "out.json"
    assert main(["build", write(tmp_path / "cfg.json", payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not out.exists()
