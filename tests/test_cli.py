"""CLI tests: family files, commands, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import DISJOINT4, PRODUCT4
from zflab import cli, construction, hfs, oracle
from zflab.errors import EmptyFamily, ParseError
from zflab.hfs import EMPTY, MAX_LITERAL_DEPTH, make_set, parse_hfs
from zflab.intervals import choice_value
from zflab.orders import OrderKind


def write_family(tmp_path, literals, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"family": literals}))
    return str(path)


def run_cli(args):
    return cli.main(list(args))


def test_load_family(tmp_path):
    fam = cli.load_family(write_family(tmp_path, ["{{}}", "{{},{{}}}"]))
    assert len(fam) == 2
    assert not fam.has_empty_member


def test_load_family_flags_empty_member(tmp_path):
    fam = cli.load_family(write_family(tmp_path, ["{}", "{{}}"]))
    assert fam.has_empty_member


def test_load_family_errors(tmp_path):
    with pytest.raises(EmptyFamily):
        cli.load_family(write_family(tmp_path, []))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ParseError):
        cli.load_family(str(bad))
    nolist = tmp_path / "nolist.json"
    nolist.write_text('{"family": "{{}}"}')
    with pytest.raises(ParseError):
        cli.load_family(str(nolist))
    nonstr = tmp_path / "nonstr.json"
    nonstr.write_text('{"family": [3]}')
    with pytest.raises(ParseError):
        cli.load_family(str(nonstr))


def test_a_malformed_family_entry_names_the_file_and_the_entry(tmp_path):
    path = write_family(tmp_path, ["{{}}", "{"])
    with pytest.raises(ParseError) as err:
        cli.load_family(path)
    assert str(err.value) == f"{path}: family entry 1: unterminated set literal (at offset 1)"


@pytest.mark.parametrize("fields,named", [
    ({"command": "nope"}, "command"),
    ({"command": "fuzz", "kind": "bogus"}, "kind"),
    ({"command": "verify", "family": "f.json", "u2": "bogus"}, "u2"),
    ({"command": "fuzz", "format": "xml"}, "format"),
    ({"command": "fuzz", "trials": -1}, "trials"),
    ({"command": "intervals", "trials": "3"}, "trials"),
    ({"command": "fuzz", "trials": True}, "trials"),
    ({"command": "fuzz", "seed": [1]}, "seed"),
    ({"command": "fuzz", "trials": 3, "allow_empty": "false"}, "allow_empty"),
    ({"command": "fuzz", "trials": 3, "allow_empty": 1}, "allow_empty"),
    ({"command": "intervals", "literals": (3,)}, "literals"),
    ({"command": "intervals", "literals": "[1,3]"}, "literals"),
    ({"command": "fuzz", "powerset_cap": -1}, "powerset_cap"),
    ({"command": "enumerate", "family": "f.json", "product_cap": -5}, "product_cap"),
    ({"command": "verify"}, "family"),
])
def test_execute_reports_a_config_main_would_refuse(fields, named):
    status, rendered = cli.execute(cli.RunConfig(**fields))
    report = json.loads(rendered)
    assert status == 2
    assert report["ok"] is False
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith(named)


def test_verify_reports_the_expected_sizes(tmp_path, capsys):
    fam = write_family(tmp_path, ["{{}}", "{{},{{}}}"])
    status = run_cli(["verify", "--family", fam, "--kind", "wellorder",
                      "--u2", "union"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["ok"] is True
    assert report["pipeline"]["fc_size"] == 2
    assert report["cross_checks"]["oracle_fc_match"] is True
    assert report["cross_checks"]["route_agreement"] is True
    assert report["cross_checks"]["induced_order_roundtrip"] is True
    assert report["equivalence"]["agree"] is True
    assert report["failures"] == []


def test_verify_literal_empty_qs_is_a_finding_not_a_failure(tmp_path, capsys):
    fam = write_family(tmp_path, ["{{}}", "{{},{{}}}"])
    status = run_cli(["verify", "--family", fam, "--u2", "literal"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["pipeline"]["q_s_empty"] is True
    assert any("empty Q_S" in f for f in report["findings"])
    assert report["failures"] == []


def test_verify_warns_about_empty_members(tmp_path, capsys):
    fam = write_family(tmp_path, ["{}", "{{}}"])
    status = run_cli(["verify", "--family", fam])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["warnings"] == ["family contains the empty set"]
    assert report["pipeline"]["qs_size"] == 0
    assert report["equivalence"]["agree"] is True


def test_enumerate_dumps_orders_and_choices(tmp_path, capsys):
    fam = write_family(tmp_path, ["{{}}", "{{},{{}}}"])
    status = run_cli(["enumerate", "--family", fam, "--kind", "pol"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert [m["order_count"] for m in report["members"]] == [1, 2]
    assert report["q_s"]["size"] == 2
    assert report["f_c"]["size"] == 2
    assert len(report["oracle_choice_functions"]) == 2


def test_fuzz_is_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(["fuzz", "--seed", "7", "--trials", "40",
                    "--out", str(out1)]) == 0
    assert run_cli(["fuzz", "--seed", "7", "--trials", "40",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["fuzz"]["checked"] == 40
    assert report["ok"] is True


def test_fuzz_seed_changes_the_stream(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    run_cli(["fuzz", "--seed", "7", "--trials", "40", "--out", str(out1)])
    run_cli(["fuzz", "--seed", "8", "--trials", "40", "--out", str(out2)])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["fuzz"]["sample_families"] != r2["fuzz"]["sample_families"]


def test_fuzz_allow_empty_exercises_empty_members(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["fuzz", "--seed", "42", "--trials", "60",
                    "--allow-empty", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fuzz"]["families_with_empty_member"] > 0
    assert report["ok"] is True


def test_intervals_demo_and_literals(capsys):
    status = run_cli(["intervals", "[1,3]", "(0,+inf)", "--trials", "25"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    demo = {d["interval"]: d["choice_value"] for d in report["demo"]}
    assert demo == {"[1,3]": "2", "(-inf,5]": "4", "(0,+inf)": "1",
                    "(-inf,+inf)": "0"}
    assert all(d["satisfies_condition"] for d in report["demo"])
    assert report["sample_checks"] == {"trials": 25, "passed": 25}
    assert report["intervals"][0]["choice_value"] == "2"


def test_text_format_is_deterministic(tmp_path):
    fam = write_family(tmp_path, ["{{}}"])
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    run_cli(["verify", "--family", fam, "--format", "text", "--out", str(out1)])
    run_cli(["verify", "--family", fam, "--format", "text", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    assert "ok: true" in out1.read_text()


def test_missing_family_flag_fails(capsys):
    assert run_cli(["verify"]) == 2
    assert "family" in capsys.readouterr().err


def test_missing_family_file_is_a_diagnostic(tmp_path, capsys):
    status = run_cli(["verify", "--family", str(tmp_path / "nope.json")])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report["error"]["type"] == "IoError"
    assert report["ok"] is False


def test_empty_family_file_is_a_diagnostic(tmp_path, capsys):
    fam = write_family(tmp_path, [])
    status = run_cli(["verify", "--family", fam])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report["error"]["type"] == "EmptyFamily"


def test_env_caps_apply_and_flags_override(tmp_path, capsys, monkeypatch):
    fam = write_family(tmp_path, ["{{}}", "{{},{{}}}"])
    monkeypatch.setenv("ZFLAB_CAPS", "3,10")
    status = run_cli(["verify", "--family", fam])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report["config"]["powerset_cap"] == 3
    assert report["error"]["type"] == "CapExceeded"
    status = run_cli(["verify", "--family", fam, "--powerset-cap", "20",
                      "--product-cap", "1000000"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["config"]["powerset_cap"] == 20


def test_bad_env_caps_rejected(capsys, monkeypatch):
    monkeypatch.setenv("ZFLAB_CAPS", "1,2,3")
    assert run_cli(["fuzz", "--trials", "1"]) == 2
    assert "ZFLAB_CAPS" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zflab.cli", "intervals", "--trials", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


GOLDEN = Path(__file__).parent / "golden"


def run_in(tmp_path, monkeypatch, literals, args, command="verify"):
    """Run the CLI from ``tmp_path`` on ``family.json``, so the report
    names the family file by a fixed relative path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps({"family": literals}))
    return run_cli([command, "--family", "family.json"] + list(args))


def assert_every_sink_writes(capsys, argv, status, expected: bytes):
    """``main`` to stdout and ``execute`` give ``status`` and ``expected``,
    the bytes ``argv`` with ``--out`` wrote to its file."""
    capsys.readouterr()
    assert run_cli(argv) == status
    assert capsys.readouterr().out.encode() == expected
    args = vars(cli._parser().parse_args(argv))
    args["literals"] = tuple(args.get("literals", ()))
    assert cli.execute(cli.RunConfig(**args)) == (status, expected.decode())


@pytest.mark.parametrize("kind", ["wellorder", "pol", "unique-universal"])
def test_verify_report_on_the_four_element_member_is_golden(tmp_path, monkeypatch, kind):
    status = run_in(tmp_path, monkeypatch, ["{{},{{}},{{{}}},{{},{{}}}}"],
                    ["--kind", kind, "--out", "r.json"])
    assert status == 0
    got = (tmp_path / "r.json").read_bytes()
    assert got == (GOLDEN / f"verify_A4_{kind.replace('-', '_')}.json").read_bytes()
    assert json.loads(got)["pipeline"]["u1_size"] == 65536


def test_u1_cap_report_is_golden(tmp_path, monkeypatch, capsys):
    # The 3-element member's 9 pairs exceed the cap; the counted U1 must fail
    # exactly as the materialized one did.
    status = run_in(tmp_path, monkeypatch, ["{{}}", "{{},{{}},{{{}}}}"],
                    ["--powerset-cap", "8"])
    assert status == 2
    assert capsys.readouterr().out == (GOLDEN / "verify_cap8.json").read_text()


def test_out_to_a_missing_directory_is_a_diagnostic(tmp_path, capsys):
    fam = write_family(tmp_path, ["{{}}"])
    status = run_cli(["verify", "--family", fam,
                      "--out", str(tmp_path / "nodir" / "r.json")])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report["error"]["type"] == "IoError"
    assert "nodir" in report["error"]["message"]
    assert report["ok"] is False
    assert not (tmp_path / "nodir").exists()


def test_an_empty_out_path_is_a_diagnostic(capsys):
    # An empty --out names no file: it fails to open like any bad path, and
    # does not fall back to stdout.
    argv = ["intervals", "--trials", "3", "--out", ""]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "zflab.cli"] + argv, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    for out, err in ((captured.out, captured.err), (proc.stdout, proc.stderr)):
        report = json.loads(out)
        assert report["error"]["type"] == "IoError"
        assert report["ok"] is False
        assert "demo" not in report
        assert err == ""


@pytest.mark.parametrize("flags,env,named", [
    (["--powerset-cap", "-3"], None, "--powerset-cap"),
    (["--product-cap", "-1"], None, "--product-cap"),
    ([], "-1,10", "ZFLAB_CAPS powerset"),
    ([], "5,-2", "ZFLAB_CAPS product"),
    ([], "x,10", "ZFLAB_CAPS powerset"),
    ([], "5,1.5", "ZFLAB_CAPS product"),
])
def test_negative_or_non_integer_caps_rejected(tmp_path, capsys, monkeypatch,
                                               flags, env, named):
    if env is None:
        monkeypatch.delenv("ZFLAB_CAPS", raising=False)
    else:
        monkeypatch.setenv("ZFLAB_CAPS", env)
    fam = write_family(tmp_path, ["{{}}"])
    assert run_cli(["verify", "--family", fam] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert "nonnegative integer" in captured.err


@pytest.mark.parametrize("command,trials", [("fuzz", "-3"), ("intervals", "-2")])
def test_negative_trials_rejected(capsys, command, trials):
    assert run_cli([command, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --trials must be a nonnegative integer, got {trials}\n"


@pytest.mark.parametrize("command", ["fuzz", "intervals"])
def test_zero_trials_are_accepted(capsys, command):
    assert run_cli([command, "--trials", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["config"]["trials"] == 0


def test_zero_caps_are_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZFLAB_CAPS", "0,0")
    assert run_cli(["fuzz", "--trials", "1"]) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["powerset_cap"] == 0
    assert report["config"]["product_cap"] == 0


@pytest.mark.parametrize("golden,literals,args", [
    ("verify_literal_two_members", ["{{},{{}}}", "{{{}},{{{}}}}"], ["--u2", "literal"]),
    ("verify_route_agreement_pol", ["{{}}", "{{},{{}}}", "{{{}},{{},{{}}}}"],
     ["--kind", "pol"]),
    ("enumerate_wellorder", ["{{},{{}}}", "{{},{{}},{{{}}}}"], ["--kind", "wellorder"]),
    ("enumerate_pol", ["{{},{{}}}", "{{},{{}},{{{}}}}"], ["--kind", "pol"]),
    # k = 36 > 16: F_c and the witness come from the order picks alone.
    ("verify_disjoint4_wellorder", DISJOINT4, ["--kind", "wellorder"]),
    ("verify_disjoint4_pol", DISJOINT4, ["--kind", "pol"]),
    ("verify_product4_pol", PRODUCT4, ["--kind", "pol"]),
    # 48 Q's, each repeating tagged pairs the others print.
    ("enumerate_disjoint4_wellorder", DISJOINT4, ["--kind", "wellorder"]),
    # 36 Q's of 4, 5 and 6 pairs: the Q's order by size before positions.
    ("enumerate_unique_universal", ["{{},{{}}}", "{{},{{{}}}}"],
     ["--kind", "unique-universal"]),
    # Q_S and F_c empty: each is written as [].
    ("enumerate_literal_two_members", ["{{},{{}}}", "{{{}},{{{}}}}"], ["--u2", "literal"]),
])
def test_reports_are_golden(tmp_path, monkeypatch, capsys, golden, literals, args):
    command = golden.split("_")[0]
    status = run_in(tmp_path, monkeypatch, literals, args + ["--out", "r.json"],
                    command=command)
    assert status == 0
    expected = (GOLDEN / f"{golden}.json").read_bytes()
    assert (tmp_path / "r.json").read_bytes() == expected
    assert_every_sink_writes(capsys, [command, "--family", "family.json"] + args, 0, expected)


@pytest.mark.parametrize("golden,args", [
    ("intervals_seed7", ["intervals", "--seed", "7", "--trials", "200", "[1,3]", "(0,+inf)"]),
    ("fuzz_pol_seed7", ["fuzz", "--seed", "7", "--trials", "25", "--kind", "pol",
                        "--allow-empty"]),
])
def test_seeded_reports_are_golden(tmp_path, monkeypatch, capsys, golden, args):
    monkeypatch.chdir(tmp_path)
    assert run_cli(args + ["--out", "r.json"]) == 0
    expected = (GOLDEN / f"{golden}.json").read_bytes()
    assert (tmp_path / "r.json").read_bytes() == expected
    assert_every_sink_writes(capsys, args, 0, expected)


# Golden report -> (family literals or None, argv).
HASH_SEED_RUNS = {
    "verify_A4_pol": (["{{},{{}},{{{}}},{{},{{}}}}"], ["verify", "--kind", "pol"]),
    "enumerate_pol": (["{{},{{}}}", "{{},{{}},{{{}}}}"], ["enumerate", "--kind", "pol"]),
    # Product-shaped: the pair table checks 81 graphs and the roundtrip
    # their distinct pairs, and the intern table is keyed by frozensets.
    "verify_product4_pol": (PRODUCT4, ["verify", "--kind", "pol"]),
    "fuzz_pol_seed7": (None, ["fuzz", "--seed", "7", "--trials", "25", "--kind", "pol",
                              "--allow-empty"]),
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("golden", sorted(HASH_SEED_RUNS))
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, golden, hash_seed):
    # Canonical keys are bytes, whose hashes are salted per process: no
    # report may depend on a hash order.
    literals, argv = HASH_SEED_RUNS[golden]
    if literals is not None:
        write_family(tmp_path, literals)
        argv = argv + ["--family", "family.json"]
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "zflab.cli"] + argv, cwd=tmp_path,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"{golden}.json").read_bytes()


def test_interval_samples_are_the_offsets_added_to_the_choice_point():
    # A report carries only pass counts, so the sample stream is pinned here
    # against the sum it stands for, draw by draw.
    for seed in range(50):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(200):
            interval = cli._random_interval(rng)
            assert cli._random_interval(reference) == interval
            base = choice_value(interval)
            expected = []
            for _ in range(reference.randint(0, 8)):
                x = base + Fraction(reference.randint(-24, 24), reference.randint(1, 6))
                if interval.contains(x):
                    expected.append(x)
            assert cli._random_sample(rng, interval) == expected
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("kind", ["wellorder", "pol", "unique-universal"])
def test_product_cap_fires_in_build_qs_before_any_choice_comparison(tmp_path, monkeypatch,
                                                                     capsys, kind):
    # Four choice functions and at least four Q's: |Q_S| >= the number of
    # choice functions, so Q_S reaches the cap first and no oracle graph is
    # compared under it.
    status = run_in(tmp_path, monkeypatch, ["{{},{{}}}", "{{{}},{{{}}}}"],
                    ["--kind", kind, "--product-cap", "3"])
    assert status == 2
    out = capsys.readouterr().out
    assert json.loads(out)["error"]["message"].endswith("combined relations exceed cap 3")
    if kind == "wellorder":
        assert out == (GOLDEN / "verify_product_cap3.json").read_text()


@pytest.mark.parametrize("golden,literals,args", [
    # 72 Q's through the text renderer.
    ("enumerate_disjoint4_pol", DISJOINT4, ["--kind", "pol"]),
    # Q_S and F_c empty: each is printed as "empty".
    ("enumerate_literal_two_members", ["{{},{{}}}", "{{{}},{{{}}}}"], ["--u2", "literal"]),
    # The empty member and its one order, the empty relation.
    ("enumerate_empty_member", ["{}", "{{}}"], []),
])
def test_text_report_is_golden(tmp_path, monkeypatch, capsys, golden, literals, args):
    args = args + ["--format", "text"]
    status = run_in(tmp_path, monkeypatch, literals, args + ["--out", "r.txt"],
                    command="enumerate")
    assert status == 0
    expected = (GOLDEN / f"{golden}.txt").read_bytes()
    assert (tmp_path / "r.txt").read_bytes() == expected
    assert_every_sink_writes(capsys, ["enumerate", "--family", "family.json"] + args, 0,
                             expected)


# Four disjoint 3-element members: 6^4 = 1,296 well-order Q's, a report of
# 5.9 MB, far larger than the buffer of the file it is streamed into.
BIG_ENUMERATE = [hfs.hfs_literal(make_set(hfs.iter_hfs_by_rank(3)[i:i + 3]))
                 for i in range(0, 12, 3)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_write_failure_mid_report_is_a_diagnostic(tmp_path, monkeypatch, capsys):
    argv = ["--out", "/dev/full"]
    assert run_in(tmp_path, monkeypatch, BIG_ENUMERATE, argv, command="enumerate") == 2
    captured = capsys.readouterr()
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "zflab.cli", "enumerate", "--family", "family.json"] + argv,
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2
    for out, err in ((captured.out, captured.err), (proc.stdout, proc.stderr)):
        report = json.loads(out)
        assert report["error"]["type"] == "IoError"
        assert "No space left on device" in report["error"]["message"]
        assert report["ok"] is False
        assert err == ""


def test_enumerate_streams_its_report_into_the_out_file(tmp_path, monkeypatch):
    # Q_S's literals are made as they are written: a run with warm caches
    # holds far less than its report at its peak.
    argv = ["--out", "r.json"]
    assert run_in(tmp_path, monkeypatch, BIG_ENUMERATE, argv, command="enumerate") == 0
    tracemalloc.start()
    try:
        assert run_in(tmp_path, monkeypatch, BIG_ENUMERATE, argv, command="enumerate") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "r.json").stat().st_size
    assert json.loads((tmp_path / "r.json").read_text())["q_s"]["size"] == 1296
    assert peak < size / 4


def count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` by rebinding it in every zflab module that holds
    it, so calls from inside the package are counted too."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "zflab" or name.startswith("zflab.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("command,u2", [
    ("verify", "union"), ("verify", "literal"),
    ("enumerate", "union"), ("enumerate", "literal"),
])
def test_each_command_builds_q_s_and_f_c_once(tmp_path, monkeypatch, command, u2):
    # Two members over a 2-element union, so the Q_S cross-check runs, and in
    # verify the separation route too.
    qs_calls = count_calls(monkeypatch, construction.build_QS)
    fc_calls = count_calls(monkeypatch, construction.build_Fc)
    fam = write_family(tmp_path, ["{{}}", "{{},{{}}}"])
    assert run_cli([command, "--family", fam, "--u2", u2,
                    "--out", str(tmp_path / "r.json")]) == 0
    assert (len(qs_calls), len(fc_calls)) == (1, 1)


@pytest.mark.parametrize("argv", [
    ["fuzz", "--u2", "literal"],
    ["fuzz", "--family", "f.json"],
    ["intervals", "--family", "f.json"],
    ["intervals", "--kind", "pol"],
    ["intervals", "--u2", "literal"],
    ["intervals", "--allow-empty"],
    ["intervals", "--powerset-cap", "3"],
    ["verify", "--family", "f.json", "--seed", "3"],
    ["verify", "--family", "f.json", "--trials", "3"],
    ["enumerate", "--family", "f.json", "--allow-empty"],
])
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    assert run_cli(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# The argv shapes perfbench/workloads.py issues, each followed by --out.
@pytest.mark.parametrize("argv", [
    ["verify", "--family", "f.json", "--kind", "wellorder"],
    ["verify", "--family", "f.json", "--kind", "pol", "--u2", "literal"],
    ["enumerate", "--family", "f.json", "--kind", "pol"],
    ["fuzz", "--trials", "25", "--seed", "7", "--kind", "pol", "--allow-empty"],
    ["intervals", "--trials", "200", "--seed", "7"],
])
def test_benchmark_argv_shapes_parse(argv):
    args = cli._parser().parse_args(argv + ["--out", "r.json"])
    assert (args.command, args.out) == (argv[0], "r.json")


def test_reports_stay_identical_after_usage_errors_in_one_process(tmp_path, monkeypatch,
                                                                 capsys):
    # main reuses one parser; a failed parse and --help must leave it as built.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps({"family": DISJOINT4}))
    assert run_cli(["--kind", "pol", "verify", "--family", "family.json"]) == 2
    assert run_cli(["verify", "--help"]) == 0
    capsys.readouterr()
    argv = ["verify", "--family", "family.json", "--kind", "pol"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first
    assert first == (GOLDEN / "verify_disjoint4_pol.json").read_text()


def test_module_entry_point_exits_cleanly_with_nodes_alive_at_shutdown(tmp_path):
    # The intern table's callbacks run while the interpreter tears down its
    # modules; any error there would print "Exception ignored in" to stderr.
    (tmp_path / "family.json").write_text(json.dumps({"family": DISJOINT4}))
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "zflab.cli", "enumerate", "--family", "family.json"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["ok"] is True


def test_importing_the_cli_leaves_the_formula_module_unloaded():
    # The formula names load on first use, and ``zflab`` still exports them.
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, zflab.cli; loaded = 'zflab.formula' in sys.modules; "
            "import zflab; print(loaded, zflab.parse_formula.__module__)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "zflab.formula"]


def wrapped(inner: str, times: int) -> str:
    return "{" * times + inner + "}" * times


# Two members of equal rank that differ only at the bottom, so comparing
# them walks their whole depth: {{{}}} and {{},{{}}} are 3 deep.
DEEP_PAIR_PAST = [wrapped("{{{}}}", MAX_LITERAL_DEPTH - 2),
                  wrapped("{{},{{}}}", MAX_LITERAL_DEPTH - 2)]
DEEP_PAIR_AT = [wrapped("{{{}}}", MAX_LITERAL_DEPTH - 3),
                wrapped("{{},{{}}}", MAX_LITERAL_DEPTH - 3)]


@pytest.mark.parametrize("literals", [[wrapped("{}", 2999)], DEEP_PAIR_PAST])
def test_literals_nested_past_the_bound_are_a_diagnostic(tmp_path, capsys, literals):
    status = run_cli(["verify", "--family", write_family(tmp_path, literals)])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report["error"]["type"] == "ParseError"
    assert f"deeper than {MAX_LITERAL_DEPTH}" in report["error"]["message"]


@pytest.mark.parametrize("literals", [[wrapped("{}", MAX_LITERAL_DEPTH - 1)], DEEP_PAIR_AT])
def test_literals_nested_to_the_bound_verify_completely(tmp_path, capsys, literals):
    status = run_cli(["verify", "--family", write_family(tmp_path, literals)])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["ok"] is True
    assert report["cross_checks"] == {"oracle_fc_match": True, "route_agreement": True,
                                      "induced_order_roundtrip": True}
    assert report["pipeline"]["fc_size"] == 1  # every member is a singleton


def count_q_builds(monkeypatch) -> list:
    """Count reads of ``QSet.children``, the only place Q's are built as sets."""
    reads = []
    children = construction.QSet.children

    def counted(qs):
        reads.append(len(qs))
        return children.fget(qs)

    monkeypatch.setattr(construction.QSet, "children", property(counted))
    return reads


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "family.json", "--kind", "wellorder"],
    ["verify", "--family", "family.json", "--kind", "pol"],
    ["fuzz", "--trials", "25", "--seed", "7", "--kind", "pol", "--allow-empty"],
])
def test_verify_and_fuzz_never_build_a_q_s(tmp_path, monkeypatch, argv):
    choice_calls = count_calls(monkeypatch, construction.choice_from_Q)
    builds = count_q_builds(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps({"family": DISJOINT4}))
    assert run_cli(argv + ["--out", "r.json"]) == 0
    assert (len(choice_calls), builds) == (0, [])


@pytest.mark.parametrize("argv,families", [
    (["verify", "--family", "family.json", "--u2", "union"], 1),
    (["verify", "--family", "family.json", "--u2", "literal"], 1),
    (["enumerate", "--family", "family.json"], 1),
    (["fuzz", "--trials", "25", "--seed", "7", "--kind", "pol", "--allow-empty"], 25),
])
def test_the_oracle_enumerates_choice_functions_once_per_family(tmp_path, monkeypatch,
                                                                argv, families):
    calls = count_calls(monkeypatch, oracle.enumerate_choice_functions)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps({"family": ["{{}}", "{{},{{}}}"]}))
    assert run_cli(argv + ["--out", "r.json"]) == 0
    assert len(calls) == families
    if argv[0] == "fuzz":
        samples = json.loads((tmp_path / "r.json").read_text())["fuzz"]["sample_families"]
        assert [hfs.hfs_literal(args[0]) for args in calls[:5]] == samples


def test_enumerate_builds_no_q_node(tmp_path, monkeypatch):
    # enumerate prints Q_S from the Q's masks (QSet.literals).
    builds = count_q_builds(monkeypatch)
    assert run_in(tmp_path, monkeypatch, ["{{}}", "{{},{{}}}"],
                  ["--out", "r.json"], command="enumerate") == 0
    assert builds == []


@pytest.mark.parametrize("kind,size", [(OrderKind.WELL_ORDER, 48),
                                       (OrderKind.PARTIAL_ORDER_WITH_LEAST, 72)])
def test_q_s_children_call_make_set_at_most_once(monkeypatch, kind, size):
    family = construction.Family.of(parse_hfs(text) for text in DISJOINT4)
    qs = construction.build_QS(family, construction.U2Variant.UNION_OF_PRODUCTS, kind)
    calls = count_calls(monkeypatch, hfs.make_set)
    assert len(qs.children) == len(qs) == size
    assert len(calls) <= 1


@pytest.mark.parametrize("kind", [OrderKind.WELL_ORDER, OrderKind.PARTIAL_ORDER_WITH_LEAST])
def test_q_s_literals_build_only_the_base(monkeypatch, kind):
    # literals renders each Q from its mask over the union base: make_set
    # builds the base and nothing else, and no Q is built through subsets_of.
    family = construction.Family.of(parse_hfs(text) for text in DISJOINT4)
    qs = construction.build_QS(family, construction.U2Variant.UNION_OF_PRODUCTS, kind)
    make_set_calls = count_calls(monkeypatch, hfs.make_set)
    subsets_of_calls = count_calls(monkeypatch, hfs.subsets_of)
    assert len(list(qs.literals())) == len(qs)
    assert len(make_set_calls) <= 1
    assert subsets_of_calls == []


def test_literal_u2_on_a_five_element_member_fails_the_order_cap(tmp_path, capsys):
    # 25 pairs pass the powerset cap, but the member's orders are over the
    # order cap, which must fire before any of the 2^25 candidates is visited.
    fam = write_family(tmp_path, ["{{},{{}},{{{}}},{{},{{}}},{{{{}}}}}"])
    status = run_cli(["verify", "--family", fam, "--u2", "literal", "--powerset-cap", "30"])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report["error"] == {"type": "CapExceeded",
                               "message": "order enumeration over 5 elements exceeds cap 4"}


# Hostile input, each a malformed-input diagnostic: (argv, family file bytes).
HOSTILE = {
    "closed_left_infinity": (["intervals", "--trials", "0", "[-inf,3]"], None),
    "closed_right_infinity": (["intervals", "--trials", "0", "(1,+inf]"], None),
    "utf16_family_file": (["verify", "--family", "family.json"],
                          b"\xff\xfe" + '{"family": ["{}"]}'.encode("utf-16-le")),
    "deeply_nested_family_file": (["verify", "--family", "family.json"],
                                  b'{"family": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
}


def stage_hostile(tmp_path, case) -> list:
    argv, family = HOSTILE[case]
    if family is not None:
        (tmp_path / "family.json").write_bytes(family)
    return argv


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_is_a_parse_error(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    status = run_cli(stage_hostile(tmp_path, case))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert status == 2
    assert report["error"]["type"] == "ParseError"
    assert report["ok"] is False
    assert captured.err == ""
    if HOSTILE[case][1] is not None:
        assert report["error"]["message"].startswith("family.json: ")
        with pytest.raises(ParseError, match="family.json"):
            cli.load_family("family.json")


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_2_from_the_module_entry(tmp_path, case):
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "zflab.cli"] + stage_hostile(tmp_path, case),
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
