"""The command-line surface: formats, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_a1(capsys):
    code, out, _ = run_cli(capsys, "basis", "A1")
    assert code == 0
    assert "0,1" in out
    assert "A1" in out


def test_basis_e6_table(capsys):
    code, out, _ = run_cli(capsys, "basis", "E6")
    assert code == 0
    assert "0,1,2,3,4" in out


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "roots", "G2")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "G2"
    assert len(data["roots"]) == 12


def test_order_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--json", "order", "F4")
    assert code == 0
    assert json.loads(out)["order"] == 1152


def test_reduce_e6(capsys):
    code, out, _ = run_cli(capsys, "--json", "reduce", "E6")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 27
    assert data["index_odd"] is True
    assert data["all_covered"] is True
    assert data["passed"] is True


def test_reduce_needs_builtin_or_target(capsys):
    code, _, err = run_cli(capsys, "reduce", "B3")
    assert code == 2
    assert "target" in err
    code, out, _ = run_cli(capsys, "--json", "reduce", "B3", "--target", "B2")
    assert code == 0
    assert json.loads(out)["index"] == 6


def test_involutions_table_and_cache(capsys):
    code, out1, _ = run_cli(capsys, "involutions", "B2")
    assert code == 0
    code, out2, _ = run_cli(capsys, "involutions", "B2")
    assert code == 0
    assert out1 == out2  # byte-identical across runs


def test_cli_writes_no_files_and_counts_b3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WEYL_CACHE", str(tmp_path / "cache"))
    code, out, err = run_cli(capsys, "--json", "involutions", "B3")
    assert (code, err) == (0, "")
    assert json.loads(out)["involution_count"] == 20
    assert list(tmp_path.iterdir()) == []


def test_pair_table_with_expression(capsys):
    code, out, _ = run_cli(capsys, "--json", "pair", "B2", "--expr", "t*sw(cox,1)")
    assert code == 0
    data = json.loads(out)
    custom = next(p for p in data["pairings"] if p["expr"] == "t*sw(cox,1)")
    assert custom["degree"] == 2
    assert custom["coeffs"]["d1.0"] == "t"
    assert data["separation"]["unseparated"] == []


def test_pair_expression_names_starting_with_t(capsys):
    # triv1pluscox is one name, not the keyword t followed by riv1pluscox
    code, out, err = run_cli(capsys, "pair", "B2", "--expr", "sw(triv1pluscox,1)")
    assert (code, err) == (0, "")
    assert "sw(triv1pluscox,1)  0     1     1     0" in out
    code, out, _ = run_cli(capsys, "pair", "B2", "--expr", "sw(cox,1)*t")
    assert code == 0
    assert "sw(cox,1)*t  0     t     t     0" in out


def test_pair_rejects_bad_expression(capsys):
    code, _, err = run_cli(capsys, "pair", "B2", "--expr", "sw(nosuchrep,1)")
    assert code == 2
    assert "unknown representation" in err
    for expr in ("(t", "sw(cox", "t+", "t^"):
        code, out, err = run_cli(capsys, "pair", "B2", "--expr", expr)
        assert code == 2
        assert out == ""
        assert "$" not in err


def test_pair_rejects_over_nested_expression(capsys):
    expr = "(" * 2000 + "t" + ")" * 2000
    code, out, err = run_cli(capsys, "pair", "A1", "--expr", expr)
    assert code == 2
    assert out == ""
    assert err == "error: expression nests too deeply\n"
    code, _, _ = run_cli(capsys, "pair", "A1", "--expr", "(" * 50 + "t" + ")" * 50)
    assert code == 0


def test_pair_builds_the_catalogue_once(monkeypatch, capsys):
    from weylinv import reps
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    build = reps.base_catalogue
    monkeypatch.setattr(reps, "base_catalogue", counted)  # cmd_pair imports it per call
    code, _, _ = run_cli(capsys, "pair", "D4",
                         "--expr", "sw(cox,1)", "--expr", "sw(cox,2)")
    assert code == 0
    assert len(calls) == 1


def test_pair_rejects_huge_exponent(capsys):
    import time
    from weylinv.cli import MAX_EXPONENT
    assert MAX_EXPONENT >= 64
    for expr in ("t^100000000", "t^", "t^x"):
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "pair", "A1", "--expr", expr)
        assert time.monotonic() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exponent" in err
    code, _, _ = run_cli(capsys, "pair", "A1", "--expr", f"t^{MAX_EXPONENT}")
    assert code == 0


def test_gap_d4_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "gap", "D4")
    assert code == 0
    data = json.loads(out)
    for report in data["reports"]:
        assert report["target"] == 2 ** 2
        for hit in report["hits"]:
            assert abs(hit["gap"]) == report["target"]


def test_cubes_csv(capsys):
    code, out, _ = run_cli(capsys, "--csv", "cubes", "A2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,size,representative"
    assert len(lines) == 3


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "basis", "Q9")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "--threads", "0", "basis", "A1")
    assert code == 2
    code, _, _ = run_cli(capsys, "--cache-dir", "x", "basis", "A1")
    assert code == 2


def test_unexpected_error_exits_internal(monkeypatch, capsys):
    from weylinv import cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "roots", boom)
    code, out, err = run_cli(capsys, "roots", "A1")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: boom"]


@pytest.mark.parametrize("argv", [["roots", "E8"], ["--json", "involutions", "E7"],
                                  ["verify", "--fast"]])
def test_closed_stdout_is_no_error(argv):
    # the read end is closed before the child starts, so its first write fails
    src = Path(__file__).resolve().parent.parent / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "weylinv.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_order_rejects_oversized_type_before_building(capsys):
    import time
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "order", "A181")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "32942 roots" in err


def test_verify_fast_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fast")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)


def test_verify_fast_json_records(capsys):
    from weylinv.verify import CRITERIA
    code, out, _ = run_cli(capsys, "--json", "verify", "--fast")
    assert code == 0
    records = json.loads(out)
    assert [r["name"] for r in records] == [name for name, _ in CRITERIA]
    for r in records:
        assert set(r) == {"name", "ok", "seconds", "detail"}
        assert r["ok"] is True
        assert isinstance(r["seconds"], float) and isinstance(r["detail"], str)


def test_verify_fast_csv_table(capsys):
    import csv
    code, out, _ = run_cli(capsys, "--csv", "verify", "--fast")
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert header == ["name", "ok", "seconds", "detail"]
    assert len(rows) == 8
    assert all(row[1] == "True" for row in rows)


def test_verify_failure_exits_one_in_every_format(monkeypatch, capsys):
    from weylinv import verify
    monkeypatch.setattr(verify, "CRITERIA", (
        ("pass", lambda full: (True, "fine")),
        ("fail", lambda full: (False, "broken"))))
    code, out, _ = run_cli(capsys, "verify", "--fast")
    assert code == 1
    assert [l.split(" (")[0] for l in out.splitlines()] == ["PASS pass", "FAIL fail"]
    code, out, _ = run_cli(capsys, "--json", "verify")
    assert code == 1
    assert [r["ok"] for r in json.loads(out)] == [True, False]
    code, out, _ = run_cli(capsys, "--csv", "verify", "--full")
    assert code == 1
    assert out.splitlines()[2].startswith("fail,False,")


# sha256 of plain stdout, recorded when restriction and gaps read every trace
# element by element; bench/reference.json pins only `gap E7` of these
PINNED_STDOUT = {
    ("pair", "D6"): "11f5867b3f1ad06a18a48e8a000d17e2a7371254feb88386a610df9e4614b896",
    ("gap", "D6"): "2dec9c5c22366c4cdf7101741452e9d71045b47550ab4564ee7f72e7b6bdaacc",
    ("pair", "E7"): "8c4e878840740e7c4ca62a66576dc24af9f734b99bb38573164a3a0a41e97d16",
    ("gap", "E7"): "65ea4468f331a74e491d35db48e889eff3777510026777ebf4976905d16e11b7",
    ("pair", "E8"): "75a3372dfd8afcedeb5c83e8fbf526c88cb598e0591dbb6e2d6e35dc4713eb95",
    ("gap", "E8"): "c947e90232b43dd8a36335721e8455420a3c2ae579261643648f390aec5dab46",
    ("pair", "A1xE7"): "8634f403c0c014974306afe366bd06691cb74156719f1b32f446cbff4083756d",
}


@pytest.mark.parametrize("command, type_name", sorted(PINNED_STDOUT))
def test_pair_and_gap_stdout_is_pinned(capsys, command, type_name):
    code, out, _ = run_cli(capsys, command, type_name)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED_STDOUT[command, type_name]


# sha256 of stdout of the headline tables, recorded when the orbit search
# sorted every image but a row's parents; bench/reference.json pins E7 stdout
# but E8 only as class sizes
PINNED_TABLES = {
    ("involutions", "E8"): "f6d9ffbae206d3acfbe55df1d76071ddc6d94455a960395ce35fbad44b7abcc9",
    ("cubes", "E8"): "a95310b24e9464c8c480bda2555ff5abb2226afc79796e8475e8d77ae9d2eb8a",
    ("basis", "E8"): "2cf4461308e6628ebf334694a8b56f8bb3451fedd5804e623ed6de5d39efb700",
    ("reduce", "E8"): "74ac7fa15a632a0d60ffe81b259c79f4f39d3125157472011ace951704fb9412",
    ("--json", "cubes", "A1xE7"): "bb5f40e96cd9924a3dbd62a7c1183683a81da8a42eea2ee7d39326586295a648",
}


@pytest.mark.parametrize("argv", sorted(PINNED_TABLES), ids=" ".join)
def test_table_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TABLES[argv]


# sha256 of stdout of every table command in all three formats on B3 and F4,
# recorded when each command chose its own output format; B3 has no
# built-in reduction, so its reduce runs against B2
PINNED_FORMATS = {
    ("--csv", "basis", "B3"): "c9c093a0bd3e7136910dd99a361912abe5849bfd30c0ebd0c2cbbe57253f0da7",
    ("--csv", "basis", "F4"): "040d41775e0a8ea58104178fe80c8ca4d98e24b789bf7e8f12651c829cf02125",
    ("--csv", "cubes", "B3"): "2c5b1313b0626f225361d2aa62ba4b670a064b302dc3a248bc352485100b415d",
    ("--csv", "cubes", "F4"): "ac4a677089518dbf2bdcdfd6f16b71b6ed11331895839f47582d602923a04cca",
    ("--csv", "gap", "B3"): "6562073c7beecb6ee31bd0b4199db04ded8a009911f5c63f52e66bbe3d562b37",
    ("--csv", "gap", "F4"): "5d5b2d20027a3ee687353cb9b16997f6a7b86f8294b9fb860aed5cccb19c2834",
    ("--csv", "involutions", "B3"): "7d064a7a969fd24ef6c28d5d2c20553af54128c823499305a9b5c4b5e0660229",
    ("--csv", "involutions", "F4"): "9aa75b036d7b0d79208361642801e1f013ba4171303ec1062603c21bc0b5f3e2",
    ("--csv", "order", "B3"): "bb53ce6aacc7acc1c7e03948eabae8d1a6ca6431918a393c99baf111964f55d3",
    ("--csv", "order", "F4"): "9df3a029b5937f43d6c5a6b1487f6c4ea83a7e13f6f1c8f3fde2ede7c40a6ac6",
    ("--csv", "pair", "B3"): "431cbfa8eed4add897d061a6104ff9c05716f91eff97cb9e1d81213447896e9b",
    ("--csv", "pair", "F4"): "fd9f59e7e9597cfa11cb0457ad4d947f4d24bedb7e1ad7212ef4d106fe476a53",
    ("--csv", "reduce", "B3", "--target", "B2"): "57417fbe3b8d2cd9885d9bccc3f31ddff0aac656dfc4668cfe12bdad303b1baa",
    ("--csv", "reduce", "F4"): "9748681b6f81efd036dbee63dae6b05aa76b46c84b505c1fc30aa87e28f647e1",
    ("--csv", "roots", "B3"): "686b015b5b5633f19592eb37dee6237a02f72e02be035e4e4ed627ef169d79bd",
    ("--csv", "roots", "F4"): "746ce8881a20e7d4a8ba2911b8cdb1f217782a10ae0721a080acfa3a46c6039b",
    ("--json", "basis", "B3"): "45d3f059ed0616b8fe8e90c4bdf27ebcca4c4bcc25dbb7dbc09a8b22da734252",
    ("--json", "basis", "F4"): "05d26a0bd0b42e5eca4874afdf16a28e02eacbb473d6ca89c7080cc259e4557b",
    ("--json", "cubes", "B3"): "a79fb64a0dd0eb7a8cc829e49434d90e78f963c4646ad52bfef92d43bd3b4cfa",
    ("--json", "cubes", "F4"): "fc4d074da356f7862430c08820caa9cc182c6f3b3015777cc15fa51e8b20b936",
    ("--json", "gap", "B3"): "0e1d2dc07e319cb33da417546eb127cdf35f20afb2da60734adde3c4ff438f33",
    ("--json", "gap", "F4"): "697f2c825db632bd2f3616a8bae1a5bd4990544facde029d759d57686169cbdd",
    ("--json", "involutions", "B3"): "e4a3624875955010968ee7d1b4248fd051be92e25fdd238f666493b91cb83408",
    ("--json", "involutions", "F4"): "2ac43bc7ee67e5725880bd15a14e028c4233de49b4021f25a7a394ec2759812c",
    ("--json", "order", "B3"): "1032df9f5d5875fceb1629c8d6ad4b3ed7c3802cb003abfcd2f702420c74c8e3",
    ("--json", "order", "F4"): "d1c5ceeb7cc545cb5b6799bbc6d6f9be387a27fb11c636bf83eca24f7302d271",
    ("--json", "pair", "B3"): "674da0be86aa1457c76c9414186e1fb129ddbc08a47a983b1af300a6e66fde76",
    ("--json", "pair", "F4"): "06843e4433a1b2d98b5bb8ad55edd494609269e7d01db82936797339dd568115",
    ("--json", "reduce", "B3", "--target", "B2"): "f2d4bf95f6fe2aed1848884a4fb4e1225231dbe2b836c246144bd1a1dfc9b89f",
    ("--json", "reduce", "F4"): "69adf533682adb5f94312c366a8ab2f52e591658949c504d6ce52e7d6d32f8ca",
    ("--json", "roots", "B3"): "9c4dec84439cab284799450f1b70627759f32b8319f1adff77dcfb9f629c965f",
    ("--json", "roots", "F4"): "ad59710cb164027a35f3e99a7e6d07125d073a938cd0deaea26a0e07662f64fd",
    ("basis", "B3"): "f73c669c497e646425bbfbfef5a73870852134c2b38fe31a3a4c751268696e6f",
    ("basis", "F4"): "336031767b0cabd4b43896374167b7e4aa9ee0b671b4a62cd5d7872fdfa99cac",
    ("cubes", "B3"): "ed302020abc9e5bd4324dc88eb2736b50f651eabfb2ef5d97c73f4c56272dc30",
    ("cubes", "F4"): "cbeffc2a278f8c0bae6a1e85ba8b150d4ea3289caca44c0204d7ae5c291b884b",
    ("gap", "B3"): "37c19bbe323842446fb65baa476ef795d7f41712f206d7527c0bd19271cf8b5b",
    ("gap", "F4"): "96bc184085fd3438f97128271be542b920d2cd34d4014aa80773711ec33d3f4c",
    ("involutions", "B3"): "d21056b1fba50ed64f43ef246603fd2e25991cbf26653cd7dfde25ee05af5ff4",
    ("involutions", "F4"): "a7806894bd95e53f5706a136a1d14416fdca47b2558bfe42edfb73ab33491409",
    ("order", "B3"): "0a13f4754b865b415f40dc75664dce38188208d952e2bc7223da17d559335879",
    ("order", "F4"): "6510cfc13e7d3e80c8cd95bf17a19e4c937baff262980e0ae698e9de262e2ed6",
    ("pair", "B3"): "142bb31318f8cca050eac762433a0498fac053ddaeb280b9d68403193a0c9d32",
    ("pair", "F4"): "f62a00847a464a200f11f249991eb6784b4650320c210b1f6003624e0d340e8f",
    ("reduce", "B3", "--target", "B2"): "f017eb313c4fc44a409f88a6d1a1992836cbcf9b5ea88001ca46d4f11c149112",
    ("reduce", "F4"): "d53d6e91fd6bb9661ae40e62bfbfc92132a3d6d84124385a1ae8ec8969a5be6a",
    ("roots", "B3"): "08f6f0d95e3deb945fcb270b234fa5c67e1c6bf3cf9908c2597b917e0f971a4c",
    ("roots", "F4"): "cad8fa48dcd68870aa4d77a287edad349c04684ab8df98d13d915553b81cb0bc",
}


@pytest.mark.parametrize("argv", sorted(PINNED_FORMATS), ids=" ".join)
def test_every_format_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FORMATS[argv]
