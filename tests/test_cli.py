"""The command-line surface: formats, determinism, exit codes."""

import hashlib
import json

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
