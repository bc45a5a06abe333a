"""The command-line surface: formats, caching, determinism, exit codes."""

import json

from weylinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_a1(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "basis", "A1")
    assert code == 0
    assert "0,1" in out
    assert "A1" in out


def test_basis_e6_table(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "basis", "E6")
    assert code == 0
    assert "0,1,2,3,4" in out


def test_roots_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                           "roots", "G2")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "G2"
    assert len(data["roots"]) == 12


def test_order_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                           "order", "F4")
    assert code == 0
    assert json.loads(out)["order"] == 1152


def test_reduce_e6(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                           "reduce", "E6")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 27
    assert data["index_odd"] is True
    assert data["all_covered"] is True
    assert data["passed"] is True


def test_reduce_needs_builtin_or_target(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--cache-dir", str(tmp_path), "reduce", "B3")
    assert code == 2
    assert "target" in err
    code, out, _ = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                           "reduce", "B3", "--target", "B2")
    assert code == 0
    assert json.loads(out)["index"] == 6


def test_involutions_table_and_cache(tmp_path, capsys):
    code, out1, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                            "involutions", "B2")
    assert code == 0
    assert (tmp_path / "B2.json").exists()
    code, out2, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                            "involutions", "B2")
    assert code == 0
    assert out1 == out2  # byte-identical across cold and cached runs


def test_cache_corruption_recovers_with_warning(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "involutions", "B2")
    (tmp_path / "B2.json").write_text("{not json")
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path),
                             "involutions", "B2")
    assert code == 0
    assert "recomputing" in err
    assert "d0.0" in out
    # the rewritten cache is valid again
    data = json.loads((tmp_path / "B2.json").read_text())
    assert data["type"] == "B2"


def test_cache_wrong_table_is_rejected(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "involutions", "B2")
    path = tmp_path / "B2.json"
    data = json.loads(path.read_text())
    data["involution_classes"][1]["size"] = 12345
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                             "involutions", "B2")
    assert code == 0
    assert "recomputing" in err
    sizes = [c["size"] for c in json.loads(out)["classes"]]
    assert 12345 not in sizes


def test_pair_table_with_expression(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                           "pair", "B2", "--expr", "t*sw(cox,1)")
    assert code == 0
    data = json.loads(out)
    custom = next(p for p in data["pairings"] if p["expr"] == "t*sw(cox,1)")
    assert custom["degree"] == 2
    assert custom["coeffs"]["d1.0"] == "t"
    assert data["separation"]["unseparated"] == []


def test_pair_rejects_bad_expression(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--cache-dir", str(tmp_path),
                           "pair", "B2", "--expr", "sw(nosuchrep,1)")
    assert code == 2
    assert "unknown representation" in err


def test_gap_d4_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "--cache-dir", str(tmp_path),
                           "gap", "D4")
    assert code == 0
    data = json.loads(out)
    for report in data["reports"]:
        assert report["target"] == 2 ** 2
        for hit in report["hits"]:
            assert abs(hit["gap"]) == report["target"]


def test_cubes_csv(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--csv", "--cache-dir", str(tmp_path),
                           "cubes", "A2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,size,representative"
    assert len(lines) == 3


def test_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "basis", "Q9")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "--threads", "0", "basis", "A1")
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


def test_verify_fast_exits_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                           "verify", "--fast")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)
