"""The command-line surface: formats, determinism, exit codes."""

import importlib.util
import json
import os
import re
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
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return first_entry(*args, **kwargs)

    first_entry = reps.trivial_rep  # made once per catalogue build, and nowhere else
    monkeypatch.setattr(reps, "trivial_rep", counted)
    code, _, _ = run_cli(capsys, "pair", "D4",
                         "--expr", "sw(cox,1)", "--expr", "sw(cox,2)")
    assert code == 0
    assert len(builds) == 1


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


def child_env() -> dict:
    """The environment of a `python -m weylinv.cli` child: src first on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.mark.parametrize("argv", [["roots", "E8"], ["--json", "involutions", "E7"],
                                  ["verify", "--fast"]])
def test_closed_stdout_is_no_error(argv):
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "weylinv.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=child_env())
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_stdout_closed_mid_stream_is_no_error():
    # the JSON (761 KB) outgrows a pipe buffer, so the reader leaves while the
    # child still writes: that must exit 0 and print no error
    proc = subprocess.Popen([sys.executable, "-m", "weylinv.cli", "--json", "roots", "A40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # a no-op once the child has exited
    assert (proc.returncode, err) == (0, b"")


# A child's ru_maxrss starts at the peak of the process that spawned it (the
# child shares its parent's memory until exec, and exec keeps that peak), so a
# child of pytest would report pytest's peak.  A bare interpreter spawns the
# measured command instead and prints its exit code and its own ru_maxrss.
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_reduce_e8_peak_rss():
    # the orbit engine stores E8's 400k masks as rows of one-byte root indices
    # and builds no per-byte image tables: the peak RSS of `reduce E8` (both
    # classifications and the D8 reduction) stays below 44 MB, about 15% above
    # the 38.0 MB measured with numpy 2.4 on 2 vCPUs
    done = subprocess.run([sys.executable, "-c", PEAK_RSS,
                           sys.executable, "-m", "weylinv.cli", "reduce", "E8"],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak_kib / 1024 < 44, f"reduce E8 peak RSS {peak_kib / 1024:.1f} MB, limit 44 MB"


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
    assert record.stdout_digest(code, out.encode()) == DIGESTS["verify --fast"]


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


# -- pinned stdout: the golden grid --------------------------------------------
#
# tests/golden/digests.json is the one store of pinned stdout: [exit code,
# sha256 of stdout] of each argv of tests/golden/argv.json, which
# tests/golden/record.py re-runs in fresh processes.  These tests run in
# process, hashed by record.py's own stdout_digest, every grid argv but
# `verify --fast`, which test_verify_fast_exits_zero pins, and the --json/--csv
# forms on the three large types (except `--json cubes A1xE7`).  The three
# groups keep the names, and so the test ids, of the pin sets that lived here
# before the grid.

GOLDEN = Path(__file__).with_name("golden")
GRID = json.loads((GOLDEN / "argv.json").read_text())
DIGEST_PAIRS = json.loads((GOLDEN / "digests.json").read_text(), object_pairs_hook=list)
DIGESTS = dict(DIGEST_PAIRS)
_spec = importlib.util.spec_from_file_location("record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

LARGE = {"E7", "E8", "A1xE7"}
HARD_PAIRS = [(command, name) for name in ("D6", "E7", "E8", "A1xE7")
              for command in ("pair", "gap")]
IN_PROCESS = [argv for argv in GRID if argv[0] != "verify" and (
    argv[0] not in ("--json", "--csv") or LARGE.isdisjoint(argv)
    or argv == ["--json", "cubes", "A1xE7"])]
SMALL = [argv for argv in IN_PROCESS
         if LARGE.isdisjoint(argv) and tuple(argv) not in HARD_PAIRS]
TABLES = [argv for argv in IN_PROCESS
          if not LARGE.isdisjoint(argv) and tuple(argv) not in HARD_PAIRS]


def assert_pinned(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert record.stdout_digest(code, out.encode()) == DIGESTS[" ".join(argv)]


def test_grid_lists_one_digest_per_argv():
    """A grid argv without a digest, or a digest without an argv, fails here."""
    assert [key for key, _ in DIGEST_PAIRS] == [" ".join(argv) for argv in GRID]
    for _, entry in DIGEST_PAIRS:
        assert len(entry) == 2 and type(entry[0]) is int
        assert re.fullmatch("[0-9a-f]{64}", entry[1])


@pytest.mark.parametrize("argv", SMALL, ids=" ".join)
def test_every_format_is_pinned(capsys, argv):
    """Every grid argv on the seven small types, in all three formats, but
    the plain hard-pair tables of D6."""
    assert_pinned(capsys, argv)


@pytest.mark.parametrize("command, type_name", HARD_PAIRS)
def test_pair_and_gap_stdout_is_pinned(capsys, command, type_name):
    """The hard-pair tables: plain `pair` and `gap` on D6 and the large types."""
    assert_pinned(capsys, [command, type_name])


@pytest.mark.parametrize("argv", TABLES, ids=" ".join)
def test_table_stdout_is_pinned(capsys, argv):
    """The other plain argv on the large types, and `--json cubes A1xE7`."""
    assert_pinned(capsys, argv)
