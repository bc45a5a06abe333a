"""Cold start: which modules `import weylinv` and each subcommand load.

Each test runs its code in a fresh interpreter and reads that interpreter's
sys.modules, so nothing an earlier test imported can hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ROUTE = {"cli", "roots"}  # what every subcommand loads
WEYL = ROUTE | {"weyl"}
INVOLUTIONS = WEYL | {"involutions"}
EVERYTHING = INVOLUTIONS | {"invariants", "reps", "verify"}


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules after running code in a fresh interpreter."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = f"{code}\nimport sys\nsys.stderr.write('\\n' + ' '.join(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rsplit("\n", 1)[-1].split())


def package_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("weylinv.") for m in modules if m.startswith("weylinv.")}


def run_command(argv: list[str]) -> set[str]:
    return loaded_after(f"from weylinv.cli import main\nassert main({argv!r}) == 0")


def test_bare_import_runs_no_submodule():
    modules = loaded_after("import weylinv")
    assert package_modules(modules) == set()
    assert "numpy" not in modules


COMMANDS = [
    (["roots", "A2"], ROUTE),
    (["order", "A22"], WEYL),
    (["involutions", "A2"], INVOLUTIONS),
    (["cubes", "A2"], INVOLUTIONS),
    (["reduce", "G2"], INVOLUTIONS),
    (["basis", "A2"], INVOLUTIONS | {"invariants"}),
    (["pair", "A2", "--expr", "sw(cox,1)^2"], INVOLUTIONS | {"invariants", "reps"}),
    (["gap", "A3"], INVOLUTIONS | {"reps"}),
    (["verify", "--fast"], EVERYTHING),
]


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=[a[0] for a, _ in COMMANDS])
def test_each_command_loads_only_its_modules(argv, expected):
    modules = run_command(argv)
    assert package_modules(modules) == expected
    assert not {"json", "csv"} & modules


@pytest.mark.parametrize("flag,writer", [("--json", "json"), ("--csv", "csv")])
def test_output_format_modules_load_only_when_asked(flag, writer):
    modules = run_command([flag, "order", "A2"])
    assert package_modules(modules) == WEYL
    assert {"json", "csv"} & modules == {writer}


def test_every_export_is_the_object_its_submodule_defines():
    loaded_after("""
import importlib
import weylinv
assert len(weylinv.__all__) == len(set(weylinv.__all__)) == 67
for name in weylinv.__all__:
    obj = getattr(weylinv, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("weylinv."), name
    assert getattr(home, name) is obj, name
assert set(weylinv.__all__) <= set(dir(weylinv))
namespace = {}
exec("from weylinv import *", namespace)
assert set(namespace) - {"__builtins__"} == set(weylinv.__all__)
""")


def test_unknown_names_are_missing():
    loaded_after("""
import weylinv
assert not hasattr(weylinv, "no_such_name")
""")
