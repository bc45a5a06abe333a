"""Digest the CLI's stdout over the golden grid.

Runs each argv of argv.json (next to this file) in a fresh
`python -m weylinv.cli` process and prints {argv: [exit code, sha256 of
stdout]} as JSON, one argv a line, in the grid's order; an argv is keyed by
its words joined with spaces.  verify prints seconds per criterion, so every
"(N.Ns)" is masked before hashing.  digests.json holds this output for the
stdout the grid is pinned to; check a change against it with

    PYTHONPATH=src python tests/golden/record.py > digests.new.json
    diff tests/golden/digests.json digests.new.json

Re-record digests.json only on purpose, naming every digest that moved.
tests/test_cli.py checks most of the grid in process with `stdout_digest`.
"""

import hashlib
import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GRID = Path(__file__).with_name("argv.json")
TIMING = re.compile(rb"\(\d+\.\ds\)")


def stdout_digest(code: int, stdout: bytes) -> list:
    """[exit code, sha256 of stdout with its seconds masked]: one grid entry."""
    return [code, hashlib.sha256(TIMING.sub(b"(*s)", stdout)).hexdigest()]


def digest(argv: list[str]) -> list:
    done = subprocess.run([sys.executable, "-m", "weylinv.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return stdout_digest(done.returncode, done.stdout)


def main() -> None:
    grid = json.loads(GRID.read_text())
    with ThreadPoolExecutor(max_workers=2) as pool:  # two child processes at a time
        results = list(pool.map(digest, grid))
    lines = [f"{json.dumps(' '.join(argv))}: {json.dumps(result)}"
             for argv, result in zip(grid, results)]
    print("{\n" + ",\n".join(lines) + "\n}")


if __name__ == "__main__":
    main()
