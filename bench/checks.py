"""Output checks that do not trust the code under test.

Every check returns a list of problems; an empty list means the output
passed.  The facts come from the paper and from closed formulas:

- |W| of every irreducible type (products multiply);
- the E6/E7/E8 degree multisets of the canonical basis (Richardson's
  classification of involutions, Bull. Austral. Math. Soc. 26, 1982);
- the five odd reduction indices 27, 63, 135, 3, 3;
- the delta law <sw(cox,i), class> = [i == degree] and the degree law
  (a homogeneous degree-d invariant pairs to 0 or t^(d-k) with a
  degree-k class);
- a conjugacy class size divides |W| (orbit-stabilizer).

Involution and cube totals, class sizes, hit counts and stdout digests were
recorded at the commit that introduced the benchmark; they live in
reference.json and are regression references, not independent facts.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import factorial
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

PAPER_DEGREES = {
    "E6": (0, 1, 2, 3, 4),
    "E7": (0, 1, 2, 3, 3, 4, 4, 5, 6, 7),
    "E8": (0, 1, 2, 3, 4, 4, 5, 6, 7, 8),
}

PAPER_REDUCTIONS = {
    ("E6", "D5"): 27,
    ("E7", "A1xD6"): 63,
    ("E8", "D8"): 135,
    ("F4", "B4"): 3,
    ("G2", "A1xA1"): 3,
}

_EXCEPTIONAL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
                       "F4": 1152, "G2": 12}


def weyl_order(spec: str) -> int:
    """|W| by closed formula, for a type like 'E8', 'D16' or 'A1xD6'."""
    out = 1
    for factor in spec.split("x"):
        if factor in _EXCEPTIONAL_ORDERS:
            out *= _EXCEPTIONAL_ORDERS[factor]
            continue
        fam, n = factor[0], int(factor[1:])
        if fam == "A":
            out *= factorial(n + 1)
        elif fam in "BC":
            out *= 2 ** n * factorial(n)
        elif fam == "D":
            out *= 2 ** (n - 1) * factorial(n)
        else:
            raise ValueError(f"no closed formula for {factor}")
    return out


def check_order(spec: str, order: int) -> list[str]:
    want = weyl_order(spec)
    return [] if order == want else [f"|W({spec})| = {order}, want {want}"]


def check_class_table(spec: str, degrees: list[int], sizes: list[int],
                      cube_sizes: list[int] | None = None) -> list[str]:
    """Involution classes (degrees, sizes) and optionally cube class sizes."""
    problems = []
    if spec in PAPER_DEGREES and tuple(sorted(degrees)) != PAPER_DEGREES[spec]:
        problems.append(f"{spec} degrees {sorted(degrees)} != paper "
                        f"{list(PAPER_DEGREES[spec])}")
    order = weyl_order(spec)
    for size in sizes + (cube_sizes or []):
        if size < 1 or order % size:
            problems.append(f"{spec} class size {size} does not divide |W|")
    ref = REFERENCE["tables"].get(spec)
    if ref is not None:
        if sizes != ref["class_sizes"]:
            problems.append(f"{spec} class sizes {sizes} != reference")
        if sum(sizes) != ref["involutions"]:
            problems.append(f"{spec} involutions {sum(sizes)} != "
                            f"reference {ref['involutions']}")
        if cube_sizes is not None:
            if cube_sizes != ref["cube_class_sizes"]:
                problems.append(f"{spec} cube class sizes != reference")
            if sum(cube_sizes) != ref["cubes"]:
                problems.append(f"{spec} cubes {sum(cube_sizes)} != "
                                f"reference {ref['cubes']}")
    return problems


def check_reduction(ambient: str, sub: str, index: int, odd: bool,
                    covered: int, classes: int) -> list[str]:
    problems = []
    want = PAPER_REDUCTIONS.get((ambient, sub))
    formula = weyl_order(ambient) // weyl_order(sub)
    if index != want or index != formula:
        problems.append(f"({ambient}:{sub}) index {index}, paper {want}, "
                        f"formula {formula}")
    if not odd or index % 2 == 0:
        problems.append(f"({ambient}:{sub}) index not odd")
    if covered != classes or classes == 0:
        problems.append(f"({ambient}:{sub}) covers {covered}/{classes} cube classes")
    return problems


def t_power_text(k: int) -> str:
    return "1" if k == 0 else ("t" if k == 1 else f"t^{k}")


def check_delta_row(i: int, entries: list[tuple[int, str]]) -> list[str]:
    """<sw(cox,i), class> printed per class as (class degree, polynomial)."""
    bad = [(deg, text) for deg, text in entries
           if text != ("1" if deg == i else "0")]
    return [f"sw(cox,{i}) pairs to {text} on a degree-{deg} class"
            for deg, text in bad]


def check_degree_law(degree: int, entries: list[tuple[int, str]]) -> list[str]:
    """A homogeneous degree-d invariant pairs to 0 or t^(d-k)."""
    bad = [(deg, text) for deg, text in entries
           if text != "0" and (deg > degree or text != t_power_text(degree - deg))]
    return [f"degree-{degree} invariant pairs to {text} on a degree-{deg} class"
            for deg, text in bad]


def check_gap_report(spec: str, pairs: list[tuple[int, int, list[int]]]) -> list[str]:
    """(degree, target, gaps) per hard pair, against 2^degree and the hit counts."""
    problems = []
    for degree, target, gaps in pairs:
        if target != 2 ** degree:
            problems.append(f"{spec}: target {target} for degree {degree}")
        problems += [f"{spec}: gap {g} misses target {target}"
                     for g in gaps if abs(g) != target]
    counts = [len(gaps) for _, _, gaps in pairs]
    if counts != REFERENCE["hits"][spec]:
        problems.append(f"{spec}: hits per pair {counts} != reference "
                        f"{REFERENCE['hits'][spec]}")
    return problems


# -- command-line output ---------------------------------------------------


def table_rows(text: str) -> list[list[str]]:
    """Rows of a weylinv table: header and rule dropped, cells split on 2+ spaces."""
    lines = text.splitlines()
    return [re.split(r"\s{2,}", line.strip()) for line in lines[2:]
            if line.strip() and not line.startswith("unseparated")]


_TIMING = re.compile(rb"\(\d+\.\ds\)")


def stdout_digest(data: bytes) -> str:
    """sha256 of stdout, with verify's per-criterion timings masked."""
    return hashlib.sha256(_TIMING.sub(b"(*s)", data)).hexdigest()


def class_degree(class_id: str) -> int:
    return int(class_id[1:class_id.index(".")])


def check_cli_output(key: str, text: str) -> list[str]:
    """Independent checks on one session command's stdout."""
    words = key.split()
    rows = table_rows(text)
    if words[0] == "order":
        return check_order(words[1], int(rows[0][1]))
    if words[0] == "involutions":
        return check_class_table(words[1], [int(r[1]) for r in rows],
                                 [int(r[2]) for r in rows])
    if words[0] == "cubes":
        ref = REFERENCE["tables"][words[1]]
        sizes = [int(r[1]) for r in rows]
        problems = [] if sizes == ref["cube_class_sizes"] else [
            f"{words[1]} cube class sizes != reference"]
        order = weyl_order(words[1])
        return problems + [f"cube class size {s} does not divide |W|"
                           for s in sizes if order % s]
    if words[0] == "basis":
        degrees = tuple(int(d) for d in rows[0][2].split(","))
        return [] if degrees == PAPER_DEGREES[words[1]] else [
            f"{words[1]} basis degrees {degrees} != paper"]
    if words[0] == "reduce":
        amb, sub, index, odd, covered, passed = rows[0]
        got, total = (int(v) for v in covered.split("/"))
        problems = check_reduction(amb, sub, int(index), odd == "True", got, total)
        return problems + ([] if passed == "True" else ["reduce did not pass"])
    if words[0] == "gap":
        pairs = []
        for pair, target, hits in rows:
            gaps = [int(h.rsplit(":", 1)[1]) for h in hits.split("; ")
                    if ":" in h]
            pairs.append((class_degree(pair.split("|")[0]), int(target), gaps))
        return check_gap_report(words[1], pairs)
    if words[0] == "verify":
        lines = text.splitlines()
        return [] if lines and all(l.startswith("PASS ") for l in lines) else [
            "verify reported a failing criterion"]
    raise ValueError(f"no check for {key}")


def check_pair_output(text: str, expr_degrees: list[int]) -> list[str]:
    """The pairing table: sw(cox,i) rows are delta, seeded rows obey the degree law."""
    lines = text.splitlines()
    header = lines[0].split()
    degrees = [class_degree(cid) for cid in header[1:]]
    rows = [line.split() for line in lines[2:] if line and not line.startswith("unseparated")]
    split = len(rows) - len(expr_degrees)
    problems = []
    for i, row in enumerate(rows[:split]):
        if row[0] != f"sw(cox,{i})":
            problems.append(f"row {i} is {row[0]}, want sw(cox,{i})")
        problems += check_delta_row(i, list(zip(degrees, row[1:])))
    for row, degree in zip(rows[split:], expr_degrees):
        problems += check_degree_law(degree, list(zip(degrees, row[-len(degrees):])))
    return problems
