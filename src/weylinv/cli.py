"""Command-line front end: compute, display and verify everything.

Output is deterministic (fixed ordering, no timestamps); identical
invocations produce byte-identical output, except that `verify` prints the
seconds each criterion took.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 internal invariant violation.  A reader that
closes stdout early is no error: the exit code is what was found by then.

Each subcommand imports the modules it calls, and only those: a process
runs one command, and a module it does not import it need not compile or run.
A subcommand returns what it found as an `Output`; `render` alone decides
between --json, --csv and the plain table.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .roots import InternalError, build_root_system, find_subsystem

if TYPE_CHECKING:
    from .invariants import InvariantExpr

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylinv",
        description="Involution classes and mod-2 invariant bases of Weyl groups")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--csv", action="store_true", help="emit CSV tables")
    parser.add_argument("--budget", type=int, default=4,
                        help="maximum exterior power in the gap-search catalogue")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("roots", "order", "involutions", "cubes", "basis", "pair", "reduce", "gap"):
        p = sub.add_parser(name)
        p.add_argument("type", help="type spec, e.g. E8 or A1xD6")
        if name == "pair":
            p.add_argument("--expr", action="append", default=[],
                           help="extra invariant expression, e.g. 'sw(cox,1)*sw(cox,2)+t*sw(cox,1)'")
        if name == "reduce":
            p.add_argument("--target", default=None,
                           help="subsystem type (default: the built-in reduction partner)")

    v = sub.add_parser("verify")
    tier = v.add_mutually_exclusive_group()
    tier.add_argument("--fast", action="store_true",
                      help="criterion 1 on A1-A4, 2-3 on F4/G2 and 7 on D6, so no "
                           "E7/E8; the rest as by default (criterion 4 on all 28 "
                           "types of rank <= 6, E6 and D6 included)")
    tier.add_argument("--full", action="store_true",
                      help="include the E7/E8 pairing tables")
    return parser


class Output(NamedTuple):
    """A command's result: a table, its JSON document and closing notes.

    Only --json calls `payload`; CSV and plain text read `rows`, which may
    be lazy, and then print `notes`.  With `line`, plain text is one line
    per row as it arrives, not an aligned table.  `status` gives the exit
    code once the output is printed.
    """

    header: list[str]
    rows: Iterable[Sequence]
    payload: Callable[[], object]
    notes: Sequence[str] = ()
    line: Callable[[Sequence], str] | None = None
    status: Callable[[], int] = lambda: EXIT_OK


def render(args, out: Output) -> int:
    """Print `out` in the one format the global options ask for."""
    if args.json:
        import json

        print(json.dumps(out.payload(), indent=2, sort_keys=True))
        return out.status()
    if args.csv:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows)
    elif out.line:
        for row in out.rows:
            print(out.line(row))
    else:
        table = [out.header, *out.rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
        lines.insert(1, "-" * len(lines[0]))
        print("\n".join(lines))
    for note in out.notes:
        print(note)
    return out.status()


# -- the expression mini-language ---------------------------------------------


# whole identifiers, so triv1 is one name, not t and riv1; sw and t are keywords
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|[()+*^,])")

MAX_EXPONENT = 64  # `^N` multiplies N times, so larger N is refused


def _catalogue_aliases(catalogue) -> dict:
    aliases = {}
    for rep in catalogue:
        alias = re.sub(r"[^A-Za-z0-9]", "", rep.descriptor
                       .replace("+", "plus").replace("-", "minus"))
        aliases.setdefault(alias, rep)
    return aliases


def parse_expression(text: str, rs, aliases: dict) -> InvariantExpr:
    """Parse sums/products of t-powers and sw(<rep>, k) factors.

    `aliases` maps the names usable in sw(...) to representations.
    """
    from .invariants import InvariantExpr, sw

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize expression at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take(expected=None, what=None):
        """The next token, which must be `expected` if that is given; an
        error names the token wanted as `what`, else as `expected`."""
        nonlocal idx
        tok = peek()
        if tok is None or expected is not None and tok != expected:
            found = "end of expression" if tok is None else repr(tok)
            raise ValueError(f"expected {what or repr(expected)}, found {found}")
        idx += 1
        return tok

    def take_number(what):
        tok = take(what=what)
        if not tok.isdecimal():
            raise ValueError(f"expected {what}, found {tok!r}")
        return int(tok)

    def parse_sum():
        acc = parse_product()
        while peek() == "+":
            take("+")
            acc = acc + parse_product()
        return acc

    def parse_product():
        acc = parse_power()
        while peek() == "*":
            take("*")
            acc = acc * parse_power()
        return acc

    def parse_power():
        base = parse_atom()
        while peek() == "^":
            take("^")
            exponent = take_number("an exponent after '^'")
            if exponent > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}")
            out = InvariantExpr.one(rs)
            for _ in range(exponent):
                out = out * base
            base = out
        return base

    def parse_atom():
        tok = take(what="a term")
        if tok == "(":
            inner = parse_sum()
            take(")")
            return inner
        if tok == "t":
            return InvariantExpr.t(rs)
        if tok == "sw":
            take("(")
            name = take(what="a representation")
            rep = aliases.get(name)
            if rep is None:
                raise ValueError(
                    f"unknown representation {name!r}; known: {', '.join(sorted(aliases))}")
            take(",")
            i = take_number("an sw index")
            take(")")
            return sw(rep, i)
        if tok.isdigit():
            value = int(tok) % 2
            return InvariantExpr.one(rs) if value else InvariantExpr.zero(rs)
        raise ValueError(f"unexpected token {tok!r}")

    try:
        out = parse_sum()
    except RecursionError:
        raise ValueError("expression nests too deeply") from None
    if peek() is not None:
        raise ValueError(f"unexpected token {peek()!r}")
    return out


# -- subcommands ----------------------------------------------------------------


def cmd_roots(args) -> Output:
    rs = build_root_system(args.type)

    def rows():  # the Root objects are built for a table only
        lengths = sorted({str(r.norm2) for r in rs.roots})
        yield [str(rs.type_spec), str(rs.rank), str(len(rs.roots)),
               str(rs.n_positive), ",".join(lengths)]

    return Output(["type", "rank", "roots", "positive", "lengths^2"], rows(),
                  rs.to_json_dict)


def cmd_order(args) -> Output:
    from .weyl import group_order

    rs = build_root_system(args.type)
    order = group_order(rs)
    return Output(["type", "order"], [[str(rs.type_spec), str(order)]],
                  lambda: {"type": str(rs.type_spec), "order": order})


def cmd_involutions(args) -> Output:
    from .involutions import classify_involutions

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    rows = [[c.class_id, str(c.degree), str(c.size),
             " ".join(map(str, c.splitting.roots))] for c in classes]
    return Output(["class", "degree", "size", "splitting"], rows, lambda: {
        "type": str(rs.type_spec),
        "classes": [
            {"id": c.class_id, "degree": c.degree, "size": c.size,
             "splitting_roots": list(c.splitting.roots)}
            for c in classes],
        "involution_count": sum(c.size for c in classes),
    })


def cmd_cubes(args) -> Output:
    from .involutions import classify_cubes

    rs = build_root_system(args.type)
    cube_classes = classify_cubes(rs)
    rows = [[str(c.rank), str(c.size),
             " ".join(map(str, c.representative.roots))] for c in cube_classes]
    return Output(["rank", "size", "representative"], rows, lambda: {
        "type": str(rs.type_spec),
        "cube_classes": [
            {"rank": c.rank, "size": c.size,
             "representative_roots": list(c.representative.roots)}
            for c in cube_classes],
    })


def cmd_basis(args) -> Output:
    from .involutions import classify_involutions
    from .invariants import canonical_basis

    rs = build_root_system(args.type)
    basis = canonical_basis(classify_involutions(rs))
    return Output(["type", "rank", "degrees"],
                  [[basis.type_name, str(basis.rank),
                    ",".join(map(str, basis.degrees))]],
                  basis.to_json_dict)


def cmd_pair(args) -> Output:
    from .involutions import classify_involutions
    from .invariants import expand, sw, sw_separation_report
    from .reps import GapBudget, base_catalogue, default_catalogue

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    budget = GapBudget(max_exterior=args.budget)
    base_reps, _ = base_catalogue(rs, budget)
    cox = next(rep for rep in base_reps if rep.descriptor == "cox")
    aliases = _catalogue_aliases(default_catalogue(rs, budget))
    exprs = [(f"sw(cox,{i})", sw(cox, i)) for i in range(rs.rank + 1)]
    for text in args.expr:
        exprs.append((text, parse_expression(text, rs, aliases)))
    vectors = [(label, expand(e, classes)) for label, e in exprs]
    separation = sw_separation_report(classes, base_reps)
    rows = [[label] + [str(poly) for _, poly in vec.coeffs]
            for label, vec in vectors]
    unseparated = " ".join(f"{a}|{b}" for a, b in separation.unseparated)
    return Output(
        ["expr"] + [c.class_id for c in classes], rows, lambda: {
            "type": str(rs.type_spec),
            "pairings": [
                {"expr": label, **vec.to_json_dict()} for label, vec in vectors],
            "separation": separation.to_json_dict(),
        },
        [f"unseparated by catalogued sw classes: {unseparated}"] if unseparated else [])


def cmd_reduce(args) -> Output:
    from .involutions import REDUCTION_PAIRS, verify_reduction

    rs = build_root_system(args.type)
    targets = {amb: sub for amb, sub, _ in REDUCTION_PAIRS}
    target = args.target or targets.get(str(rs.type_spec))
    if target is None:
        raise ValueError(
            f"no built-in reduction for {rs.type_spec}; pass --target")
    emb = find_subsystem(rs, target)
    if emb is None:
        raise ValueError(f"{rs.type_spec} has no subsystem of type {target}")
    report = verify_reduction(rs, emb)
    covered = sum(1 for _, _, c in report.cube_classes if c)
    return Output(["ambient", "subsystem", "index", "odd", "covered", "pass"],
                  [[report.ambient_type, report.sub_type, str(report.index),
                    str(report.index_odd),
                    f"{covered}/{len(report.cube_classes)}", str(report.passed)]],
                  report.to_json_dict)


def cmd_gap(args) -> Output:
    from .involutions import classify_involutions
    from .reps import GapBudget, base_catalogue, default_catalogue, hard_case_reports

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    budget = GapBudget(max_exterior=args.budget)
    _, skipped = base_catalogue(rs, budget)
    reports = hard_case_reports(classes, default_catalogue(rs, budget))
    rows = [[f"{r.pair[0]}|{r.pair[1]}", str(r.target),
             "; ".join(f"{d}:{g:+d}" for d, g in r.hits) or "none found in catalogue"]
            for r in reports]
    return Output(
        ["pair", "target", "hits"], rows, lambda: {
            "type": str(rs.type_spec), "partial": bool(skipped), "skipped": skipped,
            "reports": [r.to_json_dict() for r in reports]},
        [f"partial: catalogue skipped oversized orbits: {', '.join(skipped)}"]
        if skipped else [])


def cmd_verify(args) -> Output:
    from .verify import CheckResult, run_acceptance

    tier = "fast" if args.fast else ("full" if args.full else "default")
    done = []

    def run():  # keeps each result for `status` as the renderer reads it
        for result in run_acceptance(tier):
            done.append(result)
            yield result

    rows = run()
    return Output(
        list(CheckResult._fields), rows, lambda: [r._asdict() for r in rows],
        line=lambda r: f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.seconds:.1f}s): {r.detail}",
        status=lambda: EXIT_OK if all(r.ok for r in done) else EXIT_VERIFY_FAILED)


_DISPATCH = {name.removeprefix("cmd_"): command for name, command in globals().items()
             if name.startswith("cmd_")}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        out = _DISPATCH[args.command](args)
        try:
            status = render(args, out)
            sys.stdout.flush()  # so a reader that left shows here, not at exit
        except BrokenPipeError:  # what is left goes nowhere, and that is no error
            devnull = os.open(os.devnull, os.O_WRONLY)  # for the flush at exit
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            status = out.status()
        return status
    except InternalError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 1 means "verification failed", not a crash
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
