"""Command-line front end: compute, display and verify everything.

Output is deterministic (fixed ordering, no timestamps); identical
invocations produce byte-identical output, except that `verify` prints the
seconds each criterion took.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 internal invariant violation.

Each subcommand imports the modules it calls, and only those: a process
runs one command, and a module it does not import it need not compile or run.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

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


def _emit_table(args, header: list[str], rows: list[list[str]]) -> None:
    if args.csv:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def _emit_json(data) -> None:
    import json

    print(json.dumps(data, indent=2, sort_keys=True))


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

    out = parse_sum()
    if peek() is not None:
        raise ValueError(f"unexpected token {peek()!r}")
    return out


# -- subcommands ----------------------------------------------------------------


def cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    if args.json:
        _emit_json(rs.to_json_dict())
        return EXIT_OK
    lengths = sorted({str(r.norm2) for r in rs.roots})
    _emit_table(args, ["type", "rank", "roots", "positive", "lengths^2"],
                [[str(rs.type_spec), str(rs.rank), str(len(rs.roots)),
                  str(rs.n_positive), ",".join(lengths)]])
    return EXIT_OK


def cmd_order(args) -> int:
    from .weyl import group_order

    rs = build_root_system(args.type)
    order = group_order(rs)
    if args.json:
        _emit_json({"type": str(rs.type_spec), "order": order})
    else:
        _emit_table(args, ["type", "order"], [[str(rs.type_spec), str(order)]])
    return EXIT_OK


def cmd_involutions(args) -> int:
    from .involutions import classify_involutions

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    if args.json:
        _emit_json({
            "type": str(rs.type_spec),
            "classes": [
                {"id": c.class_id, "degree": c.degree, "size": c.size,
                 "splitting_roots": list(c.splitting.roots)}
                for c in classes],
            "involution_count": sum(c.size for c in classes),
        })
        return EXIT_OK
    rows = [[c.class_id, str(c.degree), str(c.size),
             " ".join(map(str, c.splitting.roots))] for c in classes]
    _emit_table(args, ["class", "degree", "size", "splitting"], rows)
    return EXIT_OK


def cmd_cubes(args) -> int:
    from .involutions import classify_cubes

    rs = build_root_system(args.type)
    cube_classes = classify_cubes(rs)
    if args.json:
        _emit_json({
            "type": str(rs.type_spec),
            "cube_classes": [
                {"rank": c.rank, "size": c.size,
                 "representative_roots": list(c.representative.roots)}
                for c in cube_classes],
        })
        return EXIT_OK
    rows = [[str(c.rank), str(c.size),
             " ".join(map(str, c.representative.roots))] for c in cube_classes]
    _emit_table(args, ["rank", "size", "representative"], rows)
    return EXIT_OK


def cmd_basis(args) -> int:
    from .involutions import classify_involutions
    from .invariants import canonical_basis

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    basis = canonical_basis(classes)
    if args.json:
        _emit_json(basis.to_json_dict())
    else:
        _emit_table(args, ["type", "rank", "degrees"],
                    [[basis.type_name, str(basis.rank),
                      ",".join(map(str, basis.degrees))]])
    return EXIT_OK


def cmd_pair(args) -> int:
    from .involutions import classify_involutions
    from .invariants import expand, sw, sw_separation_report
    from .reps import GapBudget, base_catalogue, default_catalogue

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    budget = GapBudget(max_exterior=args.budget)
    base_reps, _ = base_catalogue(rs, budget)
    cox = next(rep for rep in base_reps if rep.descriptor == "cox")
    aliases = _catalogue_aliases(default_catalogue(rs, budget, base_reps))
    exprs = [(f"sw(cox,{i})", sw(cox, i)) for i in range(rs.rank + 1)]
    for text in args.expr:
        exprs.append((text, parse_expression(text, rs, aliases)))
    vectors = [(label, expand(e, classes)) for label, e in exprs]
    separation = sw_separation_report(classes, base_reps)
    if args.json:
        _emit_json({
            "type": str(rs.type_spec),
            "pairings": [
                {"expr": label, **vec.to_json_dict()} for label, vec in vectors],
            "separation": separation.to_json_dict(),
        })
        return EXIT_OK
    header = ["expr"] + [c.class_id for c in classes]
    rows = [[label] + [str(poly) for _, poly in vec.coeffs]
            for label, vec in vectors]
    _emit_table(args, header, rows)
    if separation.unseparated:
        pairs = " ".join(f"{a}|{b}" for a, b in separation.unseparated)
        print(f"unseparated by catalogued sw classes: {pairs}")
    return EXIT_OK


def cmd_reduce(args) -> int:
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
    if args.json:
        _emit_json(report.to_json_dict())
        return EXIT_OK
    _emit_table(args, ["ambient", "subsystem", "index", "odd", "covered", "pass"],
                [[report.ambient_type, report.sub_type, str(report.index),
                  str(report.index_odd),
                  f"{sum(1 for _, _, c in report.cube_classes if c)}/{len(report.cube_classes)}",
                  str(report.passed)]])
    return EXIT_OK


def cmd_gap(args) -> int:
    from .involutions import classify_involutions
    from .reps import GapBudget, base_catalogue, default_catalogue, hard_case_reports

    rs = build_root_system(args.type)
    classes = classify_involutions(rs)
    budget = GapBudget(max_exterior=args.budget)
    base, skipped = base_catalogue(rs, budget)
    reports = hard_case_reports(classes, default_catalogue(rs, budget, base))
    if args.json:
        _emit_json({"type": str(rs.type_spec),
                    "partial": bool(skipped),
                    "skipped": skipped,
                    "reports": [r.to_json_dict() for r in reports]})
        return EXIT_OK
    rows = []
    for r in reports:
        hits = "; ".join(f"{d}:{g:+d}" for d, g in r.hits) or "none found in catalogue"
        rows.append([f"{r.pair[0]}|{r.pair[1]}", str(r.target), hits])
    _emit_table(args, ["pair", "target", "hits"], rows)
    if skipped:
        print(f"partial: catalogue skipped oversized orbits: {', '.join(skipped)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_acceptance

    tier = "fast" if args.fast else ("full" if args.full else "default")
    results = run_acceptance(tier)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


_DISPATCH = {
    "roots": cmd_roots,
    "order": cmd_order,
    "involutions": cmd_involutions,
    "cubes": cmd_cubes,
    "basis": cmd_basis,
    "pair": cmd_pair,
    "reduce": cmd_reduce,
    "gap": cmd_gap,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
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
