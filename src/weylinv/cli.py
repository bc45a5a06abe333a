"""Command-line front end: compute, cache, display and verify everything.

Output is deterministic (fixed ordering, no timestamps); identical
invocations produce byte-identical output.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

from .roots import InternalError, build_root_system, find_subsystem
from .weyl import group_order
from .involutions import (CacheError, atlas_from_json_dict, atlas_json_bytes,
                          classify_cubes, classify_involutions,
                          verify_reduction)
from .invariants import (InvariantExpr, canonical_basis, expand, sw,
                         sw_separation_report)
from .reps import GapBudget, base_catalogue, default_catalogue
from .verify import REDUCTION_PAIRS, hard_case_reports, run_acceptance

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_REDUCTION_TARGETS = {amb: sub for amb, sub, _ in REDUCTION_PAIRS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylinv",
        description="Involution classes and mod-2 invariant bases of Weyl groups")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--csv", action="store_true", help="emit CSV tables")
    parser.add_argument("--cache-dir", default=None,
                        help="atlas cache directory (default $WEYL_CACHE or ./.weylcache)")
    parser.add_argument("--budget", type=int, default=4,
                        help="maximum exterior power in the gap-search catalogue")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_type in [
            ("roots", True), ("order", True), ("involutions", True),
            ("cubes", True), ("basis", True), ("pair", True),
            ("reduce", True), ("gap", True)]:
        p = sub.add_parser(name)
        if needs_type:
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
                      help="rank <= 4 oracle suite only")
    tier.add_argument("--full", action="store_true",
                      help="include the E7/E8 pairing tables")
    return parser


def _cache_dir(args) -> Path:
    return Path(args.cache_dir or os.environ.get("WEYL_CACHE") or ".weylcache")


def _atlas(args, rs):
    """Classification with a validated on-disk JSON cache."""
    path = _cache_dir(args) / f"{rs.type_spec}.json"
    if path.exists():
        try:
            data = json.loads(path.read_text())
            return atlas_from_json_dict(rs, data)
        except (CacheError, json.JSONDecodeError, OSError) as exc:
            print(f"warning: cache {path} unusable ({exc}); recomputing",
                  file=sys.stderr)
    classes = classify_involutions(rs)
    cube_classes = classify_cubes(rs)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(atlas_json_bytes(rs))
    except OSError as exc:
        print(f"warning: could not write cache {path}: {exc}", file=sys.stderr)
    return classes, cube_classes


def _emit_table(args, header: list[str], rows: list[list[str]]) -> None:
    if args.csv:
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
    print(json.dumps(data, indent=2, sort_keys=True))


# -- the expression mini-language ---------------------------------------------


_TOKEN_RE = re.compile(r"\s*(sw|t|\d+|[A-Za-z][A-Za-z0-9]*|[()+*^,])")


def _catalogue_aliases(rs, budget: GapBudget) -> dict:
    aliases = {}
    for rep in default_catalogue(rs, budget):
        alias = re.sub(r"[^A-Za-z0-9]", "", rep.descriptor
                       .replace("+", "plus").replace("-", "minus"))
        aliases.setdefault(alias, rep)
    return aliases


def parse_expression(text: str, rs, budget: GapBudget) -> InvariantExpr:
    """Parse sums/products of t-powers and sw(<rep>, k) factors."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize expression at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    aliases = _catalogue_aliases(rs, budget)
    idx = 0

    def peek():
        return tokens[idx]

    def take(expected=None):
        nonlocal idx
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

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
            exponent = int(take())
            out = InvariantExpr.one(rs)
            for _ in range(exponent):
                out = out * base
            base = out
        return base

    def parse_atom():
        tok = take()
        if tok == "(":
            inner = parse_sum()
            take(")")
            return inner
        if tok == "t":
            return InvariantExpr.t(rs)
        if tok == "sw":
            take("(")
            name = take()
            rep = aliases.get(name)
            if rep is None:
                raise ValueError(
                    f"unknown representation {name!r}; known: {', '.join(sorted(aliases))}")
            take(",")
            i = int(take())
            take(")")
            return sw(rep, i)
        if tok.isdigit():
            value = int(tok) % 2
            return InvariantExpr.one(rs) if value else InvariantExpr.zero(rs)
        raise ValueError(f"unexpected token {tok!r}")

    out = parse_sum()
    take("$")
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
    rs = build_root_system(args.type)
    order = group_order(rs)
    if args.json:
        _emit_json({"type": str(rs.type_spec), "order": order})
    else:
        _emit_table(args, ["type", "order"], [[str(rs.type_spec), str(order)]])
    return EXIT_OK


def cmd_involutions(args) -> int:
    rs = build_root_system(args.type)
    classes, _ = _atlas(args, rs)
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
    rs = build_root_system(args.type)
    _, cube_classes = _atlas(args, rs)
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
    rs = build_root_system(args.type)
    classes, _ = _atlas(args, rs)
    basis = canonical_basis(classes)
    if args.json:
        _emit_json(basis.to_json_dict())
    else:
        _emit_table(args, ["type", "rank", "degrees"],
                    [[basis.type_name, str(basis.rank),
                      ",".join(map(str, basis.degrees))]])
    return EXIT_OK


def cmd_pair(args) -> int:
    rs = build_root_system(args.type)
    classes, _ = _atlas(args, rs)
    budget = GapBudget(max_exterior=args.budget)
    from .reps import coxeter_rep
    cox = coxeter_rep(rs)
    exprs = [(f"sw(cox,{i})", sw(cox, i)) for i in range(rs.rank + 1)]
    for text in args.expr:
        exprs.append((text, parse_expression(text, rs, budget)))
    vectors = [(label, expand(e, classes)) for label, e in exprs]
    base_reps, _ = base_catalogue(rs, budget)
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
    rs = build_root_system(args.type)
    target = args.target or _REDUCTION_TARGETS.get(str(rs.type_spec))
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
    rs = build_root_system(args.type)
    _atlas(args, rs)
    budget = GapBudget(max_exterior=args.budget)
    _, skipped = base_catalogue(rs, budget)
    reports = hard_case_reports(str(rs.type_spec), budget)
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
