"""One pass of an in-process workload (tables-e8 or characters), in a fresh interpreter.

    python3 bench/worker.py --workload tables-e8 --seed 1 --trace 0 \
        --run-id tables-e8/1/0 --out result.json [--setup-only]

The pass imports weylinv, does the workload's set-up, runs its jobs once
(the timed part), then checks every job's output outside the timed part.
It writes one JSON result: the monotonic time set-up ended, the timed
interval, per-job output digests and problems, layer counts and, when
tracing, the spans.  bench/run.py starts it and reads the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import traceback
from itertools import combinations

import checks
import inputs
from spans import Tracer

import numpy as np
import weylinv
from weylinv import (GapBudget, base_catalogue, build_root_system,
                     canonical_basis, classify_cubes, classify_involutions,
                     default_catalogue, expand, find_subsystem, group_order,
                     search_gap, stab_chain, sw, sw_separation_report,
                     verify_reduction)
from weylinv.invariants import InvariantExpr
from weylinv.verify import HARD_CASE_DEGREES
from weylinv.weyl import GroupElement


class Pass:
    """State shared by one pass's jobs: tracer, seed and layer counts."""

    def __init__(self, tracer: Tracer, seed: int):
        self.span = tracer.span
        self.seed = seed
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def build(self, spec: str):
        with self.span("roots.build"):
            rs = build_root_system(spec)
        self.count("roots.roots", len(rs.roots))
        return rs

    def order(self, rs) -> int:
        with self.span("weyl.group_order"):
            order = group_order(rs)
            chain = stab_chain(rs)
        self.count("weyl.base_points", len(chain.base))
        self.count("weyl.orbit_points",
                   sum(len(level.transversal) for level in chain.levels))
        return order

    def classify(self, rs):
        with self.span("involutions.classify"):
            classes = classify_involutions(rs)
        self.count("involutions.classes", len(classes))
        self.count("involutions.count", sum(c.size for c in classes))
        return classes

    def reduce(self, rs, sub: str):
        with self.span("roots.find_subsystem"):
            emb = find_subsystem(rs, sub)
        with self.span("involutions.reduce"):
            return verify_reduction(rs, emb)


def _class_rows(classes) -> list:
    return [[c.class_id, c.degree, c.size, list(c.splitting.roots)]
            for c in classes]


def _reduction_problems(report) -> list[str]:
    covered = sum(1 for _, _, c in report.cube_classes if c)
    return checks.check_reduction(report.ambient_type, report.sub_type,
                                  report.index, report.index_odd, covered,
                                  len(report.cube_classes))


# -- tables-e8 -----------------------------------------------------------------


def tables_setup(p: Pass) -> dict:
    return {}


def tables_e8_job(p: Pass, state: dict):
    rs = p.build("E8")
    with p.span("roots.reflections"):
        for i in range(rs.n_positive):
            rs.reflection_perm(i)
    order = p.order(rs)
    classes = p.classify(rs)
    with p.span("involutions.cubes"):
        cubes = classify_cubes(rs)
    p.count("involutions.cube_classes", len(cubes))
    p.count("involutions.cubes", sum(c.size for c in cubes))
    with p.span("invariants.basis"):
        basis = canonical_basis(classes)
    report = p.reduce(rs, "D8")
    out = {"order": order, "classes": _class_rows(classes),
           "cubes": [[c.rank, c.size, list(c.representative.roots)] for c in cubes],
           "basis": basis.to_json_dict(), "reduction": report.to_json_dict()}

    def check() -> list[str]:
        return (checks.check_order("E8", order)
                + checks.check_class_table("E8", list(basis.degrees),
                                           [c.size for c in classes],
                                           [c.size for c in cubes])
                + _reduction_problems(report))
    return out, check


def reduction_job(ambient: str, sub: str):
    def job(p: Pass, state: dict):
        rs = p.build(ambient)
        order = p.order(rs)
        report = p.reduce(rs, sub)

        def check() -> list[str]:
            problems = checks.check_order(ambient, order) + _reduction_problems(report)
            if ambient in checks.PAPER_DEGREES:
                # outside the timed part: the paper's degree multiset for this type
                classes = classify_involutions(rs)
                problems += checks.check_class_table(
                    ambient, list(canonical_basis(classes).degrees),
                    [c.size for c in classes])
            return problems
        return {"order": order, "reduction": report.to_json_dict()}, check
    return job


# -- characters ------------------------------------------------------------------

CHARACTER_TYPES = ("D6", "E7", "E8")
SEEDED_EXPRESSIONS = 3


def characters_setup(p: Pass) -> dict:
    state = {}
    for spec in CHARACTER_TYPES:
        rs = p.build(spec)
        state[spec] = (rs, p.classify(rs),
                       inputs.expressions(p.seed, spec, rs.rank, SEEDED_EXPRESSIONS))
    return state


def _alias(descriptor: str) -> str:
    return "".join(ch for ch in descriptor if ch.isalnum())


def _build_expression(expr: inputs.Expression, reps: dict, rs) -> InvariantExpr:
    total = InvariantExpr.zero(rs)
    for a, factors in expr.monomials:
        term = InvariantExpr.one(rs).scale_t(a)
        for rep, i in factors:
            term = term * sw(reps[rep], i)
        total = total + term
    return total


def _conjugate(rs, g: GroupElement, word: list[int]) -> GroupElement:
    """w g w^-1 for w the product of the given simple reflections."""
    w = np.arange(len(rs.roots))
    for k in word:
        w = w[rs.reflection_perm(rs.simple_indices[k])]
    w_inv = np.argsort(w)
    return GroupElement(w[g.images[w_inv]].astype(g.images.dtype), rs)


def characters_job(spec: str):
    def job(p: Pass, state: dict):
        rs, classes, exprs = state[spec]
        with p.span("reps.catalogue"):
            catalogue = default_catalogue(rs, GapBudget())
            base, skipped = base_catalogue(rs, GapBudget())
        p.count("reps.catalogue_size", len(catalogue))
        pairs = [(a, b) for degree in HARD_CASE_DEGREES[spec]
                 for a, b in combinations([c for c in classes if c.degree == degree], 2)]
        with p.span("reps.search_gap"):
            findings = [search_gap(rs, a, b, catalogue=catalogue) for a, b in pairs]
        p.count("reps.pairs", len(pairs))
        p.count("reps.hits", sum(len(f.hits) for f in findings))
        p.count("reps.trace_evals", 2 * len(catalogue) * len(pairs))
        reps = {_alias(r.descriptor): r for r in base}
        with p.span("invariants.expand"):
            deltas = [expand(sw(reps["cox"], i), classes) for i in range(rs.rank + 1)]
            seeded = [expand(_build_expression(e, reps, rs), classes) for e in exprs]
        p.count("invariants.pairings", len(classes) * (len(deltas) + len(seeded)))
        with p.span("invariants.separation"):
            separation = sw_separation_report(classes, base)
        p.count("invariants.unseparated", len(separation.unseparated))
        out = {"catalogue": [r.descriptor for r in catalogue], "skipped": skipped,
               "findings": [f.to_json_dict() for f in findings],
               "deltas": [v.to_json_dict() for v in deltas],
               "seeded": [[e.text, v.to_json_dict()] for e, v in zip(exprs, seeded)],
               "separation": separation.to_json_dict()}

        def check() -> list[str]:
            degrees = [c.degree for c in classes]
            problems = checks.check_class_table(spec, degrees, [c.size for c in classes])
            for i, vec in enumerate(deltas):
                problems += checks.check_delta_row(
                    i, [(d, str(poly)) for d, (_, poly) in zip(degrees, vec.coeffs)])
            for e, vec in zip(exprs, seeded):
                problems += checks.check_degree_law(
                    e.degree, [(d, str(poly)) for d, (_, poly) in zip(degrees, vec.coeffs)])
            problems += checks.check_gap_report(
                spec, [(f.degree, f.target, [g for _, g in f.hits]) for f in findings])
            problems += _recompute_hits(p.seed, spec, rs, pairs, findings, catalogue)
            unseparated = [list(pair) for pair in separation.unseparated]
            if unseparated != checks.REFERENCE["unseparated"][spec]:
                problems.append(f"{spec}: unseparated {unseparated} != reference")
            if skipped:
                problems.append(f"{spec}: catalogue is partial: {skipped}")
            return problems
        return out, check
    return job


def _recompute_hits(seed, spec, rs, pairs, findings, catalogue) -> list[str]:
    """Every hit, recomputed by Representation.trace on seeded random conjugates."""
    rng = inputs.rng_for(seed, "conjugates", spec)
    by_descriptor = {r.descriptor: r for r in catalogue}
    problems = []
    for (a, b), found in zip(pairs, findings):
        for descriptor, gap in found.hits:
            ga = _conjugate(rs, a.representative.element,
                            inputs.random_word(rng, rs.rank))
            gb = _conjugate(rs, b.representative.element,
                            inputs.random_word(rng, rs.rank))
            rep = by_descriptor[descriptor]
            if rep.trace(ga) - rep.trace(gb) != gap:
                problems.append(f"{spec} {a.class_id}|{b.class_id}: {descriptor} "
                                f"gap {gap} does not recompute")
    return problems


WORKLOADS = {
    "tables-e8": (tables_setup, [
        ("E8", tables_e8_job),
        ("E6:D5", reduction_job("E6", "D5")),
        ("E7:A1xD6", reduction_job("E7", "A1xD6")),
        ("F4:B4", reduction_job("F4", "B4")),
        ("G2:A1xA1", reduction_job("G2", "A1xA1")),
    ]),
    "characters": (characters_setup,
                   [(spec, characters_job(spec)) for spec in CHARACTER_TYPES]),
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer(bool(args.trace), args.run_id)
    p = Pass(tracer, args.seed)
    setup, jobs = WORKLOADS[args.workload]
    state = setup(p)
    result = {"ready": time.monotonic(), "weylinv_file": weylinv.__file__,
              "numpy": np.__version__}
    if not args.setup_only:
        done = []
        start = time.perf_counter()
        for name, job in jobs:
            try:
                done.append((name, *job(p, state)))
            except Exception:
                done.append((name, None, traceback.format_exc()))
        end = time.perf_counter()
        result.update(timed_start=start, timed_end=end, counts=p.counts,
                      spans=tracer.to_json(), jobs=[])
        for name, out, check in done:
            if out is None:
                problems = [f"raised: {check}"]
            else:
                try:
                    problems = check()
                except Exception:
                    problems = [f"check raised: {traceback.format_exc()}"]
            result["jobs"].append({"name": name, "problems": problems,
                                   "digest": _digest(out)})
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
