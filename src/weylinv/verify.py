"""The acceptance battery: every checkable claim, with independent oracles.

Each criterion maps (system, full) to (passed, detail), where system builds
a type's RootSystem; run_acceptance hands all criteria one memoized builder,
so a run builds each type once and frees it at the end, and yields one
CheckResult per criterion as it finishes.  The oracle side deliberately
avoids the fast pipeline: involution censuses come from full breadth-first
group enumeration, determinants from Fraction elimination.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .roots import RootSystem, build_root_system, find_subsystem
from .weyl import (GroupElement, compose, coxeter_trace, element_matrix,
                   enumerate_group, identity, invert, orbit_partition,
                   simple_reflections)
from .involutions import (REDUCTION_PAIRS, Cube, Involution, InvolutionClass,
                          ReductionReport, classify_involutions, enumerate_cubes,
                          involution_from_cube, split_involution,
                          verify_reduction)
from .invariants import (BasePoly, CubeClassElement, InvariantExpr,
                         canonical_basis, pairing, restrict_to_cube, sw,
                         top_coefficient, total_class)
# HARD_CASE_DEGREES is not used here; callers read it as verify.HARD_CASE_DEGREES
from .reps import (HARD_CASE_DEGREES, GapBudget, coxeter_rep, default_catalogue,
                   direct_sum, exterior_cox_rep, hard_case_reports,
                   perm_roots_rep, sign_rep, trivial_rep)

ORACLE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4",
                "G2", "A1xA1", "A1xA2")

RANK6_TYPES = tuple(
    [f"A{r}" for r in range(1, 7)] + [f"B{r}" for r in range(1, 7)]
    + [f"C{r}" for r in range(1, 7)] + [f"D{r}" for r in range(2, 7)]
    + ["E6", "F4", "G2", "A1xA1", "A1xA2"])

System = Callable[[str], RootSystem]


class CheckResult(NamedTuple):
    """One criterion's outcome: the record `weylinv --json verify` prints."""

    name: str
    ok: bool
    seconds: float
    detail: str


# -- independent oracles -------------------------------------------------------


def det_fraction(mat) -> Fraction:
    """Determinant by exact Gaussian elimination; the Lambda-identity oracle."""
    m = [[Fraction(int(v)) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if m[r][col]), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                c = m[r][col] * inv
                m[r] = [a - c * b for a, b in zip(m[r], m[col])]
    return det


def brute_force_census(rs: RootSystem) -> list[tuple[int, int]]:
    """(degree, size) of every involution class, by full group enumeration."""
    elems = enumerate_group(rs)
    invs = {g.images.tobytes(): g for g in elems
            if compose(g, g).is_identity()}
    gens = simple_reflections(rs)

    def conj_action(s: GroupElement) -> Callable[[bytes], bytes]:
        def act(key: bytes) -> bytes:
            g = invs[key]
            return compose(compose(s, g), s).images.tobytes()
        return act

    census = []
    for component in orbit_partition(sorted(invs), [conj_action(s) for s in gens]):
        g = invs[component[0]]
        degree = (rs.rank - coxeter_trace(g)) // 2
        census.append((degree, len(component)))
    return sorted(census)


def random_element(rs: RootSystem, rng: random.Random) -> GroupElement:
    gens = simple_reflections(rs)
    w = identity(rs)
    for _ in range(16):
        w = compose(w, rng.choice(gens))
    return w


def random_conjugate(cls: InvolutionClass, rng: random.Random) -> Involution:
    w = random_element(cls.home, rng)
    g = compose(compose(w, cls.representative.element), invert(w))
    return Involution(g)


# -- criteria -------------------------------------------------------------------


def check_basis_tables(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 1: ranks and degree multisets of the canonical bases."""
    notes = []
    ok = True
    for n in range(2, 9 if full else 6):
        rs = system(f"A{n - 1}")
        basis = canonical_basis(classify_involutions(rs))
        want_rank = 1 + n // 2
        want_degrees = tuple(range(0, n // 2 + 1))
        if basis.rank != want_rank or basis.degrees != want_degrees:
            ok = False
            notes.append(f"A{n - 1}: got rank {basis.rank} degrees {basis.degrees}")
    targets = []
    if full:
        targets += [("E6", (0, 1, 2, 3, 4), 60.0),
                    ("E7", (0, 1, 2, 3, 3, 4, 4, 5, 6, 7), 60.0),
                    ("E8", (0, 1, 2, 3, 4, 4, 5, 6, 7, 8), 120.0)]
    for name, want, limit in targets:
        t0 = time.monotonic()  # cold: a run builds these first, as criterion 1 runs first
        basis = canonical_basis(classify_involutions(system(name)))
        dt = time.monotonic() - t0
        if basis.degrees != want:
            ok = False
            notes.append(f"{name}: degrees {basis.degrees} != {want}")
        elif dt > limit:
            ok = False
            notes.append(f"{name}: took {dt:.1f}s > {limit:.0f}s")
        else:
            notes.append(f"{name} rank {basis.rank} in {dt:.1f}s")
        if name == "E8" and basis.degrees.count(4) != 2:
            ok = False
            notes.append("E8: expected exactly two degree-4 classes")
    return ok, "; ".join(notes)


def _reductions(system: System, full: bool) -> Iterator[tuple[str, str, int, ReductionReport]]:
    """(ambient, subsystem, index, report) of each reduction the tier checks."""
    for amb, sub, index in REDUCTION_PAIRS:
        if not full and amb in ("E6", "E7", "E8"):
            continue
        rs = system(amb)
        yield amb, sub, index, verify_reduction(rs, find_subsystem(rs, sub))


def check_reduction_indices(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 2: the five odd subgroup indices, exactly."""
    notes = []
    ok = True
    for amb, sub, want, report in _reductions(system, full):
        if report.index != want or not report.index_odd:
            ok = False
        notes.append(f"({amb}:{sub})={report.index}")
    return ok, " ".join(notes)


def check_cube_coverage(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 3: every cube class of G meets the reduction subsystem."""
    notes = []
    ok = True
    for amb, _, _, report in _reductions(system, full):
        covered = sum(1 for _, _, c in report.cube_classes if c)
        notes.append(f"{amb}: {covered}/{len(report.cube_classes)}")
        if not report.all_covered:
            ok = False
    return ok, " ".join(notes)


def check_pairing_delta(system: System, full: bool = False) -> tuple[bool, str]:
    """Criterion 4: <sw(Cox,i), class> = 1 iff i equals the class degree."""
    names = RANK6_TYPES + (("E7", "E8") if full else ())
    bad = []
    for name in names:
        rs = system(name)
        classes = classify_involutions(rs)
        cox = coxeter_rep(rs)
        for cls in classes:
            for i in range(rs.rank + 1):
                value = pairing(sw(cox, i), cls)
                want = BasePoly.one() if i == cls.degree else BasePoly.zero()
                if value != want:
                    bad.append(f"{name}:{cls.class_id}:i={i}")
    detail = f"{len(names)} types, all delta" if not bad else "; ".join(bad[:6])
    return not bad, detail


def _pairing_battery(rs: RootSystem) -> list[InvariantExpr]:
    cox = coxeter_rep(rs)
    exprs = [sw(cox, i) for i in range(rs.rank + 1)]
    exprs += [sw(cox, i) * sw(cox, j)
              for i in range(1, rs.rank + 1) for j in range(i, rs.rank + 1)]
    exprs += [e.scale_t() for e in list(exprs)]
    return exprs


def check_splitting_independence(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 5: pairings agree across splittings and random conjugates."""
    rng = random.Random(20260808)
    checked_cubes = 0
    checked_conj = 0
    for name in ("B2", "B4", "D4", "F4"):
        rs = system(name)
        classes = classify_involutions(rs)
        battery = _pairing_battery(rs)
        by_mask: dict[int, list[Cube]] = {}
        for cube in enumerate_cubes(rs):
            inv = involution_from_cube(cube)
            by_mask.setdefault(inv.mask, []).append(cube)
        for mask, cubes in sorted(by_mask.items()):
            if len(cubes) < 2:
                continue
            reference = [top_coefficient(restrict_to_cube(e, cubes[0]))
                         for e in battery]
            for cube in cubes[1:]:
                values = [top_coefficient(restrict_to_cube(e, cube))
                          for e in battery]
                if values != reference:
                    return False, f"{name}: splittings of mask {mask:#x} disagree"
                checked_cubes += 1
        for cls in classes:
            reference = [pairing(e, cls) for e in battery]
            for _ in range(5):
                conj = random_conjugate(cls, rng)
                alt = split_involution(conj)
                values = [top_coefficient(restrict_to_cube(e, alt))
                          for e in battery]
                if values != reference:
                    return False, f"{name}: conjugate of {cls.class_id} disagrees"
                checked_conj += 1
    return True, f"{checked_cubes} alternative cubes, {checked_conj} conjugates"


def check_oracle_equivalence(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 6: the pipeline census equals full-group enumeration."""
    bad = []
    for name in ORACLE_TYPES:
        rs = system(name)
        pipeline = sorted((cls.degree, cls.size)
                          for cls in classify_involutions(rs))
        oracle = brute_force_census(rs)
        if pipeline != oracle:
            bad.append(name)
    return not bad, ("all censuses match" if not bad else
                     "mismatch: " + ", ".join(bad))


def check_hard_cases(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 7: hard pairs are reported and every hit recomputes exactly."""
    rng = random.Random(1)
    notes = []
    names = ("D6", "E7", "E8") if full else ("D6",)
    for name in names:
        rs = system(name)
        classes = classify_involutions(rs)
        catalogue = default_catalogue(rs, GapBudget())
        by_descriptor = {rep.descriptor: rep for rep in catalogue}
        by_id = {cls.class_id: cls for cls in classes}
        for report in hard_case_reports(classes, catalogue):
            if report.target != 2 ** report.degree:
                return False, f"{name}: wrong target {report.target}"
            cls_a, cls_b = by_id[report.pair[0]], by_id[report.pair[1]]
            for descriptor, gap in report.hits:
                rep = by_descriptor[descriptor]
                ga = random_conjugate(cls_a, rng).element
                gb = random_conjugate(cls_b, rng).element
                recomputed = rep.trace(ga) - rep.trace(gb)
                if recomputed != gap or abs(gap) != report.target:
                    return False, f"{name}: hit {descriptor} fails recomputation"
            notes.append(
                f"{name} {report.pair[0]}|{report.pair[1]}: {len(report.hits)} hits")
    return True, "; ".join(notes)


def check_property_suites(system: System, full: bool = True) -> tuple[bool, str]:
    """Criterion 8: algebra relations, Whitney sums, degree law, Lambda identity."""
    rng = random.Random(5)
    # cube-algebra relations
    for rank in (1, 2, 3):
        xs = [CubeClassElement.generator(rank, i) for i in range(rank)]
        t = BasePoly.t_power(1)
        for x in xs:
            if x * x != x.scale(t):
                return False, "x_i^2 != t x_i"
        for _ in range(20):
            a = CubeClassElement(rank, {rng.randrange(1 << rank): rng.randrange(16)
                                        for _ in range(3)})
            b = CubeClassElement(rank, {rng.randrange(1 << rank): rng.randrange(16)
                                        for _ in range(3)})
            if (a + b) * (a + b) != a * a + b * b:
                return False, "(a+b)^2 != a^2 + b^2"

    # Whitney sum multiplicativity on every cube of B3
    rs = system("B3")
    reps = [coxeter_rep(rs), sign_rep(rs), perm_roots_rep(rs),
            trivial_rep(rs, 2)]
    cubes = list(enumerate_cubes(rs))
    for r1 in reps:
        for r2 in reps:
            for cube in cubes:
                left = total_class(direct_sum(r1, r2), cube)
                right = total_class(r1, cube) * total_class(r2, cube)
                if left != right:
                    return False, f"Whitney sum fails on {cube} for {r1.descriptor}+{r2.descriptor}"

    # degree law on B3
    classes = classify_involutions(rs)
    cox = coxeter_rep(rs)
    for m_extra in (0, 1, 2):
        for i in range(rs.rank + 1):
            expr = sw(cox, i).scale_t(m_extra) if m_extra else sw(cox, i)
            m = i + m_extra
            for cls in classes:
                value = pairing(expr, cls)
                if value and value != BasePoly.t_power(m - cls.degree):
                    return False, "degree law violated"

    # Lambda-character identity against the determinant oracle
    for name in ("B3", "F4"):
        rs2 = system(name)
        exts = [exterior_cox_rep(rs2, k) for k in range(rs2.rank + 1)]
        invs = [g for g in enumerate_group(rs2)
                if compose(g, g).is_identity()]
        for g in invs:
            alternating = sum((-1) ** k * exts[k].trace(g)
                              for k in range(rs2.rank + 1))
            mat = element_matrix(g)
            eye = np.eye(rs2.rank, dtype=np.int64)
            if Fraction(alternating) != det_fraction(eye - mat):
                return False, f"Lambda identity fails in {name}"
    return True, "relations, Whitney sums, degree law, Lambda identity all exact"


# -- driver ---------------------------------------------------------------------


CRITERIA = (
    ("1-basis-tables", check_basis_tables),
    ("2-odd-index-reductions", check_reduction_indices),
    ("3-cube-coverage", check_cube_coverage),
    ("4-pairing-delta", check_pairing_delta),
    ("5-splitting-independence", check_splitting_independence),
    ("6-oracle-equivalence", check_oracle_equivalence),
    ("7-hard-case-detection", check_hard_cases),
    ("8-property-suites", check_property_suites),
)


def run_acceptance(tier: str = "default") -> Iterator[CheckResult]:
    """Run every criterion, yielding each result as soon as it is known.

    tier 'default' runs the criteria as stated; 'fast' runs criterion 1 on
    A1-A4, criteria 2-3 on F4 and G2 and criterion 7 on D6, so no E7/E8, and
    the rest as 'default' does (criterion 4 on all 28 types of rank <= 6, E6
    and D6 included); 'full' additionally pairs E7/E8 against the delta.
    """
    if tier not in ("fast", "default", "full"):
        raise ValueError(f"unknown tier {tier!r}")
    system = cache(build_root_system)
    for name, fn in CRITERIA:
        t0 = time.monotonic()
        if name == "4-pairing-delta":
            passed, detail = fn(system, full=(tier == "full"))
        else:
            passed, detail = fn(system, full=(tier != "fast"))
        yield CheckResult(name, passed, time.monotonic() - t0, detail)
