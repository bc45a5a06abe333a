"""The acceptance gate: one test per criterion, at the stated tolerances.

Every check here is exact (integer or F2[t] equality); the only tolerances
are the wall-clock bounds of criterion 1, which are asserted inside
check_basis_tables; its test hands it a fresh builder, so they time cold
builds, as a `weylinv verify` run does.  The other tests take the session's
`system` builder.  Each test prints the criterion's pass/fail line so
`pytest -s` (or the CLI `weylinv verify`) shows one line per criterion.
"""

import gc
import weakref
from functools import cache

from weylinv import build_root_system, verify
from weylinv.verify import (check_basis_tables, check_cube_coverage,
                            check_hard_cases, check_oracle_equivalence,
                            check_pairing_delta, check_property_suites,
                            check_reduction_indices,
                            check_splitting_independence)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_basis_tables():
    # E8 rank 10 with degrees 0,1,2,3,4,4,5,6,7,8 (two classes of degree 4),
    # E7/E6 lists, Sym_n ranks; E6/E7 under 60 s and E8 under 120 s, fresh.
    passed, detail = check_basis_tables(cache(build_root_system), full=True)
    report("criterion-1-basis-tables", passed, detail)


def test_criterion_2_odd_index_reductions(system):
    # (E6:D5)=27 (E7:A1xD6)=63 (E8:D8)=135 (F4:B4)=3 (G2:A1xA1)=3, all odd.
    passed, detail = check_reduction_indices(system, full=True)
    report("criterion-2-odd-index-reductions", passed, detail)


def test_criterion_3_cube_coverage(system):
    # every cube class of G has a member inside the reduction subsystem
    passed, detail = check_cube_coverage(system, full=True)
    report("criterion-3-cube-coverage", passed, detail)


def test_criterion_4_pairing_delta_rank_le_6(system):
    # <sw(Cox,i), class> = delta_{i,degree} for every implemented type of rank <= 6
    passed, detail = check_pairing_delta(system, full=False)
    report("criterion-4-pairing-delta", passed, detail)


def test_criterion_4_pairing_delta_e7_e8(system):
    # the --full tier extends the delta table to E7 and E8
    passed, detail = check_pairing_delta(system, full=True)
    report("criterion-4-pairing-delta-full", passed, detail)


def test_criterion_5_splitting_independence(system):
    # all alternative splitting cubes in B2, B4, D4, F4 and >= 5 random
    # conjugates per class agree on the whole test battery
    passed, detail = check_splitting_independence(system, full=True)
    report("criterion-5-splitting-independence", passed, detail)


def test_criterion_6_oracle_equivalence(system):
    # eigenspace/clique pipeline vs naive full-group enumeration
    passed, detail = check_oracle_equivalence(system, full=True)
    report("criterion-6-oracle-equivalence", passed, detail)


def test_criterion_7_hard_case_detection(system):
    # D6 degree-3 pairs, E7 degree 3 and 4, E8 degree 4: reported with
    # target 2^n; every hit re-verified on fresh random conjugates
    passed, detail = check_hard_cases(system, full=True)
    report("criterion-7-hard-case-detection", passed, detail)


def test_criterion_8_property_suites(system):
    # cube-algebra relations, Whitney sums on B3, degree law, Lambda identity;
    # the whole suite is required to finish within 10 seconds
    import time
    t0 = time.monotonic()
    passed, detail = check_property_suites(system, full=True)
    elapsed = time.monotonic() - t0
    report("criterion-8-property-suites", passed and elapsed < 10.0,
           f"{detail} ({elapsed:.1f}s)")


def test_a_run_holds_its_systems_until_it_ends(monkeypatch):
    # run_acceptance builds each type once, keeps it while the run lasts,
    # and leaves nothing alive once the run is over
    built = []

    def build(name):
        rs = build_root_system(name)
        built.append((name, weakref.ref(rs)))
        return rs

    monkeypatch.setattr(verify, "build_root_system", build)
    for _ in verify.run_acceptance("fast"):
        assert all(ref() is not None for _, ref in built)
    gc.collect()
    names = [name for name, _ in built]
    assert set(names) >= set(verify.RANK6_TYPES)
    assert len(names) == len(set(names))
    assert [name for name, ref in built if ref() is not None] == []
