"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py

They run in seconds and start no weylinv computation: the checks are fed
hand-made tables and the span arithmetic a synthetic trace.
"""

from __future__ import annotations

from math import factorial

import checks
import inputs
import run
from spans import Span, Tracer, coverage, self_time_by_name, self_times

E8 = checks.REFERENCE["tables"]["E8"]
E8_DEGREES = list(checks.PAPER_DEGREES["E8"])


def test_e8_reference_table_passes():
    assert checks.check_class_table("E8", E8_DEGREES, E8["class_sizes"],
                                    E8["cube_class_sizes"]) == []


def test_e8_class_size_off_by_one_fails():
    sizes = list(E8["class_sizes"])
    sizes[4] += 1
    problems = checks.check_class_table("E8", E8_DEGREES, sizes)
    assert any("does not divide" in p for p in problems)
    assert any("reference" in p for p in problems)


def test_e8_wrong_degree_multiset_fails():
    degrees = E8_DEGREES[:-1] + [7]
    assert checks.check_class_table("E8", degrees, E8["class_sizes"])


INVOLUTIONS_E7 = """\
class  degree  size  splitting
------------------------------
d0.0   0       1
d1.0   1       63    0
d2.0   2       945   0 2
d3.0   3       315   2 4 6
d3.1   3       3780  0 2 4
d4.0   4       315   0 2 6 27
d4.1   4       3780  0 2 4 6
d5.0   5       945   0 2 4 6 27
d6.0   6       63    0 2 4 6 27 47
d7.0   7       1     0 2 4 6 27 47 62
"""


def test_wrong_cli_table_counts_as_failed_job():
    good = checks.check_cli_output("involutions E7", INVOLUTIONS_E7)
    assert good == []
    bad_text = INVOLUTIONS_E7.replace("d2.0   2       945", "d2.0   2       946")
    bad = run._session_problems("involutions E7", 0, bad_text.encode(), "", 1)
    assert bad
    passes = [{"jobs": [{"name": "involutions E7", "digest": "x", "problems": bad}]}]
    assert run.tally(passes) == (1, 1)


def test_output_that_changes_between_passes_fails():
    passes = [{"jobs": [{"name": "E8", "digest": "a", "problems": []}]},
              {"jobs": [{"name": "E8", "digest": "b", "problems": []}]}]
    assert run.tally(passes) == (2, 1)


def test_closed_form_orders():
    assert checks.weyl_order("A22") == factorial(23)
    assert checks.weyl_order("D16") == 2 ** 15 * factorial(16)
    assert checks.weyl_order("E8") == 696729600
    assert checks.weyl_order("A1xD6") == 2 * 2 ** 5 * factorial(6)
    assert checks.check_order("E8", 696729601)


def test_reduction_index_checks():
    assert checks.check_reduction("E8", "D8", 135, True, 24, 24) == []
    assert checks.check_reduction("E8", "D8", 135, True, 23, 24)
    assert checks.check_reduction("E6", "D5", 28, False, 5, 5)


def test_delta_and_degree_law():
    assert checks.check_delta_row(2, [(1, "0"), (2, "1"), (3, "0")]) == []
    assert checks.check_delta_row(2, [(1, "t"), (2, "1")])
    assert checks.check_degree_law(3, [(1, "t^2"), (2, "0"), (3, "1"), (4, "0")]) == []
    assert checks.check_degree_law(3, [(2, "t^2")])
    assert checks.check_degree_law(3, [(4, "1")])


def test_stdout_digest_masks_verify_timings():
    a = b"PASS 4-pairing-delta (0.2s): 28 types\n"
    b = b"PASS 4-pairing-delta (1.7s): 28 types\n"
    assert checks.stdout_digest(a) == checks.stdout_digest(b)
    assert checks.stdout_digest(a) != checks.stdout_digest(a.replace(b"28", b"27"))


def test_expressions_are_seeded_and_homogeneous():
    first = inputs.expressions(5, "E7", 7, 3)
    assert first == inputs.expressions(5, "E7", 7, 3)
    assert first != inputs.expressions(6, "E7", 7, 3)
    for expr in first:
        for a, factors in expr.monomials:
            assert a + sum(i for _, i in factors) == expr.degree


# -- span arithmetic on a synthetic trace -------------------------------------


def _trace() -> list[Span]:
    return [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 4.0, 0, "r"),      # overlaps a: the union counts once
        Span("a.child", 1.5, 2.5, 1, "r"),
        Span("late", 9.0, 12.0, 0, "r"),  # runs past its parent: clipped
        Span("other", 20.0, 21.0, None, "r"),
    ]


def test_self_time_subtracts_covered_child_intervals():
    spans = _trace()
    assert self_times(spans) == [10.0 - 3.0 - 1.0, 2.0 - 1.0, 2.0, 1.0, 3.0, 1.0]
    by_name = self_time_by_name(spans + [Span("a", 30.0, 31.5, None, "r")])
    assert by_name["a"] == 1.0 + 1.5


def test_coverage_of_a_window():
    spans = _trace()
    assert coverage(spans, {"a", "b"}, 0.0, 10.0) == 0.3
    assert coverage(spans, {"late"}, 0.0, 10.0) == 0.1
    assert coverage(spans, {"a"}, 5.0, 5.0) == 0.0


def test_tracer_records_nesting_only_when_enabled():
    off = Tracer(False, "x")
    with off.span("outer"):
        pass
    assert off.spans == []
    on = Tracer(True, "x")
    with on.span("outer"):
        with on.span("inner"):
            pass
    outer, inner = on.spans
    assert (outer.parent, inner.parent, inner.run_id) == (None, 0, "x")
    assert outer.start <= inner.start <= inner.end <= outer.end
