"""Character oracles: exactness, class-function property, gap search."""

import random

import numpy as np
import pytest

from weylinv import (GapBudget, InternalError, character_gap,
                     classify_involutions, compose, conj_subsystem_rep,
                     coxeter_rep, default_catalogue, direct_sum,
                     enumerate_group, exterior_cox_rep, find_subsystem,
                     identity, invert, perm_roots_rep, search_gap, sign_rep,
                     simple_reflections, tensor, trivial_rep)
from weylinv.reps import _signed_axis_action


def random_word(rs, rng, length=10):
    w = identity(rs)
    for _ in range(length):
        w = compose(w, rng.choice(simple_reflections(rs)))
    return w


# -- single characters -----------------------------------------------------------

def test_coxeter_character_of_minus_one_in_e8(system, minus_one):
    rs = system("E8")
    assert coxeter_rep(rs).trace(minus_one(rs)) == -8


def test_exterior_square_of_b2_on_reflection(system):
    rs = system("B2")
    s = simple_reflections(rs)[0]
    # oracle: coefficient of x^2 in (1+x)(1-x) = 1 - x^2
    assert exterior_cox_rep(rs, 2).trace(s) == -1


def test_sign_character_on_reflections(system):
    for name in ("A2", "B3", "G2"):
        rs = system(name)
        for s in simple_reflections(rs):
            assert sign_rep(rs).trace(s) == -1


def test_trace_of_identity_is_dimension(system):
    rs = system("B3")
    reps = [coxeter_rep(rs), sign_rep(rs), perm_roots_rep(rs),
            exterior_cox_rep(rs, 2), trivial_rep(rs, 4)]
    for rep in reps:
        assert rep.trace(identity(rs)) == rep.dim


def test_involution_traces_are_bounded_and_parity_correct(system):
    rs = system("F4")
    reps = [coxeter_rep(rs), perm_roots_rep(rs), exterior_cox_rep(rs, 2),
            exterior_cox_rep(rs, 3)]
    for g in enumerate_group(rs):
        if not compose(g, g).is_identity():
            continue
        for rep in reps:
            tr = rep.trace(g)
            assert abs(tr) <= rep.dim
            assert (tr - rep.dim) % 2 == 0


def test_exterior_zero_is_constant_one(system):
    rs = system("B3")
    rng = random.Random(2)
    rep = exterior_cox_rep(rs, 0)
    for _ in range(5):
        assert rep.trace(random_word(rs, rng)) == 1


def test_exterior_newton_agrees_with_binomial_on_involutions(system):
    from math import comb
    for name in ("B3", "F4"):
        rs = system(name)
        r = rs.rank
        cox, reps = coxeter_rep(rs), [exterior_cox_rep(rs, k) for k in range(r + 1)]
        for g in enumerate_group(rs):
            if not compose(g, g).is_identity():
                continue
            minus = (r - cox.trace(g)) // 2
            for k, rep in enumerate(reps):
                # coefficient of x^k in (1+x)^(r-minus) (1-x)^minus
                binomial = sum(comb(r - minus, k - j) * comb(minus, j) * (-1) ** j
                               for j in range(k + 1))
                assert rep.trace(g) == binomial


def test_exterior_character_on_non_involutions(system):
    rs = system("A2")
    s1, s2 = simple_reflections(rs)
    rot = compose(s1, s2)  # order 3, eigenvalues are the primitive cube roots
    assert exterior_cox_rep(rs, 2).trace(rot) == 1  # det of a rotation
    assert coxeter_rep(rs).trace(rot) == -1


def test_sum_and_tensor_characters(system):
    rs = system("B3")
    rng = random.Random(4)
    a, b = coxeter_rep(rs), perm_roots_rep(rs)
    for _ in range(8):
        g = random_word(rs, rng)
        assert direct_sum(a, b).trace(g) == a.trace(g) + b.trace(g)
        assert tensor(a, b).trace(g) == a.trace(g) * b.trace(g)


def test_character_constant_on_classes(system):
    # restriction and gaps read each trace once per involution class, at the
    # class representative; every conjugate must give that value
    from weylinv import base_catalogue
    rng = random.Random(31)
    for name in ("D4", "D6", "F4"):
        rs = system(name)
        reps, _ = base_catalogue(rs, GapBudget())
        descriptors = {rep.descriptor for rep in reps}
        assert {"permroots", "ext2(cox)", "conj[A1]", "conj[D3]"} <= descriptors
        assert ("halfsets+" in descriptors) == name.startswith("D")
        for cls in classify_involutions(rs):
            g = cls.representative.element
            for _ in range(6):
                w = random_word(rs, rng)
                conj = compose(compose(w, g), invert(w))
                for rep in reps:
                    assert rep.trace(conj) == rep.class_value(cls)


def test_conj_subsystem_rep_dimensions(system):
    rs = system("B2")
    rep = conj_subsystem_rep(rs, "A1")
    assert rep.dim == 2  # the two short root pairs
    rs8 = system("E8")
    rep8 = conj_subsystem_rep(rs8, "D8")
    assert rep8.dim == 135


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_conj_subsystem_character_counts_the_conjugates_an_element_fixes(system, name):
    # the conjugates of a subsystem's positive roots, from the whole group and
    # its root permutations alone; a trace counts those the element maps onto
    # themselves (a root and its negative, i and i + P, are one positive root)
    rs = system(name)
    group, P = enumerate_group(rs), rs.n_positive
    for target in ("A1", "D2", "D3"):
        sub = find_subsystem(rs, target)
        if sub is None:
            continue
        roots = [i for i in range(P) if sub.positive_closure_mask() >> i & 1]
        conjugates = {frozenset(int(w.images[i]) % P for i in roots) for w in group}
        rep = conj_subsystem_rep(rs, sub)
        assert rep.dim == len(conjugates)
        for g in group:
            fixed = sum(1 for c in conjugates if {int(g.images[i]) % P for i in c} == c)
            assert rep.trace(g) == fixed


def test_rep_rejects_foreign_element(system):
    rep = coxeter_rep(system("A2"))
    with pytest.raises(ValueError):
        rep.trace(identity(system("B2")))


# -- character gaps -----------------------------------------------------------------

def test_gap_of_trivial_rep_is_zero(system):
    rs = system("D4")
    classes = classify_involutions(rs)
    deg2 = [c for c in classes if c.degree == 2]
    assert character_gap(trivial_rep(rs), deg2[0], deg2[1]) == 0


def test_gap_of_same_class_is_zero(system):
    rs = system("B3")
    cls = classify_involutions(rs)[1]
    assert character_gap(coxeter_rep(rs), cls, cls) == 0


def test_search_gap_rejects_distinct_degrees(system):
    rs = system("B2")
    classes = classify_involutions(rs)
    with pytest.raises(ValueError):
        search_gap(rs, classes[0], classes[1])


def test_search_gap_deterministic(system):
    rs = system("D4")
    classes = classify_involutions(rs)
    deg2 = [c for c in classes if c.degree == 2]
    first = search_gap(rs, deg2[0], deg2[1])
    second = search_gap(rs, deg2[0], deg2[1])
    assert first == second
    assert first.target == 4
    data = first.to_json_dict()
    assert set(data) == {"pair", "target", "hits", "catalogue_size"}


def test_search_gap_hits_recompute(system):
    rs = system("D6")
    classes = classify_involutions(rs)
    d3 = [c for c in classes if c.degree == 3]
    catalogue = {rep.descriptor: rep for rep in default_catalogue(rs, GapBudget())}
    report = search_gap(rs, d3[0], d3[1])
    assert report.hits, "the mirror pair should be separated by the half-set reps"
    for descriptor, gap in report.hits:
        rep = catalogue[descriptor]
        assert abs(gap) == 8
        assert character_gap(rep, d3[0], d3[1]) == gap


def test_default_catalogue_deterministic_order(system):
    from weylinv import build_root_system
    # the catalogue is memoized per system, so the second build needs a fresh one
    first = [rep.descriptor for rep in default_catalogue(system("B3"))]
    second = [rep.descriptor for rep in default_catalogue(build_root_system("B3"))]
    assert first == second
    assert first[:4] == ["triv1", "cox", "sign", "permroots"]


def test_catalogue_is_built_once_per_system_and_budget(system):
    from weylinv import base_catalogue
    rs = system("B3")
    implicit, _ = base_catalogue(rs)
    explicit, skipped = base_catalogue(rs, GapBudget())
    assert implicit is not explicit and implicit == explicit  # fresh lists, shared reps
    implicit.clear()
    skipped.append("mutated")
    assert base_catalogue(rs) == (explicit, [])
    assert base_catalogue(rs, GapBudget(max_exterior=2))[0] != explicit


def test_catalogue_reports_budget_skips(system, monkeypatch):
    from weylinv import base_catalogue, build_root_system, reps
    full, skipped = base_catalogue(system("D4"), GapBudget())
    assert skipped == []
    monkeypatch.setattr(reps, "MAX_ORBIT", 2)
    # a fresh system: the catalogue is built once per system and budget
    tight, skipped_tight = base_catalogue(build_root_system("D4"), GapBudget())
    assert skipped_tight  # the conjugation orbits exceed two elements
    assert len(tight) < len(full)
    assert all(s.startswith("conj[") for s in skipped_tight)


def test_signed_axis_action_matches_the_root_action(system):
    rs = system("D4")
    unit = np.eye(4, dtype=np.int64)
    other = unit[[1, 0, 0, 0]]
    plus = np.array([rs.index_of(row) for row in unit + other])
    minus = np.array([rs.index_of(row) for row in unit - other])
    coords = rs._icoord_mat
    for g in enumerate_group(rs):
        perm, sign = _signed_axis_action(rs, g, plus, minus)
        moved = np.zeros_like(coords)
        moved[:, perm] = coords * sign  # g(e_i) = sign[i] e_perm[i]
        assert np.array_equal(coords[g.images], moved)
    with pytest.raises(InternalError, match="monomially"):
        _signed_axis_action(rs, identity(rs), plus, plus)


def half_subset_oracle(rs, g):
    """(plain, twisted) half-subset traces, one frozenset per subset."""
    from itertools import combinations
    n = rs.ambient_dim
    unit = np.eye(n, dtype=np.int64)
    other = unit[[1] + [0] * (n - 1)]
    plus = np.array([rs.index_of(row) for row in unit + other])
    minus = np.array([rs.index_of(row) for row in unit - other])
    perm, sign = _signed_axis_action(rs, g, plus, minus)
    plain = twisted = 0
    for a in map(frozenset, combinations(range(n), n // 2)):
        image = frozenset(int(perm[i]) for i in a)
        s = 1
        for i in a:
            s *= int(sign[i])
        if image == a:
            plain += s
        if image == frozenset(range(n)) - a:
            twisted += s
    return plain, twisted


def test_half_subset_characters_match_the_frozenset_oracle(system):
    from weylinv import half_subset_split_reps
    rng = random.Random(12)
    for name, count in (("D4", None), ("D6", 60), ("D8", 30)):
        rs = system(name)
        if count is None:
            elements = enumerate_group(rs)
        else:
            elements = [random_word(rs, rng, 4 * rs.rank) for _ in range(count)]
        plus, minus = half_subset_split_reps(rs)
        for g in elements:
            plain, twisted = half_subset_oracle(rs, g)
            assert (plus.trace(g), minus.trace(g)) == ((plain + twisted) // 2,
                                                       (plain - twisted) // 2)
