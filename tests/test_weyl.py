"""Group arithmetic, stabilizer chains, orbit machinery."""

import hashlib
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from weylinv import (GroupElement, InternalError, compose, element_matrix,
                     enumerate_group, group_order, identity, invert,
                     orbit_partition, order_of, reflection_element,
                     simple_reflections, stab_chain, subgroup_order)


# -- reflections -----------------------------------------------------------------

def test_reflection_swaps_root_and_negative(system):
    rs = system("A1")
    s = reflection_element(rs, rs.roots[0])
    assert s(0) == rs.negative_index(0)
    assert compose(s, s).is_identity()


def test_b2_long_reflection_fixes_orthogonal_pair(system):
    from fractions import Fraction
    rs = system("B2")
    s = reflection_element(rs, rs.index_of((Fraction(1), Fraction(-1))))
    plus = rs.index_of((Fraction(1), Fraction(1)))
    assert s(plus) == plus
    assert s(rs.negative_index(plus)) == rs.negative_index(plus)


def test_a2_product_of_simple_reflections_has_order_three(system):
    rs = system("A2")
    s1, s2 = simple_reflections(rs)
    assert order_of(compose(s1, s2)) == 3


def test_g2_coxeter_element_has_order_six(system):
    rs = system("G2")
    s1, s2 = simple_reflections(rs)
    assert order_of(compose(s1, s2)) == 6


def test_reflection_rejects_non_root(system):
    rs = system("A2")
    with pytest.raises(ValueError):
        reflection_element(rs, (1, 2, 3))


# -- group ops --------------------------------------------------------------------

def test_compose_invert_identity(system):
    rs = system("B3")
    rng = random.Random(3)
    gens = simple_reflections(rs)
    for _ in range(10):
        w = identity(rs)
        for _ in range(8):
            w = compose(w, rng.choice(gens))
        assert compose(w, invert(w)).is_identity()
        assert compose(invert(w), w).is_identity()


def test_order_of_reflection_is_two(system):
    rs = system("A1")
    assert order_of(reflection_element(rs, 0)) == 2


def test_mixed_root_systems_rejected(system):
    with pytest.raises(ValueError):
        compose(identity(system("A2")), identity(system("B2")))


def test_elements_commute_with_negation(system):
    rs = system("F4")
    rng = random.Random(6)
    gens = simple_reflections(rs)
    for _ in range(10):
        w = identity(rs)
        for _ in range(9):
            w = compose(w, rng.choice(gens))
        for i in range(len(rs.roots)):
            assert w(rs.negative_index(i)) == rs.negative_index(w(i))


# -- matrices ---------------------------------------------------------------------

def test_identity_matrix(system):
    rs = system("B2")
    assert np.array_equal(element_matrix(identity(rs)), np.eye(2, dtype=np.int64))


def test_minus_one_of_b2_matrix(system, minus_one):
    rs = system("B2")
    m = minus_one(rs)
    mat = element_matrix(m)
    assert np.array_equal(mat, -np.eye(2, dtype=np.int64))
    assert int(np.trace(mat)) == -2


@pytest.mark.parametrize("name", ["A2", "B3", "F4", "G2"])
def test_reflection_trace_is_rank_minus_two(system, name):
    rs = system(name)
    for si in rs.simple_indices:
        s = reflection_element(rs, si)
        assert int(np.trace(element_matrix(s))) == rs.rank - 2


def test_matrix_is_multiplicative(system):
    rs = system("B3")
    rng = random.Random(11)
    gens = simple_reflections(rs)
    for _ in range(15):
        x = identity(rs)
        y = identity(rs)
        for _ in range(6):
            x = compose(x, rng.choice(gens))
            y = compose(y, rng.choice(gens))
        assert np.array_equal(element_matrix(compose(x, y)),
                              element_matrix(x) @ element_matrix(y))


def test_matrix_orthogonal_for_gram_form(system):
    rs = system("G2")
    gram = np.array([[1, 1], [1, 1]], dtype=object)
    from fractions import Fraction
    gram = [[rs.inner(i, j) for j in rs.simple_indices]
            for i in rs.simple_indices]
    for si in rs.simple_indices:
        m = element_matrix(reflection_element(rs, si))
        # M^T G M == G, checked with exact rationals
        n = rs.rank
        left = [[sum(Fraction(int(m[k][i])) * gram[k][l] * Fraction(int(m[l][j]))
                     for k in range(n) for l in range(n))
                 for j in range(n)] for i in range(n)]
        assert left == gram


# -- group order --------------------------------------------------------------------

@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2",
                                  "A4", "B4", "D4", "F4", "A1xA2"])
def test_group_order_matches_enumeration(system, name):
    rs = system(name)
    assert group_order(rs) == len(enumerate_group(rs))


# sha256 of the images of every element, in the order enumerate_group
# returns them, recorded when each element held a copy of its images
ENUMERATION_DIGESTS = {
    "A3": (24, "307f0218fda53b9e722c4180791e81376340ce657fe8b82ebb6beaaec3615abe"),
    "B4": (384, "8e7336c8660779b4eb53d9895092c6744e93320a433190360308023554c9d79d"),
    "D4": (192, "9787c7a61ca1ee153534f409f0f34fb6f2c75a96e82d70b1bc81e7ae674f0e4d"),
    "F4": (1152, "9526c91cce6b37bf6243ba4f5ddce20ff9455f6e9388f87997df82fea856c619"),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_DIGESTS))
def test_enumeration_order_and_images_are_pinned(system, name):
    elements = enumerate_group(system(name))
    assert elements[0].is_identity()
    assert all(g.images.dtype == np.int16 and not g.images.flags.writeable
               for g in elements)
    digest = hashlib.sha256(b"".join(g.images.tobytes() for g in elements))
    assert (len(elements), digest.hexdigest()) == ENUMERATION_DIGESTS[name]


def test_chain_transversal_product_is_order(system):
    rs = system("B3")
    chain = stab_chain(rs)
    product = 1
    for lvl in chain.levels:
        product *= len(lvl.transversal)
    assert product == group_order(rs) == 48


def bfs_chain(rs):
    """The Steinberg chain walked, not counted: descend the first root of J
    to its J-dominant root d by simple reflections of J, take the orbit of d
    under them breadth first, and keep the j in J orthogonal to d."""
    coords = rs._icoord_mat
    J = list(rs.simple_indices)
    levels = []
    while J:
        d = J[0]
        while True:
            below = [j for j in J if coords[j] @ coords[d] < 0]
            if not below:
                break
            d = int(rs.reflection_perm(below[0])[d])
        orbit, frontier = {d}, [d]
        while frontier:
            nxt = []
            for p in frontier:
                for j in J:
                    q = int(rs.reflection_perm(j)[p])
                    if q not in orbit:
                        orbit.add(q)
                        nxt.append(q)
            frontier = nxt
        levels.append((d, orbit))
        J = [j for j in J if coords[j] @ coords[d] == 0]
    return levels


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "E6", "F4", "G2",
                                  "A1xB3", "B2xG2"])
def test_counted_chain_matches_walked_chain(system, name):
    rs = system(name)
    chain = stab_chain(rs)
    walked = bfs_chain(rs)
    assert chain.base == [d for d, _ in walked]
    assert [set(lvl.transversal.tolist()) for lvl in chain.levels] == [
        orbit for _, orbit in walked]


@pytest.mark.parametrize("name", ["B3", "G2", "A1xA2"])
def test_chain_levels_are_stabilizer_orbits(system, name):
    """Level k's orbit is that of its point under the pointwise stabilizer
    in W of the points of the levels before."""
    rs = system(name)
    stabilizer = enumerate_group(rs)
    for lvl in stab_chain(rs).levels:
        assert {g(lvl.point) for g in stabilizer} == set(lvl.transversal.tolist())
        stabilizer = [g for g in stabilizer if g(lvl.point) == lvl.point]
    assert [g.is_identity() for g in stabilizer] == [True]


def test_subgroup_chain_with_custom_generators(system):
    rs = system("B3")
    # the parabolic generated by the first two simple reflections is B2-or-A1xA1 sized
    gens = [rs.reflection_perm(i) for i in rs.simple_indices[:2]]
    full = {identity(rs).images.tobytes()}
    frontier = [identity(rs)]
    elems = {identity(rs).images.tobytes(): identity(rs)}
    while frontier:
        new = []
        for g in frontier:
            for perm in gens:
                h = compose(GroupElement(perm, rs), g)
                if h.images.tobytes() not in elems:
                    elems[h.images.tobytes()] = h
                    new.append(h)
        frontier = new
    assert subgroup_order(rs, rs.simple_indices[:2]) == len(elems)
    assert subgroup_order(rs, []) == 1


def _closed_form_order(fam: str, n: int) -> int:
    if fam == "A":
        return factorial(n + 1)
    if fam in "BC":
        return 2 ** n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600,
            "F4": 1152, "G2": 12}[f"{fam}{n}"]


CLOSED_FORM_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
    + [f"C{n}" for n in range(3, 13)] + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2", "A1xD6", "A1xA2", "B2xG2"])


@pytest.mark.parametrize("name", CLOSED_FORM_TYPES)
def test_group_order_matches_closed_form(system, name):
    rs = system(name)
    want = 1
    for fam, n in rs.type_spec.factors:
        want *= _closed_form_order(fam, n)
    assert group_order(rs) == want


def test_subgroup_order_rejects_acute_generators(system):
    rs = system("B2")
    e1 = rs.index_of((Fraction(1), Fraction(0)))
    e1_plus_e2 = rs.index_of((Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        subgroup_order(rs, [e1, e1_plus_e2])


def test_subgroup_order_rejects_non_simple_obtuse_set(system):
    rs = system("A2")
    alpha, beta = rs.simple_indices
    highest = rs.index_of(tuple(a + b for a, b in zip(rs.roots[alpha].coords,
                                                      rs.roots[beta].coords)))
    with pytest.raises(ValueError):
        subgroup_order(rs, [alpha, beta, rs.negative_index(highest)])


def test_subgroup_order_rejects_affine_e8(system):
    rs = system("E8")
    theta = rs.n_positive - 1  # the highest root comes last among the positive
    assert rs.roots[theta].height == 29
    with pytest.raises(ValueError, match="linearly dependent"):
        subgroup_order(rs, [*rs.simple_indices, rs.negative_index(theta)])


# -- orbit partition -----------------------------------------------------------------

def test_orbit_partition_singleton():
    classes = orbit_partition([7], [lambda x: x])
    assert classes == [[7]]


def test_e8_reflections_single_class(system):
    rs = system("E8")
    folds = [rs.positive_perm(p) for p in rs.simple_reflection_perms()]
    actions = [lambda i, f=f: f[i] for f in folds]
    classes = orbit_partition(range(rs.n_positive), actions)
    assert len(classes) == 1
    assert len(classes[0]) == 120


def test_g2_reflections_two_classes(system):
    rs = system("G2")
    folds = [rs.positive_perm(p) for p in rs.simple_reflection_perms()]
    actions = [lambda i, f=f: f[i] for f in folds]
    classes = orbit_partition(range(rs.n_positive), actions)
    assert len(classes) == 2
    assert sorted(len(c) for c in classes) == [3, 3]
    # length is the conjugation invariant that separates them
    for component in classes:
        lengths = {system("G2").roots[i].norm2 for i in component}
        assert len(lengths) == 1


def test_orbit_partition_rejects_leaky_action():
    with pytest.raises(InternalError):
        orbit_partition([0, 1], [lambda x: x + 1])


def test_orbit_partition_deterministic_representatives():
    items = [5, 3, 9, 12]
    classes = orbit_partition(items, [lambda x: 12 if x == 9 else (9 if x == 12 else x)])
    assert classes == [[3], [5], [9, 12]]
