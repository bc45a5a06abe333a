"""Involution and cube classification against brute-force oracles."""

import json
import random
from fractions import Fraction

import pytest

from weylinv import (CacheError, Cube, Involution, atlas_from_json_dict,
                     atlas_json_bytes, build_root_system,
                     classify_cubes, classify_involutions, compose,
                     coxeter_trace, enumerate_cubes, enumerate_group,
                     find_subsystem, group_order, identity, invert,
                     involution_count, involution_from_cube,
                     simple_reflections, split_involution, verify_reduction)
from weylinv.verify import REDUCTION_PAIRS, get_system


def census_oracle(rs):
    """(degree, size) multiset of involution classes by full enumeration."""
    from weylinv import orbit_partition
    elems = enumerate_group(rs)
    invs = {g.images.tobytes(): g for g in elems if compose(g, g).is_identity()}
    gens = simple_reflections(rs)
    actions = [lambda key, s=s: compose(compose(s, invs_lookup(key)), s).images.tobytes()
               for s in gens]

    def invs_lookup(key):
        return invs[key]

    classes = orbit_partition(sorted(invs), actions)
    out = []
    for component in classes:
        g = invs[component[0]]
        out.append(((rs.rank - coxeter_trace(g)) // 2, len(component)))
    return sorted(out)


# -- cubes -------------------------------------------------------------------

def test_a1_cubes(system):
    cubes = list(enumerate_cubes(system("A1")))
    assert [c.roots for c in cubes] == [(), (0,)]


def test_a2_cubes_no_orthogonal_pairs(system):
    rs = system("A2")
    # oracle: pairwise inner products of the positive roots
    for i in range(rs.n_positive):
        for j in range(i + 1, rs.n_positive):
            assert rs.inner(i, j) != 0
    assert sum(1 for _ in enumerate_cubes(rs)) == 4


def test_b2_cubes_include_both_orthogonal_pairs(system):
    rs = system("B2")
    short = {rs.index_of((Fraction(1), Fraction(0))),
             rs.index_of((Fraction(0), Fraction(1)))}
    long = {rs.index_of((Fraction(1), Fraction(-1))),
            rs.index_of((Fraction(1), Fraction(1)))}
    pairs = {frozenset(c.roots) for c in enumerate_cubes(rs) if len(c) == 2}
    assert frozenset(short) in pairs and frozenset(long) in pairs
    assert len(pairs) == 2


def test_cube_rejects_non_orthogonal(system):
    rs = system("A2")
    with pytest.raises(ValueError):
        Cube(rs, (0, 1))


def test_cube_subgroup_size_and_reflections(system):
    rs = system("B2")
    cube = next(c for c in enumerate_cubes(rs) if len(c) == 2)
    gens = [rs.reflection_perm(i) for i in cube.roots]
    from weylinv import GroupElement
    seen = {identity(rs).images.tobytes()}
    frontier = [identity(rs)]
    while frontier:
        new = []
        for g in frontier:
            for perm in gens:
                h = compose(GroupElement(perm, rs), g)
                if h.images.tobytes() not in seen:
                    seen.add(h.images.tobytes())
                    new.append(h)
        frontier = new
    assert len(seen) == 2 ** len(cube)


def test_cube_enumeration_streams_in_fixed_order(system):
    rs = system("B3")
    first = [c.roots for c in enumerate_cubes(rs)]
    second = [c.roots for c in enumerate_cubes(rs)]
    assert first == second
    assert first[0] == ()


# -- involution_from_cube ------------------------------------------------------

def test_empty_cube_gives_identity(system):
    rs = system("A2")
    inv = involution_from_cube(Cube(rs, ()))
    assert inv.degree == 0
    assert inv.element.is_identity()


def test_singleton_cube_gives_reflection(system):
    rs = system("G2")
    for i in range(rs.n_positive):
        inv = involution_from_cube(Cube(rs, (i,)))
        assert inv.degree == 1


def test_b2_rank2_cubes_give_same_involution(system):
    rs = system("B2")
    pairs = [c for c in enumerate_cubes(rs) if len(c) == 2]
    invs = [involution_from_cube(c) for c in pairs]
    assert len(pairs) == 2
    assert invs[0].mask == invs[1].mask
    assert (invs[0].element.images == invs[1].element.images).all()
    assert invs[0].eigenspace_key == invs[1].eigenspace_key


def test_involution_constructor_rejects_non_involution(system):
    rs = system("A2")
    s1, s2 = simple_reflections(rs)
    with pytest.raises(ValueError):
        Involution(compose(s1, s2))


# -- classify_involutions ---------------------------------------------------------

@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C3", "D4", "F4", "G2", "A1xA1", "A1xA2", "D6"])
def test_classification_matches_census_oracle(system, name):
    rs = system(name)
    pipeline = sorted((c.degree, c.size) for c in classify_involutions(rs))
    assert pipeline == census_oracle(rs)


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_group_table(system, n):
    classes = classify_involutions(system(f"A{n - 1}"))
    assert len(classes) == 1 + n // 2
    assert [c.degree for c in classes] == list(range(n // 2 + 1))
    # degree-i class consists of the products of i disjoint transpositions
    from math import comb, factorial
    for cls in classes:
        i = cls.degree
        want = comb(n, 2 * i) * factorial(2 * i) // (factorial(i) * 2 ** i)
        assert cls.size == want


def test_e6_e7_degree_lists(system):
    assert [c.degree for c in classify_involutions(system("E6"))] == [0, 1, 2, 3, 4]
    assert [c.degree for c in classify_involutions(system("E7"))] == \
        [0, 1, 2, 3, 3, 4, 4, 5, 6, 7]


def test_degree_zero_class_is_identity(system):
    for name in ("A2", "B3", "G2"):
        classes = classify_involutions(system(name))
        assert classes[0].degree == 0
        assert classes[0].size == 1
        assert classes[0].representative.element.is_identity()


def test_class_sizes_sum_to_involution_total(system):
    for name in ("B3", "F4", "A1xA2"):
        rs = system(name)
        brute = sum(1 for g in enumerate_group(rs)
                    if compose(g, g).is_identity())
        assert involution_count(rs) == brute


def test_degree_is_class_invariant_on_sampled_members(system):
    rng = random.Random(17)
    rs = system("F4")
    gens = simple_reflections(rs)
    for cls in classify_involutions(rs):
        for _ in range(6):
            w = identity(rs)
            for _ in range(10):
                w = compose(w, rng.choice(gens))
            conj = compose(compose(w, cls.representative.element), invert(w))
            assert (rs.rank - coxeter_trace(conj)) // 2 == cls.degree


def test_d6_has_at_least_two_degree_three_classes(system):
    classes = classify_involutions(system("D6"))
    assert sum(1 for c in classes if c.degree == 3) >= 2


def test_eigenspace_key_is_reduced_echelon(system):
    rs = system("B3")
    for cls in classify_involutions(rs):
        key = cls.representative.eigenspace_key
        assert len(key) == cls.degree
        pivots = []
        for row in key:
            nz = [i for i, v in enumerate(row) if v]
            assert row[nz[0]] == 1
            pivots.append(nz[0])
            for other in key:
                if other is not row:
                    assert other[nz[0]] == 0
        assert pivots == sorted(pivots)


# -- split_involution ------------------------------------------------------------

def test_split_identity_is_empty(system):
    rs = system("A2")
    cube = split_involution(involution_from_cube(Cube(rs, ())))
    assert cube.roots == ()


def test_split_reflection_is_its_root(system):
    rs = system("B3")
    for i in range(rs.n_positive):
        inv = involution_from_cube(Cube(rs, (i,)))
        assert split_involution(inv).roots == (i,)


def test_split_minus_one_of_b2_is_short_pair(system):
    rs = system("B2")
    e1 = rs.index_of((Fraction(1), Fraction(0)))
    e2 = rs.index_of((Fraction(0), Fraction(1)))
    pair = [c for c in enumerate_cubes(rs) if len(c) == 2][0].roots
    minus = involution_from_cube(Cube(rs, pair))
    assert split_involution(minus).roots == tuple(sorted((e1, e2)))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "B4", "C3",
                                  "D4", "F4", "G2", "A1xA2"])
def test_split_round_trip_every_involution(system, name):
    rs = system(name)
    for g in enumerate_group(rs):
        if not compose(g, g).is_identity():
            continue
        inv = Involution(g)
        cube = split_involution(inv)
        assert len(cube) == inv.degree
        back = involution_from_cube(cube)
        assert (back.element.images == g.images).all()


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_split_round_trip_class_representatives(system, name):
    for cls in classify_involutions(system(name)):
        back = involution_from_cube(cls.splitting)
        assert (back.element.images == cls.representative.element.images).all()


# -- classify_cubes ----------------------------------------------------------------

def test_a2_cube_classes(system):
    classes = classify_cubes(system("A2"))
    assert [(c.rank, c.size) for c in classes] == [(0, 1), (1, 3)]


def test_g2_cube_classes(system):
    classes = classify_cubes(system("G2"))
    assert [(c.rank, c.size) for c in classes] == [(0, 1), (1, 3), (1, 3), (2, 3)]
    pair = classes[-1].representative
    lengths = {system("G2").roots[i].norm2 for i in pair.roots}
    assert lengths == {1, 3}


def test_b2_rank2_cube_classes_not_conjugate(system):
    classes = classify_cubes(system("B2"))
    rank2 = [c for c in classes if c.rank == 2]
    assert len(rank2) == 2
    assert all(c.size == 1 for c in rank2)


def test_cube_class_sizes_sum_to_clique_count(system):
    for name in ("B3", "F4", "E6", "E7"):
        rs = system(name)
        total = sum(1 for _ in enumerate_cubes(rs))
        assert sum(c.size for c in classify_cubes(rs)) == total


# -- the orbit engine against the pure-Python orbit partition -----------------

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D3", "D4", "F4", "G2"]


def python_mask_actions(rs):
    """Simple reflections acting on Python-int masks, one bit at a time."""
    def action(perm):
        def act(mask):
            out = 0
            for i in range(rs.n_positive):
                if mask >> i & 1:
                    out |= 1 << perm[i]
            return out
        return act
    return [action(rs.positive_perm(p)) for p in rs.simple_reflection_perms()]


@pytest.mark.parametrize("name", RANK_LE_4)
def test_engine_involution_classes_match_orbit_partition(system, name):
    from weylinv import orbit_partition
    from weylinv.involutions import _involution_masks
    rs = system(name)
    actions = python_mask_actions(rs)
    oracle = sorted((degree, len(orbit), orbit[0])
                    for degree, masks in _involution_masks(rs).items()
                    for orbit in orbit_partition(masks, actions))
    assert [(c.degree, c.size, c.representative.mask)
            for c in classify_involutions(rs)] == oracle


@pytest.mark.parametrize("name", RANK_LE_4)
def test_engine_cube_classes_match_orbit_partition(system, name):
    from weylinv import orbit_partition
    rs = system(name)
    oracle = sorted((bin(orbit[0]).count("1"), len(orbit), orbit[0])
                    for orbit in orbit_partition(
                        [c.mask for c in enumerate_cubes(rs)],
                        python_mask_actions(rs)))
    assert [(c.rank, c.size, c.representative.mask)
            for c in classify_cubes(rs)] == oracle


def test_engine_packing_across_words():
    from weylinv.involutions import MaskEngine
    rs = build_root_system("E8")  # 120 positive roots: two words per mask
    engine = MaskEngine(rs)
    rng = random.Random(7)
    masks = [rng.getrandbits(rs.n_positive) for _ in range(40)]
    rows = engine.rows(masks)
    assert [engine.mask(row) for row in rows] == masks
    assert engine.bit_matrix(rows).tolist() == \
        [[bool(m >> i & 1) for i in range(rs.n_positive)] for m in masks]
    for tables, act in zip(engine.generators, python_mask_actions(rs)):
        assert [engine.mask(row) for row in engine.apply(rows, tables)] == \
            [act(m) for m in masks]


def test_engine_rejects_image_outside_the_set():
    from weylinv import InternalError
    from weylinv.involutions import MaskEngine, MaskSet
    rs = build_root_system("A2")
    engine = MaskEngine(rs)
    reflections = MaskSet(engine, engine.rows([0b001, 0b010]))  # 0b100 missing
    with pytest.raises(InternalError, match="left the mask set"):
        reflections.orbit_labels()


def test_engine_rejects_key_collision(monkeypatch):
    from weylinv import InternalError, conj_subsystem_rep
    from weylinv import involutions
    from weylinv.involutions import MaskEngine, MaskSet
    monkeypatch.setattr(involutions, "_KEY_SEED", 0)  # every bit key is 0
    rs = build_root_system("A2")
    with pytest.raises(InternalError, match="share a 64-bit key"):
        classify_involutions(rs)
    with pytest.raises(InternalError, match="share a 64-bit key"):
        classify_cubes(rs)
    with pytest.raises(InternalError, match="share a 64-bit key"):
        conj_subsystem_rep(rs, "A1")
    engine = MaskEngine(rs)
    single = MaskSet(engine, engine.rows([0b001]))  # image 0b010 has the same key
    with pytest.raises(InternalError, match="left the mask set"):
        single.orbit_labels()


@pytest.mark.parametrize("amb,sub", [(amb, sub) for amb, sub, _ in REDUCTION_PAIRS])
def test_reduction_independent_of_cube_state(amb, sub):
    fresh = build_root_system(amb)
    classified = get_system(amb)  # shared with the acceptance battery
    classify_cubes(classified)
    assert verify_reduction(fresh, find_subsystem(fresh, sub)) == \
        verify_reduction(classified, find_subsystem(classified, sub))


# -- verify_reduction ---------------------------------------------------------------

def test_reduction_e6_d5(system):
    rs = system("E6")
    report = verify_reduction(rs, find_subsystem(rs, "D5"))
    assert report.index == 27
    assert report.index_odd
    assert report.all_covered
    assert report.passed


def test_reduction_g2(system):
    rs = system("G2")
    report = verify_reduction(rs, find_subsystem(rs, "A1xA1"))
    assert report.index == 3
    assert report.passed


def test_reduction_f4_b4(system):
    rs = system("F4")
    report = verify_reduction(rs, find_subsystem(rs, "B4"))
    assert report.index == 3
    assert report.passed
    assert report.to_json_dict()["cube_classes"][0]["covered"] is True


# -- JSON cache ----------------------------------------------------------------------

def test_atlas_json_round_trip_byte_identical(system):
    rs = system("B3")
    first = atlas_json_bytes(rs)
    second = atlas_json_bytes(rs)
    assert first == second
    fresh = build_root_system("B3")
    assert atlas_json_bytes(fresh) == first


def test_atlas_json_loads_back(system):
    rs = system("B3")
    data = json.loads(atlas_json_bytes(rs))
    fresh = build_root_system("B3")
    classes, cube_classes = atlas_from_json_dict(fresh, data)
    assert [(c.degree, c.size) for c in classes] == \
        [(c.degree, c.size) for c in classify_involutions(rs)]
    assert [(c.rank, c.size) for c in cube_classes] == \
        [(c.rank, c.size) for c in classify_cubes(rs)]


def test_atlas_cache_rejects_tampering(system):
    rs = system("B3")
    data = json.loads(atlas_json_bytes(rs))
    bad = json.loads(json.dumps(data))
    bad["involution_classes"][1]["degree"] = 2
    with pytest.raises(CacheError):
        atlas_from_json_dict(build_root_system("B3"), bad)
    bad = json.loads(json.dumps(data))
    bad["group_order"] = 999
    with pytest.raises(CacheError):
        atlas_from_json_dict(build_root_system("B3"), bad)
    bad = json.loads(json.dumps(data))
    bad["type"] = "C3"
    with pytest.raises(CacheError):
        atlas_from_json_dict(build_root_system("B3"), bad)
