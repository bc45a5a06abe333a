"""Involution and cube classification against brute-force oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

from weylinv import (Cube, Involution, build_root_system, classify_cubes,
                     classify_involutions, compose, coxeter_trace,
                     enumerate_cubes, enumerate_group, find_subsystem,
                     group_order, identity, invert, involution_count,
                     involution_from_cube, simple_reflections, split_involution,
                     stab_chain, verify_reduction)
from weylinv.roots import RootSystem, memoized
from weylinv.verify import REDUCTION_PAIRS, brute_force_census


RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D3", "D4", "F4", "G2"]


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
    assert pipeline == brute_force_census(rs)


# A9 and A10 have nine and ten simple reflections, so a row's parents take
# two bytes in their searches
@pytest.mark.parametrize("n", range(2, 12))
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


# (degree, size) of each class in class order, as recorded in
# bench/reference.json, and the involution totals
EXCEPTIONAL_TABLES = {
    "E6": ([(0, 1), (1, 36), (2, 270), (3, 540), (4, 45)], 892),
    "E7": ([(0, 1), (1, 63), (2, 945), (3, 315), (3, 3780), (4, 315),
            (4, 3780), (5, 945), (6, 63), (7, 1)], 10208),
    "E8": ([(0, 1), (1, 120), (2, 3780), (3, 37800), (4, 3150), (4, 113400),
            (5, 37800), (6, 3780), (7, 120), (8, 1)], 199952),
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_TABLES))
def test_exceptional_class_tables(system, name):
    rs = system(name)
    table, total = EXCEPTIONAL_TABLES[name]
    assert [(c.degree, c.size) for c in classify_involutions(rs)] == table
    assert involution_count(rs) == total


# (rank, size) of each cube class in class order, with sizes as recorded in
# bench/reference.json, and the cube totals
EXCEPTIONAL_CUBE_TABLES = {
    "E6": ([(0, 1), (1, 36), (2, 270), (3, 540), (4, 135)], 982),
    "E7": ([(0, 1), (1, 63), (2, 945), (3, 315), (3, 3780), (4, 945),
            (4, 3780), (5, 2835), (6, 945), (7, 135)], 13744),
    "E8": ([(0, 1), (1, 120), (2, 3780), (3, 37800), (4, 9450), (4, 113400),
            (5, 113400), (6, 56700), (7, 16200), (8, 2025)], 352876),
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_CUBE_TABLES))
def test_exceptional_cube_tables(system, name):
    rs = system(name)
    table, total = EXCEPTIONAL_CUBE_TABLES[name]
    classes = classify_cubes(rs)
    assert [(c.rank, c.size) for c in classes] == table
    assert sum(c.size for c in classes) == total


def test_degree_zero_class_is_identity(system):
    for name in ("A2", "B3", "G2"):
        classes = classify_involutions(system(name))
        assert classes[0].degree == 0
        assert classes[0].size == 1
        assert classes[0].representative.element.is_identity()


def test_class_sizes_sum_to_involution_total(system):
    for name in RANK_LE_4 + ["A1xA2"]:
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


def rank_oracle(rows):
    """Rank over the rationals by Gaussian elimination in Fractions."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            c = mat[r][col] / mat[rank][col]
            mat[r] = [a - c * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_negated_roots_span_the_minus_one_eigenspace(system, name):
    """The mask keys an involution: its roots span the whole (-1)-eigenspace,
    whose dimension the trace gives."""
    rs = system(name)
    for cls in classify_involutions(rs):
        inv = cls.representative
        negated = [i for i in range(rs.n_positive) if inv.mask >> i & 1]
        assert all(inv.element(i) == rs.negative_index(i) for i in negated)
        assert rank_oracle([rs.roots[i].coords for i in negated]) == cls.degree


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
    from weylinv.involutions import mask_of_perm
    rs = system(name)
    actions = python_mask_actions(rs)
    by_degree = {}
    for g in enumerate_group(rs):
        if compose(g, g).is_identity():
            degree = (rs.rank - coxeter_trace(g)) // 2
            by_degree.setdefault(degree, []).append(mask_of_perm(g.images, rs))
    oracle = sorted((degree, len(orbit), orbit[0])
                    for degree, masks in by_degree.items()
                    for orbit in orbit_partition(sorted(masks), actions))
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


def check_packing(name, words, dtype=np.uint8):
    from weylinv import involutions
    from weylinv.involutions import MaskEngine, _Orbit
    rs = build_root_system(name)
    P = rs.n_positive
    assert (P + 63) // 64 == words  # the masks span that many 64-bit words
    engine = MaskEngine(rs)
    assert engine.dtype == dtype
    rng = random.Random(7)
    masks = [rng.getrandbits(P) for _ in range(40)]
    bits = engine.bits(masks)
    assert bits.tolist() == [[bool(m >> i & 1) for i in range(P)] for m in masks]

    def index_rows(masks):  # masks of one width, as engine rows
        rows = engine.rows(engine.bits(masks))
        assert rows.dtype == dtype
        assert rows.tolist() == [[i for i in range(P) if m >> i & 1] for m in masks]
        assert [engine.mask(row) for row in rows] == masks
        return rows

    def by_width(masks):
        return [[m for m in masks if m.bit_count() == w]
                for w in sorted({m.bit_count() for m in masks})]
    perm = list(range(P))
    for a, b in zip(*[iter(rng.sample(perm, 20))] * 2):  # ten swapped pairs of bits
        perm[a], perm[b] = b, a

    def image(m):
        return sum(1 << perm[i] for i in range(P) if m >> i & 1)
    tested = masks + [m | image(m) for m in masks]  # the second half are fixed
    fixed = 0
    for group in by_width(tested):
        rows = index_rows(group)
        fixed += engine.fixed_points(_Orbit(rows, engine.keys(rows), None), np.array(perm))
    assert fixed == sum(image(m) == m for m in tested) >= len(masks)
    bit_keys = involutions._bit_keys(P).tolist()

    def key(m):  # the wrapping sum of the keys of the bits m sets
        return sum(k for i, k in enumerate(bit_keys) if m >> i & 1) % 2 ** 64
    actions = python_mask_actions(rs)
    assert len(actions) == engine.ngens
    for group in by_width(masks):
        rows = index_rows(group)
        assert engine.keys(rows).tolist() == [key(m) for m in group]
        at, gens = np.divmod(np.arange(len(rows) * engine.ngens), engine.ngens)  # every pair
        found = engine.images(rows, at, gens).reshape(len(rows), engine.ngens, -1)
        for g, act in enumerate(actions):
            images, expected = found[:, g], [act(m) for m in group]
            assert images.tolist() == [[i for i in range(P) if m >> i & 1] for m in expected]
            assert engine.keys(images).tolist() == [key(m) for m in expected]


def test_engine_packing_across_words():
    check_packing("E8", 2)  # 120 positive roots


def test_engine_packing_across_three_words():
    check_packing("D12", 3)  # 132 positive roots


@pytest.mark.parametrize("name", ["E7", "B8"])
def test_engine_packing_in_one_word(name):
    check_packing(name, 1)  # 63 positive roots, and 64


def test_engine_index_rows_past_256_roots():
    check_packing("A23", 5, np.uint16)  # 276 positive roots: indices past one byte


@pytest.mark.parametrize("name,words", [("E8", 2), ("D12", 3)])
def test_engine_least_row_across_words(name, words):
    from weylinv.involutions import MaskEngine
    rs = build_root_system(name)
    assert (rs.n_positive + 63) // 64 == words
    engine = MaskEngine(rs)
    rng = random.Random(11)
    # each upper word is drawn from three values, so rows often tie on the
    # upper words and the least row is decided by a lower one
    pools = [[rng.getrandbits(min(64, rs.n_positive - 64 * w)) for _ in range(3)]
             for w in range(1, words)]
    masks = list({rng.getrandbits(64) + sum(rng.choice(pool) << 64 * w
                                            for w, pool in enumerate(pools, 1))
                  for _ in range(120)})
    rng.shuffle(masks)
    widths = {m.bit_count() for m in masks}  # the rows of one width are one array
    groups = {w: [m for m in masks if m.bit_count() == w] for w in widths}
    assert len(groups) > 1
    assert any(len({m >> 64 for m in group}) < len(group) for group in groups.values())
    assert {w: engine.least_mask(engine.rows(engine.bits(group))) for w, group in groups.items()} \
        == {w: min(group) for w, group in groups.items()}


def record_calls(monkeypatch, name):
    """The arguments of each call of MaskEngine.<name> from here on."""
    from weylinv.involutions import MaskEngine
    calls, method = [], getattr(MaskEngine, name)

    def recorded(self, *args):
        calls.append(args)
        return method(self, *args)
    monkeypatch.setattr(MaskEngine, name, recorded)
    return calls


@pytest.mark.parametrize("name", RANK_LE_4 + ["A1xA2", "E6"])
def test_engine_orbits_match_orbit_partition(monkeypatch, name):
    from weylinv import orbit_partition
    from weylinv.involutions import MaskEngine
    rs = build_root_system(name)
    actions = python_mask_actions(rs)
    oracle = orbit_partition([c.mask for c in enumerate_cubes(rs)], actions)
    rng = random.Random(5)
    seeds = [(i, mask) for i, orbit in enumerate(oracle)
             for mask in rng.sample(orbit, min(3, len(orbit)))]
    for i, orbit in enumerate(oracle):  # one orbit seeded 0, 1 and 2 reflections away
        near = actions[0](orbit[0])
        seeds += [(i, orbit[0]), (i, near), (i, actions[-1](near))]
    seeds += rng.sample(seeds, len(seeds) // 4)  # and masks seeded twice
    rng.shuffle(seeds)
    engine = MaskEngine(rs)
    searches = record_calls(monkeypatch, "_search")
    # one search per orbit, each from one of the given masks
    assert engine.classes(engine.bits([mask for _, mask in seeds])) == \
        sorted((len(orbit), min(orbit)) for orbit in oracle)
    assert len(searches) == len(oracle)
    assert {engine.mask(row) for row, _ in searches} <= {mask for _, mask in seeds}
    for i, mask in seeds:
        assert sorted(engine.mask(row) for row in engine.orbit(mask).rows) == sorted(oracle[i])
    assert len(searches) == len(oracle)


def oracle_levels(actions, seeds):
    """Distance of each mask from the nearest seed, by a plain breadth-first search."""
    distance = dict.fromkeys(seeds, 0)
    frontier, d = set(distance), 0
    while frontier:
        d += 1
        frontier = {image for mask in frontier for act in actions
                    if (image := act(mask)) not in distance}
        distance.update(dict.fromkeys(frontier, d))
    return distance


@pytest.mark.parametrize("name", ["D4", "F4", "E6", "A1xA2", "A2xG2", "B2xG2", "A1xD4"])
def test_engine_levels_are_distances_from_the_seeds(monkeypatch, name):
    from weylinv import orbit_partition
    from weylinv.involutions import MaskEngine
    rs = build_root_system(name)
    actions = python_mask_actions(rs)
    orbits = orbit_partition([c.mask for c in enumerate_cubes(rs)], actions)
    rng = random.Random(3)
    seeds = []
    for orbit in rng.sample(orbits, (len(orbits) + 1) // 2):  # some orbits go unseeded
        for steps in (0, 2, 4):  # seeds two and four reflections from the first
            mask = orbit[0]
            for _ in range(steps):
                mask = rng.choice(actions)(mask)
            seeds.append(mask)
    seeds += rng.sample(seeds, len(seeds) // 3)  # and masks seeded twice
    rng.shuffle(seeds)
    engine = MaskEngine(rs)
    images, searched, search = record_calls(monkeypatch, "images"), [], MaskEngine._search

    def recorded(self, row, key):  # each search's seed and the levels it made
        start = len(images)
        orbit = search(self, row, key)
        searched.append((self.mask(row), images[start:]))
        return orbit
    monkeypatch.setattr(MaskEngine, "_search", recorded)
    engine.classes(engine.bits(seeds))
    for seed, calls in searched:
        distance = oracle_levels(actions, [seed])
        levels = [sorted(engine.mask(row) for row in rows) for rows, _, _ in calls]
        assert levels == [sorted(m for m, d in distance.items() if d == level)
                          for level in range(max(distance.values()) + 1)]
    # each orbit is searched from its first seed among the given ones, and
    # the orbits are stored in the order of those seeds
    orbit_of = {m: i for i, orbit in enumerate(orbits) for m in orbit}
    first_seed = {}
    for place, mask in enumerate(seeds):
        first_seed.setdefault(orbit_of[mask], place)
    assert [seed for seed, _ in searched] == [seeds[p] for p in sorted(first_seed.values())]
    assert [sorted(engine.mask(row) for row in orbit.rows) for orbit in engine._stored] == \
        [sorted(orbits[i]) for i in sorted(first_seed, key=first_seed.get)]
    for orbit in engine._stored:  # each orbit's rows sorted by key
        assert orbit.keys.tolist() == engine.keys(orbit.rows).tolist()
        assert np.all(orbit.keys[1:] > orbit.keys[:-1])


def test_reduction_rejects_a_cube_class_missing_from_the_table():
    from weylinv import InternalError
    rs = build_root_system("F4")  # not the shared system: its memo is altered
    sub = find_subsystem(rs, "B4")
    assert verify_reduction(rs, sub).passed
    # the rest are all covered, so only the count of the subsystem's cubes notices
    del classify_cubes(rs)[0]  # the empty cube's class, in every subsystem
    with pytest.raises(InternalError, match="enumeration is incomplete"):
        verify_reduction(rs, sub)


def test_reduction_counts_each_class_inside_the_subsystem():
    from weylinv import orbit_partition
    from weylinv.involutions import _clique_masks, _mask_engine
    rs = build_root_system("F4")
    sub = find_subsystem(rs, "B4")
    within = sub.positive_closure_mask()
    inside = [mask for mask in _clique_masks(rs) if mask & ~within == 0]
    classes = classify_cubes(rs)
    engine = _mask_engine(rs)
    counts = engine.count_inside(engine.bits([c.representative.mask for c in classes]), within)
    oracle = orbit_partition(list(_clique_masks(rs)), python_mask_actions(rs))
    by_least = {min(orbit): orbit for orbit in oracle}
    assert counts.tolist() == [sum(m in inside for m in by_least[c.representative.mask])
                               for c in classes]
    assert sum(counts.tolist()) == len(inside)


@pytest.mark.parametrize("amb,sub", [("E6", "D5"), ("E7", "A1xD6"), ("F4", "B4"),
                                     ("G2", "A1xA1"), ("E8", "D8")])  # E8: two words
def test_count_inside_matches_a_loop_over_the_orbit_masks(system, amb, sub):
    from weylinv.involutions import _mask_engine
    rs = system(amb)
    within = find_subsystem(rs, sub).positive_closure_mask()
    engine = _mask_engine(rs)
    masks = [c.representative.mask for c in classify_cubes(rs)]
    counts = engine.count_inside(engine.bits(masks), within)

    def inside(mask):
        return sum(engine.mask(row) & ~within == 0 for row in engine.orbit(mask).rows)

    assert counts.tolist() == [inside(mask) for mask in masks]


@pytest.mark.parametrize("amb,sub", [(amb, sub) for amb, sub, _ in REDUCTION_PAIRS])
def test_clique_count_matches_the_clique_masks(system, amb, sub):
    from weylinv.involutions import _clique_count, _clique_masks
    rs = system(amb)
    within = find_subsystem(rs, sub).positive_closure_mask()
    assert _clique_count(rs, within) == len(list(_clique_masks(rs, within)))


def test_engine_rejects_key_collision(monkeypatch):
    from weylinv import InternalError, conj_subsystem_rep
    from weylinv import involutions
    monkeypatch.setattr(involutions, "_KEY_SEED", 0)  # every bit key is 0
    rs = build_root_system("A2")
    with pytest.raises(InternalError, match="share a 64-bit key"):
        classify_involutions(rs)
    with pytest.raises(InternalError, match="share a 64-bit key"):
        classify_cubes(rs)
    with pytest.raises(InternalError, match="share a 64-bit key"):
        conj_subsystem_rep(rs, "A1")


def test_engine_rejects_key_collision_across_levels(monkeypatch):
    from weylinv import InternalError
    from weylinv import involutions
    from weylinv.involutions import MaskEngine
    rs = build_root_system("A4")
    level, seen = {0b1}, {0b1}
    for _ in range(3):  # the roots three reflections away from root 0
        level = {act(m) for m in level for act in python_mask_actions(rs)} - seen
        seen |= level
    far = min(level).bit_length() - 1
    keys = involutions._bit_keys(rs.n_positive)
    keys[far] = keys[0]  # levels 0 and 3 share a key; no lookup compares them
    monkeypatch.setattr(involutions, "_bit_keys", lambda nbits: keys)
    engine = MaskEngine(rs)
    seed = engine.rows(engine.bits([0b1]))
    # the search itself raises, not only a later lookup in the orbit it found
    with pytest.raises(InternalError, match="share a 64-bit key"):
        engine._search(seed[0], engine.keys(seed)[0])
    with pytest.raises(InternalError, match="share a 64-bit key"):
        engine.classes(engine.bits([0b1]))


def test_engine_rejects_key_collision_with_the_current_level(monkeypatch):
    from weylinv import InternalError
    from weylinv import involutions
    from weylinv.involutions import MaskEngine
    rs = build_root_system("A2")
    assert {act(0b001) for act in python_mask_actions(rs)} == {0b001, 0b100}
    keys = involutions._bit_keys(rs.n_positive)
    keys[2] = keys[0]  # the one level-1 mask shares the key of the seed
    monkeypatch.setattr(involutions, "_bit_keys", lambda nbits: keys)
    engine = MaskEngine(rs)
    with pytest.raises(InternalError, match="share a 64-bit key"):
        engine.classes(engine.bits([0b001]))


def test_engine_rejects_key_collision_with_the_level_below(monkeypatch):
    from weylinv import InternalError
    from weylinv import involutions
    from weylinv.involutions import MaskEngine
    rs = build_root_system("A4")
    distance = oracle_levels(python_mask_actions(rs), [0b1])
    far = min(m for m, d in distance.items() if d == 2).bit_length() - 1
    keys = involutions._bit_keys(rs.n_positive)
    keys[far] = keys[0]  # a level-2 root shares the key of the seed, two levels down
    monkeypatch.setattr(involutions, "_bit_keys", lambda nbits: keys)
    engine = MaskEngine(rs)
    # as if no reduced word were longer than two reflections: a search that
    # did not look level 2 up in level 0 would stop past the longest element
    # (some roots are three reflections from root 0) before its last check
    engine.nbits = 2
    with pytest.raises(InternalError, match="share a 64-bit key"):
        engine.classes(engine.bits([0b1]))


def test_engine_rejects_key_collision_across_orbits_of_one_search(monkeypatch):
    from weylinv import InternalError
    from weylinv import involutions
    from weylinv.involutions import MaskEngine
    rs = build_root_system("A1xA4")
    full = (1 << rs.n_positive) - 1
    (a1,) = [i for i in range(rs.n_positive) if rs.orth_masks[i] | 1 << i == full]
    assert a1 != 0  # root 0 is A4's
    P = rs.n_positive
    shared = [x for x in range(P) if x != a1 and rs.orth_masks[0] >> x & 1]
    (u, v), *_ = [(u, v) for u in range(1, P) for v in range(u + 1, P)
                  if a1 not in (u, v) and rs.orth_masks[u] >> v & 1]
    seeds = [1 << a1 | 0b1, 1 << u | 1 << v]  # {a1, 0} and orthogonal roots of A4
    engine = MaskEngine(rs)
    classes = engine.classes(engine.bits(seeds))
    keys = involutions._bit_keys(P)
    keys[0] = keys[a1]  # so {a1, x} and {0, x} share a key for every root x
    monkeypatch.setattr(involutions, "_bit_keys", lambda nbits: keys)
    # One orbit is {a1, x} for the roots x of A4, the other the pairs of
    # orthogonal roots of A4.  Each search finds no two masks sharing a key,
    # so a collision never yields a wrong table; a mask {a1, x} looked up
    # once both orbits are stored meets {0, x} in the other and raises.
    engine = MaskEngine(rs)
    assert engine.classes(engine.bits(seeds)) == classes
    assert len(engine._stored) == 2
    for x in shared:
        with pytest.raises(InternalError, match="share a 64-bit key"):
            engine.classes(engine.bits([1 << a1 | 1 << x]))


def test_engine_looks_a_kept_image_up_in_the_level_below(monkeypatch):
    from weylinv.involutions import MaskEngine
    rs = reordered("A4", (1, 3, 0, 2))  # not the shared system
    # in this order a row of the search from 0b111 keeps its image under a
    # reflection back it did not record: that image lies in the level below,
    # and only the lookup there keeps the search from going on past it
    engine = MaskEngine(rs)
    searches, images = record_calls(monkeypatch, "_search"), record_calls(monkeypatch, "images")
    assert engine.classes(engine.bits([0b111])) == [(60, 7)]
    assert len(searches) == 1
    distance = oracle_levels(python_mask_actions(rs), [0b111])
    levels = [sorted(engine.mask(row) for row in rows) for rows, _, _ in images]
    assert len(levels) == 8
    assert levels == [sorted(m for m, d in distance.items() if d == level)
                      for level in range(max(distance.values()) + 1)]


# -- certificates that need no engine table, key or search --------------------

def reordered(name, order):
    """A fresh root system whose simple roots come in the given order."""
    rs = build_root_system(name)
    rs._scoord_mat = rs._scoord_mat[:, order]  # coordinates in the reordered simple basis
    return rs


def lex_order(rows):
    """The order of index rows as masks, the highest bit first (np.lexsort
    needs a key, so a column of zeros comes first; it decides nothing)."""
    return np.lexsort(np.vstack([np.zeros(len(rows), dtype=rows.dtype), rows.T]))


def certify_stored_orbits(rs):
    """Every orbit the engine stores is one W-orbit: per bit count, the stored
    rows are sets of distinct indices, distinct rows, each simple reflection
    maps them onto themselves and every row into its own orbit, and each
    orbit is connected under the simple reflections (labels take the least
    label of a neighbour until none changes).  The simple reflections
    generate W, so a set of masks that is closed and connected under them is
    one orbit.  No engine table, key or search is used: each image is the
    row's indices permuted, then sorted."""
    from weylinv.involutions import _mask_engine
    stored = _mask_engine(rs)._stored
    perms = [rs.positive_perm(p) for p in rs.simple_reflection_perms()]
    for width in {orbit.rows.shape[1] for orbit in stored}:
        orbits = [orbit.rows for orbit in stored if orbit.rows.shape[1] == width]
        rows = np.concatenate(orbits)
        assert (rows[:, 1:] > rows[:, :-1]).all()  # ascending: each row a set of roots
        owner = np.repeat(np.arange(len(orbits)), [len(orbit) for orbit in orbits])
        order = lex_order(rows)
        ordered = rows[order]
        assert (ordered[1:] != ordered[:-1]).any(axis=1).all()  # distinct: the orbits are disjoint
        neighbours = np.empty((len(rows), len(perms)), dtype=np.intp)
        for g, perm in enumerate(perms):
            images = np.sort(np.asarray(perm)[rows], axis=1)  # bit i goes to bit perm[i]
            at = lex_order(images)
            assert np.array_equal(images[at], ordered)  # the images are the stored rows
            neighbours[at, g] = order
        assert (owner[neighbours] == owner[:, None]).all()  # each in its row's orbit
        labels, before = np.arange(len(rows)), None
        while not np.array_equal(labels, before):
            before = labels
            labels = np.minimum(labels, labels[neighbours].min(axis=1))
            labels = labels[labels]
        assert len(np.unique(labels)) == len(orbits)  # one component per orbit


@pytest.mark.parametrize("name", ["G2", "F4", "D4", "B4", "E6", "D6", "A1xD6", "A2xG2", "E7",
                                  "B8", "A9"])
def test_every_stored_orbit_is_one_orbit(name):
    rs = build_root_system(name)
    classify_involutions(rs)
    classify_cubes(rs)
    certify_stored_orbits(rs)


@pytest.mark.parametrize("order", [(1, 3, 0, 2), (2, 0, 3, 1)])
def test_every_orbit_of_reordered_a4_masks_is_one_orbit(order):
    # in these orders some searches keep an image that lies in the level
    # below, so the orbit of every mask is searched, not only the classes'
    from weylinv.involutions import _mask_engine
    rs = reordered("A4", order)
    engine = _mask_engine(rs)
    found = engine.classes(engine.bits(range(1 << rs.n_positive)))
    assert sum(size for size, _ in found) == 1 << rs.n_positive
    certify_stored_orbits(rs)


def has_minus_one(rs):
    """Whether a greedy set of orthogonal positive roots reaches the rank: the
    product of their reflections is then -1, which is in W."""
    pos = rs._icoord_mat[:rs.n_positive]
    picked = []
    for i in range(rs.n_positive):
        if not (pos[picked] @ pos[i]).any():
            picked.append(i)
    return len(picked) == rs.rank


@pytest.mark.parametrize("name", ["A1", "B3", "B4", "C4", "D4", "D6", "F4", "G2", "E7", "B8",
                                  "A1xD6", "A1xE7", "E8"])
def test_minus_one_maps_degree_k_classes_onto_degree_r_minus_k(name):
    """With -1 in W, -w is an involution of degree r - k for w of degree k,
    and it negates exactly the positive roots orthogonal to the (-1)-eigenspace
    of w, which the roots w negates span.  So the orthogonal complements of a
    degree-k orbit, read off the root coordinates, are a degree-(r - k) orbit."""
    from weylinv.involutions import _mask_engine
    rs = build_root_system(name)
    assert has_minus_one(rs)
    P, engine, classes = rs.n_positive, _mask_engine(rs), classify_involutions(rs)
    pos = rs._icoord_mat[:P]
    meets = (pos @ pos.T != 0).astype(np.float32)  # exact: a row sums at most P ones

    def orbit(cls):
        return engine.orbit(cls.representative.mask).rows

    def complements(rows):
        bits = np.zeros((len(rows), P), dtype=np.float32)
        np.put_along_axis(bits, rows.astype(np.intp), 1, axis=1)
        orthogonal = bits @ meets == 0
        widths = orthogonal.sum(axis=1)
        assert (widths == widths[0]).all()  # one orbit: one width
        return orthogonal.nonzero()[1].astype(rows.dtype).reshape(len(rows), -1)

    def table(rows):
        return rows.shape, rows[lex_order(rows)].tobytes()

    assert sorted((rs.rank - c.degree, table(complements(orbit(c)))) for c in classes) == \
        sorted((c.degree, table(orbit(c))) for c in classes)


@pytest.mark.parametrize("name,order", [
    ("A4", (1, 3, 0, 2)), ("A4", (2, 0, 3, 1)), ("D4", (3, 1, 0, 2)), ("B4", (2, 0, 3, 1)),
    ("F4", (3, 2, 1, 0)), ("E6", (4, 2, 0, 5, 3, 1)), ("E7", (6, 3, 0, 4, 1, 5, 2))])
def test_tables_do_not_depend_on_the_order_of_the_simple_reflections(system, name, order):
    # sizes and least masks are properties of the orbits, not of the search
    assert _class_rows(reordered(name, order)) == _class_rows(system(name))


@pytest.mark.parametrize("name,order", [
    ("A4", (1, 3, 0, 2)), ("A4", (2, 0, 3, 1)), ("E7", (6, 3, 0, 4, 1, 5, 2))])
def test_simple_order_lives_in_the_simple_coordinates(system, name, order):
    # permuting _scoord_mat's columns alone reorders simple_indices, which
    # cannot be assigned, and every class representative keeps its trace
    rs = reordered(name, order)
    assert rs.simple_indices == tuple(system(name).simple_indices[j] for j in order)
    with pytest.raises(AttributeError):
        rs.simple_indices = system(name).simple_indices
    for cls in classify_involutions(rs):
        assert coxeter_trace(cls.representative.element) == rs.rank - 2 * cls.degree


@pytest.mark.parametrize("name", ["A4", "D4", "B4", "F4", "E6", "E7"])
def test_tables_do_not_depend_on_the_key_seed(monkeypatch, system, name):
    from weylinv import involutions
    expected = _class_rows(system(name))
    monkeypatch.setattr(involutions, "_KEY_SEED", 0xD1B54A32D192ED03)
    assert _class_rows(build_root_system(name)) == expected


@pytest.mark.parametrize("name", RANK_LE_4 + ["A5", "A7", "B6", "C5", "D6", "D8", "E6", "E7",
                                              "E8", "A1xA2", "A2xG2", "B2xG2", "A1xD4",
                                              "A1xD6", "A1xE7"])
def test_engine_commuting_table_is_commuting_reflections(name):
    from weylinv.involutions import MaskEngine
    rs = build_root_system(name)
    engine = MaskEngine(rs)
    perms = rs.simple_reflection_perms()
    table = np.unpackbits(engine._commuting, axis=1, count=engine.ngens, bitorder="little")
    assert table.tolist() == [[int(h != g and np.array_equal(a[b], b[a]))
                               for g, b in enumerate(perms)] for h, a in enumerate(perms)]


def test_engine_rejects_key_collision_with_a_stored_orbit(monkeypatch):
    from weylinv import InternalError
    from weylinv import involutions
    from weylinv.involutions import MaskEngine
    rs = build_root_system("B2")  # the long and the short roots are two orbits
    engine = MaskEngine(rs)
    stored = [engine.mask(row).bit_length() - 1 for row in engine.orbit(0b1).rows]
    seed = min(set(range(rs.n_positive)) - set(stored))
    keys = involutions._bit_keys(rs.n_positive)
    keys[seed] = keys[stored[-1]]  # the seed shares the key of a stored root of the other orbit
    monkeypatch.setattr(involutions, "_bit_keys", lambda nbits: keys)
    engine = MaskEngine(rs)
    engine.classes(engine.bits([0b1]))
    with pytest.raises(InternalError, match="share a 64-bit key"):
        engine.classes(engine.bits([1 << seed]))


def test_cubes_and_conjugate_orbits_reuse_the_involution_layers(monkeypatch):
    from weylinv import conj_subsystem_rep
    from weylinv.involutions import MaskEngine, _mask_engine
    searched = []
    search = MaskEngine._search

    def counted(self, *args):
        found = search(self, *args)
        searched.append(len(found.rows))
        return found
    monkeypatch.setattr(MaskEngine, "_search", counted)
    rs = build_root_system("E7")
    assert involution_count(rs) == sum(searched) == 10208
    searched.clear()
    assert sum(c.size for c in classify_cubes(rs)) == 13744
    assert sum(searched) == 4860  # the rest are involution orbits
    searched.clear()
    for target in ("A1", "D2", "D4"):
        conj_subsystem_rep(rs, target)
    assert searched == []
    # an orbit's rows are the stored array, not a copy
    engine = _mask_engine(rs)
    rows = engine.orbit(find_subsystem(rs, "A1").positive_closure_mask()).rows
    assert any(rows is orbit.rows for orbit in engine._stored)


# (searches, rows searched) of classify_involutions then classify_cubes: one
# search per involution class, and one per cube class not read off them
SEARCHES = {"E7": ((10, 10_208), (4, 4_860)), "E8": ((10, 199_952), (5, 197_775))}
# bytes of the stored rows at the end (8 bytes of key each besides)
STORED_BYTES = {"E7": 71_946, "E8": 2_299_560}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_each_search_stores_one_orbit(monkeypatch, name):
    from weylinv.involutions import _mask_engine
    searches = record_calls(monkeypatch, "_search")
    rs = build_root_system(name)
    engine, counts = _mask_engine(rs), []
    for classify in classify_involutions, classify_cubes:
        called, stored = len(searches), len(engine._stored)
        classify(rs)
        counts.append((len(searches) - called,
                       sum(len(orbit.rows) for orbit in engine._stored[stored:])))
    assert len(searches) == len(engine._stored)
    assert tuple(counts) == SEARCHES[name]
    for width in {orbit.rows.shape[1] for orbit in engine._stored}:
        rows = np.concatenate([o.rows for o in engine._stored if o.rows.shape[1] == width])
        assert len(np.unique(rows, axis=0)) == len(rows)  # the orbits are disjoint
    # a row is a byte per bit set, so the rows hold the sum of size * bits set
    assert sum(orbit.rows.nbytes for orbit in engine._stored) == \
        sum(orbit.rows.size for orbit in engine._stored) == STORED_BYTES[name]


def test_engine_tables_are_small():
    # an index table and a key per root, small skip tables: no per-byte image tables
    from weylinv.involutions import MaskEngine
    engine = MaskEngine(build_root_system("E8"))
    tables = [v for k, v in vars(engine).items() if isinstance(v, np.ndarray)]
    assert tables and sum(v.nbytes for v in tables) <= 4096


def test_reduction_adds_little_to_the_peak():
    # count_inside reads an orbit a column at a time: a take of all its rows
    # at once would build an intp temporary of 8 bytes a bit (4.5 MB on E8)
    import tracemalloc
    rs = build_root_system("E8")
    classify_involutions(rs)
    classify_cubes(rs)
    sub = find_subsystem(rs, "D8")
    tracemalloc.start()
    try:
        assert verify_reduction(rs, sub).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("name", ["D6", "E7", "E8"])
def test_conjugate_orbits_are_stored_read_only_arrays(name):
    from weylinv import base_catalogue
    from weylinv.involutions import _mask_engine
    rs = build_root_system(name)
    classify_involutions(rs)  # so that some subsystems' orbits are parts of its searches
    base, _ = base_catalogue(rs)
    targets = [rep.descriptor[len("conj["):-1] for rep in base
               if rep.descriptor.startswith("conj[")]
    assert "D4" in targets
    engine = _mask_engine(rs)
    for target in targets:
        rows = engine.orbit(find_subsystem(rs, target).positive_closure_mask()).rows
        assert not rows.flags.writeable, target
        assert any(rows is orbit.rows for orbit in engine._stored), target


def fixed_rows(orbit, perm) -> int:
    """How many rows of an orbit the permutation of bits fixes, row by row."""
    images = np.sort(perm[orbit.rows.astype(np.intp)], axis=1)
    return int(np.count_nonzero((images == orbit.rows).all(axis=1)))


def searched_conjugates(sub, classes):
    """The size of a subsystem's orbit, searched by a fresh engine, and how
    many of its masks each class representative fixes."""
    from weylinv.involutions import MaskEngine
    engine, P = MaskEngine(sub.ambient), sub.ambient.n_positive
    orbit = engine.orbit(sub.positive_closure_mask())
    return len(orbit.rows), [fixed_rows(orbit, c.representative.element.images[:P] % P)
                             for c in classes]


# (ambient, subsystem, subsystems whose conjugates are read first): the
# subsystem is the perp of its perp, whose orbit is stored by then
PERP_READS = [("E8", "D5", ("D3",)), ("E6", "D3", ()), ("A5", "D3", ()),
              ("D7", "D5", ()), ("D9", "D5", ()), ("D5", "D5", ())]


@pytest.mark.parametrize("name, target, first", PERP_READS,
                         ids=[f"{name}:{target}" for name, target, _ in PERP_READS])
def test_conjugates_read_the_stored_orbit_of_the_perp(monkeypatch, name, target, first):
    from weylinv import conj_subsystem_rep
    from weylinv.involutions import _mask_engine
    rs = build_root_system(name)
    classes = classify_involutions(rs)
    for other in first:
        conj_subsystem_rep(rs, other)
    sub = find_subsystem(rs, target)
    assert _mask_engine(rs).stored(sub.positive_closure_mask()) is None
    searches = record_calls(monkeypatch, "_search")
    rep = conj_subsystem_rep(rs, sub)
    values = [rep.class_value(c) for c in classes]
    assert searches == []
    assert (rep.dim, values) == searched_conjugates(sub, classes)


def test_conjugates_search_their_own_orbit_when_the_perp_of_the_perp_is_larger(monkeypatch):
    from weylinv import conj_subsystem_rep
    from weylinv.involutions import _mask_bits, _mask_engine, _orthogonal_to
    rs = build_root_system("E7")
    classes = classify_involutions(rs)
    sub = find_subsystem(rs, "D5")
    mask = sub.positive_closure_mask()
    perp = _orthogonal_to(rs, _mask_bits(mask))
    assert perp.bit_count() == 1 and _mask_engine(rs).stored(perp) is not None  # an A1
    assert _orthogonal_to(rs, _mask_bits(perp)).bit_count() == 30  # a D6, not the D5
    searches = record_calls(monkeypatch, "_search")
    rep = conj_subsystem_rep(rs, sub)
    assert len(searches) == 1 and rep.dim == 378  # not the 63 roots of E7
    assert (rep.dim, [rep.class_value(c) for c in classes]) == searched_conjugates(sub, classes)


def test_e8_catalogue_searches_one_orbit(monkeypatch):
    from weylinv import base_catalogue
    rs = build_root_system("E8")
    classify_involutions(rs)
    searches = record_calls(monkeypatch, "_search")
    base, skipped = base_catalogue(rs)
    dims = {rep.descriptor: rep.dim for rep in base if rep.descriptor.startswith("conj[")}
    assert dims == {"conj[A1]": 120, "conj[D2]": 3_780, "conj[D3]": 7_560,
                    "conj[D4]": 3_150, "conj[D5]": 7_560} and not skipped
    assert [len(row) for row, _ in searches] == [6]  # conj[D3]; conj[D5] reads its orbit


def test_fixed_points_of_the_identity_and_minus_one(minus_one):
    from weylinv.involutions import _mask_engine
    rs = build_root_system("E8")
    P = rs.n_positive
    classes = classify_involutions(rs)
    classify_cubes(rs)
    engine = _mask_engine(rs)
    perms = [identity(rs).images[:P] % P, minus_one(rs).images[:P] % P,
             classes[1].representative.element.images[:P] % P]  # and a reflection
    for orbit in engine._stored:
        counts = [engine.fixed_points(orbit, perm) for perm in perms]
        assert counts == [fixed_rows(orbit, perm) for perm in perms]
        assert counts[:2] == [len(orbit.rows)] * 2


# (row, reflection) images the orbit search sorted when it computed every
# image but a row's parents, in classify_involutions then classify_cubes
UNPRUNED_IMAGES = {"E7": (44_393, 18_900), "E8": (933_604, 859_190)}


@pytest.mark.parametrize("name", sorted(UNPRUNED_IMAGES))
def test_commuting_reflections_prune_half_the_images(monkeypatch, name):
    from weylinv.involutions import MaskEngine
    gathered = []
    images = MaskEngine.images

    def counted(self, rows, at, gens):
        gathered.append(len(at))
        return images(self, rows, at, gens)
    monkeypatch.setattr(MaskEngine, "images", counted)
    rs = build_root_system(name)
    counts = []
    for classify in classify_involutions, classify_cubes:
        gathered.clear()
        classify(rs)
        counts.append(sum(gathered))
    # pruned by commuting reflections: E7 20,695 and 8,058; E8 353,376 and 306,059
    assert all(2 * n <= before for n, before in zip(counts, UNPRUNED_IMAGES[name]))


def test_no_orbit_rows_outside_the_engine():
    from weylinv.involutions import MaskEngine
    rs = build_root_system("E7")
    classify_involutions(rs)
    classify_cubes(rs)
    for sub in ("A1", "A1xD6"):
        verify_reduction(rs, find_subsystem(rs, sub))
    held, seen = [], set()

    def walk(value):
        if id(value) in seen or isinstance(value, (RootSystem, MaskEngine)):
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            held.append(value)
        elif isinstance(value, dict):
            for item in value.items():
                walk(item)
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                walk(item)
        else:
            for name in getattr(type(value), "__slots__", ()):
                walk(getattr(value, name, None))
            walk(getattr(value, "__dict__", None))
    walk(list(rs._memo.values()))
    assert held  # the walk reaches the classes' group elements
    dtype = MaskEngine(rs).dtype
    # no keys and no index rows (a 2-d array of the engine's dtype)
    assert not [a for a in held if a.dtype == np.uint64 or a.ndim == 2 and a.dtype == dtype]


@pytest.mark.parametrize("name", ["E6", "E7", "F4", "D6", "A1xD6"])
def test_results_do_not_depend_on_what_ran_before(name):
    from weylinv import conj_subsystem_rep

    def involutions(rs):
        return [(c.class_id, c.degree, c.size, c.splitting.roots, c.representative.mask)
                for c in classify_involutions(rs)]

    def cubes(rs):
        return [(c.rank, c.size, c.representative.roots) for c in classify_cubes(rs)]

    def reductions(rs):
        return [verify_reduction(rs, find_subsystem(rs, sub))
                for amb, sub, _ in REDUCTION_PAIRS if amb == name]

    def conjugates(rs):
        return [conj_subsystem_rep(rs, target).dim for target in ("A1", "D2", "D4")]

    steps = [involutions, cubes, reductions, conjugates]
    fresh = [step(build_root_system(name)) for step in steps]
    for order in ([0, 1, 2, 3], [1, 0, 2, 3], [3, 2, 1, 0]):
        rs = build_root_system(name)
        found = {i: steps[i](rs) for i in order}
        assert [found[i] for i in range(len(steps))] == fresh, order


def test_engine_stops_past_the_longest_element():
    from weylinv import InternalError
    from weylinv.involutions import MaskEngine
    rs = build_root_system("A4")
    engine = MaskEngine(rs)
    engine.nbits = 2  # as if no reduced word were longer than two reflections
    with pytest.raises(InternalError, match="past the longest element"):
        engine.classes(engine.bits([0b1]))  # some roots are three reflections from root 0


@pytest.mark.parametrize("amb,sub", [(amb, sub) for amb, sub, _ in REDUCTION_PAIRS])
def test_reduction_independent_of_cube_state(system, amb, sub):
    fresh = build_root_system(amb)
    classified = system(amb)
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


# -- the per-system memo ----------------------------------------------------------

def _class_rows(rs):
    return ([(c.class_id, c.degree, c.size, c.splitting.roots,
              c.representative.mask) for c in classify_involutions(rs)],
            [(c.rank, c.size, c.representative.roots) for c in classify_cubes(rs)])


def test_classification_is_the_same_on_a_fresh_system(system):
    assert _class_rows(build_root_system("B3")) == _class_rows(system("B3"))


def test_memo_is_per_system(system):
    from weylinv.involutions import _mask_engine
    calls = []

    @memoized
    def probe(rs):
        calls.append(rs)
        return object()

    rs, fresh = system("A2"), build_root_system("A2")
    assert probe(rs) is probe(rs)
    assert probe(fresh) is not probe(rs)
    assert calls == [rs, fresh]
    for fn in (classify_involutions, classify_cubes, stab_chain, _mask_engine):
        assert fn(rs) is fn(rs)
        assert fn(fresh) is not fn(rs)
