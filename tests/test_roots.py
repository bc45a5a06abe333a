"""Root system construction, reflection geometry, subsystem search."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from weylinv import TypeSpec, build_root_system, find_subsystem, group_order, reflect
from weylinv.verify import REDUCTION_PAIRS


def closure_oracle(simples):
    """Reflection closure in plain Python, no library reuse.

    Coordinates are doubled to integers, where the reflection coefficient
    2(v, a)/(a, a) is exact.  Each root is reflected in every simple root
    once, when it first appears.
    """
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def mirror(v, a):
        c, rest = divmod(2 * dot(v, a), dot(a, a))
        assert rest == 0, "non-integral reflection coefficient"
        return tuple(x - c * y for x, y in zip(v, a))

    gens = [tuple(int(2 * Fraction(x)) for x in s) for s in simples]
    roots, frontier = set(gens), list(gens)
    while frontier:
        nxt = []
        for v in frontier:
            for a in gens:
                image = mirror(v, a)
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return {tuple(Fraction(x, 2) for x in r) for r in roots}


def closure_bfs(rs, chosen):
    """Subsystem closure by index: the orbit of the chosen roots and their
    negatives under the reflection permutations of the chosen roots."""
    seen = set(chosen) | {rs.negative_index(i) for i in chosen}
    frontier = list(seen)
    gens = [rs.reflection_perm(i) for i in chosen]
    while frontier:
        new = []
        for idx in frontier:
            for perm in gens:
                img = int(perm[idx])
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return tuple(sorted(seen))


def classical_roots(fam, n):
    """Doubled coordinates of the A/B/C/D roots from their closed forms."""
    def vec(dim, *entries):
        row = [0] * dim
        for i, v in entries:
            row[i] = 2 * v
        return tuple(row)

    if fam == "A":  # e_i - e_j in R^{n+1}
        return {vec(n + 1, (i, 1), (j, -1))
                for i in range(n + 1) for j in range(n + 1) if i != j}
    roots = {vec(n, (i, a), (j, b)) for i, j in combinations(range(n), 2)
             for a in (1, -1) for b in (1, -1)}  # +-e_i +- e_j
    if fam in "BC":  # +-e_i or +-2e_i
        roots |= {vec(n, (i, s * (1 if fam == "B" else 2)))
                  for i in range(n) for s in (1, -1)}
    return roots


# -- TypeSpec -----------------------------------------------------------------

def test_typespec_roundtrip():
    for text in ["A1", "a1", "A1xD6", "b4", "E8", "G2", "A1xA1xA1"]:
        spec = TypeSpec.parse(text)
        assert TypeSpec.parse(str(spec)) == spec
    assert str(TypeSpec.parse("a1xd6")) == "A1xD6"
    assert str(TypeSpec.parse("A1Xd6")) == "A1xD6"  # separator case-insensitive too


@pytest.mark.parametrize("bad", ["E5", "E9", "F3", "F5", "G3", "G1", "D1",
                                 "A0", "B0", "H3", "Q2", "", "A", "1A"])
def test_typespec_rejects_illegal(bad):
    with pytest.raises(ValueError):
        TypeSpec.parse(bad)


def test_typespec_error_names_offender():
    with pytest.raises(ValueError, match="E5"):
        TypeSpec.parse("A1xE5")


@pytest.mark.parametrize("name,roots", [("B128", 32768), ("C128", 32768),
                                        ("A180", 32580), ("D128", 32512)])
def test_root_limit_accepts_largest_types(name, roots):
    assert TypeSpec.parse(name).root_count == roots  # parsed, not built


@pytest.mark.parametrize("name", ["A181", "B129", "C129", "D129", "A1xB128"])
def test_root_limit_rejects_int16_overflow(name):
    with pytest.raises(ValueError, match="roots"):
        TypeSpec.parse(name)


# -- construction ----------------------------------------------------------------

def test_a1_roots(system):
    rs = system("A1")
    assert len(rs.roots) == 2
    assert rs.n_positive == 1


def test_g2_closure_matches_oracle(system):
    rs = system("G2")
    simples = [rs.roots[i].coords for i in rs.simple_indices]
    oracle = closure_oracle(simples)
    assert len(oracle) == 12
    assert {r.coords for r in rs.roots} == oracle


def test_e8_closure_matches_oracle(system):
    rs = system("E8")
    simples = [rs.roots[i].coords for i in rs.simple_indices]
    oracle = closure_oracle(simples)
    assert len(oracle) == 240
    assert {r.coords for r in rs.roots} == oracle


@pytest.mark.parametrize("name,total", [
    ("A2", 6), ("B2", 8), ("C3", 18), ("D4", 24), ("F4", 48),
    ("E6", 72), ("E7", 126), ("A1xD6", 62),
])
def test_root_counts_match_oracle(system, name, total):
    rs = system(name)
    simples = [rs.roots[i].coords for i in rs.simple_indices]
    assert len(closure_oracle(simples)) == total
    assert len(rs.roots) == total


@pytest.mark.parametrize("fam", "ABCD")
def test_classical_roots_match_closed_forms(fam):
    for n in range(2 if fam == "D" else 1, 25):
        rs, want = build_root_system(f"{fam}{n}"), classical_roots(fam, n)
        assert {r.icoords for r in rs.roots} == want, f"{fam}{n}"
        assert len(rs.roots) == len(want)  # no root listed twice


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_plus_minus_pairing_and_lengths(system, name):
    rs = system(name)
    P = rs.n_positive
    assert len(rs.roots) == 2 * P
    for i in range(P):
        neg = rs.roots[rs.negative_index(i)]
        assert neg.coords == tuple(-c for c in rs.roots[i].coords)
        assert rs.roots[i].positive and not neg.positive
    for r in rs.roots:
        assert r.norm2 in (1, 2, 3, 4)
        assert any(r.coords)


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "F4", "D4"])
def test_cartan_integers_and_reflection_stability(system, name):
    rs = system(name)
    for i in range(rs.n_positive):
        for j in range(rs.n_positive):
            num = 2 * rs.inner(i, j)
            den = rs.inner(j, j)
            assert (num / den).denominator == 1
    # the image of every root under every simple reflection is a root
    for si in rs.simple_indices:
        perm = rs.reflection_perm(si)
        assert sorted(int(v) for v in perm) == list(range(len(rs.roots)))


# entry (i, j) is 2(a_i, a_j)/(a_j, a_j); note B3's short last root makes
# the (2, 3) entry -2 while C3 has it the other way around
STANDARD_CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}


@pytest.mark.parametrize("name", sorted(STANDARD_CARTAN))
def test_cartan_matrix_of_each_factor(system, name):
    rs = system(name)
    si = rs.simple_indices
    got = [[rs.cartan(i, j) for j in si] for i in si]
    assert got == STANDARD_CARTAN[name]


def test_cartan_matrix_of_product_is_block_diagonal(system):
    rs = system("A1xA2")
    si = rs.simple_indices
    got = [[rs.cartan(i, j) for j in si] for i in si]
    assert got == [[2, 0, 0], [0, 2, -1], [0, -1, 2]]


@pytest.mark.parametrize("name", ["B3", "G2", "A1xA2", "E6"])
def test_orth_masks_match_inner_products(system, name):
    rs = system(name)
    for i in range(rs.n_positive):
        want = sum(1 << j for j in range(rs.n_positive) if rs.inner(i, j) == 0)
        assert rs.orth_masks[i] == want


def test_group_order_builds_no_positive_root_tables():
    from weylinv.roots import _reflection_perm
    rs = build_root_system("A30")
    assert group_order(rs) == math.factorial(31)
    # the P x P tables are built on first use, and the group order uses
    # neither, nor any reflection permutation
    assert "cartan_table" not in rs.__dict__
    assert "orth_masks" not in rs.__dict__
    assert not [key for key in rs._memo if key[0] is _reflection_perm.__wrapped__]


def test_roots_are_built_on_first_read():
    from weylinv import classify_cubes, classify_involutions, verify_reduction
    rs = build_root_system("E7")
    group_order(rs)
    classify_involutions(rs)
    classify_cubes(rs)
    verify_reduction(rs, find_subsystem(rs, "A1xD6"))
    assert len(rs) == 126 and rs.inner(0, 0) == 2
    json_roots = rs.to_json_dict()["roots"]
    assert "roots" not in rs.__dict__
    assert json_roots == [[str(c) for c in r.coords] for r in rs.roots]
    assert [rs.inner(0, j) for j in range(len(rs))] == \
        [sum(a * b for a, b in zip(rs.roots[0].coords, r.coords)) for r in rs.roots]


def test_positivity_by_first_simple_coordinate(system):
    rs = system("B3")
    for r in rs.roots:
        lead = next(v for v in r.scoords if v)
        assert (lead > 0) == r.positive


def test_canonical_order_positive_first_by_height(system):
    rs = system("F4")
    heights = [r.height for r in rs.roots[:rs.n_positive]]
    assert heights == sorted(heights)
    assert heights[0] == 1


def test_index_of_rejects_what_is_no_root(system):
    rs = system("A2")
    assert rs.index_of((Fraction(0), Fraction(1), Fraction(-1))) == rs.index_of((0, 1, -1))
    # 2c must be an integer: a truncation would read this as (0, 1, -1)
    with pytest.raises(ValueError, match="not a root"):
        rs.index_of((Fraction(1, 4), 1, -1))
    with pytest.raises(ValueError, match="not a root"):
        rs.index_of((0, 1, -1, 0))
    with pytest.raises(ValueError, match="not a root"):
        rs.index_of((1, -1))
    assert rs.index_of((1.0, -1.0, 0.0)) == rs.index_of((1, -1, 0))
    with pytest.raises(ValueError, match="not a root"):
        rs.index_of((0.3, -1.0, 0.7))


# -- reflect --------------------------------------------------------------------

def test_reflect_root_to_negative(system):
    rs = system("A1")
    alpha = rs.roots[0].coords
    assert reflect(rs, rs.roots[0], alpha) == tuple(-c for c in alpha)


def test_reflect_fixes_orthogonal_vector(system):
    rs = system("B2")
    e1_minus_e2 = rs.index_of((Fraction(1), Fraction(-1)))
    fixed = (Fraction(1), Fraction(1))
    assert reflect(rs, e1_minus_e2, fixed) == fixed


def test_reflect_is_involution_on_all_b2_roots(system):
    rs = system("B2")
    for m in range(len(rs.roots)):
        for r in rs.roots:
            once = reflect(rs, m, r.coords)
            assert reflect(rs, m, once) == r.coords


def test_reflect_rejects_dimension_mismatch(system):
    rs = system("B2")
    with pytest.raises(ValueError):
        reflect(rs, 0, (Fraction(1),))
    with pytest.raises(ValueError):
        reflect(rs, (Fraction(5), Fraction(7)), (Fraction(1), Fraction(0)))


# -- find_subsystem ---------------------------------------------------------------

def test_find_subsystem_d5_in_e6(system):
    rs = system("E6")
    emb = find_subsystem(rs, "D5")
    assert emb is not None
    tc = emb.sub_simple_roots
    # chosen roots realize the D5 Cartan matrix
    sub = build_root_system("D5")
    si = sub.simple_indices
    want = [[sub.cartan(i, j) for j in si] for i in si]
    got = [[rs.cartan(a, b) for b in tc] for a in tc]
    assert got == want


def test_find_subsystem_d8_closure_size(system):
    rs = system("E8")
    emb = find_subsystem(rs, "D8")
    assert emb is not None
    closure = emb.closure()
    assert len(closure) == 112
    # closure is stable under its own reflections
    idx_set = set(closure)
    for i in closure:
        perm = rs.reflection_perm(i)
        assert all(int(perm[j]) in idx_set for j in closure)


CLOSURE_CASES = ([(amb, sub) for amb, sub, _ in REDUCTION_PAIRS]
                 + [(amb, sub) for amb in ["D6", "E6", "E7", "E8", "F4", "B3", "C4"]
                    for sub in ["A1", "D2", "D3", "D4", "D5"]
                    if TypeSpec.parse(sub).rank <= TypeSpec.parse(amb).rank])


@pytest.mark.parametrize("amb,sub", CLOSURE_CASES)
def test_closure_matches_index_bfs(system, amb, sub):
    rs = system(amb)
    emb = find_subsystem(rs, sub)
    closure = emb.closure()
    assert closure == closure_bfs(rs, emb.sub_simple_roots)
    assert len(closure) == TypeSpec.parse(sub).root_count
    assert emb.positive_closure_mask() == sum(1 << i for i in closure if i < rs.n_positive)


def test_closure_of_an_infinite_system_raises():
    from weylinv import InternalError
    from weylinv.roots import _close
    # a and -a as "simple roots": the affine A1 Cartan matrix, an infinite group
    with pytest.raises(InternalError, match="does not end"):
        _close(np.array([[2, -2], [-2, 2]], dtype=np.int64))


def test_find_subsystem_not_found(system):
    assert find_subsystem(system("A2"), "B2") is None


@pytest.mark.parametrize("amb,sub", [("E8", "A9"), ("E8", "A1xE8"), ("D12", "A13"),
                                     ("G2", "A1xA1xA1")])
def test_find_subsystem_refuses_a_larger_rank_at_once(amb, sub):
    # roots realizing a finite-type Cartan matrix are linearly independent,
    # so no search runs and no Cartan table is built
    rs = build_root_system(amb)
    assert find_subsystem(rs, sub) is None
    assert "cartan_table" not in rs.__dict__


def nested_loop_subsystem(rs, target):
    """The first embedding in the order of find_subsystem, one candidate
    and one chosen root at a time."""
    from weylinv.roots import target_cartan_matrix
    tc = target_cartan_matrix(TypeSpec.parse(target))
    table = rs.cartan_table
    chosen = []

    def extend(pos):
        if pos == len(tc):
            return True
        for cand in range(rs.n_positive):
            if all(table[cand, prev] == tc[pos][j] and table[prev, cand] == tc[j][pos]
                   for j, prev in enumerate(chosen)):
                chosen.append(cand)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


@pytest.mark.parametrize("amb,sub", [
    ("E8", "E7"), ("E8", "D8"), ("E8", "A1xE7"), ("E8", "A8"), ("E7", "A7"), ("E7", "D6"),
    ("E6", "A2xA2xA2"), ("F4", "B4"), ("F4", "C3"), ("B4", "D4"), ("C4", "D4"), ("D6", "A1xD4"),
    ("G2", "A1xA1"), ("A2", "B2"), ("A5", "D4"), ("A7", "D4"), ("B5", "A5"),
    ("D5", "A1xA1xA1xA1xA1"), ("D6", "E6"), ("E6", "B3"), ("B3", "G2")])
def test_find_subsystem_matches_the_nested_loop(system, amb, sub):
    rs = system(amb)
    emb = find_subsystem(rs, sub)
    assert (emb and emb.sub_simple_roots) == nested_loop_subsystem(rs, sub)


def test_find_subsystem_respects_lengths(system):
    rs = system("G2")
    emb = find_subsystem(rs, "A1xA1")
    assert emb is not None
    a, b = emb.sub_simple_roots
    assert rs.inner(a, b) == 0
    # G2 orthogonal pairs are always one short, one long
    assert {rs.roots[a].norm2, rs.roots[b].norm2} == {1, 3}


# -- JSON export -------------------------------------------------------------------

def test_root_system_json_schema(system):
    rs = system("B2")
    data = rs.to_json_dict()
    assert data["type"] == "B2"
    assert data["rank"] == 2
    assert len(data["roots"]) == 8
    for row in data["roots"]:
        for value in row:
            num = Fraction(value)  # "p/q" strings parse back
            assert isinstance(num, Fraction)
    # half-integer coordinates survive the round trip for E8
    e8 = system("E8").to_json_dict()
    assert any("/" in v for row in e8["roots"] for v in row)


REFLECTION_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
                    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", REFLECTION_TYPES)
def test_reflection_perm_maps_each_root_to_its_mirror_image(system, name):
    rs = system(name)
    coords = [r.icoords for r in rs.roots]  # integer arithmetic, no library reuse
    for i, alpha in enumerate(coords):
        norm = sum(a * a for a in alpha)
        perm = rs.reflection_perm(i)
        for k, v in enumerate(coords):
            c = 2 * sum(x * a for x, a in zip(v, alpha))
            assert c % norm == 0
            assert rs.roots[perm[k]].icoords == \
                tuple(x - c // norm * a for x, a in zip(v, alpha))
