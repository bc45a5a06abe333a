"""The F2[t] coefficient ring, cube algebra, restriction and pairing."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylinv import (BasePoly, CubeClassElement, InvariantExpr, canonical_basis,
                     character_multiplicities, classify_involutions,
                     coxeter_rep, direct_sum, expand, enumerate_cubes, pairing,
                     perm_roots_rep, restrict_to_cube, sign_rep, sw,
                     top_coefficient, total_class, trivial_rep)

polys = st.integers(min_value=0, max_value=2 ** 12 - 1).map(BasePoly)


# -- BasePoly -------------------------------------------------------------------

@given(polys, polys, polys)
def test_base_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == BasePoly.zero()
    assert a * BasePoly.one() == a


@given(polys, polys)
def test_base_poly_frobenius(a, b):
    assert (a + b) ** 2 == a ** 2 + b ** 2


def test_base_poly_printing():
    assert str(BasePoly.zero()) == "0"
    assert str(BasePoly.one()) == "1"
    assert str(BasePoly.t_power(1)) == "t"
    assert str(BasePoly.t_power(2) + BasePoly.one()) == "t^2+1"
    assert str(BasePoly.t_power(3) + BasePoly.t_power(1)) == "t^3+t"


def test_base_poly_homogeneity():
    assert BasePoly.zero().is_homogeneous()
    assert BasePoly.t_power(4).is_homogeneous()
    assert not (BasePoly.one() + BasePoly.t_power(1)).is_homogeneous()
    assert BasePoly.t_power(3).degree() == 3
    assert BasePoly.zero().degree() is None


def test_base_poly_specialization_at_zero():
    assert (BasePoly.one() + BasePoly.t_power(2)).at_t_zero() == 1
    assert BasePoly.t_power(1).at_t_zero() == 0


# -- cube algebra ------------------------------------------------------------------

def gen(rank, i):
    return CubeClassElement.generator(rank, i)


def test_square_free_expansion():
    one = CubeClassElement.one(2)
    product = (one + gen(2, 0)) * (one + gen(2, 1))
    assert product == one + gen(2, 0) + gen(2, 1) + gen(2, 0) * gen(2, 1)


def test_generator_square_reduction():
    t = BasePoly.t_power(1)
    for rank in (1, 2, 4):
        for i in range(rank):
            x = gen(rank, i)
            assert x * x == x.scale(t)


def test_spec_square_example():
    one = CubeClassElement.one(2)
    x1, x2 = gen(2, 0), gen(2, 1)
    e = one + x1 + x2
    t = BasePoly.t_power(1)
    assert e * e == one + x1.scale(t) + x2.scale(t)


def test_multiplication_by_one_is_identity():
    a = CubeClassElement(3, {0b101: 7, 0b010: 3})
    assert a * CubeClassElement.one(3) == a


@given(st.integers(1, 3), st.data())
def test_cube_algebra_frobenius(rank, data):
    coeffs_a = {data.draw(st.integers(0, 2 ** rank - 1)): data.draw(st.integers(0, 15))
                for _ in range(3)}
    coeffs_b = {data.draw(st.integers(0, 2 ** rank - 1)): data.draw(st.integers(0, 15))
                for _ in range(3)}
    a = CubeClassElement(rank, coeffs_a)
    b = CubeClassElement(rank, coeffs_b)
    assert (a + b) * (a + b) == a * a + b * b
    assert a * b == b * a


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        CubeClassElement.one(2) * CubeClassElement.one(3)


def test_top_coefficient_examples():
    n = 3
    full = gen(n, 0) * gen(n, 1) * gen(n, 2)
    assert top_coefficient(full) == BasePoly.one()
    assert top_coefficient(CubeClassElement.one(n)) == BasePoly.zero()
    mixed = CubeClassElement(2, {0b11: 0b1000, 0b01: 1})  # t^3 x1x2 + x1
    assert top_coefficient(mixed) == BasePoly.t_power(3)


# -- restriction --------------------------------------------------------------------

def test_trivial_restriction_is_one(system):
    rs = system("B2")
    cube = next(c for c in enumerate_cubes(rs) if len(c) == 2)
    triv = trivial_rep(rs, 5)
    assert total_class(triv, cube) == CubeClassElement.one(2)
    assert not restrict_to_cube(sw(triv, 1), cube)


def test_b2_coxeter_total_class(system):
    rs = system("B2")
    from fractions import Fraction
    e1 = rs.index_of((Fraction(1), Fraction(0)))
    e2 = rs.index_of((Fraction(0), Fraction(1)))
    from weylinv import Cube
    cube = Cube(rs, (e1, e2))
    mults = character_multiplicities(coxeter_rep(rs), cube)
    assert mults == [0, 1, 1, 0]
    one = CubeClassElement.one(2)
    assert total_class(coxeter_rep(rs), cube) == \
        (one + gen(2, 0)) * (one + gen(2, 1))


def test_multiplicities_sum_to_dimension(system):
    rs = system("B3")
    reps = [coxeter_rep(rs), sign_rep(rs), perm_roots_rep(rs)]
    for cube in enumerate_cubes(rs):
        for rep in reps:
            assert sum(character_multiplicities(rep, cube)) == rep.dim


def test_restriction_is_multiplicative(system):
    rs = system("B3")
    rng = random.Random(9)
    cox = coxeter_rep(rs)
    sgn = sign_rep(rs)
    cubes = [c for c in enumerate_cubes(rs) if len(c) <= 3]
    pool = [sw(cox, 1), sw(cox, 2), sw(sgn, 1),
            sw(cox, 1) + InvariantExpr.t(rs), InvariantExpr.one(rs)]
    for _ in range(12):
        e1, e2 = rng.choice(pool), rng.choice(pool)
        for cube in cubes:
            assert restrict_to_cube(e1 * e2, cube) == \
                restrict_to_cube(e1, cube) * restrict_to_cube(e2, cube)


def test_whitney_sum_on_cubes(system):
    rs = system("B3")
    cox, sgn = coxeter_rep(rs), sign_rep(rs)
    for cube in enumerate_cubes(rs):
        assert total_class(direct_sum(cox, sgn), cube) == \
            total_class(cox, cube) * total_class(sgn, cube)


def test_restriction_rejects_foreign_cube(system):
    rs, other = system("B2"), system("A2")
    from weylinv import Cube
    with pytest.raises(ValueError):
        restrict_to_cube(sw(coxeter_rep(rs), 1), Cube(other, (0,)))
    with pytest.raises(ValueError):
        pairing(sw(coxeter_rep(rs), 1), classify_involutions(other)[1])


def test_multiplicity_rejects_corrupted_traces(system):
    # fake trace oracles that are not characters of orthogonal reps produce
    # fractional or negative multiplicities, which restriction must refuse
    rs = system("B2")
    from weylinv import Cube, Representation
    cube = Cube(rs, (0,))
    fractional = Representation("bogus1", 1, rs,
                                lambda g: 1 if g.is_identity() else 2)
    with pytest.raises(ValueError):
        character_multiplicities(fractional, cube)
    negative = Representation("bogus2", 1, rs,
                              lambda g: 1 if g.is_identity() else 3)
    with pytest.raises(ValueError):
        character_multiplicities(negative, cube)


def _power(a, m):
    out = CubeClassElement.one(a.rank)
    for bit in bin(m)[2:]:
        out = out * out
        if bit == "1":
            out = out * a
    return out


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_total_class_is_the_product_over_characters(system, name):
    # the closed form against prod_E (1 + L_E)^(m_E), multiplied out in the
    # cube algebra, with L_E the sum of the generators in E
    from weylinv import Cube, GapBudget, Representation, base_catalogue
    rs = system(name)
    reps, _ = base_catalogue(rs, GapBudget())
    for cube in enumerate_cubes(rs):
        n = len(cube)
        for rep in reps:
            want = CubeClassElement.one(n)
            for eps, m in enumerate(character_multiplicities(rep, cube)):
                line = sum((gen(n, i) for i in range(n) if eps >> i & 1),
                           CubeClassElement(n))
                want = want * _power(CubeClassElement.one(n) + line, m)
            assert total_class(rep, cube) == want
    for value in (2, 3):  # a fractional and a negative multiplicity
        bogus = Representation("bogus", 1, rs, lambda g: 1 if g.is_identity() else value)
        with pytest.raises(ValueError):
            total_class(bogus, Cube(rs, (0,)))


def _restriction_by_elements(rep, cube):
    """The restriction as read element by element: rep.trace at each product
    g_S, the Hadamard transform of those traces into multiplicities, and the
    transform {S : C(N(S), k) odd} of sw_k for every k = 0..dim."""
    from weylinv import GroupElement, identity
    rs, n = cube.home, len(cube)
    elements = [identity(rs).images]  # entry S is the product g_S
    for i in cube.roots:
        elements += [img[rs.reflection_perm(i)] for img in elements]
    traces = [rep.trace(GroupElement(img, rs)) for img in elements]
    mults = []
    for eps in range(1 << n):
        total = sum(-t if (eps & s).bit_count() & 1 else t for s, t in enumerate(traces))
        assert total % (1 << n) == 0
        mults.append(total >> n)
    minus = [(rep.dim - t) // 2 for t in traces]
    transforms = [sum(1 << s for s, m in enumerate(minus) if m & k == k)
                  for k in range(rep.dim + 1)]
    return mults, transforms


@pytest.mark.parametrize("name", ["B3", "D4", "F4", "D6", "E6", "E7"])
def test_restriction_matches_the_per_element_oracle(system, name):
    # the restriction reads each trace once per orbit of the products g_S,
    # looked up in the orbit engine; the oracle evaluates it at every g_S
    from weylinv import GapBudget, base_catalogue, classify_involutions, enumerate_cubes, tensor
    from weylinv.invariants import _from_transforms, _transform
    rs = system(name)
    reps, _ = base_catalogue(rs, GapBudget())
    reps += [direct_sum(reps[1], reps[-1]), tensor(reps[1], reps[3])]
    if name in ("B3", "D4", "F4"):
        cubes = list(enumerate_cubes(rs))
    else:
        cubes = [cls.splitting for cls in classify_involutions(rs)]
    for cube in cubes:
        for rep in reps:
            mults, transforms = _restriction_by_elements(rep, cube)
            assert character_multiplicities(rep, cube) == mults
            assert [_transform(rep, cube, k) for k in range(rep.dim + 1)] == transforms
            assert total_class(rep, cube) == _from_transforms(len(cube), enumerate(transforms))


# -- pairing ------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["A2", "B2", "B3", "G2", "C3", "A1xA1"])
def test_pairing_delta(system, name):
    rs = system(name)
    cox = coxeter_rep(rs)
    for cls in classify_involutions(rs):
        for i in range(rs.rank + 1):
            want = BasePoly.one() if i == cls.degree else BasePoly.zero()
            assert pairing(sw(cox, i), cls) == want


def test_pairing_unit_with_identity_class(system):
    rs = system("B3")
    identity_class = classify_involutions(rs)[0]
    assert pairing(InvariantExpr.one(rs), identity_class) == BasePoly.one()


def test_pairing_t_multiple(system):
    rs = system("A2")
    refl = classify_involutions(rs)[1]
    value = pairing(sw(coxeter_rep(rs), 1).scale_t(), refl)
    assert value == BasePoly.t_power(1)


def test_pairing_linearity(system):
    rs = system("B2")
    cox = coxeter_rep(rs)
    exprs = [sw(cox, 1), sw(cox, 2).scale_t(0), sw(cox, 1) * sw(cox, 1)]
    for cls in classify_involutions(rs):
        for e in exprs:
            for k in (1, 2):
                assert pairing(e.scale_t(k), cls) == \
                    BasePoly.t_power(k) * pairing(e, cls)


def test_pairing_rejects_inhomogeneous(system):
    rs = system("A2")
    cox = coxeter_rep(rs)
    mixed = sw(cox, 1) + sw(cox, 2)
    with pytest.raises(ValueError):
        pairing(mixed, classify_involutions(rs)[0])


def test_degree_law(system):
    rs = system("B3")
    cox = coxeter_rep(rs)
    for cls in classify_involutions(rs):
        for i in range(rs.rank + 1):
            for k in (0, 1, 2):
                expr = sw(cox, i).scale_t(k) if k else sw(cox, i)
                value = pairing(expr, cls)
                m = i + k
                if m < cls.degree:
                    assert value == BasePoly.zero()
                else:
                    assert value in (BasePoly.zero(), BasePoly.t_power(m - cls.degree))


# -- expansion ----------------------------------------------------------------------

def test_expand_zero(system):
    rs = system("A2")
    classes = classify_involutions(rs)
    vec = expand(InvariantExpr.zero(rs), classes)
    assert all(poly == BasePoly.zero() for _, poly in vec.coeffs)


def test_expand_sw_is_degree_indicator(system):
    rs = system("B3")
    classes = classify_involutions(rs)
    cox = coxeter_rep(rs)
    for i in range(rs.rank + 1):
        vec = expand(sw(cox, i), classes)
        for cls in classes:
            want = BasePoly.one() if cls.degree == i else BasePoly.zero()
            assert vec.coefficient(cls.class_id) == want


def test_expand_square_on_a2(system):
    rs = system("A2")
    classes = classify_involutions(rs)
    cox = coxeter_rep(rs)
    vec = expand(sw(cox, 1) * sw(cox, 1), classes)
    assert vec.degree == 2
    assert vec.coefficient("d0.0") == BasePoly.zero()
    assert vec.coefficient("d1.0") == BasePoly.t_power(1)


def test_invariant_vector_json(system):
    rs = system("A2")
    classes = classify_involutions(rs)
    vec = expand(sw(coxeter_rep(rs), 1).scale_t(), classes)
    data = vec.to_json_dict()
    assert data["degree"] == 2
    assert data["coeffs"] == {"d0.0": "0", "d1.0": "t"}


# -- canonical basis ----------------------------------------------------------------

def test_canonical_basis_a1(system):
    basis = canonical_basis(classify_involutions(system("A1")))
    assert basis.rank == 2
    assert basis.degrees == (0, 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_canonical_basis_symmetric_groups(system, n):
    basis = canonical_basis(classify_involutions(system(f"A{n - 1}")))
    assert basis.rank == 1 + n // 2


def test_sw_index_bounds(system):
    rs = system("A2")
    cox = coxeter_rep(rs)
    assert sw(cox, 0) == InvariantExpr.one(rs)
    with pytest.raises(ValueError):
        sw(cox, rs.rank + 1)


# -- separation report ----------------------------------------------------------

def test_separation_report_b2_separates_reflection_classes(system):
    from weylinv import GapBudget, base_catalogue, sw_separation_report
    rs = system("B2")
    classes = classify_involutions(rs)
    reps, _ = base_catalogue(rs, GapBudget())
    report = sw_separation_report(classes, reps)
    assert report.unseparated == ()
    assert any(set(pair[:2]) == {"d1.0", "d1.1"} for pair in report.separated)


def test_separation_report_flags_hard_pairs(system):
    # the equal-degree pairs that no catalogued sw-monomial separates are
    # exactly the hard ones; everything else has a witness
    from weylinv import GapBudget, base_catalogue, sw_separation_report
    expected = {"D6": {("d3.0", "d3.1")},
                "E7": {("d3.0", "d3.1"), ("d4.0", "d4.1")}}
    for name, hard in expected.items():
        rs = system(name)
        classes = classify_involutions(rs)
        reps, _ = base_catalogue(rs, GapBudget())
        report = sw_separation_report(classes, reps)
        assert set(report.unseparated) == hard
        second = sw_separation_report(classes, reps)
        assert second == report


def test_separation_witnesses(system):
    from weylinv import GapBudget, base_catalogue, sw_separation_report
    conj_a1, conj_d2 = "sw(conj[A1],1)", "sw(conj[D2],2)"
    expected = {
        "D4": (("d2.0", "d2.1", conj_d2), ("d2.0", "d2.2", conj_d2),
               ("d2.1", "d2.2", "sw(conj[D3],2)")),
        "D6": (("d2.0", "d2.1", conj_d2), ("d3.0", "d3.2", f"{conj_d2}*sw(cox,1)"),
               ("d3.1", "d3.2", f"{conj_d2}*sw(cox,1)"),
               ("d4.0", "d4.1", f"{conj_d2}*sw(cox,2)")),
        "B4": (("d1.0", "d1.1", conj_a1), ("d2.0", "d2.2", f"{conj_a1}*sw(cox,1)"),
               ("d2.1", "d2.2", f"{conj_a1}*sw(cox,1)"),
               ("d2.0", "d2.1", "sw(permroots,2)"),
               ("d3.0", "d3.1", f"{conj_a1}*sw(cox,2)")),
        "F4": (("d1.0", "d1.1", conj_a1), ("d2.0", "d2.1", f"{conj_a1}*sw(cox,1)"),
               ("d3.0", "d3.1", f"{conj_a1}*sw(cox,2)")),
    }
    for name, separated in expected.items():
        rs = system(name)
        reps, _ = base_catalogue(rs, GapBudget())
        report = sw_separation_report(classify_involutions(rs), reps)
        assert report.separated == separated


def _b3_conj_a1_pair(rs):
    """conj[A1] on the long-root and on the short-root A1s of B3."""
    from weylinv import SubsystemEmbedding, TypeSpec, conj_subsystem_rep
    long_root = next(r.index for r in rs.roots if r.norm2 == 2)
    short_root = next(r.index for r in rs.roots if r.norm2 == 1)
    return [conj_subsystem_rep(rs, SubsystemEmbedding(rs, TypeSpec.parse("A1"), (i,)))
            for i in (long_root, short_root)]


def test_total_class_memo_is_per_representation(system):
    from weylinv import Cube
    rs = system("B3")
    long_a1, short_a1 = _b3_conj_a1_pair(rs)
    assert (long_a1.descriptor, long_a1.dim) == ("conj[A1]", 6)
    assert (short_a1.descriptor, short_a1.dim) == ("conj[A1]", 3)
    assert long_a1 != short_a1
    cube = Cube(rs, (0,))
    t = BasePoly.t_power(1)
    assert total_class(long_a1, cube) == CubeClassElement(1, {0: 1, 1: t.bits})
    assert character_multiplicities(short_a1, cube) == [3, 0]
    assert total_class(short_a1, cube) == CubeClassElement.one(1)


def test_the_system_memo_holds_no_representation(system):
    # restrictions live in the representation's memo, so a representation
    # dropped after pairing is freed while its system and classes live on
    import gc
    import weakref
    from weylinv import Representation
    from weylinv.weyl import coxeter_trace

    class WeaklyReferable(Representation):
        __slots__ = ("__weakref__",)

    rs = system("B3")
    classes = classify_involutions(rs)
    cox = WeaklyReferable("cox", rs.rank, rs, coxeter_trace)  # a fresh coxeter_rep
    for cls in classes:
        assert pairing(sw(cox, cls.degree), cls) == BasePoly.one()
        total_class(cox, cls.splitting)
    alive = weakref.ref(cox)
    del cox
    gc.collect()
    assert alive() is None


def test_product_orbits_are_shared_across_representations(monkeypatch):
    from weylinv import build_root_system
    from weylinv.involutions import MaskEngine
    rs = build_root_system("B3")
    cube = classify_involutions(rs)[-1].splitting
    calls = []
    orbit_classes = MaskEngine.orbit_classes

    def counted(engine, rows):
        calls.append(len(rows))
        return orbit_classes(engine, rows)

    monkeypatch.setattr(MaskEngine, "orbit_classes", counted)
    first, second = coxeter_rep(rs), perm_roots_rep(rs)
    total_class(first, cube)
    assert calls == [1 << len(cube)]
    total_class(second, cube)
    assert calls == [1 << len(cube)]


def test_representations_and_invariants_see_no_mask_or_engine():
    # the packed mask rows and the orbit engine stay behind the involutions module
    import weylinv.invariants
    import weylinv.reps
    for module in weylinv.invariants, weylinv.reps:
        assert not {"_mask_engine", "MaskEngine", "negated_rows"} & set(vars(module))


def test_expression_rejects_two_reps_with_one_descriptor(system):
    long_a1, short_a1 = _b3_conj_a1_pair(system("B3"))
    with pytest.raises(ValueError, match="conj"):
        sw(long_a1, 1) + sw(short_a1, 1)
    with pytest.raises(ValueError, match="conj"):
        sw(long_a1, 1) * sw(short_a1, 1)
