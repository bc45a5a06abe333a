"""Exact orthogonal representations of Weyl groups, via trace oracles.

No matrices are materialized beyond the reflection representation itself:
permutation representations count fixed points, exterior powers are read off
eigenvalue multiplicities on involutions (Newton's identities elsewhere), and
sums/tensors combine traces.  Everything returns plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from .roots import InternalError, RootSystem, SubsystemEmbedding, TypeSpec, find_subsystem
from .involutions import InvolutionClass, MaskEngine
from .weyl import GroupElement, compose, coxeter_trace, element_matrix, length_parity


class Representation:
    """An orthogonal representation given by dimension and an exact trace."""

    __slots__ = ("descriptor", "dim", "home", "_trace_fn")

    def __init__(self, descriptor: str, dim: int, home: RootSystem,
                 trace_fn: Callable[[GroupElement], int]):
        self.descriptor = descriptor
        self.dim = dim
        self.home = home
        self._trace_fn = trace_fn

    def trace(self, g: GroupElement) -> int:
        if g.home is not self.home:
            raise ValueError("element belongs to a different root system")
        return self._trace_fn(g)

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.home is other.home
                and self.descriptor == other.descriptor)

    def __hash__(self):
        return hash((id(self.home), self.descriptor))

    def __repr__(self):
        return f"Representation({self.descriptor}, dim {self.dim})"

    def __add__(self, other: "Representation") -> "Representation":
        return direct_sum(self, other)

    def __mul__(self, other: "Representation") -> "Representation":
        return tensor(self, other)


def character(rep: Representation, g: GroupElement) -> int:
    """Exact trace of g in the representation."""
    return rep.trace(g)


def trivial_rep(rs: RootSystem, dim: int = 1) -> Representation:
    return Representation(f"triv{dim}", dim, rs, lambda g: dim)


def coxeter_rep(rs: RootSystem) -> Representation:
    """The reflection representation, on the span of the roots."""
    return Representation("cox", rs.rank, rs, coxeter_trace)


def sign_rep(rs: RootSystem) -> Representation:
    return Representation("sign", 1, rs, length_parity)


def perm_roots_rep(rs: RootSystem) -> Representation:
    """Permutation representation on the full root list."""
    n = len(rs.roots)
    idx = np.arange(n, dtype=np.int16)

    def tr(g: GroupElement) -> int:
        return int(np.count_nonzero(g.images == idx))

    return Representation("permroots", n, rs, tr)


def conj_subsystem_rep(rs: RootSystem, sub: SubsystemEmbedding | str,
                       ) -> Representation:
    """Permutation representation on the orbit of a subsystem under conjugation.

    For a type-spec string, the first subsystem found by find_subsystem is
    used; the orbit (hence the representation) is deterministic.
    """
    if isinstance(sub, str):
        emb = find_subsystem(rs, sub)
        if emb is None:
            raise ValueError(f"{rs.type_spec} has no subsystem of type {sub}")
        sub = emb
    engine = MaskEngine(rs)
    orbit = engine.bit_matrix(engine.orbit(engine.rows([sub.positive_closure_mask()])))
    P = rs.n_positive

    def tr(g: GroupElement) -> int:
        fold = g.images[:P] % P  # bit i of a mask goes to bit fold[i]
        return int(np.count_nonzero((orbit[:, fold] == orbit).all(axis=1)))

    return Representation(f"conj[{sub.sub_type}]", len(orbit), rs, tr)


def _is_involution(g: GroupElement) -> bool:
    return compose(g, g).is_identity()


def exterior_cox_rep(rs: RootSystem, k: int) -> Representation:
    """k-th exterior power of the reflection representation."""
    r = rs.rank
    if not 0 <= k <= r:
        raise ValueError(f"exterior power {k} out of range for rank {r}")

    def tr(g: GroupElement) -> int:
        if _is_involution(g):
            minus = (r - coxeter_trace(g)) // 2
            plus = r - minus
            # coefficient of x^k in (1+x)^plus (1-x)^minus
            return sum(comb(plus, k - j) * comb(minus, j) * (-1) ** j
                       for j in range(0, k + 1))
        return _newton_exterior_trace(element_matrix(g), k)

    return Representation(f"ext{k}(cox)", comb(r, k), rs, tr)


def _newton_exterior_trace(mat: np.ndarray, k: int) -> int:
    """Elementary symmetric function of the eigenvalues via Newton's identities."""
    powers = []
    acc = mat
    for _ in range(k):
        powers.append(int(np.trace(acc)))
        acc = acc @ mat
    e = [Fraction(1)]
    for m in range(1, k + 1):
        s = sum((-1) ** (i - 1) * e[m - i] * powers[i - 1]
                for i in range(1, m + 1))
        e.append(Fraction(s, m))
    if e[k].denominator != 1:
        raise InternalError("non-integral exterior-power trace")
    return int(e[k])


def _signed_axis_action(rs: RootSystem, g: GroupElement) -> tuple[list[int], list[int]]:
    """Express g as a signed permutation of the coordinate axes.

    Only valid for realizations whose elements act monomially on the ambient
    basis (the B/C/D families); anything else raises.
    """
    n = rs.ambient_dim
    perm = [-1] * n
    sign = [0] * n
    for i in range(n):
        j = 1 if i == 0 else 0
        plus = [Fraction(0)] * n
        plus[i], plus[j] = Fraction(1), Fraction(1)
        minus = [Fraction(0)] * n
        minus[i], minus[j] = Fraction(1), Fraction(-1)
        ip = int(g.images[rs.index_of(plus)])
        im = int(g.images[rs.index_of(minus)])
        image = [(a + b) / 2 for a, b in
                 zip(rs.roots[ip].coords, rs.roots[im].coords)]
        nz = [k for k, v in enumerate(image) if v]
        if len(nz) != 1 or abs(image[nz[0]]) != 1:
            raise InternalError("element does not act monomially on the axes")
        perm[i] = nz[0]
        sign[i] = 1 if image[nz[0]] > 0 else -1
    return perm, sign


def half_subset_split_reps(rs: RootSystem) -> tuple[Representation, Representation]:
    """The two halves of the monomial action on half-size axis subsets.

    For D_{2m}: the group permutes the C(2m, m) subsets A of the axes with a
    sign twist (product of the signs applied to the axes of A), and the
    complement map A -> A^c intertwines that action because every element
    flips an even number of signs.  Its +/-1 eigenspaces are orthogonal
    representations exchanged by the outer automorphism, which is what makes
    them able to tell mirror involution classes apart.
    """
    from itertools import combinations

    if len(rs.type_spec.factors) != 1 or rs.type_spec.factors[0][0] != "D" \
            or rs.type_spec.factors[0][1] % 2:
        raise ValueError("half-subset split representations need a single D_{2m} factor")
    n = rs.ambient_dim
    m = n // 2
    subsets = [frozenset(c) for c in combinations(range(n), m)]
    dim_total = len(subsets)

    def char_pair(g: GroupElement) -> tuple[int, int]:
        perm, sign = _signed_axis_action(rs, g)
        plain = 0
        twisted = 0
        for a in subsets:
            image = frozenset(perm[i] for i in a)
            s = 1
            for i in a:
                s *= sign[i]
            if image == a:
                plain += s
            if image == frozenset(range(n)) - a:
                # contribution of A^c -> A composed with the complement map
                twisted += s
        return plain, twisted

    def tr_plus(g: GroupElement) -> int:
        plain, twisted = char_pair(g)
        if (plain + twisted) % 2:
            raise InternalError("half-subset character is not integral")
        return (plain + twisted) // 2

    def tr_minus(g: GroupElement) -> int:
        plain, twisted = char_pair(g)
        return (plain - twisted) // 2

    return (Representation("halfsets+", dim_total // 2, rs, tr_plus),
            Representation("halfsets-", dim_total // 2, rs, tr_minus))


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.home is not b.home:
        raise ValueError("summands live on different root systems")
    return Representation(f"{a.descriptor}+{b.descriptor}", a.dim + b.dim,
                          a.home, lambda g: a.trace(g) + b.trace(g))


def tensor(a: Representation, b: Representation) -> Representation:
    if a.home is not b.home:
        raise ValueError("factors live on different root systems")
    return Representation(f"({a.descriptor})*({b.descriptor})", a.dim * b.dim,
                          a.home, lambda g: a.trace(g) * b.trace(g))


# -- character gaps ----------------------------------------------------------


def character_gap(rep: Representation, cls_a: InvolutionClass,
                  cls_b: InvolutionClass) -> int:
    """chi(representative of a) - chi(representative of b); a class function."""
    if cls_a.home is not cls_b.home or cls_a.home is not rep.home:
        raise ValueError("classes and representation must share a root system")
    return rep.trace(cls_a.representative.element) - \
        rep.trace(cls_b.representative.element)


@dataclass(frozen=True)
class GapBudget:
    max_exterior: int = 4
    include_sums: bool = True
    include_tensors: bool = True
    max_orbit: int = 50000


_DEFAULT_CONJ_TARGETS = ("A1", "D2", "D3", "D4", "D5")


def base_catalogue(rs: RootSystem, budget: GapBudget = GapBudget(),
                   ) -> tuple[list[Representation], list[str]]:
    """The irreducible-ish catalogue entries plus any skipped by the budget.

    A nonempty skip list means later searches are partial: some built-in
    subsystem-conjugate representation was too large for the orbit cap.
    """
    base: list[Representation] = [
        trivial_rep(rs),
        coxeter_rep(rs),
        sign_rep(rs),
        perm_roots_rep(rs),
    ]
    skipped: list[str] = []
    for k in range(2, min(rs.rank, budget.max_exterior) + 1):
        base.append(exterior_cox_rep(rs, k))
    conj_targets = [t for t in _DEFAULT_CONJ_TARGETS
                    if TypeSpec.parse(t).rank < rs.rank]
    for target in conj_targets:
        emb = find_subsystem(rs, target)
        if emb is None:
            continue
        rep = conj_subsystem_rep(rs, emb)
        if rep.dim <= budget.max_orbit:
            base.append(rep)
        else:
            skipped.append(rep.descriptor)
    spec = rs.type_spec.factors
    if len(spec) == 1 and spec[0][0] == "D" and spec[0][1] % 2 == 0:
        base.extend(half_subset_split_reps(rs))
    return base, skipped


def default_catalogue(rs: RootSystem, budget: GapBudget = GapBudget(),
                      ) -> list[Representation]:
    """The built-in searchable representations of one group, fixed order."""
    base, _ = base_catalogue(rs, budget)
    out = list(base)
    if budget.include_sums:
        for i in range(len(base)):
            for j in range(i, len(base)):
                out.append(direct_sum(base[i], base[j]))
    if budget.include_tensors:
        for rep in base:
            out.append(tensor(rep, rep))
    return out


@dataclass(frozen=True)
class GapFindings:
    """Deterministic report of a character-gap search over a catalogue."""

    pair: tuple[str, str]
    degree: int
    target: int
    hits: tuple[tuple[str, int], ...]  # (descriptor, gap)
    catalogue_size: int

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "target": self.target,
            "hits": [{"rep": d, "gap": g} for d, g in self.hits],
            "catalogue_size": self.catalogue_size,
        }


def search_gap(rs: RootSystem, cls_a: InvolutionClass, cls_b: InvolutionClass,
               catalogue: Optional[Sequence[Representation]] = None,
               budget: GapBudget = GapBudget()) -> GapFindings:
    """Scan a catalogue for representations with |chi(a) - chi(b)| = 2^degree.

    Reports exactly the hits found; an empty hit list means none of the
    catalogued representations realizes the gap.
    """
    if cls_a.degree != cls_b.degree:
        raise ValueError("gap search needs two classes of the same degree")
    if cls_a.home is not rs or cls_b.home is not rs:
        raise ValueError("classes do not belong to the given root system")
    if catalogue is None:
        catalogue = default_catalogue(rs, budget)
    target = 2 ** cls_a.degree
    hits = []
    for rep in catalogue:
        gap = character_gap(rep, cls_a, cls_b)
        if abs(gap) == target:
            hits.append((rep.descriptor, gap))
    return GapFindings(
        pair=(cls_a.class_id, cls_b.class_id),
        degree=cls_a.degree,
        target=target,
        hits=tuple(hits),
        catalogue_size=len(catalogue),
    )
