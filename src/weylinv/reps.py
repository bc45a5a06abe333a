"""Exact orthogonal representations of Weyl groups, via trace oracles.

No matrices are materialized beyond the reflection representation itself:
permutation representations count fixed points, exterior powers come from
the power traces of the reflection matrix by Newton's identities, the
half-subset pair from one pass over the subset matrix, and sums/tensors
combine traces.  Each character has one exact integer path, whatever the
element, to a plain integer; restriction and character gaps read it once
per involution class, at the class representative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from .roots import (InternalError, RootSystem, SubsystemEmbedding, TypeSpec, find_subsystem,
                    memoized)
from .involutions import InvolutionClass, conjugate_subsystems
from .weyl import GroupElement, coxeter_trace, element_matrix, length_parity


class Representation:
    """An orthogonal representation given by dimension and an exact trace.

    The trace must be a character, a class function: restriction to cubes and
    character gaps read it once per involution class, at the class
    representative.  A direct sum or a tensor product adds or multiplies the
    values of its two factors.  What is derived from a representation (its
    class values, its restriction to each cube) is held in its `_memo` by
    `memoized` functions, and goes with it.  Equality is identity: two
    representations may share a descriptor.
    """

    __slots__ = ("descriptor", "dim", "home", "_trace_fn", "_factors", "_memo")

    def __init__(self, descriptor: str, dim: int, home: RootSystem,
                 trace_fn: Optional[Callable[[GroupElement], int]],
                 factors: Optional[tuple[Callable, "Representation", "Representation"]] = None):
        self.descriptor = descriptor
        self.dim = dim
        self.home = home
        self._trace_fn = trace_fn
        self._factors = factors  # (operator, a, b) of a sum or tensor, else None
        self._memo: dict = {}

    def trace(self, g: GroupElement) -> int:
        if g.home is not self.home:
            raise ValueError("element belongs to a different root system")
        if self._factors:
            op, a, b = self._factors
            return op(a.trace(g), b.trace(g))
        return self._trace_fn(g)

    @memoized
    def class_value(self, cls: InvolutionClass) -> int:
        """The trace on an involution class, read at its representative."""
        if self._factors:
            op, a, b = self._factors
            return op(a.class_value(cls), b.class_value(cls))
        return self.trace(cls.representative.element)

    def __repr__(self):
        return f"Representation({self.descriptor}, dim {self.dim})"

    def __add__(self, other: "Representation") -> "Representation":
        return direct_sum(self, other)

    def __mul__(self, other: "Representation") -> "Representation":
        return tensor(self, other)


def trivial_rep(rs: RootSystem, dim: int = 1) -> Representation:
    return Representation(f"triv{dim}", dim, rs, lambda g: dim)


def coxeter_rep(rs: RootSystem) -> Representation:
    """The reflection representation, on the span of the roots."""
    return Representation("cox", rs.rank, rs, coxeter_trace)


def sign_rep(rs: RootSystem) -> Representation:
    return Representation("sign", 1, rs, length_parity)


def perm_roots_rep(rs: RootSystem) -> Representation:
    """Permutation representation on the full root list."""
    n = len(rs)
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
    dim, fixed = conjugate_subsystems(sub)
    return Representation(f"conj[{sub.sub_type}]", dim, rs, fixed)


def exterior_cox_rep(rs: RootSystem, k: int) -> Representation:
    """k-th exterior power of the reflection representation."""
    r = rs.rank
    if not 0 <= k <= r:
        raise ValueError(f"exterior power {k} out of range for rank {r}")
    return Representation(f"ext{k}(cox)", comb(r, k), rs,
                          lambda g: _newton_exterior_trace(element_matrix(g), k))


def _newton_exterior_trace(mat: np.ndarray, k: int) -> int:
    """Trace on the k-th exterior power of an integer matrix: the elementary
    symmetric function e_k of its eigenvalues, by Newton's identities
    m e_m = sum_i (-1)^(i-1) e_(m-i) p_i over the power traces p_i.  Each e_m
    is a coefficient of the integer characteristic polynomial, so the
    division by m is exact, in integers."""
    powers = []
    acc = mat
    for _ in range(k):
        powers.append(int(np.trace(acc)))
        acc = acc @ mat
    e = [1]
    for m in range(1, k + 1):
        s = sum((-1) ** (i - 1) * e[m - i] * powers[i - 1] for i in range(1, m + 1))
        if s % m:
            raise InternalError("non-integral exterior-power trace")
        e.append(s // m)
    return e[k]


def _signed_axis_action(rs: RootSystem, g: GroupElement, plus: np.ndarray,
                        minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express g as a signed permutation of the coordinate axes, given the
    indices of the roots e_i + e_j and e_i - e_j for each axis i (j != i).

    Only valid for realizations whose elements act monomially on the ambient
    basis (the B/C/D families); anything else raises.
    """
    # doubled coordinates of g(e_i + e_j) + g(e_i - e_j), that is 4 g(e_i)
    image = rs._icoord_mat[g.images[plus]] + rs._icoord_mat[g.images[minus]]
    nonzero = image != 0
    if np.any(nonzero.sum(axis=1) != 1) or np.any(np.abs(image[nonzero]) != 4):
        raise InternalError("element does not act monomially on the axes")
    perm = nonzero.argmax(axis=1)
    sign = image[np.arange(len(perm)), perm] // 4
    return perm, sign


def _single_even_d(rs: RootSystem) -> bool:
    """Whether rs is a single D_{2m} factor."""
    return [(fam, rank % 2) for fam, rank in rs.type_spec.factors] == [("D", 0)]


def half_subset_split_reps(rs: RootSystem) -> tuple[Representation, Representation]:
    """The two halves of the monomial action on half-size axis subsets.

    For D_{2m}: the group permutes the C(2m, m) subsets A of the axes with a
    sign twist (product of the signs applied to the axes of A), and the
    complement map A -> A^c intertwines that action because every element
    flips an even number of signs.  Its +/-1 eigenspaces are orthogonal
    representations exchanged by the outer automorphism, which is what makes
    them able to tell mirror involution classes apart.  Both characters come
    from one numpy pass over the boolean subset matrix (row A, column i: i in
    A): the trace of the action (plain) sums the signs of the subsets g fixes,
    that of the action composed with the complement map (twisted) the signs
    of those g sends to their complements.
    """
    if not _single_even_d(rs):
        raise ValueError("half-subset split representations need a single D_{2m} factor")
    n = rs.ambient_dim
    members = np.array(list(combinations(range(n), n // 2)))
    subsets = np.zeros((len(members), n), dtype=bool)
    subsets[np.arange(len(members))[:, None], members] = True
    unit = np.eye(n, dtype=np.int64)
    other = unit[[1] + [0] * (n - 1)]  # e_j for each axis i: j = 1 if i = 0, else 0
    plus = np.array([rs.index_of(row) for row in unit + other])
    minus = np.array([rs.index_of(row) for row in unit - other])

    def plain_and_twisted(g: GroupElement) -> tuple[int, int]:
        perm, sign = _signed_axis_action(rs, g, plus, minus)
        image = np.empty_like(subsets)
        image[:, perm] = subsets  # row A: the axes of g(A)
        signs = 1 - 2 * (np.count_nonzero(subsets[:, sign < 0], axis=1) & 1)
        return (int(signs[np.all(image == subsets, axis=1)].sum()),
                int(signs[np.all(image != subsets, axis=1)].sum()))

    def tr_plus(g: GroupElement) -> int:
        plain, twisted = plain_and_twisted(g)
        if (plain + twisted) % 2:
            raise InternalError("half-subset character is not integral")
        return (plain + twisted) // 2

    def tr_minus(g: GroupElement) -> int:
        plain, twisted = plain_and_twisted(g)
        return (plain - twisted) // 2

    return (Representation("halfsets+", len(subsets) // 2, rs, tr_plus),
            Representation("halfsets-", len(subsets) // 2, rs, tr_minus))


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.home is not b.home:
        raise ValueError("summands live on different root systems")
    return Representation(f"{a.descriptor}+{b.descriptor}", a.dim + b.dim,
                          a.home, None, (operator.add, a, b))


def tensor(a: Representation, b: Representation) -> Representation:
    if a.home is not b.home:
        raise ValueError("factors live on different root systems")
    return Representation(f"({a.descriptor})*({b.descriptor})", a.dim * b.dim,
                          a.home, None, (operator.mul, a, b))


# -- character gaps ----------------------------------------------------------


def character_gap(rep: Representation, cls_a: InvolutionClass,
                  cls_b: InvolutionClass) -> int:
    """chi(representative of a) - chi(representative of b); a class function."""
    if cls_a.home is not cls_b.home or cls_a.home is not rep.home:
        raise ValueError("classes and representation must share a root system")
    return rep.class_value(cls_a) - rep.class_value(cls_b)


@dataclass(frozen=True)
class GapBudget:
    max_exterior: int = 4


MAX_ORBIT = 50000  # the most conjugates a conj[...] entry of the catalogue may have
_DEFAULT_CONJ_TARGETS = ("A1", "D2", "D3", "D4", "D5")


def base_catalogue(rs: RootSystem, budget: GapBudget = GapBudget(),
                   ) -> tuple[list[Representation], list[str]]:
    """The irreducible-ish catalogue entries plus any skipped by the orbit cap.

    A nonempty skip list means later searches are partial: some built-in
    subsystem-conjugate representation had more than MAX_ORBIT conjugates.
    The entries are built once per system and budget value; each call gets
    fresh lists over the shared representations.
    """
    base, skipped = _base_catalogue(rs, budget)
    return list(base), list(skipped)


@memoized
def _base_catalogue(rs: RootSystem, budget: GapBudget) -> tuple[tuple, tuple]:
    base = [trivial_rep(rs), coxeter_rep(rs), sign_rep(rs), perm_roots_rep(rs)]
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
        if rep.dim <= MAX_ORBIT:
            base.append(rep)
        else:
            skipped.append(rep.descriptor)
    if _single_even_d(rs):
        base.extend(half_subset_split_reps(rs))
    return tuple(base), tuple(skipped)


def default_catalogue(rs: RootSystem, budget: GapBudget = GapBudget()) -> list[Representation]:
    """The built-in searchable representations of one group, fixed order."""
    base, _ = base_catalogue(rs, budget)
    out = list(base)
    for i in range(len(base)):
        for j in range(i, len(base)):
            out.append(direct_sum(base[i], base[j]))
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
               catalogue: Optional[Sequence[Representation]] = None) -> GapFindings:
    """Scan a catalogue for representations with |chi(a) - chi(b)| = 2^degree.

    Reports exactly the hits found; an empty hit list means none of the
    catalogued representations realizes the gap.
    """
    if cls_a.degree != cls_b.degree:
        raise ValueError("gap search needs two classes of the same degree")
    if cls_a.home is not rs or cls_b.home is not rs:
        raise ValueError("classes do not belong to the given root system")
    if catalogue is None:
        catalogue = default_catalogue(rs)
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


# the degrees whose same-degree class pairs the paper singles out, per type
HARD_CASE_DEGREES = {"D6": (3,), "E7": (3, 4), "E8": (4,)}


def hard_case_reports(classes: list[InvolutionClass],
                      catalogue: list[Representation]) -> list[GapFindings]:
    """The built-in hard pairs of one classified type, with their gap findings."""
    rs = classes[0].home
    degrees = HARD_CASE_DEGREES.get(
        str(rs.type_spec),
        tuple(sorted({c.degree for c in classes
                      if sum(1 for d in classes if d.degree == c.degree) > 1})))
    reports = []
    for degree in degrees:
        group = [c for c in classes if c.degree == degree]
        for a, b in combinations(group, 2):
            reports.append(search_gap(rs, a, b, catalogue=catalogue))
    return reports
