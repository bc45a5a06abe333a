"""Weyl group elements as permutations of the root list.

Elements are length-2P index arrays (image of root i is images[i]); the
underlying linear map is recovered on demand as an integer matrix in the
simple-root basis.  The group order is the product of the orbit sizes along
the Steinberg chain of parabolic subgroups, and each orbit is counted rather
than walked: it is every root of one length in one Dynkin component of the
level's parabolic, by transitivity on roots of one length.  No order
formulas, lookup tables or reflection permutations are involved.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .roots import (InternalError, RootSystem, _close, _root_index, _simple_at,
                    memoized)


class GroupElement:
    """A permutation of the roots induced by an orthogonal map."""

    __slots__ = ("images", "home")

    def __init__(self, images: np.ndarray, home: RootSystem):
        self.images = images
        self.home = home

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.home is other.home
                and np.array_equal(self.images, other.images))

    def __hash__(self):
        return hash(self.images.tobytes())

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)

    def __call__(self, root_index: int) -> int:
        return int(self.images[root_index])

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, _id_images(self.home)))

    def __repr__(self):
        n = int(np.count_nonzero(self.images != _id_images(self.home)))
        return f"GroupElement(moves {n} roots of {self.home.type_spec})"


@memoized
def _id_images(rs: RootSystem) -> np.ndarray:
    images = np.arange(len(rs), dtype=np.int16)
    images.setflags(write=False)
    return images


def identity(rs: RootSystem) -> GroupElement:
    return GroupElement(_id_images(rs), rs)


def compose(x: GroupElement, y: GroupElement) -> GroupElement:
    """x after y: the permutation sending i to x(y(i))."""
    if x.home is not y.home:
        raise ValueError("elements live in different root systems")
    return GroupElement(x.images[y.images], x.home)


def invert(x: GroupElement) -> GroupElement:
    inv = np.empty_like(x.images)
    inv[x.images] = np.arange(len(x.images), dtype=x.images.dtype)
    return GroupElement(inv, x.home)


def order_of(x: GroupElement) -> int:
    n = 1
    acc = x
    ident = _id_images(x.home)
    while not np.array_equal(acc.images, ident):
        acc = compose(acc, x)
        n += 1
    return n


def reflection_element(rs: RootSystem, alpha) -> GroupElement:
    """The root permutation of the reflection in a root of rs."""
    return GroupElement(rs.reflection_perm(_root_index(rs, alpha)), rs)


def simple_reflections(rs: RootSystem) -> list[GroupElement]:
    return [GroupElement(p, rs) for p in rs.simple_reflection_perms()]


def element_matrix(x: GroupElement) -> np.ndarray:
    """Matrix of x in the simple-root basis (integer, hence exact).

    Column j holds the simple-basis coordinates of the image of the j-th
    simple root.
    """
    rs = x.home
    return rs._scoord_mat[x.images[list(rs.simple_indices)]].T


def coxeter_trace(x: GroupElement) -> int:
    """Trace of x on the span of the roots (the reflection representation)."""
    return int(np.trace(element_matrix(x)))


def length_parity(x: GroupElement) -> int:
    """(-1)^(number of positive roots sent negative); equals det(x)."""
    P = x.home.n_positive
    flipped = int(np.count_nonzero(x.images[:P] >= P))
    return -1 if flipped & 1 else 1


# -- stabilizer chain ------------------------------------------------------


class _Level(NamedTuple):
    """A J-dominant root and the root indices of its W_J-orbit."""
    point: int
    transversal: np.ndarray


class StabChain(NamedTuple):
    """The Steinberg chain of a reflection group, one level per base point.

    By Steinberg's fixed-point theorem (Steinberg, Trans. AMS 112, 1964;
    Humphreys, Reflection Groups and Coxeter Groups, 1.12) the stabilizer in
    W_J of a point of the closed J-chamber is the parabolic subgroup of the
    s_j, j in J, fixing it.  So from J = all simple roots, each level takes
    the J-dominant root d in the orbit of J's first node and keeps the j in
    J orthogonal to d.  W acts transitively on the roots of one length of an
    irreducible system (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.4, Lemma C), so the W_J-orbit of d, counted
    rather than walked, is every root of its length in its component of J.
    """
    levels: list[_Level]

    @property
    def base(self) -> list[int]:
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)


def _chain(scoords: np.ndarray, icoords: np.ndarray) -> StabChain:
    """The chain of the roots with these simple and doubled coordinates, one
    row each, in row indices.  Phi_J is the roots supported on J, a node's
    component the union of the supports of the roots through it, and an
    orbit's dominant root its highest."""
    height, nonzero = scoords.sum(axis=1), scoords != 0
    norm = np.einsum("ij,ij->i", icoords, icoords)
    simple = _simple_at(scoords)
    rows = np.arange(len(scoords))  # the roots of Phi_J
    J = np.arange(scoords.shape[1])
    levels = []
    while len(J):
        support = nonzero[np.ix_(rows, J)]
        component = support[support[:, 0]].any(axis=0)
        orbit = rows[support[:, component].any(axis=1)
                     & (norm[rows] == norm[simple[J[0]]])]
        d = int(orbit[np.argmax(height[orbit])])
        if np.any(icoords[simple[J[component]]] @ icoords[d] < 0):
            raise InternalError("the highest root of an orbit is not dominant")
        levels.append(_Level(d, orbit))
        kept = icoords[simple[J]] @ icoords[d] == 0
        rows, J = rows[~support[:, ~kept].any(axis=1)], J[kept]
    return StabChain(levels)


@memoized
def stab_chain(rs: RootSystem) -> StabChain:
    """The memoized chain of W over the simple roots of rs."""
    return _chain(rs._scoord_mat, rs._icoord_mat)


def group_order(rs: RootSystem) -> int:
    """|W| as the product of the orbit sizes along the Steinberg chain."""
    return stab_chain(rs).order()


def _positive_definite(gram: np.ndarray) -> bool:
    """Sylvester's criterion, exactly: fraction-free (Bareiss) elimination
    leaves the leading principal minors of the integer matrix on its
    diagonal, and all must be positive."""
    m, prev = gram.astype(object), 1
    for k in range(len(m)):
        if m[k, k] <= 0:
            return False
        m[k + 1:, k + 1:] = (m[k, k] * m[k + 1:, k + 1:]
                             - np.outer(m[k + 1:, k], m[k, k + 1:])) // prev
        prev = m[k, k]
    return True


def subgroup_order(rs: RootSystem, simple_roots: Sequence[int]) -> int:
    """Order of the group generated by the reflections in a simple system.

    Raises ValueError on two roots at an acute angle and on linearly
    dependent roots, such as the affine {a, b, -(a+b)} in A2.  The rest are
    simple systems, so their closure ends.
    """
    chosen = rs._icoord_mat[list(simple_roots)]
    if not len(chosen):
        return 1
    gram = chosen @ chosen.T
    if np.any(np.triu(gram, 1) > 0):
        raise ValueError("not a simple system: two roots at an acute angle")
    if not _positive_definite(gram):
        raise ValueError("not a simple system: the roots are linearly dependent")
    scoords = _close(chosen)
    return _chain(scoords, scoords @ chosen).order()


def enumerate_group(rs: RootSystem) -> list[GroupElement]:
    """Every element of W by breadth-first closure of the simple reflections.

    Brute force on purpose: this is the oracle the fast paths are checked
    against.  Only sensible for small groups.  Each element's images are a
    read-only view of its dedup key, so the images are stored once.
    """
    gens = simple_reflections(rs)
    ident = identity(rs)
    seen = {ident.images.tobytes(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                key = compose(s, g).images.tobytes()
                if key not in seen:
                    h = seen[key] = GroupElement(
                        np.frombuffer(key, ident.images.dtype), rs)
                    new.append(h)
        frontier = new
    return list(seen.values())


# -- generic orbit partition ----------------------------------------------


def orbit_partition(items: Iterable[Hashable],
                    action: Sequence[Callable[[Hashable], Hashable]],
                    ) -> list[list[Hashable]]:
    """Connected components of the item set under a generator action.

    Components come back sorted by their minimal key, each with the minimal
    key first; an action image outside the item set is an enumeration bug
    and is rejected.
    """
    universe = set(items)
    pending = sorted(universe)
    seen: set = set()
    classes: list[list[Hashable]] = []
    for start in pending:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for key in frontier:
                for act in action:
                    img = act(key)
                    if img in seen:
                        continue
                    if img not in universe:
                        raise InternalError(
                            "orbit action left the key set; enumeration is incomplete")
                    seen.add(img)
                    component.append(img)
                    nxt.append(img)
            frontier = nxt
        component.sort()
        classes.append(component)
    return classes
