"""Weyl group elements as permutations of the root list.

Elements are length-2P index arrays (image of root i is images[i]); the
underlying linear map is recovered on demand as an integer matrix in the
simple-root basis.  The group order is the product of the orbit sizes along
the Steinberg chain: by Steinberg's fixed-point theorem the stabilizer of a
point of the closed chamber is the parabolic subgroup generated by the simple
reflections fixing it, so every level's generators are known up front.  No
order formulas or lookup tables are involved.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .roots import InternalError, Root, RootSystem, per_system


class GroupElement:
    """A permutation of the roots induced by an orthogonal map."""

    __slots__ = ("images", "home", "_hash")

    def __init__(self, images: np.ndarray, home: RootSystem):
        self.images = images
        self.home = home
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.home is other.home
                and np.array_equal(self.images, other.images))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)

    def __call__(self, root_index: int) -> int:
        return int(self.images[root_index])

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, _id_images(self.home)))

    def __repr__(self):
        n = int(np.count_nonzero(self.images != _id_images(self.home)))
        return f"GroupElement(moves {n} roots of {self.home.type_spec})"


@per_system
def _id_images(rs: RootSystem) -> np.ndarray:
    images = np.arange(len(rs.roots), dtype=np.int16)
    images.setflags(write=False)
    return images


def identity(rs: RootSystem) -> GroupElement:
    return GroupElement(_id_images(rs), rs)


def _check_same_home(x: GroupElement, y: GroupElement) -> None:
    if x.home is not y.home:
        raise ValueError("elements live in different root systems")


def compose(x: GroupElement, y: GroupElement) -> GroupElement:
    """x after y: the permutation sending i to x(y(i))."""
    _check_same_home(x, y)
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
    if isinstance(alpha, Root):
        idx = alpha.index
    elif isinstance(alpha, int):
        idx = alpha
    else:
        idx = rs.index_of(alpha)
    return GroupElement(rs.reflection_perm(idx), rs)


def simple_reflections(rs: RootSystem) -> list[GroupElement]:
    return [GroupElement(p, rs) for p in rs.simple_reflection_perms()]


def element_matrix(x: GroupElement) -> np.ndarray:
    """Matrix of x in the simple-root basis (integer, hence exact).

    Column j holds the simple-basis coordinates of the image of the j-th
    simple root.
    """
    rs = x.home
    r = rs.rank
    mat = np.empty((r, r), dtype=np.int64)
    for j, si in enumerate(rs.simple_indices):
        mat[:, j] = rs.roots[int(x.images[si])].scoords
    return mat


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
    """A J-dominant root and its W_J-orbit; each orbit point maps to the
    simple root whose reflection first reached it (None for the point)."""
    point: int
    transversal: dict[int, Optional[int]]


class StabChain:
    """The Steinberg chain of the reflection group of a simple system.

    Steinberg's fixed-point theorem (Steinberg, Trans. AMS 112, 1964;
    Humphreys, Reflection Groups and Coxeter Groups, 1.12): the stabilizer
    in W_J of a point of the closed J-chamber is the parabolic subgroup
    generated by the s_j, j in J, that fix it.  So starting from J = the
    given simple roots, each level moves a root of J into the closed
    J-chamber, records its W_J-orbit under the simple reflections of J, and
    keeps the j in J orthogonal to it.  Every generator is known up front;
    |W_J| is the product of the orbit sizes.

    Raises ValueError if the roots are not a simple system: two of them at
    an acute angle, or a descent that never reaches a J-dominant root.
    """

    def __init__(self, rs: RootSystem, simple_roots: Sequence[int]):
        self.home = rs
        self.levels: list[_Level] = []
        coords = rs._icoord_mat
        J = [int(j) for j in simple_roots]
        refl = {j: rs.reflection_perm(j) for j in J}
        gram = coords[J] @ coords[J].T
        if np.any(np.triu(gram, 1) > 0):
            raise ValueError("generators meet at an acute angle; "
                             "not a simple system")
        while J:
            d = J[0]
            for _ in range(len(rs.roots) + 1):
                below = np.flatnonzero(coords[J] @ coords[d] < 0)
                if not below.size:
                    break
                d = int(refl[J[below[0]]][d])
            else:
                raise ValueError("descent reaches no dominant root; "
                                 "not a simple system")
            orbit: dict[int, Optional[int]] = {d: None}
            frontier = [d]
            while frontier:
                nxt = []
                for p in frontier:
                    for j in J:
                        q = int(refl[j][p])
                        if q not in orbit:
                            orbit[q] = j
                            nxt.append(q)
                frontier = nxt
            self.levels.append(_Level(d, orbit))
            J = [j for j, dot in zip(J, coords[J] @ coords[d]) if dot == 0]

    @property
    def base(self) -> list[int]:
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)

    def contains(self, perm: np.ndarray) -> bool:
        """Sift perm down the chain; members reduce to the identity."""
        rs = self.home
        g = np.asarray(perm)
        for lvl in self.levels:
            p = int(g[lvl.point])
            if p not in lvl.transversal:
                return False
            while p != lvl.point:
                s = rs.reflection_perm(lvl.transversal[p])
                g, p = s[g], int(s[p])
        return bool(np.array_equal(g, _id_images(rs)))


@per_system
def stab_chain(rs: RootSystem) -> StabChain:
    """The memoized chain of W over the simple roots of rs."""
    return StabChain(rs, rs.simple_indices)


def group_order(rs: RootSystem) -> int:
    """|W| as the product of the orbit sizes along the Steinberg chain."""
    return stab_chain(rs).order()


def subgroup_order(rs: RootSystem, simple_roots: Sequence[int]) -> int:
    """Order of the subgroup generated by reflections in a simple system."""
    return StabChain(rs, simple_roots).order()


def enumerate_group(rs: RootSystem, limit: int | None = None) -> list[GroupElement]:
    """Every element of W by breadth-first closure of the simple reflections.

    Brute force on purpose: this is the oracle the fast paths are checked
    against.  Only sensible for small groups.
    """
    gens = simple_reflections(rs)
    ident = identity(rs)
    seen = {ident.images.tobytes(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = compose(s, g)
                key = h.images.tobytes()
                if key not in seen:
                    seen[key] = h
                    new.append(h)
                    if limit is not None and len(seen) > limit:
                        raise ValueError("group larger than stated limit")
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
