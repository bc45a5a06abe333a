"""Involutions and cubes of a Weyl group, classified up to conjugacy.

An involution is determined by its (-1)-eigenspace, and that eigenspace is
spanned by the roots it contains, so involutions are keyed internally by the
bitmask of positive roots the element negates.  Cubes (sets of pairwise
orthogonal positive roots) are keyed by their bitmask as well.  Conjugation
acts on both by permuting mask bits.

One orbit engine does every conjugacy computation on such masks, each held
as an index row: the ascending indices of the bits it sets.  Conjugation
keeps the number of bits set, so an orbit's rows are one array.  The image
of a row under a simple reflection is one gather from an index table, then
a sort; its 64-bit key is the wrapping sum of fixed-seed keys of its bits.
The orbit of a mask is one breadth-first search from it.  Each new mask
records some of the reflections that lead back to the level before: the
one that made it and those its source recorded that commute with that one.
Its images under them are skipped (per-byte tables of the recorded
reflections give the skip sets), and so is its image under s_g when it
records an s_h with h < g that commutes with s_g: that image closes a
commuting square whose other three edges the search took earlier (the
commutation rule of Cartier and Foata, LNM 85, 1969), so the search reaches
it another way, and no mask is missed.
A mask need not record every reflection back, and its image under one it did
not record may be kept; that image lies in the level before, so kept images
are looked up by key in the current level and that one, and filtered only on
a match.  Every key match and every repeated key is compared row by row, and
a last pass checks that keys are distinct across the whole search, so two
masks sharing a key raise InternalError instead of yielding a wrong orbit.
The engine gives each orbit's size and least mask, the orbit of each given
mask and counts of an orbit's masks inside a given mask.  Mask rows, the
engine and "a class is its orbit's least mask" stay in this module: other
modules ask it for involution classes, the classes of a cube's products
(cube_products) and the conjugates of a subsystem (conjugate_subsystems).

The engine of a root system stores every orbit it found, read-only, one
orbit per search, and searches from a given mask only if no stored orbit
holds it.  The number of bits set, the width of its rows, rules out most
stored orbits; in the rest a mask is looked up by key (an orbit's rows are
sorted by key), and every key match is compared row by row.  So low-rank
cubes and small subsystems' orbits are read off the involution layers: a
degree-k involution is the product of the reflections in k orthogonal roots
(Carter, Compositio Math. 25 (1972), Lemma 5), so if its (-1)-eigenspace
holds no other root, its mask is a cube.

The conjugates of a subsystem Psi are read off the narrower of two orbits.
Let Psi-perp be the positive roots orthogonal to every root of Psi.  If Psi
is the perp of Psi-perp and Psi-perp sets fewer bits, the orbit of Psi-perp
is read instead of Psi's: W keeps inner products, so w(x)-perp =
w(x-perp), and each conjugate x of Psi is the perp of x-perp, so x ->
x-perp is a W-equivariant bijection between the two orbits.  They have one
size, and an element fixes x exactly when it fixes x-perp.  Like any orbit,
the one read is searched only if no stored orbit holds it.

Involutions and cubes are never walked one by one.  Each degree layer of
involutions is the orbit of every class representative of the degree below
times the reflection in each positive root orthogonal to its eigenspace;
each rank of cubes, of every representative of the rank below plus each
positive root orthogonal to it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .roots import InternalError, RootSystem, SubsystemEmbedding, memoized
from .weyl import (GroupElement, compose, coxeter_trace, group_order,
                   identity, subgroup_order)


# -- the orbit engine --------------------------------------------------------

_KEY_SEED = 0x9E3779B97F4A7C15  # increment of the sequence the bit keys hash


def negated_rows(images: np.ndarray, rs: RootSystem) -> np.ndarray:
    """Row i: the positive roots the root permutation images[i] negates, as a bool row."""
    return images[:, :rs.n_positive] == np.arange(rs.n_positive, 2 * rs.n_positive)


def mask_of_perm(images: np.ndarray, rs: RootSystem) -> int:
    """Bitmask of the positive roots that a root permutation negates."""
    return int.from_bytes(np.packbits(negated_rows(images[None], rs), bitorder="little"), "little")


def _byte_tables(per_bit: np.ndarray) -> np.ndarray:
    """Entry [j, v]: per_bit's rows for the bits v sets in byte j, ORed, built
    by doubling: the entries with top bit b are those below ORed with bit b.
    A byte past the last bit gets no table."""
    nbytes = (len(per_bit) + 7) // 8
    vals = np.zeros((8 * nbytes, per_bit.shape[1]), dtype=per_bit.dtype)
    vals[:len(per_bit)] = per_bit
    vals = vals.reshape(nbytes, 8, -1)
    tables = np.zeros((nbytes, 256, per_bit.shape[1]), dtype=per_bit.dtype)
    for b in range(8):
        tables[:, 1 << b:2 << b] = tables[:, :1 << b] | vals[:, b, None]
    return tables


def _bit_keys(nbits: int) -> np.ndarray:
    """Fixed pseudo-random 64-bit key of each mask bit (splitmix64 mixing)."""
    z = np.arange(1, nbits + 1, dtype=np.uint64) * np.uint64(_KEY_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class MaskEngine:
    """Permutations of the positive roots acting on masks held as index rows.

    The row of a mask is the ascending indices of the bits it sets, in the
    least unsigned dtype that holds an index below nbits.  Conjugation keeps
    the number of bits set, so the rows of an orbit are one (size, bits set)
    array.  The image of a row under s_g is one gather from the index table
    (entry g * nbits + i: bit i's image), then a sort; the key of a row is
    the wrapping sum of the fixed-seed keys of its bits.  numpy gathers by
    small indices several times slower than by intp ones, so every gather
    casts its indices to intp, a column at a time where it can.
    """

    def __init__(self, rs: RootSystem):
        P = rs.n_positive
        self.nbits = P
        self.dtype = np.min_scalar_type(max(P - 1, 0))
        self._bit_key = _bit_keys(P)
        perms = [rs.positive_perm(p) for p in rs.simple_reflection_perms()]
        self.ngens = len(perms)
        self._table = np.concatenate(perms).astype(self.dtype)
        # A set of simple reflections is a row of little-endian packed bits.  s_h
        # and s_g, h != g, commute exactly when their simple roots are orthogonal,
        # and no root is orthogonal to itself.
        simples = rs._icoord_mat[list(rs.simple_indices)]
        orthogonal = simples @ simples.T == 0
        single = np.eye(self.ngens, dtype=bool)
        self._commuting, self._single, skips = (
            np.packbits(m, axis=1, bitorder="little")
            for m in (orthogonal, single, single | np.triu(orthogonal)))
        # entry [j, v]: the images a row skips when byte j of its parents is v
        self._skips = _byte_tables(skips)
        self._stored: list[_Orbit] = []  # every orbit found, in order

    def images(self, rows: np.ndarray, at: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """Row i: the image of rows[at[i]] under simple reflection gens[i]."""
        index = rows[at].astype(np.intp)
        index += (gens * len(self._bit_key))[:, None]
        images = self._table[index]
        images.sort(axis=1, kind="stable")  # a radix sort for these dtypes
        return images

    def keys(self, rows: np.ndarray, bit_key: np.ndarray | None = None) -> np.ndarray:
        """Row i: the wrapping sum of the keys (bit_key, else the engine's) of its bits."""
        bit_key = self._bit_key if bit_key is None else bit_key
        keys = np.zeros(len(rows), dtype=np.uint64)
        for column in rows.T:
            keys += bit_key[column.astype(np.intp)]
        return keys

    def bits(self, masks: Sequence[int]) -> np.ndarray:
        """Row i: bit j of masks[i] at column j, as a bool row."""
        P = len(self._bit_key)
        data = np.frombuffer(b"".join(m.to_bytes((P + 7) // 8, "little") for m in masks), np.uint8)
        return np.unpackbits(data.reshape(len(masks), -1), axis=1, count=P, bitorder="little") == 1

    def rows(self, bits: np.ndarray) -> np.ndarray:
        """The index row of each bool row; every row sets equally many bits."""
        return bits.nonzero()[1].astype(self.dtype).reshape(len(bits), -1)

    def mask(self, row: np.ndarray) -> int:
        return sum(1 << i for i in row.tolist())

    def fixed_points(self, orbit: _Orbit, perm: np.ndarray) -> int:
        """How many rows of an orbit the permutation sending bit i to bit perm[i]
        fixes; only rows whose image keeps their key are permuted and compared."""
        if np.array_equal(perm, np.arange(len(perm))):  # as the identity and -1 do
            return len(orbit.rows)
        rows = orbit.rows[self.keys(orbit.rows, self._bit_key[perm]) == orbit.keys]
        images = np.sort(perm.astype(self.dtype)[rows.astype(np.intp)], axis=1, kind="stable")
        return int(np.count_nonzero((images == rows).all(axis=1)))

    def least_mask(self, rows: np.ndarray) -> int:
        """The least mask among the given rows of one width."""
        for j in reversed(range(rows.shape[1])):  # the highest bit first
            column = rows[:, j]
            rows = rows[column == column.min()]
        return self.mask(rows[0])

    def orbit_classes(self, bits: np.ndarray) -> list[tuple[int, int]]:
        """(size, least mask) of the orbit of each given bool row, in order."""
        return [(len(orbit.rows), orbit.least) for orbit in self._locate(bits)]

    def classes(self, bits: np.ndarray) -> list[tuple[int, int]]:
        """(size, least mask) of each orbit through the given bool rows, sorted."""
        return sorted(set(self.orbit_classes(bits)))

    def orbit(self, mask: int) -> _Orbit:
        """The stored orbit of a mask."""
        (orbit,) = self._locate(self.bits([mask]))
        return orbit

    def count_inside(self, bits: np.ndarray, within: int) -> np.ndarray:
        """For the orbit of each given bool row, how many of its masks lie
        inside the mask within."""
        (allowed,) = self.bits([within])
        counts = []
        for orbit in self._locate(bits):
            inside = np.ones(len(orbit.rows), dtype=bool)
            for column in orbit.rows.T:  # no intp temporary of all the rows
                inside &= allowed[column.astype(np.intp)]
            counts.append(np.count_nonzero(inside))
        return np.array(counts, dtype=int)

    def _locate(self, bits: np.ndarray) -> list[_Orbit]:
        """The stored orbit of each given bool row.  The rows that set n bits
        are looked up by key in the stored orbits of width n only, and every
        key match is compared row by row.  While some given row is found in
        none, the orbit of the first such row is searched, stored, and the
        rest are looked up in it."""
        nbits = bits.sum(axis=1)
        sized = {}  # bits set: where those rows are given, their rows and keys
        for n in set(nbits.tolist()):
            look = np.flatnonzero(nbits == n)
            rows = self.rows(bits[look])
            sized[n] = look, rows, self.keys(rows)
        where, looked = np.full(len(bits), -1), 0
        while True:
            for s in range(looked, len(self._stored)):
                orbit = self._stored[s]
                if orbit.rows.shape[1] not in sized:
                    continue
                look, rows, keys = sized[orbit.rows.shape[1]]
                pos = np.minimum(orbit.keys.searchsorted(keys), len(orbit.keys) - 1)
                hit = orbit.keys[pos] == keys
                _no_collision(np.array_equal(orbit.rows[pos[hit]], rows[hit]))
                where[look[hit]] = s
            miss = np.flatnonzero(where < 0)
            if not len(miss):
                return [self._stored[s] for s in where.tolist()]
            looked = len(self._stored)
            look, rows, keys = sized[nbits[miss[0]]]
            first = look.searchsorted(miss[0])
            self._stored.append(self._search(rows[first], keys[first]))

    def _search(self, row: np.ndarray, key: np.uint64) -> _Orbit:
        """The orbit of the given row, not stored, whose key is given.

        Level d holds the masks d reflections from the row; a parent of a
        mask x in level d is a reflection s with s x in level d-1.  Each mask
        records some of its parents: the reflection that made it, and those
        recorded for the mask it was made from that commute with that
        reflection (if u = s_p v and s_h s_p = s_p s_h, then s_p s_h u = s_h v
        lies one level below s_h u), ORed over repeated images.  The image of
        x under s_g is skipped when x records s_g, or records s_h with h < g
        commuting with s_g: then s_g x = s_h s_g (s_h x) closes a commuting
        square whose other three edges come earlier in the order (level,
        reflection), so by induction the search reaches it another way (the
        commutation rule of Cartier and Foata, Problemes combinatoires de
        commutation et rearrangements, LNM 85, 1969).  The least parent of a
        mask is never skipped, so every mask is found at its distance.  A
        mask need not record every parent, and under some orders of the
        simple reflections its image under one it did not record is kept (in
        A4, orders (1, 3, 0, 2) and (2, 0, 3, 1): 60 of the 1,023 searches
        each).  That image lies in level d-1, so the kept images are looked
        up in level d and in level d-1; without the second lookup the search
        would run past the longest element.  What is left, made distinct, is
        level d+1.  The orbit's rows are sorted by key."""
        images, keys = row[None], np.array([key], dtype=np.uint64)
        parents = np.zeros((1, self._single.shape[1]), dtype=np.uint8)  # none for the row
        levels: list = []  # (rows, keys) of each level
        while len(images):
            order = np.argsort(keys)
            keys = keys[order]
            for level_rows, level_keys in levels[:-3:-1]:  # levels d, d-1
                pos = np.minimum(np.searchsorted(level_keys, keys), len(level_keys) - 1)
                hit = level_keys[pos] == keys
                if hit.any():  # most lookups find nothing
                    _no_collision(np.array_equal(level_rows[pos[hit]], images[order[hit]]))
                    order, keys = order[~hit], keys[~hit]
            if not len(keys):
                break
            images, parents = images[order], parents[order]
            again = keys[1:] == keys[:-1]
            _no_collision(np.array_equal(images[1:][again], images[:-1][again]))
            if len(levels) > self.nbits:  # no reduced word is longer
                raise InternalError("orbit search went past the longest element")
            first = np.flatnonzero(np.concatenate(([True], ~again)))
            level = images[first], keys[first]
            levels.append(level)
            parents = np.bitwise_or.reduceat(parents, first, axis=0)
            skips = reduce(np.bitwise_or, (t[byte] for t, byte in zip(self._skips, parents.T)))
            at, gens = np.unpackbits(~skips, axis=1, count=self.ngens, bitorder="little").nonzero()
            images = self.images(level[0], at, gens)
            keys = self.keys(images)
            parents = parents[at] & self._commuting[gens] | self._single[gens]
        parts, keys = zip(*levels)
        levels.clear()
        # The end of the largest search is the peak of a classification, so
        # the permutation takes the least dtype, each temporary goes as soon
        # as it is used, and each level's rows go straight to their places.
        keys = np.concatenate(keys)
        order = np.argsort(keys).astype(np.min_scalar_type(len(keys)))
        keys = keys[order]
        _no_collision(np.all(keys[1:] != keys[:-1]))  # distinct across the search
        place = np.empty_like(order)
        place[order] = np.arange(len(order), dtype=order.dtype)
        del order
        rows, start = np.empty((len(keys), len(row)), dtype=self.dtype), 0
        for part in parts:
            rows[place[start:start + len(part)]] = part
            start += len(part)
        del parts
        rows.flags.writeable = keys.flags.writeable = False
        return _Orbit(rows, keys, self.least_mask(rows))


# One stored orbit: its rows sorted by key and their keys, the read-only
# arrays of the search that found it, and its least mask.
_Orbit = namedtuple("_Orbit", "rows keys least")


@memoized
def _mask_engine(rs: RootSystem) -> MaskEngine:
    """The one orbit engine of a root system."""
    return MaskEngine(rs)


def _no_collision(ok: bool) -> None:
    if not ok:
        raise InternalError("two masks share a 64-bit key (a key collision)")


# -- cubes ------------------------------------------------------------------


class Cube:
    """Pairwise orthogonal positive roots, i.e. a 2-elementary subgroup.

    The classes of its products, which restriction to it reads, are held in
    its `_memo` by `cube_products`: every representation restricted to this
    cube shares them, and they go with the cube.
    """

    __slots__ = ("home", "roots", "mask", "_hash", "_memo")

    def __init__(self, home: RootSystem, roots: Sequence[int]):
        roots = tuple(sorted(roots))
        for i in roots:
            if not (0 <= i < home.n_positive):
                raise ValueError(f"cube root {i} is not a positive root index")
        for a in range(len(roots)):
            for b in range(a + 1, len(roots)):
                if home.inner(roots[a], roots[b]) != 0:
                    raise ValueError(
                        f"cube roots {roots[a]} and {roots[b]} are not orthogonal")
        self.home = home
        self.roots = roots
        self._hash = hash(roots)
        self.mask = 0
        for i in roots:
            self.mask |= 1 << i
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.roots)

    def __eq__(self, other):
        return (isinstance(other, Cube) and self.home is other.home
                and self.roots == other.roots)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cube{self.roots}"

    def element(self) -> GroupElement:
        """Product of the generating reflections (order immaterial)."""
        g = identity(self.home)
        for i in self.roots:
            g = GroupElement(g.images[self.home.reflection_perm(i)], self.home)
        return g


def enumerate_cubes(rs: RootSystem) -> Iterator[Cube]:
    """Every clique of the orthogonality graph on positive roots.

    Streams in depth-first lexicographic order, the empty cube first.
    """
    for bits in _clique_masks(rs):
        yield Cube(rs, _mask_bits(bits))


def _clique_masks(rs: RootSystem) -> Iterator[int]:
    """Clique bitmasks, depth first."""
    orth = rs.orth_masks

    def rec(mask: int, cand: int) -> Iterator[int]:
        yield mask
        m = cand
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            yield from rec(mask | low, cand & orth[b] & -(low << 1))

    yield from rec(0, (1 << rs.n_positive) - 1)


def _clique_count(rs: RootSystem, within: int) -> int:
    """How many cliques of positive roots lie inside the mask within,
    counted without building them; like _clique_masks, independent of the
    orbit engine it checks."""
    orth = rs.orth_masks

    def rec(cand: int) -> int:
        n = 1
        m = cand
        while m:
            low = m & -m
            m ^= low
            n += rec(cand & orth[low.bit_length() - 1] & -(low << 1))
        return n

    return rec(within)


def _mask_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


# -- involutions ------------------------------------------------------------


class Involution:
    """A group element squaring to the identity, keyed by the mask of the
    positive roots it negates, which span its (-1)-eigenspace."""

    __slots__ = ("element", "mask", "degree")

    def __init__(self, element: GroupElement):
        if not compose(element, element).is_identity():
            raise ValueError("element does not square to the identity")
        self.element = element
        self.mask = mask_of_perm(element.images, element.home)
        trace = coxeter_trace(element)
        self.degree = (element.home.rank - trace) // 2

    def __repr__(self):
        return f"Involution(degree {self.degree} of {self.element.home.type_spec})"


def _greedy_roots(rs: RootSystem, mask: int) -> tuple[int, ...]:
    """First root in the eigenspace, then recurse in its orthogonal complement."""
    picked = []
    m = mask
    while m:
        low = m & -m
        b = low.bit_length() - 1
        picked.append(b)
        m &= rs.orth_masks[b]
    return tuple(picked)


def split_involution(inv: Involution) -> Cube:
    """A splitting of an involution into commuting reflections (greedy)."""
    rs = inv.element.home
    roots = _greedy_roots(rs, inv.mask)
    if len(roots) != inv.degree:
        raise InternalError(
            f"splitting of a degree-{inv.degree} involution found only "
            f"{len(roots)} orthogonal roots in its eigenspace")
    return Cube(rs, roots)


def involution_from_cube(cube: Cube) -> Involution:
    inv = Involution(cube.element())
    if inv.degree != len(cube):
        raise InternalError("cube product has wrong eigenvalue multiplicity")
    return inv


@dataclass(frozen=True, eq=False)
class InvolutionClass:
    """One conjugacy class of involutions.  Equality and hash are identity,
    so a class is a cheap memo key (for its character values)."""

    representative: Involution
    degree: int
    size: int
    splitting: Cube
    class_id: str

    @property
    def home(self) -> RootSystem:
        return self.representative.element.home

    def __repr__(self):
        return f"InvolutionClass({self.class_id}, size {self.size})"


@memoized
def classify_involutions(rs: RootSystem) -> list[InvolutionClass]:
    """Conjugacy classes of involutions, sorted by (degree, size, minimal key)."""
    engine = _mask_engine(rs)
    classes: list[InvolutionClass] = []
    candidates, degree = [0], 0
    while candidates:
        found, candidates = engine.classes(engine.bits(candidates)), []
        for ordinal, (size, mask) in enumerate(found):
            cube = Cube(rs, _greedy_roots(rs, mask))
            inv = involution_from_cube(cube)
            if inv.degree != degree or inv.mask != mask:
                raise InternalError("class representative does not match its key")
            classes.append(InvolutionClass(
                representative=inv, degree=degree, size=size, splitting=cube,
                class_id=f"d{degree}.{ordinal}"))
            # A degree-(k+1) involution is a degree-k one times the reflection
            # in a root orthogonal to its eigenspace.  Conjugating the degree-k
            # factor to its class representative keeps that form, so these
            # products meet every class of the next layer, which is their orbit.
            candidates += [mask_of_perm(inv.element.images[rs.reflection_perm(b)], rs)
                           for b in _mask_bits(_orthogonal_to(rs, cube.roots))]
        degree += 1
    return classes


def involution_count(rs: RootSystem) -> int:
    return sum(cls.size for cls in classify_involutions(rs))


# The classes of the 2^n products g_S of a cube: each class they meet, the
# index in that tuple of the class of each g_S, and the bitmask of the S
# whose g_S lies in each class.
CubeProducts = namedtuple("CubeProducts", "classes of_s members")


@memoized
def cube_products(cube: Cube) -> CubeProducts:
    """The involution classes of the products g_S of the reflections in each
    subset S of a cube's roots.  The engine reads each product's orbit off
    the classification's stored orbits, and a class is its orbit's least mask."""
    rs = cube.home
    images = np.arange(2 * rs.n_positive, dtype=np.int16)[None]  # row S is g_S
    for i in cube.roots:
        images = np.vstack([images, images[:, rs.reflection_perm(i)]])
    by_least = {cls.representative.mask: cls for cls in classify_involutions(rs)}
    leasts = [least for _, least in _mask_engine(rs).orbit_classes(negated_rows(images, rs))]
    met = list(dict.fromkeys(leasts))  # in the order the g_S first meet them
    of_s = np.array([met.index(m) for m in leasts], dtype=np.min_scalar_type(len(met)))
    members = (sum(1 << s for s, m in enumerate(leasts) if m == least) for least in met)
    return CubeProducts(tuple(by_least[least] for least in met), of_s, tuple(members))


def conjugate_subsystems(sub: SubsystemEmbedding) -> tuple[int, Callable[[GroupElement], int]]:
    """How many W-conjugates the positive roots of a subsystem have, and a
    function counting the conjugates an element maps onto themselves.  If
    the subsystem is the perp of its perp, the orbit read is that of
    whichever of the two sets fewer bits, the subsystem's on a tie (see the
    module docstring); else it is the subsystem's."""
    rs = sub.ambient
    engine, P = _mask_engine(rs), rs.n_positive
    mask = sub.positive_closure_mask()
    perp = _orthogonal_to(rs, _mask_bits(mask))
    if perp.bit_count() < mask.bit_count() and _orthogonal_to(rs, _mask_bits(perp)) == mask:
        mask = perp
    orbit = engine.orbit(mask)

    def fixed(g: GroupElement) -> int:  # bit i of a mask goes to bit images[i] % P
        return engine.fixed_points(orbit, g.images[:P] % P)

    return len(orbit.rows), fixed


# -- cube classes -----------------------------------------------------------


@dataclass(frozen=True)
class CubeClass:
    """One conjugacy class of cubes."""

    representative: Cube
    rank: int
    size: int

    def __repr__(self):
        return f"CubeClass(rank {self.rank}, size {self.size})"


def _orthogonal_to(rs: RootSystem, roots: Sequence[int]) -> int:
    """Mask of the positive roots orthogonal to every given root."""
    return reduce(int.__and__, (rs.orth_masks[r] for r in roots), (1 << rs.n_positive) - 1)


@memoized
def classify_cubes(rs: RootSystem) -> list[CubeClass]:
    """Conjugacy classes of cubes, sorted by (rank, size, minimal key).

    Rank k+1 is the orbit of each rank-k class representative plus each
    positive root orthogonal to it: conjugating a rank-k part of a cube to its
    representative sends the extra root to plus or minus such a root."""
    engine = _mask_engine(rs)
    classes, candidates = [], [0]
    while candidates:
        found = engine.classes(engine.bits(candidates))
        classes += [CubeClass(Cube(rs, _mask_bits(mask)), mask.bit_count(), size)
                    for size, mask in found]
        candidates = [mask | 1 << b for _, mask in found
                      for b in _mask_bits(_orthogonal_to(rs, _mask_bits(mask)))]
    return classes


# -- odd-index reductions ----------------------------------------------------


# (ambient, subsystem, index): the five odd-index reductions of the paper
REDUCTION_PAIRS = (
    ("E6", "D5", 27),
    ("E7", "A1xD6", 63),
    ("E8", "D8", 135),
    ("F4", "B4", 3),
    ("G2", "A1xA1", 3),
)


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of checking a subgroup reduction: index parity + cube coverage."""

    ambient_type: str
    sub_type: str
    index: int
    index_odd: bool
    cube_classes: tuple[tuple[int, int, bool], ...]  # (rank, size, covered)
    all_covered: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient_type,
            "subsystem": self.sub_type,
            "index": self.index,
            "index_odd": self.index_odd,
            "cube_classes": [
                {"rank": r, "size": s, "covered": c}
                for r, s, c in self.cube_classes],
            "all_covered": self.all_covered,
            "passed": self.passed,
        }


def verify_reduction(rs: RootSystem, sub: SubsystemEmbedding) -> ReductionReport:
    """Check that a subsystem has odd index and catches every cube class."""
    if sub.ambient is not rs:
        raise ValueError("embedding does not live in the given root system")
    total = group_order(rs)
    sub_order = subgroup_order(rs, sub.sub_simple_roots)
    if total % sub_order:
        raise InternalError("subgroup order does not divide the group order")
    index = total // sub_order
    classes, within, engine = classify_cubes(rs), sub.positive_closure_mask(), _mask_engine(rs)
    inside = engine.count_inside(engine.bits([c.representative.mask for c in classes]), within)
    # The classes' orbits are disjoint sets of cubes, so the cubes inside the
    # subsystem are some of its cliques; as many as there are cliques means all.
    if int(inside.sum()) != _clique_count(rs, within):
        raise InternalError(
            "a cube of the subsystem is in no cube class; enumeration is incomplete")
    rows = tuple((c.rank, c.size, bool(n)) for c, n in zip(classes, inside.tolist()))
    all_covered = all(covered for _, _, covered in rows)
    odd = index % 2 == 1
    return ReductionReport(
        ambient_type=str(rs.type_spec),
        sub_type=str(sub.sub_type),
        index=index,
        index_odd=odd,
        cube_classes=rows,
        all_covered=all_covered,
        passed=odd and all_covered,
    )
