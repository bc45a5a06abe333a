"""Involutions and cubes of a Weyl group, classified up to conjugacy.

An involution is determined by its (-1)-eigenspace, and that eigenspace is
spanned by the roots it contains, so involutions are keyed internally by the
bitmask of positive roots the element negates.  Cubes (sets of pairwise
orthogonal positive roots) are keyed by their bitmask as well.  Conjugation
acts on both by permuting mask bits.

One orbit engine does every conjugacy computation on such masks, held as
numpy rows of little-endian 64-bit words, least significant word first, so
byte j of a row holds mask bits 8j .. 8j + 7.  Its per-byte tables have one
builder and one reader, which combines one entry per byte of a row: their
sum is the row's image under a permutation of the roots, or its 64-bit key
(the wrapping sum of fixed-seed keys of its bits); one fused table yields
the image row and its key under any simple reflection, so only the images
kept are gathered.  The orbit of a mask is one breadth-first search from it.
Each new mask records some of the reflections that lead back to the level
before: the one that made it and those its source recorded that commute with
that one.  Its images under them are skipped (the reader ORs their skip
sets), and so is its image under s_g when it records an s_h with h < g that
commutes with s_g: that image closes a commuting square whose other three
edges the search took earlier (the commutation rule of Cartier and Foata,
LNM 85, 1969), so the search reaches it another way, and no mask is missed.
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
holds it.  The number of bits set, which conjugation keeps, rules out most
stored orbits; in the rest a mask is looked up by key (an orbit's rows are
sorted by key), and every key match is compared row by row.  So low-rank
cubes and small subsystems' orbits are read off the involution layers: a
degree-k involution is the product of the reflections in k orthogonal roots
(Carter, Compositio Math. 25 (1972), Lemma 5), so if its (-1)-eigenspace
holds no other root, its mask is a cube.

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
_WORD = np.dtype("<u8")


def negated_rows(images: np.ndarray, rs: RootSystem) -> np.ndarray:
    """Row i: the positive roots the root permutation images[i] negates, as a mask row."""
    P = rs.n_positive
    bits = np.zeros((len(images), (P + 63) // 64 * 64), dtype=bool)
    bits[:, :P] = images[:, :P] == np.arange(P, 2 * P)
    return np.packbits(bits, axis=1, bitorder="little").view(_WORD)


def mask_of_perm(images: np.ndarray, rs: RootSystem) -> int:
    """Bitmask of the positive roots that a root permutation negates."""
    return int.from_bytes(negated_rows(images[None], rs).tobytes(), "little")


def _byte_tables(per_bit: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Entry [j, v]: per_bit's rows for the bits v sets in byte j, combined by
    op, built by doubling: the entries with top bit b are those below op bit b.
    A byte past the last bit gets no table."""
    nbytes = (len(per_bit) + 7) // 8
    vals = np.zeros((8 * nbytes, per_bit.shape[1]), dtype=per_bit.dtype)
    vals[:len(per_bit)] = per_bit
    vals = vals.reshape(nbytes, 8, -1)
    tables = np.zeros((nbytes, 256, per_bit.shape[1]), dtype=per_bit.dtype)
    for b in range(8):
        tables[:, 1 << b:2 << b] = op(tables[:, :1 << b], vals[:, b, None])
    return tables


def _bit_keys(nbits: int) -> np.ndarray:
    """Fixed pseudo-random 64-bit key of each mask bit (splitmix64 mixing)."""
    z = np.arange(1, nbits + 1, dtype=np.uint64) * np.uint64(_KEY_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class MaskEngine:
    """Permutations of the positive roots acting on packed bitmask rows.

    A row is `nwords` little-endian 64-bit words, least significant first, so
    byte j of its byte view holds mask bits 8j .. 8j + 7.  _byte_tables builds
    every table and _read reads every one; row v * ngens + g of fused table j
    is the image under s_g of the bits v sets in byte j, then its key.
    """

    def __init__(self, rs: RootSystem):
        P = rs.n_positive
        self.nbits = P
        self.nwords = (P + 63) // 64
        self._units = self.rows([1 << i for i in range(P)])  # row i: mask bit i alone
        per_bit = np.hstack([self._units, _bit_keys(P)[:, None]])
        self._key_tables = _byte_tables(per_bit[:, -1:], np.add)
        perms = [rs.positive_perm(p) for p in rs.simple_reflection_perms()]
        self.ngens = len(perms)
        fused = _byte_tables(np.hstack([per_bit[perm] for perm in perms]), np.add)
        self.fused = fused.reshape(len(fused), -1, self.nwords + 1)
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
        self._skips = _byte_tables(skips, np.bitwise_or)
        self._stored: list[_Orbit] = []  # every orbit found, in order

    def _read(self, view: np.ndarray, tables: np.ndarray, op: np.ufunc, gens=None) -> np.ndarray:
        """Per row i of a byte view, op over j of entry v of table j, v the
        row's byte j, or of fused entry v * ngens + gens[i]."""
        acc = None
        for j, table in enumerate(tables):
            index = view[:, j]
            if gens is not None:
                index = np.multiply(index, self.ngens, dtype=np.intp)
                index += gens
            entry = table.take(index, axis=0)
            acc = entry if acc is None else op(acc, entry, out=acc)
        return acc

    def images(self, rows: np.ndarray, at: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """Row i: the image of rows[at[i]] under simple reflection gens[i], then its key."""
        return self._read(self._bytes(rows[at]), self.fused, np.add, gens)

    def _bytes(self, rows: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(rows, dtype=_WORD).view(np.uint8)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return self._read(self._bytes(rows), self._key_tables, np.add)[:, 0]

    def rows(self, masks: Sequence[int]) -> np.ndarray:
        data = b"".join(m.to_bytes(8 * self.nwords, "little") for m in masks)
        return np.frombuffer(data, dtype=_WORD).reshape(-1, self.nwords)

    def mask(self, row: np.ndarray) -> int:
        return int.from_bytes(np.asarray(row, dtype=_WORD).tobytes(), "little")

    def fixed_points(self, rows: np.ndarray, perm: np.ndarray) -> int:
        """How many rows the permutation sending mask bit i to bit perm[i] fixes."""
        images = self._read(self._bytes(rows), _byte_tables(self._units[perm], np.add), np.add)
        return int(np.count_nonzero(reduce(np.logical_and, (images == rows).T)))  # in every word

    def least_mask(self, rows: np.ndarray) -> int:
        """The least mask among the given rows."""
        for w in reversed(range(self.nwords)):  # the most significant word first
            word = rows[:, w]
            rows = rows[word == word.min()]
        return self.mask(rows[0])

    def orbit_classes(self, rows: np.ndarray) -> list[tuple[int, int]]:
        """(size, least mask) of the orbit of each given row, in order."""
        return [(len(orbit.rows), orbit.least) for orbit in self._locate(rows)]

    def classes(self, rows: np.ndarray) -> list[tuple[int, int]]:
        """(size, least mask) of each orbit through the given rows, sorted."""
        return sorted(set(self.orbit_classes(rows)))

    def orbit_rows(self, mask: int) -> np.ndarray:
        """The rows of the orbit of a mask, a stored read-only array."""
        (orbit,) = self._locate(self.rows([mask]))
        return orbit.rows

    def count_inside(self, rows: np.ndarray, within: int) -> np.ndarray:
        """For the orbit of each given row, how many of its masks lie inside
        the mask within."""
        outside = ~self.rows([within])[0]
        counts = []
        for orbit in self._locate(rows):
            inside = np.ones(len(orbit.rows), dtype=bool)
            for words, out in zip(orbit.rows.T, outside):  # no copy of all the rows
                inside &= (words & out) == 0
            counts.append(np.count_nonzero(inside))
        return np.array(counts, dtype=int)

    def _locate(self, rows: np.ndarray) -> list[_Orbit]:
        """The stored orbit of each given row.  The number of bits set, which
        conjugation keeps, skips the stored orbits of masks of another size;
        in the rest a row is looked up by key and every key match is compared
        row by row.  While some given row is found in none, the orbit of the
        first such row is searched, stored, and the rest are looked up in it."""
        keys = self.keys(rows)
        nbits = np.unpackbits(self._bytes(rows), axis=1).sum(axis=1)
        sized = {n: np.flatnonzero(nbits == n) for n in set(nbits.tolist())}
        where, looked = np.full(len(rows), -1), 0
        while True:
            for s in range(looked, len(self._stored)):
                orbit = self._stored[s]
                look = sized.get(orbit.nbits)
                if look is None:
                    continue
                pos = np.minimum(orbit.keys.searchsorted(keys[look]), len(orbit.keys) - 1)
                hit = orbit.keys[pos] == keys[look]
                _no_collision((orbit.rows[pos[hit]] == rows[look[hit]]).all())
                where[look[hit]] = s
            miss = np.flatnonzero(where < 0)
            if not len(miss):
                return [self._stored[s] for s in where.tolist()]
            looked = len(self._stored)
            self._stored.append(self._search(rows[miss[0]], keys[miss[0]]))

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
        images = np.append(row, key)[None]
        parents = np.zeros((1, self._single.shape[1]), dtype=np.uint8)  # none for the row
        levels: list = []  # (rows, keys) of each level
        while len(images):
            order = np.argsort(images[:, -1])
            keys = images[order, -1]
            for level_rows, level_keys in levels[:-3:-1]:  # levels d, d-1
                pos = np.minimum(np.searchsorted(level_keys, keys), len(level_keys) - 1)
                hit = level_keys[pos] == keys
                if hit.any():  # most lookups find nothing
                    _no_collision(np.array_equal(level_rows[pos[hit]], images[order[hit], :-1]))
                    order, keys = order[~hit], keys[~hit]
            if not len(keys):
                break
            images, parents = images[order, :-1], parents[order]
            again = keys[1:] == keys[:-1]
            _no_collision(np.array_equal(images[1:][again], images[:-1][again]))
            if len(levels) > self.nbits:  # no reduced word is longer
                raise InternalError("orbit search went past the longest element")
            first = np.flatnonzero(np.concatenate(([True], ~again)))
            level = images[first], keys[first]
            levels.append(level)
            parents = np.bitwise_or.reduceat(parents, first, axis=0)
            skips = self._read(parents, self._skips, np.bitwise_or)
            at, gens = np.unpackbits(~skips, axis=1, count=self.ngens, bitorder="little").nonzero()
            images = self.images(level[0], at, gens)
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
        rows, start = np.empty((len(keys), self.nwords), dtype=_WORD), 0
        for part in parts:
            rows[place[start:start + len(part)]] = part
            start += len(part)
        del parts
        for part in rows, keys:
            part.flags.writeable = False
        least = self.least_mask(rows)
        return _Orbit(rows, keys, least, least.bit_count())


# One stored orbit: its rows sorted by key and their keys, the read-only
# arrays of the search that found it; its least mask; the number of bits its
# masks set.
_Orbit = namedtuple("_Orbit", "rows keys least nbits")


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


def _clique_masks(rs: RootSystem, within: int | None = None) -> Iterator[int]:
    """Clique bitmasks, depth first; only roots in `within` if it is given."""
    orth = rs.orth_masks
    if within is None:
        within = (1 << rs.n_positive) - 1

    def rec(mask: int, cand: int) -> Iterator[int]:
        yield mask
        m = cand
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            yield from rec(mask | low, cand & orth[b] & -(low << 1))

    yield from rec(0, within)


def _clique_count(rs: RootSystem, within: int) -> int:
    """How many masks _clique_masks(rs, within) yields, counted without
    building them; like it, independent of the orbit engine it checks."""
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
        found, candidates = engine.classes(engine.rows(candidates)), []
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
    function counting the conjugates an element maps onto themselves."""
    engine, P = _mask_engine(sub.ambient), sub.ambient.n_positive
    orbit = engine.orbit_rows(sub.positive_closure_mask())

    def fixed(g: GroupElement) -> int:  # bit i of a mask goes to bit images[i] % P
        return engine.fixed_points(orbit, g.images[:P] % P)

    return len(orbit), fixed


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
        found = engine.classes(engine.rows(candidates))
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
    inside = engine.count_inside(engine.rows([c.representative.mask for c in classes]), within)
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
