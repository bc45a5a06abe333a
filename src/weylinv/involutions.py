"""Involutions and cubes of a Weyl group, classified up to conjugacy.

An involution is determined by its (-1)-eigenspace, and that eigenspace is
spanned by the roots it contains, so involutions are keyed internally by the
bitmask of positive roots the element negates.  Cubes (sets of pairwise
orthogonal positive roots) are keyed by their bitmask as well.  Conjugation
acts on both by permuting mask bits.

One orbit engine does every conjugacy computation on such masks.  A mask set
is held as numpy rows of 64-bit words, most significant word first, sorted
by integer value, so the first row of an orbit is its minimal mask: the
class representative.  A permutation of the roots acts through per-byte
lookup tables (the image of a row is the sum of one table entry per byte),
and so does a 64-bit key per mask, the wrapping sum of fixed-seed keys of
its bits.  Generator images are located by searchsorted on the keys and then
compared with the set's rows exactly, so two masks sharing a key or an image
outside the set raise InternalError instead of merging two orbits.  Orbits are
labelled by min-label propagation along the simple reflections with pointer
jumping.  Cube labels are computed once per root system and serve both the
cube classes and the coverage check of a reduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .roots import InternalError, RootSystem, SubsystemEmbedding
from .weyl import (GroupElement, compose, coxeter_trace, group_order,
                   identity, subgroup_order)


class CacheError(ValueError):
    """A cache file failed validation and should be recomputed."""


def mask_of_perm(images: np.ndarray, rs: RootSystem) -> int:
    """Bitmask of the positive roots that a root permutation negates."""
    P = rs.n_positive
    bits = images[:P] == np.arange(P, 2 * P, dtype=images.dtype)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


# -- the orbit engine --------------------------------------------------------

_KEY_SEED = 0x9E3779B97F4A7C15  # increment of the sequence the bit keys hash
_WORD = np.dtype("<u8")


def _bit_keys(nbits: int) -> np.ndarray:
    """Fixed pseudo-random 64-bit key of each mask bit (splitmix64 mixing)."""
    z = np.arange(1, nbits + 1, dtype=np.uint64) * np.uint64(_KEY_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class MaskEngine:
    """Permutations of the positive roots acting on packed bitmask rows.

    A row is `nwords` little-endian 64-bit words, most significant first, so
    byte j of a row's byte view holds mask bits base(j) .. base(j) + 7.
    `generators` holds the byte tables of the simple reflections.
    """

    def __init__(self, rs: RootSystem):
        P = rs.n_positive
        self.nbits = P
        self.nwords = (P + 63) // 64
        j = np.arange(8 * self.nwords)
        base = (self.nwords - 1 - j // 8) * 64 + (j % 8) * 8
        self._bytes = np.flatnonzero(base < P)
        src = base[self._bytes, None] + np.arange(8)
        self._valid = (src < P)[:, :, None]
        self._src = np.where(src < P, src, 0)
        self._byte_bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint64)
        self._unit_rows = self.rows([1 << i for i in range(P)])
        self._key_tables = self._byte_tables(_bit_keys(P)[:, None])
        self.generators = [self._byte_tables(self._unit_rows[rs.positive_perm(p)])
                           for p in rs.simple_reflection_perms()]

    def _byte_tables(self, per_bit: np.ndarray) -> np.ndarray:
        """Entry [j, v]: wrapping sum of per_bit over the bits v sets in byte j."""
        vals = per_bit[self._src] * self._valid
        return (self._byte_bits[None, :, :, None] * vals[:, None]).sum(axis=2)

    def apply(self, rows: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Sum of one table entry per byte of each row: the image rows under a
        permutation's tables, the keys under the key tables."""
        view = np.ascontiguousarray(rows, dtype=_WORD).view(np.uint8)
        acc = np.zeros((len(rows), tables.shape[2]), dtype=_WORD)
        for j, table in zip(self._bytes, tables):
            acc += table.take(view[:, j], axis=0)
        return acc

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return self.apply(rows, self._key_tables)[:, 0]

    def rows(self, masks: Sequence[int]) -> np.ndarray:
        out = np.empty((len(masks), self.nwords), dtype=_WORD)
        for w in range(self.nwords):
            shift = 64 * (self.nwords - 1 - w)
            out[:, w] = np.fromiter(((m >> shift) & 0xFFFFFFFFFFFFFFFF for m in masks),
                                    dtype=np.uint64, count=len(masks))
        return out

    def mask(self, row: np.ndarray) -> int:
        return int.from_bytes(row.astype(">u8").tobytes(), "big")

    def bit_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Boolean matrix whose column i is mask bit i of each row."""
        bits = np.unpackbits(np.ascontiguousarray(rows, dtype=_WORD).view(np.uint8),
                             axis=1, bitorder="little")
        i = np.arange(self.nbits)
        return bits[:, 64 * (self.nwords - 1 - i // 64) + i % 64].astype(bool)

    def _distinct(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows and their keys; rows sharing a key must be equal."""
        keys = self.keys(rows)
        keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if not np.array_equal(rows[first][inverse], rows):
            raise InternalError("two masks share a 64-bit key (a key collision)")
        return rows[first], keys

    def orbit(self, rows: np.ndarray) -> np.ndarray:
        """Every mask in the orbits of the given rows, sorted by integer value."""
        rows, keys = self._distinct(rows)
        frontier = rows
        while len(frontier):
            grown, grown_keys = self._distinct(np.concatenate(
                [rows] + [self.apply(frontier, g) for g in self.generators]))
            frontier = grown[~np.isin(grown_keys, keys, assume_unique=True)]
            rows, keys = grown, grown_keys
        return rows[np.lexsort(rows.T[::-1])]


class MaskSet:
    """Distinct masks as rows sorted by integer value, with exact lookup."""

    def __init__(self, engine: MaskEngine, rows: np.ndarray):
        self.engine = engine
        rows, self._keys = engine._distinct(rows)
        order = np.lexsort(rows.T[::-1])
        self.rows = rows[order]
        self._by_key = np.argsort(order)  # key position -> row position

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the given rows in the set; a missing row is an error."""
        keys = self.engine.keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        idx = self._by_key[pos]
        if not (np.array_equal(self._keys[pos], keys)
                and np.array_equal(self.rows[idx], rows)):
            raise InternalError(
                "orbit action left the mask set; enumeration is incomplete")
        return idx

    def orbit_labels(self) -> np.ndarray:
        """Position of the minimal mask of each row's orbit."""
        images = [self.find(self.engine.apply(self.rows, g))
                  for g in self.engine.generators]
        labels = np.arange(len(self.rows))
        while True:
            new = labels
            for img in images:
                new = np.minimum(new, new[img])
            jumped = new[new]
            while not np.array_equal(jumped, new):
                new, jumped = jumped, jumped[jumped]
            if np.array_equal(new, labels):
                return labels
            labels = new


# -- cubes ------------------------------------------------------------------


class Cube:
    """Pairwise orthogonal positive roots, i.e. a 2-elementary subgroup."""

    __slots__ = ("home", "roots", "mask")

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
        self.mask = 0
        for i in roots:
            self.mask |= 1 << i

    def __len__(self) -> int:
        return len(self.roots)

    def __eq__(self, other):
        return (isinstance(other, Cube) and self.home is other.home
                and self.roots == other.roots)

    def __hash__(self):
        return hash(self.roots)

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


def _mask_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


# -- involutions ------------------------------------------------------------


class Involution:
    """A group element squaring to the identity, keyed by its (-1)-eigenspace."""

    __slots__ = ("element", "mask", "degree", "_key")

    def __init__(self, element: GroupElement):
        if not compose(element, element).is_identity():
            raise ValueError("element does not square to the identity")
        self.element = element
        self.mask = mask_of_perm(element.images, element.home)
        trace = coxeter_trace(element)
        self.degree = (element.home.rank - trace) // 2
        self._key = None

    @property
    def eigenspace_key(self) -> tuple[tuple[Fraction, ...], ...]:
        """Reduced-echelon basis of the (-1)-eigenspace, exact rationals."""
        if self._key is None:
            rs = self.element.home
            rows = [rs.roots[i].coords for i in _greedy_roots(rs, self.mask)]
            self._key = rref(rows)
        return self._key

    def __repr__(self):
        return f"Involution(degree {self.degree} of {self.element.home.type_spec})"


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over the rationals; zero rows dropped."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [v * inv for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [a - c * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row] if any(row))


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


@dataclass(frozen=True)
class InvolutionClass:
    """One conjugacy class of involutions."""

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


def _involution_masks(rs: RootSystem) -> dict[int, list[int]]:
    """All involutions, keyed by eigenroot bitmask, grouped by degree.

    Breadth-first over degrees: a degree-(k+1) involution is a degree-k one
    times a reflection orthogonal to its eigenspace, and extending only past
    the highest eigenroot bit still reaches everything (drop the top root of
    any splitting of the eigenspace and you get a valid parent).  Parents
    carry their permutations only while their level is the frontier, so
    memory stays proportional to the largest degree layer.
    """
    P = rs.n_positive
    full = (1 << P) - 1
    refl = [rs.reflection_perm(i) for i in range(P)]
    ident = identity(rs).images

    by_degree: dict[int, list[int]] = {0: [0]}
    frontier: dict[int, tuple[np.ndarray, int]] = {0: (ident, full)}
    degree = 0
    while frontier:
        nxt: dict[int, tuple[np.ndarray, int]] = {}
        for mask in sorted(frontier):
            images, cand = frontier[mask]
            allowed = cand & -(1 << mask.bit_length()) if mask else cand
            while allowed:
                low = allowed & -allowed
                b = low.bit_length() - 1
                allowed ^= low
                child = images[refl[b]]
                cmask = mask_of_perm(child, rs)
                if cmask not in nxt:
                    nxt[cmask] = (child, cand & rs.orth_masks[b])
        degree += 1
        if nxt:
            by_degree[degree] = sorted(nxt)
        frontier = nxt
    return by_degree


def classify_involutions(rs: RootSystem) -> list[InvolutionClass]:
    """Conjugacy classes of involutions, sorted by (degree, size, minimal key).

    Results are memoized on the root system.
    """
    cached = getattr(rs, "_involution_classes", None)
    if cached is not None:
        return cached

    by_degree = _involution_masks(rs)
    engine = MaskEngine(rs)
    raw: list[tuple[int, int, int]] = []  # (degree, size, min mask)
    total = 0
    for degree, masks in sorted(by_degree.items()):
        total += len(masks)
        layer = MaskSet(engine, engine.rows(masks))
        labels, sizes = np.unique(layer.orbit_labels(), return_counts=True)
        raw.extend((degree, int(size), engine.mask(layer.rows[label]))
                   for label, size in zip(labels, sizes))
    if sum(size for _, size, _ in raw) != total:
        raise InternalError("class sizes do not add up to the involution count")

    raw.sort(key=lambda t: (t[0], t[1], t[2]))
    classes = []
    per_degree_counter: dict[int, int] = {}
    for degree, size, min_mask in raw:
        ordinal = per_degree_counter.get(degree, 0)
        per_degree_counter[degree] = ordinal + 1
        cube = Cube(rs, _greedy_roots(rs, min_mask))
        inv = involution_from_cube(cube)
        if inv.degree != degree or inv.mask != min_mask:
            raise InternalError("class representative does not match its key")
        classes.append(InvolutionClass(
            representative=inv, degree=degree, size=size, splitting=cube,
            class_id=f"d{degree}.{ordinal}"))
    rs._involution_classes = classes
    return classes


def involution_count(rs: RootSystem) -> int:
    return sum(cls.size for cls in classify_involutions(rs))


# -- cube classes -----------------------------------------------------------


@dataclass(frozen=True)
class CubeClass:
    """One conjugacy class of cubes."""

    representative: Cube
    rank: int
    size: int

    def __repr__(self):
        return f"CubeClass(rank {self.rank}, size {self.size})"


def _cube_orbits(rs: RootSystem) -> tuple[MaskSet, np.ndarray, list]:
    """Every clique, the orbit label of each, and (rank, size, min mask, label)
    of each class in class order.  Computed once per root system."""
    cached = getattr(rs, "_cube_orbits", None)
    if cached is None:
        engine = MaskEngine(rs)
        cliques = MaskSet(engine, engine.rows(list(_clique_masks(rs))))
        labels = cliques.orbit_labels()
        reps, sizes = np.unique(labels, return_counts=True)
        masks = [engine.mask(cliques.rows[label]) for label in reps]
        classes = sorted((mask.bit_count(), int(size), mask, int(label))
                         for mask, size, label in zip(masks, sizes, reps))
        cached = rs._cube_orbits = (cliques, labels, classes)
    return cached


def classify_cubes(rs: RootSystem) -> list[CubeClass]:
    """Conjugacy classes of cubes, sorted by (rank, size, minimal key)."""
    cached = getattr(rs, "_cube_classes", None)
    if cached is None:
        cached = [CubeClass(Cube(rs, _mask_bits(mask)), rank, size)
                  for rank, size, mask, _ in _cube_orbits(rs)[2]]
        rs._cube_classes = cached
    return cached


# -- odd-index reductions ----------------------------------------------------


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
    cliques, labels, classes = _cube_orbits(rs)
    inside = cliques.engine.rows(list(_clique_masks(rs, sub.positive_closure_mask())))
    hit = set(labels[cliques.find(inside)].tolist())
    rows = tuple((rank, size, label in hit) for rank, size, _, label in classes)
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


# -- JSON cache ---------------------------------------------------------------


def atlas_json_dict(rs: RootSystem) -> dict:
    """Serializable snapshot of the classification of one type."""
    classes = classify_involutions(rs)
    cube_classes = classify_cubes(rs)
    return {
        "type": str(rs.type_spec),
        "group_order": group_order(rs),
        "involution_classes": [
            {
                "degree": cls.degree,
                "size": cls.size,
                "splitting_roots": list(cls.splitting.roots),
                "representative_eigenspace": [
                    [str(v) for v in row]
                    for row in cls.representative.eigenspace_key],
            }
            for cls in classes],
        "cube_classes": [
            {
                "rank": cc.rank,
                "size": cc.size,
                "representative_roots": list(cc.representative.roots),
            }
            for cc in cube_classes],
    }


def atlas_json_bytes(rs: RootSystem) -> bytes:
    return (json.dumps(atlas_json_dict(rs), indent=2, sort_keys=True) + "\n"
            ).encode()


def validate_atlas_dict(rs: RootSystem, data: dict) -> None:
    """Cheap structural validation of a cached snapshot against its system."""
    try:
        if data["type"] != str(rs.type_spec):
            raise CacheError("cached type does not match")
        if not isinstance(data["group_order"], int) or data["group_order"] < 1:
            raise CacheError("bad group order")
        for entry in data["involution_classes"]:
            cube = Cube(rs, entry["splitting_roots"])
            if len(cube) != entry["degree"]:
                raise CacheError("splitting does not match stated degree")
            if entry["size"] < 1:
                raise CacheError("bad class size")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CacheError):
            raise
        raise CacheError(f"malformed atlas cache: {exc}") from exc


def atlas_from_json_dict(rs: RootSystem, data: dict,
                         ) -> tuple[list[InvolutionClass], list[CubeClass]]:
    """Rebuild a classification from a cached snapshot, verifying as it goes.

    Splittings are re-multiplied and eigenspaces re-echelonized, so a stale
    or hand-edited cache cannot smuggle in a wrong table; sizes and the
    stated group order are cross-checked where recomputation is cheap.
    """
    validate_atlas_dict(rs, data)
    if data["group_order"] != group_order(rs):
        raise CacheError("cached group order disagrees with recomputation")
    classes = []
    per_degree: dict[int, int] = {}
    for entry in data["involution_classes"]:
        cube = Cube(rs, entry["splitting_roots"])
        inv = involution_from_cube(cube)
        degree = entry["degree"]
        if inv.degree != degree:
            raise CacheError("cached splitting has the wrong degree")
        stored = [[str(v) for v in row] for row in inv.eigenspace_key]
        if stored != entry["representative_eigenspace"]:
            raise CacheError("cached eigenspace does not match its splitting")
        ordinal = per_degree.get(degree, 0)
        per_degree[degree] = ordinal + 1
        classes.append(InvolutionClass(
            representative=inv, degree=degree, size=entry["size"],
            splitting=cube, class_id=f"d{degree}.{ordinal}"))
    keys = [(c.degree, c.size, c.representative.mask) for c in classes]
    if keys != sorted(keys):
        raise CacheError("cached classes are out of canonical order")
    cube_classes = []
    for entry in data["cube_classes"]:
        cube = Cube(rs, entry["representative_roots"])
        if len(cube) != entry["rank"]:
            raise CacheError("cached cube class has the wrong rank")
        cube_classes.append(CubeClass(cube, entry["rank"], entry["size"]))
    ckeys = [(cc.rank, cc.size, cc.representative.mask) for cc in cube_classes]
    if ckeys != sorted(ckeys):
        raise CacheError("cached cube classes are out of canonical order")
    rs._involution_classes = classes
    rs._cube_classes = cube_classes
    return classes, cube_classes
