"""Exact-rational root systems for the crystallographic families A-G.

Coordinates follow the classical realizations (A_n in the sum-zero slice of
R^{n+1}, B/C/D_n in R^n, E/F in R^8/R^4).  G2 is realized in R^4 so that all
coordinates stay rational while short/long roots keep squared lengths 1 and 3.
Internally every coordinate is stored doubled, as an integer, which makes all
inner products exact integer arithmetic; the public API exposes Fractions.

One numpy closure, `_close`, finds the roots of a system and of each
subsystem level by level in simple-root coordinates.  One exact lookup maps
coordinates back to root indices.  The `Root` objects, and the P x P tables
over positive roots, are built only when something first reads them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Optional, Sequence

import numpy as np

FAMILIES = "ABCDEFG"

_SPEC_RE = re.compile(r"([A-Ga-g])(\d+)")

MAX_ROOTS = 32768  # root indices are int16


def _factor_root_count(fam: str, n: int) -> int:
    if fam == "A":
        return n * (n + 1)
    if fam in "BC":
        return 2 * n * n
    if fam == "D":
        return 2 * n * (n - 1)
    return {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}[f"{fam}{n}"]


class InternalError(RuntimeError):
    """A structural invariant that must hold by construction was violated."""


_MISSING = object()


def memoized(fn):
    """Memoize fn(owner, *args) in owner._memo under the key (fn, *args).

    This is the one memo rule: a value derived from a RootSystem, a
    Representation or a Cube is held by that owner, computed once per owner
    and arguments, never shared with another owner, and gone with its owner.
    The arguments must be hashable; the key keeps them alive as long as the
    owner.
    """
    @wraps(fn)
    def call(owner, *args):
        memo, key = owner._memo, (fn, *args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(owner, *args)
        return value
    return call


@dataclass(frozen=True)
class TypeSpec:
    """An ordered product of irreducible factors, e.g. A1xD6."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("type spec needs at least one factor")
        for fam, rank in self.factors:
            _check_factor(fam, rank)
        if self.root_count > MAX_ROOTS:
            raise ValueError(f"{self} has {self.root_count} roots; "
                             f"at most {MAX_ROOTS} are supported")

    @classmethod
    def parse(cls, text: str) -> "TypeSpec":
        factors = []
        for token in re.split("[xX]", text.strip()):
            m = _SPEC_RE.fullmatch(token.strip())
            if not m:
                raise ValueError(f"cannot parse type factor {token!r}")
            factors.append((m.group(1).upper(), int(m.group(2))))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.factors)

    @property
    def root_count(self) -> int:
        return sum(_factor_root_count(fam, n) for fam, n in self.factors)


def _check_factor(fam: str, rank: int) -> None:
    name = f"{fam}{rank}"
    if fam not in FAMILIES:
        raise ValueError(f"unknown family in factor {name!r}")
    if rank < 1:
        raise ValueError(f"rank must be positive in factor {name!r}")
    if fam == "D" and rank < 2:
        raise ValueError(f"D needs rank >= 2, got factor {name!r}")
    if fam == "E" and rank not in (6, 7, 8):
        raise ValueError(f"E exists only for ranks 6,7,8, got factor {name!r}")
    if fam == "F" and rank != 4:
        raise ValueError(f"F exists only for rank 4, got factor {name!r}")
    if fam == "G" and rank != 2:
        raise ValueError(f"G exists only for rank 2, got factor {name!r}")


def _simple_roots_doubled(fam: str, rank: int) -> np.ndarray:
    """Doubled integer coordinates of the simple roots of one factor, one row each."""
    if fam in "ABCD":  # e_i - e_{i+1}; the last row of B is already e_n
        dim = rank + 1 if fam == "A" else rank
        rows = 2 * (np.eye(rank, dim, dtype=np.int64) - np.eye(rank, dim, 1, dtype=np.int64))
        if fam == "C":
            rows[-1, -1] = 4  # 2e_n
        elif fam == "D":
            rows[-1, -2] = 2  # e_{n-1} + e_n
        return rows
    if fam == "E":
        e8 = [
            [1, -1, -1, -1, -1, -1, -1, 1],
            [2, 2, 0, 0, 0, 0, 0, 0],
            [-2, 2, 0, 0, 0, 0, 0, 0],
            [0, -2, 2, 0, 0, 0, 0, 0],
            [0, 0, -2, 2, 0, 0, 0, 0],
            [0, 0, 0, -2, 2, 0, 0, 0],
            [0, 0, 0, 0, -2, 2, 0, 0],
            [0, 0, 0, 0, 0, -2, 2, 0],
        ]
        return np.array(e8[:rank], dtype=np.int64)
    if fam == "F":
        return np.array([
            [0, 2, -2, 0],
            [0, 0, 2, -2],
            [0, 0, 0, 2],
            [1, -1, -1, -1],
        ], dtype=np.int64)
    # G2: short (1,0,0,0), long (-3/2,1/2,1/2,1/2); lengths 1 and 3
    return np.array([[2, 0, 0, 0], [-3, 1, 1, 1]], dtype=np.int64)


def _simple_rows(spec: TypeSpec) -> np.ndarray:
    """Doubled coordinates of the simple roots of spec, each factor in its own
    block of ambient coordinates."""
    blocks = [_simple_roots_doubled(fam, rank) for fam, rank in spec.factors]
    simples = np.zeros((spec.rank, sum(b.shape[1] for b in blocks)), dtype=np.int64)
    row = col = 0
    for b in blocks:
        simples[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return simples


def _cartan(gram: np.ndarray) -> np.ndarray:
    """2(ai, aj)/(aj, aj) from the Gram matrix of the ai, checked to be integral."""
    norms = np.diag(gram)
    if np.any(2 * gram % norms):
        raise InternalError("non-integral Cartan number")
    return 2 * gram // norms


def _key(rows: np.ndarray) -> np.ndarray:
    """Each int64 row as one opaque value, sortable for exact lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{8 * rows.shape[1]}")[:, 0]


def _search(table: np.ndarray, rows: np.ndarray, order=None) -> np.ndarray:
    """Index in table of each row, or -1 where it is absent: searchsorted over
    the keys of table (sorted by `order`, or sorted already), then an exact
    comparison."""
    pos = np.minimum(np.searchsorted(_key(table), _key(rows), sorter=order), len(table) - 1)
    pos = pos if order is None else order[pos]
    return np.where((table[pos] == rows).all(axis=1), pos, -1)


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, sorted by key."""
    rows = rows[np.argsort(_key(rows))]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def _close(simples: np.ndarray) -> np.ndarray:
    """Every root of the system with these simple roots, in simple-root coordinates.

    Every root is a Weyl group image of a simple root, so a breadth-first
    search from the simple roots under s_j(v) = v - (vC)_j e_j (C the Cartan
    matrix) finds them all, one level at a time.  The s_j are involutions, so
    the images of a level lie in the level before, the level itself or the
    next one, and are looked up in the first two only.
    """
    cartan = _cartan(simples @ simples.T)
    # level 0 serves as its own level before
    before = level = _distinct(np.eye(len(cartan), dtype=np.int64))
    levels, count = [], 0
    while len(level):
        levels.append(level)
        count += len(level)
        if count > MAX_ROOTS:
            raise InternalError("root closure does not end")
        shift = level @ cartan
        r, j = np.nonzero(shift)  # s_j moves root r of the level
        images = level[r]
        images[np.arange(len(r)), j] -= shift[r, j]
        images = images[(_search(before, images) < 0) & (_search(level, images) < 0)]
        before, level = level, _distinct(images)
    roots = np.concatenate(levels)
    if len(_distinct(roots)) != count:
        raise InternalError("root closure repeats a root")
    return roots


def _simple_at(scoords: np.ndarray) -> np.ndarray:
    """The row of each simple root among roots in simple-root coordinates,
    in the order of the coordinates: the rows of height 1."""
    units = np.flatnonzero(scoords.sum(axis=1) == 1)
    return units[np.argsort(scoords[units].argmax(axis=1))]


class Root:
    """One root: exact coordinates plus its expansion in the simple basis."""

    __slots__ = ("icoords", "scoords", "index", "positive")

    def __init__(self, icoords: tuple[int, ...], scoords: tuple[int, ...],
                 index: int, positive: bool):
        self.icoords = icoords      # doubled integer coordinates
        self.scoords = scoords      # integer coordinates in the simple basis
        self.index = index
        self.positive = positive

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, 2) for c in self.icoords)

    @property
    def norm2(self) -> Fraction:
        return Fraction(sum(c * c for c in self.icoords), 4)

    @property
    def height(self) -> int:
        return sum(self.scoords)

    def __repr__(self):
        return f"Root({'+'.join(map(str, self.coords))!s} #{self.index})"


class RootSystem:
    """All roots of a type spec, closed under reflections, canonically ordered.

    Positive roots come first (sorted by height then coordinates); root i + P
    is the negative of root i, where P is the number of positive roots.  The
    roots are found by `_close` in simple-root coordinates, and every map
    from coordinates back to an index goes through the one exact `_lookup`.
    The `Root` objects of `roots` and the P x P tables `cartan_table` and
    `orth_masks` are built on first use.
    Immutable after construction; everything else derived from it, such as
    its reflection permutations, classes and orbit engine, is held in its
    `_memo` by `memoized` functions and lives as long as the system.
    """

    def __init__(self, spec: TypeSpec):
        self.type_spec = spec
        self._memo: dict = {}
        self.rank = spec.rank
        simples = _simple_rows(spec)
        self.ambient_dim = simples.shape[1]

        scoords = _close(simples)
        height = scoords.sum(axis=1)
        positive = height > 0
        if 2 * np.count_nonzero(positive) != len(scoords):
            raise InternalError("roots do not come in +/- pairs")
        scoords = scoords[positive]
        icoords = scoords @ simples
        # by height, then coordinates; lexsort's last key is its first
        order = np.lexsort(np.vstack([icoords[:, ::-1].T, height[positive]]))
        self._scoord_mat = np.concatenate([scoords[order], -scoords[order]])
        self._icoord_mat = np.concatenate([icoords[order], -icoords[order]])
        self.n_positive = len(order)
        self._by_bytes = np.argsort(_key(self._icoord_mat))

    @property
    @memoized
    def simple_indices(self) -> tuple[int, ...]:
        """Root index of each simple root, read off `_scoord_mat`, whose columns
        alone hold the simple order.  Read-only."""
        return tuple(_simple_at(self._scoord_mat).tolist())

    def _lookup(self, coords: np.ndarray) -> np.ndarray:
        """Index of each row of doubled coordinates, or -1 where it is no root."""
        return _search(self._icoord_mat, coords, self._by_bytes)

    @cached_property
    def roots(self) -> list[Root]:
        """Every root as a `Root`, positive roots first."""
        return [Root(tuple(ic), tuple(sc), idx, idx < self.n_positive) for idx, (ic, sc)
                in enumerate(zip(self._icoord_mat.tolist(), self._scoord_mat.tolist()))]

    @cached_property
    def cartan_table(self) -> np.ndarray:
        """2(ai, aj)/(aj, aj) for all positive roots i, j."""
        pos = self._icoord_mat[:self.n_positive]
        return _cartan(pos @ pos.T)

    @cached_property
    def orth_masks(self) -> list[int]:
        """For each positive root, the bitmask of the positive roots orthogonal to it."""
        pos = self._icoord_mat[:self.n_positive]
        bits = np.packbits(pos @ pos.T == 0, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in bits]

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._icoord_mat)

    def negative_index(self, i: int) -> int:
        P = self.n_positive
        return i + P if i < P else i - P

    def positive_index(self, i: int) -> int:
        """Index of the positive root in {root i, -root i}."""
        return i if i < self.n_positive else i - self.n_positive

    def index_of(self, coords: Sequence[Fraction]) -> int:
        doubled = [2 * Fraction(c) for c in coords]
        idx = -1
        if len(doubled) == self.ambient_dim and all(d.denominator == 1 for d in doubled):
            row = np.array([[d.numerator for d in doubled]], dtype=np.int64)
            idx = int(self._lookup(row)[0])
        if idx < 0:
            raise ValueError(f"{tuple(coords)} is not a root of {self.type_spec}")
        return idx

    def inner(self, i: int, j: int) -> Fraction:
        return Fraction(int(self._icoord_mat[i] @ self._icoord_mat[j]), 4)

    def inner_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        if len(u) != len(v):
            raise ValueError("dimension mismatch in inner product")
        return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))

    def cartan(self, i: int, j: int) -> int:
        """2(ai, aj)/(aj, aj) for positive root indices i, j."""
        return int(self.cartan_table[i, j])

    # -- reflections -------------------------------------------------------

    def reflection_perm(self, i: int) -> np.ndarray:
        """Permutation of the root list induced by the reflection in root i."""
        return _reflection_perm(self, self.positive_index(i))

    def simple_reflection_perms(self) -> list[np.ndarray]:
        return [self.reflection_perm(i) for i in self.simple_indices]

    def positive_perm(self, perm: np.ndarray) -> list[int]:
        """Fold a root permutation to the induced map on positive indices."""
        P = self.n_positive
        return [int(v) if v < P else int(v) - P for v in perm[:P]]

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.type_spec),
            "rank": self.rank,
            "roots": [[str(Fraction(c, 2)) for c in row]
                      for row in self._icoord_mat.tolist()],
        }


@memoized
def _reflection_perm(rs: RootSystem, i: int) -> np.ndarray:
    """The reflection permutation of positive root i, read-only."""
    alpha = rs._icoord_mat[i]
    norm = int(alpha @ alpha)
    num = 2 * (rs._icoord_mat @ alpha)
    if np.any(num % norm):
        raise InternalError("non-integral reflection coefficient")
    perm = rs._lookup(rs._icoord_mat - np.outer(num // norm, alpha))
    if np.any(perm < 0):
        raise InternalError("a reflection maps a root outside the root system")
    perm = perm.astype(np.int16)
    perm.setflags(write=False)
    return perm


def build_root_system(spec: TypeSpec | str) -> RootSystem:
    """Construct the full root system of a legal type spec."""
    if isinstance(spec, str):
        spec = TypeSpec.parse(spec)
    return RootSystem(spec)


def _root_index(rs: RootSystem, root) -> int:
    """The index of a root given as a Root, an index or its coordinates."""
    if isinstance(root, Root):
        return root.index
    return root if isinstance(root, int) else rs.index_of(root)


def reflect(rs: RootSystem, mirror, v: Sequence) -> tuple[Fraction, ...]:
    """Reflect an ambient vector in the hyperplane of a root, exactly."""
    alpha = rs.roots[_root_index(rs, mirror)].coords
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != rs.ambient_dim:
        raise ValueError(
            f"vector has dimension {len(vec)}, expected {rs.ambient_dim}")
    num = rs.inner_vec(vec, alpha)
    den = rs.inner_vec(alpha, alpha)
    c = 2 * num / den
    return tuple(x - c * a for x, a in zip(vec, alpha))


@dataclass(frozen=True)
class SubsystemEmbedding:
    """A choice of roots in an ambient system realizing a smaller Cartan matrix."""

    ambient: RootSystem
    sub_type: TypeSpec
    sub_simple_roots: tuple[int, ...]

    def closure(self) -> tuple[int, ...]:
        """All ambient root indices of the subsystem generated by the chosen roots.

        Every root of a root system is a Weyl group image of a simple root, so
        the orbit of the chosen roots under their own reflections is all of it.
        """
        rs = self.ambient
        chosen = rs._icoord_mat[list(self.sub_simple_roots)]
        found = rs._lookup(_close(chosen) @ chosen)
        if np.any(found < 0):
            raise InternalError("the subsystem has a root outside the ambient system")
        return tuple(np.sort(found).tolist())

    def positive_closure_mask(self) -> int:
        return sum(1 << i for i in self.closure() if i < self.ambient.n_positive)


def target_cartan_matrix(spec: TypeSpec) -> list[list[int]]:
    """Cartan matrix of a type spec, read off its standard simple roots."""
    simples = _simple_rows(spec)
    return _cartan(simples @ simples.T).tolist()


def find_subsystem(rs: RootSystem, target: TypeSpec | str) -> Optional[SubsystemEmbedding]:
    """Search for positive roots of rs realizing the Cartan matrix of target.

    Backtracking over positive-root tuples, pruning every partial choice
    against the Cartan table of rs: the candidates at each depth are the
    roots, in index order, whose table entries against the roots chosen so
    far all match, found by one boolean test.  Returns None when the
    exhaustive search finds nothing (e.g. B2 inside A2), and at once when
    target outranks rs: roots realizing a finite-type Cartan matrix are
    linearly independent, its Gram matrix being positive definite.
    """
    if isinstance(target, str):
        target = TypeSpec.parse(target)
    if target.rank > rs.rank:
        return None
    tc = np.array(target_cartan_matrix(target))
    k = len(tc)
    table = rs.cartan_table
    chosen: list[int] = []

    def extend(pos: int) -> bool:
        if pos == k:
            return True
        fits = np.all(table[:, chosen] == tc[pos, :pos], axis=1) & \
            np.all(table[chosen].T == tc[:pos, pos], axis=1)
        for cand in np.flatnonzero(fits).tolist():
            chosen.append(cand)
            if extend(pos + 1):
                return True
            chosen.pop()
        return False

    if not extend(0):
        return None
    return SubsystemEmbedding(rs, target, tuple(chosen))
