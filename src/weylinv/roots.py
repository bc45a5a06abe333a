"""Exact-rational root systems for the crystallographic families A-G.

Coordinates follow the classical realizations (A_n in the sum-zero slice of
R^{n+1}, B/C/D_n in R^n, E/F in R^8/R^4).  G2 is realized in R^4 so that all
coordinates stay rational while short/long roots keep squared lengths 1 and 3.
Internally every coordinate is stored doubled, as an integer, which makes all
inner products exact integer arithmetic; the public API exposes Fractions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
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


def per_system(fn):
    """Memoize fn(rs) in the memo of rs: computed once per system, never shared."""
    @wraps(fn)
    def memoized(rs: "RootSystem"):
        memo = rs._memo
        if fn not in memo:
            memo[fn] = fn(rs)
        return memo[fn]
    return memoized


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


def _simple_roots_doubled(fam: str, rank: int) -> tuple[int, list[list[int]]]:
    """Doubled integer coordinates of the simple roots of one factor.

    Returns (ambient dimension, list of coordinate rows).
    """
    if fam == "A":
        dim = rank + 1
        rows = [_unit(dim, i, 2, i + 1, -2) for i in range(rank)]
    elif fam in "BCD":
        dim = rank
        rows = [_unit(dim, i, 2, i + 1, -2) for i in range(rank - 1)]
        if fam == "B":
            rows.append(_unit(dim, rank - 1, 2))
        elif fam == "C":
            rows.append(_unit(dim, rank - 1, 4))
        else:  # D, rank >= 2
            rows.append(_unit(dim, rank - 2, 2, rank - 1, 2))
    elif fam == "E":
        dim = 8
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
        rows = e8[:rank]
    elif fam == "F":
        dim = 4
        rows = [
            [0, 2, -2, 0],
            [0, 0, 2, -2],
            [0, 0, 0, 2],
            [1, -1, -1, -1],
        ]
    else:  # G2: short (1,0,0,0), long (-3/2,1/2,1/2,1/2); lengths 1 and 3
        dim = 4
        rows = [
            [2, 0, 0, 0],
            [-3, 1, 1, 1],
        ]
    return dim, rows


def _unit(dim: int, i: int, vi: int, j: int | None = None, vj: int = 0) -> list[int]:
    row = [0] * dim
    row[i] = vi
    if j is not None:
        row[j] = vj
    return row


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
    is the negative of root i, where P is the number of positive roots.
    Immutable after construction; what is derived from it is memoized in
    `_memo` by the functions decorated with `per_system`.
    """

    def __init__(self, spec: TypeSpec):
        self.type_spec = spec
        self._memo: dict = {}
        blocks = []
        offset = 0
        self.ambient_dim = 0
        for fam, rank in spec.factors:
            dim, rows = _simple_roots_doubled(fam, rank)
            blocks.append((offset, dim, rows))
            offset += dim
        self.ambient_dim = offset
        self.rank = spec.rank

        simples: list[list[int]] = []
        for off, dim, rows in blocks:
            for row in rows:
                padded = [0] * off + row + [0] * (self.ambient_dim - off - dim)
                simples.append(padded)
        self._isimples = [tuple(r) for r in simples]

        self._generate()
        self._finalize()

    # -- construction ------------------------------------------------------

    def _generate(self) -> None:
        nsimple = len(self._isimples)
        norms = [sum(c * c for c in s) for s in self._isimples]
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for j, s in enumerate(self._isimples):
            seen[s] = tuple(1 if k == j else 0 for k in range(nsimple))
        frontier = list(seen)
        while frontier:
            new = []
            for ic in frontier:
                sc = seen[ic]
                for j, alpha in enumerate(self._isimples):
                    dot = sum(a * b for a, b in zip(ic, alpha))
                    num = 2 * dot
                    if num % norms[j]:
                        raise InternalError("non-integral Cartan number in closure")
                    c = num // norms[j]
                    image = tuple(a - c * b for a, b in zip(ic, alpha))
                    if image not in seen:
                        isc = list(sc)
                        isc[j] -= c
                        seen[image] = tuple(isc)
                        new.append(image)
            frontier = new
        self._raw = seen

    def _finalize(self) -> None:
        positives = []
        for ic, sc in self._raw.items():
            lead = next(v for v in sc if v)
            if lead > 0:
                positives.append((sum(sc), ic, sc))
        positives.sort(key=lambda t: (t[0], t[1]))
        if 2 * len(positives) != len(self._raw):
            raise InternalError("roots do not come in +/- pairs")

        self.n_positive = P = len(positives)
        self.roots: list[Root] = []
        for idx, (_, ic, sc) in enumerate(positives):
            self.roots.append(Root(ic, sc, idx, True))
        for idx, (_, ic, sc) in enumerate(positives):
            nic = tuple(-v for v in ic)
            nsc = tuple(-v for v in sc)
            self.roots.append(Root(nic, nsc, P + idx, False))
        del self._raw

        self._index_of = {r.icoords: r.index for r in self.roots}
        self.simple_indices = tuple(
            self._index_of[s] for s in self._isimples)

        self._icoord_mat = np.array([r.icoords for r in self.roots],
                                    dtype=np.int64)
        # each root's coordinates as one opaque value, sortable for exact lookup
        self._root_bytes = self._icoord_mat.view(f"V{8 * self.ambient_dim}")[:, 0]
        self._by_bytes = np.argsort(self._root_bytes)
        pos = self._icoord_mat[:P]
        dots = pos @ pos.T  # 4x the true inner products
        norms = np.diag(dots)
        cart = 2 * dots  # cartan(i,j) = 2(ai,aj)/(aj,aj) = 2*dots/norms[j]
        if np.any(cart % norms[None, :]):
            raise InternalError("non-integral Cartan table")
        self.cartan_table = (cart // norms[None, :]).astype(np.int64)

        self.orth_masks: list[int] = []
        for i in range(P):
            mask = 0
            for j in np.flatnonzero(dots[i] == 0):
                if j != i:
                    mask |= 1 << int(j)
            self.orth_masks.append(mask)

        self._refl_cache: dict[int, np.ndarray] = {}

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.roots)

    @property
    def simple_roots(self) -> list[Root]:
        return [self.roots[i] for i in self.simple_indices]

    def negative_index(self, i: int) -> int:
        P = self.n_positive
        return i + P if i < P else i - P

    def positive_index(self, i: int) -> int:
        """Index of the positive root in {root i, -root i}."""
        return i if i < self.n_positive else i - self.n_positive

    def index_of(self, coords: Sequence[Fraction]) -> int:
        ic = tuple(int(2 * Fraction(c)) for c in coords)
        idx = self._index_of.get(ic)
        if idx is None:
            raise ValueError(f"{tuple(coords)} is not a root of {self.type_spec}")
        return idx

    def inner(self, i: int, j: int) -> Fraction:
        a, b = self.roots[i].icoords, self.roots[j].icoords
        return Fraction(sum(x * y for x, y in zip(a, b)), 4)

    def inner_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        if len(u) != len(v):
            raise ValueError("dimension mismatch in inner product")
        return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))

    def cartan(self, i: int, j: int) -> int:
        """2(ai, aj)/(aj, aj) for positive root indices i, j."""
        return int(self.cartan_table[i, j])

    def gram_matrix(self) -> list[list[Fraction]]:
        """Gram matrix of the simple roots (the bilinear form data)."""
        return [[self.inner(i, j) for j in self.simple_indices]
                for i in self.simple_indices]

    # -- reflections -------------------------------------------------------

    def reflection_perm(self, i: int) -> np.ndarray:
        """Permutation of the root list induced by the reflection in root i."""
        i = self.positive_index(i)
        perm = self._refl_cache.get(i)
        if perm is None:
            alpha = self._icoord_mat[i]
            norm = int(alpha @ alpha)
            dots = self._icoord_mat @ alpha
            num = 2 * dots
            if np.any(num % norm):
                raise InternalError("non-integral reflection coefficient")
            images = self._icoord_mat - np.outer(num // norm, alpha)
            pos = np.searchsorted(self._root_bytes, images.view(self._root_bytes.dtype)[:, 0],
                                  sorter=self._by_bytes)
            perm = self._by_bytes[np.minimum(pos, len(pos) - 1)].astype(np.int16)
            if not np.array_equal(self._icoord_mat[perm], images):
                raise InternalError("a reflection maps a root outside the root system")
            perm.setflags(write=False)
            self._refl_cache[i] = perm
        return perm

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
            "roots": [[str(Fraction(c, 2)) for c in r.icoords]
                      for r in self.roots],
        }


def build_root_system(spec: TypeSpec | str) -> RootSystem:
    """Construct the full root system of a legal type spec."""
    if isinstance(spec, str):
        spec = TypeSpec.parse(spec)
    return RootSystem(spec)


def reflect(rs: RootSystem, mirror, v: Sequence) -> tuple[Fraction, ...]:
    """Reflect an ambient vector in the hyperplane of a root, exactly."""
    if isinstance(mirror, Root):
        midx = mirror.index
    elif isinstance(mirror, int):
        midx = mirror
    else:
        midx = rs.index_of(mirror)
    alpha = rs.roots[midx].coords
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
        seen = set(self.sub_simple_roots)
        seen |= {rs.negative_index(i) for i in self.sub_simple_roots}
        frontier = list(seen)
        gens = [rs.reflection_perm(i) for i in self.sub_simple_roots]
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

    def positive_closure_mask(self) -> int:
        mask = 0
        for idx in self.closure():
            if idx < self.ambient.n_positive:
                mask |= 1 << idx
        return mask


def target_cartan_matrix(spec: TypeSpec) -> list[list[int]]:
    """Cartan matrix of a type spec, read off its standard realization."""
    sub = build_root_system(spec)
    si = sub.simple_indices
    return [[sub.cartan(i, j) for j in si] for i in si]


def find_subsystem(rs: RootSystem, target: TypeSpec | str) -> Optional[SubsystemEmbedding]:
    """Search for positive roots of rs realizing the Cartan matrix of target.

    Backtracking over positive-root tuples, pruning every partial choice
    against the precomputed Cartan table.  Returns None when the exhaustive
    search finds nothing (e.g. B2 inside A2).
    """
    if isinstance(target, str):
        target = TypeSpec.parse(target)
    tc = target_cartan_matrix(target)
    k = len(tc)
    P = rs.n_positive
    table = rs.cartan_table
    chosen: list[int] = []

    def extend(pos: int) -> bool:
        if pos == k:
            return True
        for cand in range(P):
            ok = True
            for j, prev in enumerate(chosen):
                if table[cand, prev] != tc[pos][j] or table[prev, cand] != tc[j][pos]:
                    ok = False
                    break
            if ok:
                chosen.append(cand)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    return SubsystemEmbedding(rs, target, tuple(chosen))
