"""The mod-2 invariant module over the universal coefficient ring F2[t].

F2[t]-polynomials are stored as integer bitmasks (bit k = coefficient of
t^k), so addition is XOR and multiplication is carryless.  The invariant
algebra of a rank-n cube has basis x_I indexed by the subsets I of the
generators, with x_I * x_J = t^{|I and J|} x_{I or J}.

Restriction to cubes rests on one exact fact.  For each subset S of the
generators, x_i -> t [i in S] is a ring map to F2[t]; it sends a homogeneous
degree-d element, a set of subsets I with coefficients t^(d - |I|), to t^d
times the parity of the I contained in S.  That parity over all S is the
element's *transform*, a 2^n-bit integer in which products are AND, sums XOR
and powers of t all-ones; over F2 this subset transform is its own inverse.
The total Stiefel-Whitney class goes to (1 + t)^N(S), N(S) the dimension of
the -1 eigenspace of the product g_S of the reflections in S, so sw_k
transforms to {S : N(S) & k == k} (Lucas).  The top coefficient of a
homogeneous element, which pairing with an involution class reads on the
class's splitting cube, is the popcount parity of its transform.

A trace must be a character, a class function, since restriction reads it
once per involution class: N(S) is read off the value on the class of g_S
(Representation.class_value), and the transform of sw_k, the union of the
sets of S whose g_S lies in a class where N(S) & k == k, is built only for
the k asked for.  The classes of a cube's products come from
involutions.cube_products once per cube, which holds them, so every
representation restricted to the cube shares them.  A restriction and its
transforms are held by the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .roots import InternalError, RootSystem, memoized
from .involutions import cube_products

if TYPE_CHECKING:
    from .involutions import Cube, CubeProducts, InvolutionClass
    from .reps import Representation


def _carryless_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


class BasePoly:
    """A polynomial over F2 in the degree-1 class t of -1."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient bitmask must be nonnegative")
        self.bits = bits

    @classmethod
    def zero(cls) -> "BasePoly":
        return cls(0)

    @classmethod
    def one(cls) -> "BasePoly":
        return cls(1)

    @classmethod
    def t_power(cls, k: int) -> "BasePoly":
        return cls(1 << k)

    def __add__(self, other: "BasePoly") -> "BasePoly":
        return BasePoly(self.bits ^ other.bits)

    def __mul__(self, other: "BasePoly") -> "BasePoly":
        return BasePoly(_carryless_mul(self.bits, other.bits))

    def __pow__(self, n: int) -> "BasePoly":
        out = BasePoly(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, BasePoly) and self.bits == other.bits

    def __hash__(self):
        return hash(("BasePoly", self.bits))

    def __bool__(self):
        return self.bits != 0

    def is_homogeneous(self) -> bool:
        return self.bits == 0 or self.bits & (self.bits - 1) == 0

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element; None for 0."""
        if self.bits == 0:
            return None
        if not self.is_homogeneous():
            raise ValueError(f"{self} is not homogeneous")
        return self.bits.bit_length() - 1

    def at_t_zero(self) -> int:
        """Specialize t -> 0 (fields where -1 is a square)."""
        return self.bits & 1

    def __str__(self):
        if self.bits == 0:
            return "0"
        parts = []
        for k in range(self.bits.bit_length() - 1, -1, -1):
            if self.bits >> k & 1:
                parts.append("1" if k == 0 else ("t" if k == 1 else f"t^{k}"))
        return "+".join(parts)

    def __repr__(self):
        return f"BasePoly({self})"


class CubeClassElement:
    """An element of the invariant algebra of a rank-n cube, in subset basis.

    coeffs maps a subset bitmask over [0, n) to the bitmask of its F2[t]
    coefficient; zero coefficients are never stored.
    """

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Optional[dict[int, int]] = None):
        self.rank = rank
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def one(cls, rank: int) -> "CubeClassElement":
        return cls(rank, {0: 1})

    @classmethod
    def generator(cls, rank: int, i: int) -> "CubeClassElement":
        if not 0 <= i < rank:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        return cls(rank, {1 << i: 1})

    def __add__(self, other: "CubeClassElement") -> "CubeClassElement":
        if self.rank != other.rank:
            raise ValueError("cube algebra ranks differ")
        out = dict(self.coeffs)
        for key, bits in other.coeffs.items():
            out[key] = out.get(key, 0) ^ bits
        return CubeClassElement(self.rank, out)

    def __mul__(self, other: "CubeClassElement") -> "CubeClassElement":
        if self.rank != other.rank:
            raise ValueError("cube algebra ranks differ")
        out: dict[int, int] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                # x_I * x_J = t^{|I and J|} x_{I or J}
                shift = bin(ka & kb).count("1")
                key = ka | kb
                bits = _carryless_mul(va, vb) << shift
                out[key] = out.get(key, 0) ^ bits
        return CubeClassElement(self.rank, out)

    def scale(self, poly: BasePoly) -> "CubeClassElement":
        return self * CubeClassElement(self.rank, {0: poly.bits})

    def __eq__(self, other):
        return (isinstance(other, CubeClassElement)
                and self.rank == other.rank and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, subset_mask: int) -> BasePoly:
        return BasePoly(self.coeffs.get(subset_mask, 0))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            poly = BasePoly(self.coeffs[key])
            mono = "*".join(f"x{i + 1}" for i in range(self.rank) if key >> i & 1)
            if not mono:
                parts.append(str(poly))
            elif poly == BasePoly.one():
                parts.append(mono)
            else:
                parts.append(f"({poly})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CubeClassElement(rank {self.rank}: {self})"


def top_coefficient(a: CubeClassElement) -> BasePoly:
    """Coefficient of the full-subset basis element."""
    return a.coefficient((1 << a.rank) - 1)


# -- invariant expressions ---------------------------------------------------


class InvariantExpr:
    """A formal F2[t]-polynomial in Stiefel-Whitney classes sw(rep, i).

    Terms map a monomial (sorted tuple of (descriptor, i) factors, with
    repetition) to an F2[t] coefficient bitmask; a registry keeps the actual
    representation behind each descriptor.
    """

    __slots__ = ("home", "terms", "reps")

    def __init__(self, home: RootSystem,
                 terms: Optional[dict[tuple, int]] = None,
                 reps: Optional[dict[str, Representation]] = None):
        self.home = home
        self.terms = {k: v for k, v in (terms or {}).items() if v}
        self.reps = dict(reps or {})

    @classmethod
    def zero(cls, home: RootSystem) -> "InvariantExpr":
        return cls(home)

    @classmethod
    def one(cls, home: RootSystem) -> "InvariantExpr":
        return cls(home, {(): 1})

    @classmethod
    def t(cls, home: RootSystem) -> "InvariantExpr":
        return cls(home, {(): 2})

    def _merge_reps(self, other: "InvariantExpr") -> dict[str, Representation]:
        merged = dict(self.reps)
        for key, rep in other.reps.items():
            if merged.setdefault(key, rep) is not rep:
                raise ValueError(f"descriptor {key!r} bound to two representations")
        return merged

    def __add__(self, other: "InvariantExpr") -> "InvariantExpr":
        if self.home is not other.home:
            raise ValueError("expressions live on different root systems")
        terms = dict(self.terms)
        for key, bits in other.terms.items():
            terms[key] = terms.get(key, 0) ^ bits
        return InvariantExpr(self.home, terms, self._merge_reps(other))

    def __mul__(self, other: "InvariantExpr") -> "InvariantExpr":
        if self.home is not other.home:
            raise ValueError("expressions live on different root systems")
        terms: dict[tuple, int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(sorted(ka + kb))
                terms[key] = terms.get(key, 0) ^ _carryless_mul(va, vb)
        return InvariantExpr(self.home, terms, self._merge_reps(other))

    def scale_t(self, k: int = 1) -> "InvariantExpr":
        return InvariantExpr(self.home,
                             {key: bits << k for key, bits in self.terms.items()},
                             self.reps)

    def __eq__(self, other):
        return (isinstance(other, InvariantExpr) and self.home is other.home
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> Optional[int]:
        """Common degree of all terms; None for 0; raises if mixed."""
        deg = None
        for key, bits in self.terms.items():
            base = sum(i for _, i in key)
            poly = BasePoly(bits)
            if not poly.is_homogeneous():
                raise ValueError("expression is not homogeneous")
            d = base + poly.degree()
            if deg is None:
                deg = d
            elif d != deg:
                raise ValueError("expression is not homogeneous")
        return deg

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            poly = BasePoly(self.terms[key])
            factors = "*".join(f"sw({d},{i})" for d, i in key)
            if not factors:
                parts.append(str(poly))
            elif poly == BasePoly.one():
                parts.append(factors)
            else:
                parts.append(f"({poly})*{factors}")
        return " + ".join(parts)

    def __repr__(self):
        return f"InvariantExpr({self})"


def sw(rep: Representation, i: int) -> InvariantExpr:
    """The i-th Stiefel-Whitney class of a catalogued representation."""
    if not 0 <= i <= rep.dim:
        raise ValueError(f"sw index {i} out of range for dim {rep.dim}")
    if i == 0:
        return InvariantExpr.one(rep.home)
    return InvariantExpr(rep.home, {((rep.descriptor, i),): 1},
                         {rep.descriptor: rep})


# -- restriction to cubes ------------------------------------------------------


@cache
def _hadamard(n: int) -> np.ndarray:
    """Entry (E, S) is (-1)^|E and S|, the value at g_S of the character E."""
    return reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.int8)] * n,
                  np.ones((1, 1), dtype=np.int8))


@memoized
def _restriction(rep: Representation, cube: Cube) -> tuple[list[int], list[int], CubeProducts]:
    """The character multiplicities of rep on the cube, N(S) on each class
    of the products g_S, and those classes."""
    if rep.home is not cube.home:
        raise ValueError("representation and cube live on different root systems")
    products = cube_products(cube)
    values = np.array([rep.class_value(cls) for cls in products.classes])
    traces = values[products.of_s]
    sums = _hadamard(len(cube)) @ traces
    bad = np.flatnonzero((sums % len(traces) != 0) | (sums < 0))
    if len(bad):
        raise ValueError(
            f"character of {rep.descriptor} is not a nonnegative integer "
            f"combination on this cube (eps={bad[0]}, sum={sums[bad[0]]})")
    mults = (sums // len(traces)).tolist()
    if sum(mults) != rep.dim:
        raise InternalError("character multiplicities do not add to the dimension")
    return mults, ((rep.dim - values) // 2).tolist(), products


@memoized
def _transform(rep: Representation, cube: Cube, k: int) -> int:
    """The transform of sw_k of rep restricted to the cube, {S : N(S) & k == k}
    (C(N(S), k) odd), built from the classes of the g_S."""
    _, minus, products = _restriction(rep, cube)
    # the member sets are disjoint: their sum is their union
    return sum(m for m, n in zip(products.members, minus) if n & k == k)


def character_multiplicities(rep: Representation, cube: Cube) -> list[int]:
    """Multiplicity of each of the 2^n cube characters in the restriction.

    Entry E is the multiplicity of the character that is -1 exactly on the
    generators in E.  Rejects anything that is not a genuine orthogonal
    representation on the cube (negative or fractional counts).
    """
    return list(_restriction(rep, cube)[0])


def _transforms(expr: InvariantExpr, cube: Cube) -> dict[int, int]:
    """The transform of each homogeneous part of expr on the cube, by degree."""
    if expr.home is not cube.home:
        raise ValueError("expression and cube live on different root systems")
    out: dict[int, int] = {}
    for key, bits in expr.terms.items():
        transform = (1 << (1 << len(cube))) - 1
        for descriptor, i in key:
            transform &= _transform(expr.reps[descriptor], cube, i)
        degree = sum(i for _, i in key)
        for a in range(bits.bit_length()):
            if bits >> a & 1:
                out[degree + a] = out.get(degree + a, 0) ^ transform
    return out


def _from_transforms(n: int, by_degree: Iterable[tuple[int, int]]) -> CubeClassElement:
    """The element whose degree-d component has the given transform."""
    full = (1 << (1 << n)) - 1
    # the subsets without generator i: runs of 2^i set and 2^i clear bits
    withouts = [full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(n)]
    coeffs: dict[int, int] = {}
    for degree, transform in by_degree:
        for i, without_i in enumerate(withouts):
            transform ^= (transform & without_i) << (1 << i)
        while transform:
            subset = transform.bit_length() - 1
            coeffs[subset] = coeffs.get(subset, 0) ^ 1 << (degree - subset.bit_count())
            transform ^= 1 << subset
    return CubeClassElement(n, coeffs)


def total_class(rep: Representation, cube: Cube) -> CubeClassElement:
    """Total Stiefel-Whitney class of the restriction of rep to the cube."""
    top = max(_restriction(rep, cube)[1])  # no S has N(S) & k == k for k > every N(S)
    return _from_transforms(len(cube), ((k, _transform(rep, cube, k)) for k in range(top + 1)))


def restrict_to_cube(expr: InvariantExpr, cube: Cube) -> CubeClassElement:
    """Image of an invariant expression under restriction to a cube."""
    return _from_transforms(len(cube), _transforms(expr, cube).items())


# -- pairing and expansion ----------------------------------------------------


def pairing(expr: InvariantExpr, cls: InvolutionClass) -> BasePoly:
    """Top coefficient of the restriction to the class's splitting cube.

    For a homogeneous expression of degree m and a class of degree n the
    result is 0 or t^(m-n); the splitting used is the stored canonical one
    (independence from that choice is a tested property).
    """
    m = expr.degree()  # raises on inhomogeneous input
    if not _transforms(expr, cls.splitting).get(m, 0).bit_count() & 1:
        return BasePoly.zero()
    if m < cls.degree:
        raise InternalError(f"pairing of degree-{m} expression with "
                            f"degree-{cls.degree} class came out nonzero")
    return BasePoly.t_power(m - cls.degree)


@dataclass(frozen=True)
class InvariantVector:
    """Coordinates of an invariant in the canonical involution-class basis."""

    degree: Optional[int]
    coeffs: tuple[tuple[str, BasePoly], ...]  # (class_id, coefficient)

    def coefficient(self, class_id: str) -> BasePoly:
        for cid, poly in self.coeffs:
            if cid == class_id:
                return poly
        raise KeyError(class_id)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": {cid: str(poly) for cid, poly in self.coeffs},
        }


def expand(expr: InvariantExpr, classes: Sequence[InvolutionClass],
           ) -> InvariantVector:
    """Pair an expression against every class: its canonical-basis coordinates."""
    return InvariantVector(
        degree=expr.degree(),
        coeffs=tuple((cls.class_id, pairing(expr, cls)) for cls in classes))


@dataclass(frozen=True)
class BasisDescription:
    """Rank and degree multiset of the canonical basis of the invariant module."""

    type_name: str
    rank: int
    degrees: tuple[int, ...]
    class_ids: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_name,
            "rank": self.rank,
            "degrees": list(self.degrees),
            "classes": list(self.class_ids),
        }


def canonical_basis(classes: Sequence[InvolutionClass]) -> BasisDescription:
    """The free-module description carried by a classification."""
    if not classes:
        raise ValueError("empty classification")
    home = classes[0].home
    return BasisDescription(
        type_name=str(home.type_spec),
        rank=len(classes),
        degrees=tuple(cls.degree for cls in classes),
        class_ids=tuple(cls.class_id for cls in classes))


# -- separation reporting ------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Which same-degree class pairs the catalogued sw-monomials can tell apart."""

    type_name: str
    separated: tuple[tuple[str, str, str], ...]    # (id, id, witness monomial)
    unseparated: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_name,
            "separated": [
                {"pair": [a, b], "witness": w} for a, b, w in self.separated],
            "unseparated": [{"pair": [a, b]} for a, b in self.unseparated],
        }


def sw_separation_report(classes: Sequence[InvolutionClass],
                         catalogue: Sequence[Representation],
                         ) -> SeparationReport:
    """Scan sw-monomials for witnesses telling equal-degree classes apart.

    For each degree d carrying several classes, every monomial in the
    catalogued sw classes of total degree d is paired against those classes;
    pairing is F2[t]-linear and t-powers only rescale, so within degree d
    the monomial scan is exhaustive for the catalogue.  Direct sums and
    tensor products add nothing here (their sw classes are polynomials in
    the factors' by the splitting principle), so pass base entries only.
    The walk keeps each class's transform of the product so far, and skips
    a subtree where all of them are 0 (it pairs to 0 with every class).
    Each symbol's transforms are read once per degree, when the walk first
    reaches it.
    """
    by_degree: dict[int, list[InvolutionClass]] = {}
    for cls in classes:
        by_degree.setdefault(cls.degree, []).append(cls)
    separated = []
    unseparated = []
    for degree in sorted(by_degree):
        group = by_degree[degree]
        if len(group) < 2:
            continue
        pending = {(a.class_id, b.class_id)
                   for i, a in enumerate(group) for b in group[i + 1:]}
        symbols = [(rep, i) for rep in catalogue
                   for i in range(1, min(rep.dim, degree) + 1)]
        rows: list = [None] * len(symbols)  # each class's transform of a symbol

        def walk(start: int, remaining: int, products: list[int], factors: tuple):
            if remaining == 0:
                values = {cls.class_id: p.bit_count() & 1
                          for cls, p in zip(group, products)}
                witness = "*".join(f"sw({d},{i})" for d, i in sorted(factors))
                for pair in sorted(pending):
                    if values[pair[0]] != values[pair[1]]:
                        separated.append((pair[0], pair[1], witness))
                        pending.discard(pair)
                return
            for idx in range(start, len(symbols)):
                rep, i = symbols[idx]
                if pending and i <= remaining:
                    if rows[idx] is None:
                        rows[idx] = [_transform(rep, cls.splitting, i) for cls in group]
                    below = [p & t for p, t in zip(products, rows[idx])]
                    if any(below):
                        walk(idx, remaining - i, below, factors + ((rep.descriptor, i),))

        walk(0, degree, [(1 << (1 << degree)) - 1] * len(group), ())  # the transform of 1
        unseparated.extend(sorted(pending))
    return SeparationReport(
        type_name=str(classes[0].home.type_spec),
        separated=tuple(separated),
        unseparated=tuple(unseparated))
