"""Seeded inputs: homogeneous sw-expressions and random Weyl group words.

The seed drives only these generated inputs; the types each workload runs
are fixed, so the size of the work does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# Catalogue entries the expressions draw from, by their command-line alias.
_REPS = ("cox", "sign", "ext2cox")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random("/".join(map(str, (seed, *labels))))


@dataclass(frozen=True)
class Expression:
    """A sum of monomials t^a * prod sw(rep, i), all of one degree."""

    degree: int
    monomials: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]

    @property
    def text(self) -> str:
        """The form `weylinv pair --expr` parses."""
        terms = []
        for a, factors in self.monomials:
            parts = [] if a == 0 else ["t" if a == 1 else f"t^{a}"]
            parts += [f"sw({rep},{i})" for rep, i in factors]
            terms.append("*".join(parts))
        return "+".join(terms)


def _dims(rank: int) -> dict[str, int]:
    return {"cox": rank, "sign": 1, "ext2cox": comb(rank, 2)}


def expressions(seed: int, spec: str, rank: int, count: int) -> list[Expression]:
    """`count` homogeneous expressions of degree 1..min(4, rank) for one type."""
    rng = rng_for(seed, "expr", spec)
    dims = _dims(rank)
    out = []
    for _ in range(count):
        degree = rng.randint(1, min(4, rank))
        monomials = set()
        for _ in range(rng.randint(1, 2)):
            a = rng.randint(0, degree - 1)
            rest = degree - a
            factors = []
            while rest:
                rep = rng.choice(_REPS)
                i = rng.randint(1, min(rest, dims[rep]))
                factors.append((rep, i))
                rest -= i
            monomials.add((a, tuple(sorted(factors))))
        out.append(Expression(degree, tuple(sorted(monomials))))
    return out


def random_word(rng: random.Random, n_simple: int, length: int = 12) -> list[int]:
    """Indices of simple reflections whose product is a random group element."""
    return [rng.randrange(n_simple) for _ in range(length)]
