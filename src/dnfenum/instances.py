"""Reproducible random instances: DNF formulas and set families.

``generate`` backs the CLI's ``gen`` and ``sweep`` subcommands and is
exported from the package as ``dnfenum.generate``.
"""

from __future__ import annotations

import itertools
import math
import random

from .core import MAX_INPUT_VARS, Dnf, all_terms, make_term
from .setunion import SetFamily

#: all-terms is built in memory, 3^n - 1 terms: n = 12 takes seconds and
#: about 150 MB, and each further variable triples both
ALL_TERMS_MAX_VARS = 12


def _count_terms(n: int, wmax: int, signed: bool, cap: int) -> int:
    """The number of distinct terms of width 1..wmax, or a count past cap."""
    total = 0
    for total in itertools.accumulate(math.comb(n, w) << w * signed for w in range(1, wmax + 1)):
        if total > cap:
            break
    return total


def _distinct(rng: random.Random, m: int, total: int, what: str, pool, draw) -> list:
    """m distinct draws: a sample of pool() if m is at least a third of a
    pool of at most 2^20 objects, else draw() until m draws are distinct."""
    if m > total:
        raise ValueError(f"m={m} exceeds the number of distinct {what} ({total})")
    if 3 * m >= total and total <= 1 << 20:
        return rng.sample(pool(), m)
    seen: dict = {}  # a dict keeps the first draw's order
    while len(seen) < m:
        seen[draw()] = None
    return list(seen)


def _all_candidate_terms(n: int, wmax: int, signed: bool) -> list[tuple[int, ...]]:
    out = []
    for w in range(1, wmax + 1):
        for vs in itertools.combinations(range(1, n + 1), w):
            if signed:
                for signs in itertools.product((1, -1), repeat=w):
                    out.append(make_term(v * s for v, s in zip(vs, signs)))
            else:
                out.append(tuple(vs))
    return out


def generate(kind: str, n: int, m: int | None, k: int = 3, seed: int = 0):
    """Draw a reproducible random instance; returns a Dnf or a SetFamily.

    ``random`` and ``monotone`` draw terms of uniform random width (signed
    and positive respectively), ``kdnf`` draws signed terms of width <= k,
    ``all-terms`` is the fixed family of every nonempty term, and ``sets``
    draws a set family.  Duplicates are redrawn, so instances are uniform
    over distinct draws; asking for more distinct objects than exist fails.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > MAX_INPUT_VARS:
        raise ValueError(f"n exceeds the limit of {MAX_INPUT_VARS} variables")
    rng = random.Random(seed)
    if kind == "all-terms":
        if n > ALL_TERMS_MAX_VARS:
            raise ValueError(f"the all-terms family is limited to n <= {ALL_TERMS_MAX_VARS}")
        want = 3**n - 1
        if m is not None and m != want:
            raise ValueError(f"the all-terms family on n={n} has exactly {want} terms")
        return Dnf(n, all_terms(n))
    if m is None or m < 0:
        raise ValueError(f"kind {kind!r} needs m >= 0")
    if kind == "sets":
        return SetFamily(n, _distinct(
            rng, m, 1 << n, "sets",
            lambda: [tuple(e for e in range(1, n + 1) if mk >> (n - e) & 1)
                     for mk in range(1 << n)],
            lambda: tuple(e for e in range(1, n + 1) if rng.random() < 0.5),
        ))
    if kind == "random":
        wmax, signed = n, True
    elif kind == "monotone":
        wmax, signed = n, False
    elif kind == "kdnf":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        wmax, signed = min(k, n), True
    else:
        raise ValueError(f"unknown kind {kind!r}")

    def draw():
        vs = rng.sample(range(1, n + 1), rng.randint(1, wmax))
        return make_term(v if not signed or rng.random() < 0.5 else -v for v in vs)

    return Dnf(n, _distinct(
        rng, m, _count_terms(n, wmax, signed, max(3 * m, 1 << 20)), "terms",
        lambda: _all_candidate_terms(n, wmax, signed), draw,
    ))
