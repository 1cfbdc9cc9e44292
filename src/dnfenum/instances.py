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
        total = 1 << n
        if m > total:
            raise ValueError(f"m={m} exceeds the number of distinct sets ({total})")
        if 3 * m >= total and total <= 1 << 20:
            pool = [tuple(e for e in range(1, n + 1) if mk >> (n - e) & 1) for mk in range(total)]
            return SetFamily(n, rng.sample(pool, m))
        seen = set()
        out = []
        while len(out) < m:
            s = tuple(e for e in range(1, n + 1) if rng.random() < 0.5)
            if s not in seen:
                seen.add(s)
                out.append(s)
        return SetFamily(n, out)
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
    total = _count_terms(n, wmax, signed, max(3 * m, 1 << 20))
    if m > total:
        raise ValueError(f"m={m} exceeds the number of distinct terms ({total})")
    if 3 * m >= total and total <= 1 << 20:
        return Dnf(n, rng.sample(_all_candidate_terms(n, wmax, signed), m))
    seen = set()
    out = []
    while len(out) < m:
        w = rng.randint(1, wmax)
        vs = rng.sample(range(1, n + 1), w)
        t = make_term(v if not signed or rng.random() < 0.5 else -v for v in vs)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return Dnf(n, out)
