"""Seeded instance generator for the benchmark.

It shares no code with the package: the benchmark hands the program only the
text it writes here.  ``kdnf`` follows the rejection-sampling draw of the
package's ``gen --kind kdnf`` step for step, so with the same seed it writes
the same bytes; ``fixed`` draws signed terms of one width and ``disjoint``
draws pairwise disjoint sets of 1 to ``k`` elements.
"""

from __future__ import annotations

import random


def _distinct(draw, m: int) -> list[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < m:
        t = draw()
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def kdnf_terms(n: int, m: int, k: int, seed: int) -> list[tuple[int, ...]]:
    """m distinct signed terms of width 1..k; needs 3m below the term count."""
    rng = random.Random(seed)

    def draw():
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(k, n)))
        return tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs))

    return _distinct(draw, m)


def fixed_width_terms(n: int, m: int, w: int, seed: int) -> list[tuple[int, ...]]:
    """m distinct signed terms of width exactly w."""
    rng = random.Random(seed)

    def draw():
        vs = sorted(rng.sample(range(1, n + 1), w))
        return tuple(v if rng.random() < 0.5 else -v for v in vs)

    return _distinct(draw, m)


def disjoint_sets(n: int, m: int, k: int, seed: int) -> list[tuple[int, ...]]:
    """m disjoint sets over {1..n}: set i has 1 + i % k elements drawn from
    the i-th of m equal slices of {1..n}.

    Disjoint sets have 2^m - 1 distinct nonempty unions.  Set sizes drive
    the enumerator's step count far more than element positions do, so the
    seed picks only the positions and the step count stays within a few
    percent from seed to seed.
    """
    rng = random.Random(seed)
    out = []
    for i in range(m):
        lo, hi = i * n // m + 1, (i + 1) * n // m
        out.append(tuple(sorted(rng.sample(range(lo, hi + 1), 1 + i % k))))
    return out


def dumps(kind: str, n: int, rows: list[tuple[int, ...]]) -> str:
    """Text of a ``p dnf`` or ``p sets`` file, one 0-terminated row per line."""
    lines = [f"p {kind} {n} {len(rows)}"]
    lines += [" ".join(map(str, r)) + (" 0" if r else "0") for r in rows]
    return "\n".join(lines) + "\n"
