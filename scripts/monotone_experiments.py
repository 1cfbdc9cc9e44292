#!/usr/bin/env python3
"""Delay behavior of the positive-formula enumerators.

* ``rs``: reverse search over random equal-width antichains — max delay
  should not track m, and the model-trie memory should stay a small
  constant number of nodes per output.
* ``log``: the all-terms-of-width-(n-1) family — the complement-walk
  enumerator should hold its average delay nearly flat while n (and with
  it n*m) grows, where the plain trie DFS pays ~n per output.
"""

import argparse
import itertools
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dnfenum.core import Dnf
from dnfenum.instrument import measure
from dnfenum.monotone import (
    MonotoneDnf,
    enum_monotone_avg,
    enum_monotone_log,
    enum_monotone_rs,
)


def run_rs(args) -> None:
    pool = list(itertools.combinations(range(1, args.n + 1), args.width))
    rng = random.Random(args.seed)
    print(f"n={args.n} width={args.width} ({len(pool)} candidate terms)")
    print(f"{'m':>8} {'models':>8} {'max_delay':>9} {'avg_delay':>9} {'nodes/model':>11}")
    for m in args.sizes:
        if m > len(pool):
            print(f"{m:>8}  -- more terms than the candidate pool, skipped")
            continue
        terms = tuple(sorted(rng.sample(pool, m)))
        md = MonotoneDnf(Dnf(args.n, terms), minimized=True)
        _, s = measure(lambda ctr: enum_monotone_rs(md, counter=ctr))
        print(f"{m:>8} {s.n_models:>8} {s.max_delay_steps:>9} {s.avg_delay_steps:>9.2f} "
              f"{s.peak_aux_memory_estimate / s.n_models:>11.2f}")


def run_log(args) -> None:
    print(f"{'n':>4} {'m':>4} {'models':>7} {'avg_log':>8} {'avg_dfs':>8} {'log2(nm)':>8}")
    for n in args.n_values:
        terms = tuple(
            tuple(v for v in range(1, n + 1) if v != skip) for skip in range(n, 0, -1)
        )
        md = MonotoneDnf(Dnf(n, terms))
        _, s_log = measure(lambda ctr: enum_monotone_log(md, counter=ctr))
        _, s_dfs = measure(lambda ctr: enum_monotone_avg(md, counter=ctr))
        print(f"{n:>4} {n:>4} {s_log.n_models:>7} {s_log.avg_delay_steps:>8.2f} "
              f"{s_dfs.avg_delay_steps:>8.2f} {math.log2(n * n):>8.2f}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("rs", help="reverse-search delay and memory vs m")
    r.add_argument("--n", type=int, default=20)
    r.add_argument("--width", type=int, default=13)
    r.add_argument("--sizes", type=int, nargs="+", default=[100, 1000, 10000])
    r.add_argument("--seed", type=int, default=200)
    r.set_defaults(fn=run_rs)

    g = sub.add_parser("log", help="complement-walk average delay vs n")
    g.add_argument("--n-values", type=int, nargs="+",
                   default=[8, 12, 16, 20, 24, 28, 32])
    g.set_defaults(fn=run_log)

    args = p.parse_args()
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
