#!/usr/bin/env python3
"""Sweep the term count and watch per-output delay.

Two experiments share the harness:

* ``kdnf``: width-3 formulas at fixed n; the maximum inter-output step
  count should stay flat as m grows by orders of magnitude.
* ``avg``: fixed-width dense formulas at fixed n; the average inter-output
  step count should grow clearly sublinearly in m (the fitted log-log
  slope is printed; fast mode is compared against slow mode).
"""

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dnfenum.avg import MODE_FAST, MODE_SLOW, enum_avg
from dnfenum import generate
from dnfenum.core import Dnf, make_term
from dnfenum.instrument import measure
from dnfenum.kdnf import KdnfConfig, enum_kdnf


def fixed_width_dnf(rng: random.Random, n: int, m: int, w: int) -> Dnf:
    seen = set()
    out = []
    while len(out) < m:
        vs = rng.sample(range(1, n + 1), w)
        t = make_term(v if rng.random() < 0.5 else -v for v in vs)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return Dnf(n, out)


def run_kdnf(args) -> None:
    cfg = KdnfConfig.for_width(args.k)
    print(f"k={args.k} n={args.n} limit={args.limit} (budget {cfg.d * cfg.A} steps)")
    print(f"{'m':>8} {'models':>9} {'max_delay':>9} {'avg_delay':>9}")
    for m in args.sizes:
        d = generate("kdnf", args.n, m, k=args.k, seed=args.seed + m)
        _, s = measure(
            lambda ctr: enum_kdnf(d, cfg, counter=ctr), limit=args.limit, collect=False
        )
        print(f"{m:>8} {s.n_models:>9} {s.max_delay_steps:>9} {s.avg_delay_steps:>9.2f}")


def run_avg(args) -> None:
    print(f"n={args.n} width={args.width} seeds per size: {args.reps}")
    print(f"{'m':>8} {'models':>9} {'avg_fast':>9} {'avg_slow':>9}")
    pts = []
    for m in args.sizes:
        for rep in range(args.reps):
            rng = random.Random(args.seed + 1000 * rep + m)
            d = fixed_width_dnf(rng, args.n, m, args.width)
            _, fast = measure(lambda ctr: enum_avg(d, MODE_FAST, counter=ctr))
            _, slow = measure(lambda ctr: enum_avg(d, MODE_SLOW, counter=ctr))
            pts.append((math.log(m), math.log(fast.avg_delay_steps)))
            if rep == 0:
                print(f"{m:>8} {fast.n_models:>9} {fast.avg_delay_steps:>9.2f} "
                      f"{slow.avg_delay_steps:>9.2f}")
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in pts) / sum((x - xm) ** 2 for x in xs)
    print(f"log-log slope of avg delay vs m: {slope:.3f}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    k = sub.add_parser("kdnf", help="max delay vs m at bounded width")
    k.add_argument("--n", type=int, default=30)
    k.add_argument("--k", type=int, default=3)
    k.add_argument("--sizes", type=int, nargs="+", default=[100, 1000, 10000])
    k.add_argument("--limit", type=int, default=10**6)
    k.add_argument("--seed", type=int, default=60)
    k.set_defaults(fn=run_kdnf)

    a = sub.add_parser("avg", help="average delay vs m for dense formulas")
    a.add_argument("--n", type=int, default=16)
    a.add_argument("--width", type=int, default=6)
    a.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 1024, 4096])
    a.add_argument("--reps", type=int, default=3)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(fn=run_avg)

    args = p.parse_args()
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
