#!/usr/bin/env python3
"""Average delay of set-union enumeration as the universe grows.

Holds the family size fixed and sweeps n; the per-output step count
divided by n should stay bounded.  It falls as n grows, because the work
per output that does not depend on n is spread over more elements.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dnfenum.instrument import measure
from dnfenum.setunion import SetFamily, enum_unions


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--width", type=int, default=3, help="maximum set size")
    p.add_argument("--n-values", type=int, nargs="+", default=[8, 16, 32, 64, 512, 4096])
    p.add_argument("--seed", type=int, default=0x5E7)
    args = p.parse_args()

    rng = random.Random(args.seed)
    print(f"m={args.m} set width <= {args.width}")
    print(f"{'n':>4} {'unions':>7} {'avg_delay':>9} {'avg/n':>7} {'max_delay':>9}")
    for n in args.n_values:
        sets = []
        while len(sets) < args.m:
            w = rng.randint(1, args.width)
            s = tuple(sorted(rng.sample(range(1, n + 1), w)))
            if s not in sets:
                sets.append(s)
        fam = SetFamily(n, sets)
        _, s = measure(lambda ctr: enum_unions(fam, counter=ctr))
        print(f"{n:>4} {s.n_models:>7} {s.avg_delay_steps:>9.2f} "
              f"{s.avg_delay_steps / n:>7.2f} {s.max_delay_steps:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
