"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads stream-kdnf,sparse-avg --seeds 1-10 \
        --seconds 25 [--trace 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed, one at a time, and prints for
every metric the median, the quartiles and the quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``).  ``--out`` writes the
same summary, with the instance parameters of each workload, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    summary = {}
    for name in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            print(lines[0], flush=True)
            results.append(json.loads(lines[-1]))
        w = WORKLOADS[name]
        summary[name] = {
            "instance": {"generator": w.draw.__name__, **w.params, "args": [*w.algo_args, "--format", w.fmt],
                         "limit": w.limit, "instance_seed": w.instance_seed},
            "seeds": seeds(args.seeds),
            "seconds": args.seconds,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": summarize(results),
        }
        for metric, s in summary[name]["metrics"].items():
            print(f"  {metric:32s} median {s['median']:>14.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['iqr_share']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
