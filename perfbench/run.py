"""End-to-end benchmark of the dnfenum command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark draws the workload's
instance from ``--seed``, writes it to ``.perfbench_work/``, and then, in a
closed loop of one client, starts one CLI process at a time (``python -c``
with ``src`` on ``PYTHONPATH``; nothing needs installing):

* ``--trace 0`` alternates the full command (``run_s``, ``peak_rss_mb`` and
  the ``--stats`` step counts) with the same command under
  ``--limit 0 --count`` (``setup_s``) until ``--seconds`` have passed, checks
  every output stream, and reports medians.  A reference job
  (``reference_job.py``) runs between the pairs, and each time is scaled to
  the machine speed at which that job takes ``REFERENCE_S``.
* ``--trace 1`` runs the layers in process instead (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI = "import sys; from dnfenum.cli import main; sys.exit(main())"
#: full runs made at least, even when --seconds is short
MIN_RUNS = 3
REFERENCE = Path(__file__).resolve().parent / "reference_job.py"
#: end-to-end times are scaled to the machine speed at which the reference
#: job takes this long (see README.md, "Noise")
REFERENCE_S = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "dnf" or "sets"
    draw: Callable[..., list]  # a generator from gen.py
    params: dict  # its arguments besides the seed; "n" is the alphabet size
    algo_args: tuple[str, ...]
    fmt: str
    limit: int | None
    ascending: bool  # the algorithm promises ascending outputs
    instance_seed: int | None = None  # set: the instance ignores --seed

    @property
    def n(self) -> int:
        return self.params["n"]

    @property
    def algo(self) -> str:
        return self.algo_args[1]

    def rows(self, seed: int) -> list:
        return self.draw(**self.params, seed=seed if self.instance_seed is None else self.instance_seed)

    def cli_args(self, path: Path) -> list[str]:
        args = [str(path), *self.algo_args]
        return args if self.limit is None else args + ["--limit", str(self.limit)]


# why each workload was chosen is recorded in BENCHMARK.json.  stream-kdnf
# is the criterion-11 instance whatever the seed: across kdnf instances of
# its shape the first output's delay ranges from 180 to 1716 steps,
# depending on where one term falls in the input order.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-kdnf", "dnf", gen.kdnf_terms, {"n": 40, "m": 1000, "k": 3},
                 ("--algo", "kdnf"), "flips", 1_000_000, False, instance_seed=11),
        Workload("sparse-avg", "dnf", gen.fixed_width_terms, {"n": 24, "m": 8192, "w": 12},
                 ("--algo", "avg", "--mode", "t11"), "bits", 100_000, True),
        Workload("deep-setunion", "sets", gen.disjoint_sets, {"n": 400, "m": 15, "k": 3},
                 ("--algo", "setunion"), "bits", None, True),
    )
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "models_per_s": "1/s",
    "peak_rss_mb": "MB",
    "total_steps": "count",
    "max_delay_steps": "count",
    "avg_delay_steps": "count",
}


#: --stats fields that identical runs must repeat exactly
STEP_KEYS = ("total_steps", "n_models", "max_delay_steps", "avg_delay_steps", "precompute_steps")


class CliFailure(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], out_path: Path) -> tuple[float, float, bytes]:
    return run_child([sys.executable, "-c", CLI, *args], out_path)


def run_reference(out_path: Path) -> float:
    return run_child([sys.executable, str(REFERENCE)], out_path)[0]


def run_child(argv: list[str], out_path: Path) -> tuple[float, float, bytes]:
    """One process: (wall seconds, peak RSS in MB, stderr).

    The clock runs from launch until the process has exited, so every byte
    of standard output is in `out_path` when it stops.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        # wait4 reaped the child; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0:
        raise CliFailure(f"exit {proc.returncode}: {stderr.decode(errors='replace').strip()[-300:]}")
    return wall, usage.ru_maxrss / 1024.0, stderr


def prepare(w: Workload, seed: int) -> tuple[Path, list]:
    rows = w.rows(seed)
    d = WORK / f"{w.name}-s{seed}"
    d.mkdir(parents=True, exist_ok=True)
    path = d / ("input.sets" if w.kind == "sets" else "input.dnf")
    path.write_text(gen.dumps(w.kind, w.n, rows))
    return path, rows


class StreamChecker:
    """Checks each distinct stream once; byte-identical repeats reuse the verdict."""

    def __init__(self, w: Workload, rows):
        self.w = w
        self.rows = rows
        self.verdicts: dict[bytes, str | None] = {}

    def __call__(self, data: bytes) -> str | None:
        key = hashlib.sha256(data).digest()
        if key not in self.verdicts:
            w = self.w
            self.verdicts[key] = check.check_stream(
                data, w.fmt, w.kind, w.n, self.rows, limit=w.limit, ascending=w.ascending
            )
        return self.verdicts[key]


def stats_problem(data: bytes, err: bytes, first: dict | None) -> tuple[dict | None, str | None]:
    """The --stats record of a full run, and what is wrong with it if anything."""
    try:
        stats = json.loads(err.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "no --stats record on stderr"
    if stats["n_models"] != data.count(b"\n"):
        return stats, f"--stats n_models {stats['n_models']} differs from the line count"
    if first is not None and any(stats[k] != first[k] for k in STEP_KEYS):
        return stats, "step counts differ between identical runs"
    return stats, None


def measure_end_to_end(w: Workload, seed: int, seconds: float) -> dict:
    path, rows = prepare(w, seed)
    full = w.cli_args(path) + ["--format", w.fmt, "--stats"]
    setup = [str(path), *w.algo_args, "--limit", "0", "--count"]
    out = path.parent / "stream.out"
    checker = StreamChecker(w, rows)
    runs, rss, setups, scaled_runs, scaled_setups = [], [], [], [], []
    stats = None
    attempted = failed = 0

    def fail(why: str) -> None:
        nonlocal failed
        print(f"{w.name}: {why}", file=sys.stderr)
        failed += 1

    # warm-up: compiles the package's bytecode and fills the page cache
    run_cli(setup, out)
    ref_out = path.parent / "reference.out"
    refs = [run_reference(ref_out)]
    t_end = time.perf_counter() + seconds
    last = 0.0
    # start a pair only if one as long as the last still fits in --seconds
    while (time.perf_counter() + last < t_end or len(runs) < MIN_RUNS) and failed <= 2 * MIN_RUNS:
        t_pair = time.perf_counter()
        pair: dict[str, float] = {}
        for args in (setup, full):
            attempted += 1
            try:
                wall, mb, err = run_cli(args, out)
            except CliFailure as e:
                fail(str(e))
                continue
            data = out.read_bytes()
            if args is setup:
                pair["setup"] = wall
                if data.strip() != b"0":
                    fail(f"--limit 0 --count printed {data[:40]!r}")
                continue
            pair["run"] = wall
            rss.append(mb)
            record, problem = stats_problem(data, err, stats)
            stats = stats or record
            problem = checker(data) or problem
            if problem:
                fail(f"output check failed: {problem}")
        # the reference jobs on either side of the pair time the machine
        refs.append(run_reference(ref_out))
        scale = REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
        if "setup" in pair:
            setups.append(pair["setup"])
            scaled_setups.append(pair["setup"] * scale)
        if "run" in pair:
            runs.append(pair["run"])
            scaled_runs.append(pair["run"] * scale)
        last = time.perf_counter() - t_pair
    for f in (out, ref_out):
        f.unlink(missing_ok=True)
        f.with_suffix(".err").unlink(missing_ok=True)
    if not runs or not setups or stats is None:
        raise CliFailure(f"{w.name}: no successful run")
    run_s = statistics.median(scaled_runs)
    setup_s = statistics.median(scaled_setups)
    values = {
        "run_s": run_s,
        "setup_s": setup_s,
        "models_per_s": stats["n_models"] / max(run_s - setup_s, 1e-9),
        "peak_rss_mb": statistics.median(rss),
        "total_steps": stats["total_steps"],
        "max_delay_steps": stats["max_delay_steps"],
        "avg_delay_steps": stats["avg_delay_steps"],
    }
    print(
        f"{w.name} seed={seed}: n_models={stats['n_models']}, failed_frac={failed / attempted:.4f}, "
        f"unscaled medians run {statistics.median(runs):.3f} s, setup {statistics.median(setups):.3f} s, "
        f"reference {statistics.median(refs):.3f} s; "
        f"run_s samples={[round(x, 3) for x in runs]}, setup_s samples={[round(x, 3) for x in setups]}, "
        f"reference samples={[round(x, 3) for x in refs]}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dnfenum" / "cli.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a dnfenum checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            import layers

            result = layers.measure_layers(w, args.seed, args.seconds, prepare, StreamChecker)
        else:
            result = measure_end_to_end(w, args.seed, args.seconds)
    except CliFailure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>18.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
