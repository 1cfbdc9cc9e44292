"""Stream and step digests of every algorithm, pinned through main().

Each case runs the command line in process with ``--stats`` and hashes the
bytes of standard output together with the five step fields of the stats
record.  ``wall_ns`` (a clock reading) and ``peak_aux_memory_estimate`` (a
memory gauge outside the step model) are left out.  A change that keeps
every stream and every step count leaves every digest as it is; a change
that moves one on purpose must say so and record the new digest.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dnfenum.cli import ALGOS, main
from dnfenum.core import Dnf, dumps_dnf
from dnfenum.instances import generate
from dnfenum.setunion import SetFamily, dumps_sets

STEP_KEYS = ("total_steps", "n_models", "max_delay_steps", "avg_delay_steps", "precompute_steps")


def _unate(d: Dnf) -> Dnf:
    """d with every third variable negated: the monotone family flips it back."""
    return Dnf(d.n, [tuple(sorted(-v if v % 3 == 0 else v for v in t)) for t in d.terms])


INSTANCES = {
    "one-term": lambda: generate("random", 10, 1, seed=1),
    "random": lambda: generate("random", 10, 12, seed=1),
    # both kdnf instances have frames small enough for kdnf-hybrid's DFS
    "kdnf": lambda: generate("kdnf", 12, 40, k=3, seed=1),
    # 8,192 models, so the limits below cut inside and around a sink block
    "kdnf-wide": lambda: generate("kdnf", 13, 20, k=3, seed=1),
    # monotone-log re-encodes subtrees during its DFS
    "monotone": lambda: generate("monotone", 12, 10, seed=0),
    # every term is wide at the root: monotone-log re-encodes during setup
    "monotone-wide": lambda: generate("monotone", 12, 10, seed=1),
    "unate": lambda: _unate(generate("monotone", 12, 10, seed=0)),
    "sets": lambda: generate("sets", 10, 8, seed=1),
}

ALGO_INSTANCE = {
    "term-gray": "one-term",
    "union-priority": "random",
    "union-ordered": "random",
    "flashlight": "random",
    "kdnf": "kdnf",
    "kdnf-hybrid": "kdnf",
    "avg": "random",
    "monotone-rs": "monotone",
    "monotone-avg": "monotone",
    "monotone-log": "monotone",
    "setunion": "sets",
}


def _cases() -> dict[str, tuple[str, list[str]]]:
    cases = {}
    for fmt in ("bits", "flips"):
        for algo in ALGOS:
            cases[f"{algo}-{fmt}"] = (ALGO_INSTANCE[algo], ["--algo", algo, "--format", fmt])
        cases[f"avg-t10-{fmt}"] = ("random", ["--algo", "avg", "--mode", "t10", "--format", fmt])
        cases[f"monotone-log-wide-{fmt}"] = ("monotone-wide", ["--algo", "monotone-log", "--format", fmt])
        for algo in ("monotone-rs", "monotone-avg", "monotone-log"):
            cases[f"{algo}-unate-{fmt}"] = ("unate", ["--algo", algo, "--format", fmt])
    for algo in ("kdnf", "kdnf-hybrid"):
        for limit in (4095, 4096, 4097):
            cases[f"{algo}-limit-{limit}"] = (
                "kdnf-wide", ["--algo", algo, "--format", "flips", "--limit", str(limit)]
            )
    return cases


CASES = _cases()

#: recorded before enumerators took the tries they drop off the node gauge,
#: which moves no stream and no step count; the two setunion digests were
#: recorded once its cover counts went bit-sliced, which moved its step
#: counts and no stream
PINS = {
    "avg-bits": "796548cf63b4c6e8018bcba7fa41fb9b",
    "avg-flips": "0e56bc174d3f6fa02d7ff4e6f658014b",
    "avg-t10-bits": "fb5dc9275e888c57b0548eb1d5c978a7",
    "avg-t10-flips": "a821709d5166622a2f3e59acfa169a7f",
    "flashlight-bits": "f75373ec968cfef4f4a708e7486d3cc7",
    "flashlight-flips": "29bf6a0fd345c49fcc5c87c7aaf96440",
    "kdnf-bits": "c4565ad3be1d233f7344b89d0f683e0d",
    "kdnf-flips": "fc0a2ec8a9ddddfed2d0ef3613d3b24d",
    "kdnf-hybrid-bits": "8d3606f20d604aa4750ed9301999fb05",
    "kdnf-hybrid-flips": "9bd50b059efd61ec9c6c221e2b8c41a8",
    "kdnf-hybrid-limit-4095": "de40279c9650d93238acb015e1ecf8b7",
    "kdnf-hybrid-limit-4096": "2839ff93cb42412a3d21c385f107895e",
    "kdnf-hybrid-limit-4097": "c3840468dbd278af21e46b6631922904",
    "kdnf-limit-4095": "de40279c9650d93238acb015e1ecf8b7",
    "kdnf-limit-4096": "2839ff93cb42412a3d21c385f107895e",
    "kdnf-limit-4097": "c3840468dbd278af21e46b6631922904",
    "monotone-avg-bits": "9ab99744fd6d03a4b071eccc9d9bb901",
    "monotone-avg-flips": "363424ce96c0f754919eee835d637ae1",
    "monotone-avg-unate-bits": "e3f956ffe8439e5c8afc5845f20c63d5",
    "monotone-avg-unate-flips": "b514536a9979f59091737e8df5f862b5",
    "monotone-log-bits": "5e1a204e27eb969628c78d6cf8bfe623",
    "monotone-log-flips": "defa2cc3ac244cb892c752ca9144556a",
    "monotone-log-unate-bits": "4ff0c81a962cd9967d8f247fa92847db",
    "monotone-log-unate-flips": "2ac149baf538d4f3901c1e10cead1fec",
    "monotone-log-wide-bits": "87f15dd9778b2e2c762c4ee832446866",
    "monotone-log-wide-flips": "74e69751f9a68d5d862bebcbf2ea6628",
    "monotone-rs-bits": "efd733a6f93f6ea218e7646da7b5c292",
    "monotone-rs-flips": "5332cb616c1bfc6d36f0d7d715582785",
    "monotone-rs-unate-bits": "1beab561a03adfb0159eb7b4a5b4109d",
    "monotone-rs-unate-flips": "a185e85a6e59cd9739ea377f7ecea37c",
    "setunion-bits": "4ca11120a7ff05d180fb0904d7942bcd",
    "setunion-flips": "984237befefc42764c689c8eeea23686",
    "term-gray-bits": "f15c1d8227c6acd56d51bbb456ab844c",
    "term-gray-flips": "dca9428f7245bde561aafce2b0dfefe3",
    "union-ordered-bits": "3736915e3d6fa419ea258c9fe7f2c2d4",
    "union-ordered-flips": "da844592fd48fe91a66aa1f90e673157",
    "union-priority-bits": "b7e1fe921dc572a62a9a66dbd750ea2a",
    "union-priority-flips": "6ddccfc225e2f9f6332289af183f3bf6",
}


def write_instances(root) -> dict[str, str]:
    paths = {}
    for name, make in INSTANCES.items():
        obj = make()
        path = root / f"{name}.txt"
        path.write_text(dumps_sets(obj) if isinstance(obj, SetFamily) else dumps_dnf(obj))
        paths[name] = str(path)
    return paths


def digest(path: str, argv: list[str]) -> str:
    """md5 of the stdout of one run and of its five step fields."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([path, *argv, "--stats"])
    assert code == 0, err.getvalue()
    stats = json.loads(err.getvalue())
    steps = json.dumps({k: stats[k] for k in STEP_KEYS}, sort_keys=True)
    return hashlib.md5((out.getvalue() + steps).encode()).hexdigest()


@pytest.fixture(scope="module")
def instance_paths(tmp_path_factory):
    return write_instances(tmp_path_factory.mktemp("pins"))


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_and_steps_match_the_pin(instance_paths, case):
    instance, argv = CASES[case]
    assert digest(instance_paths[instance], argv) == PINS[case]
