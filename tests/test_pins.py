"""Stream digests and step counts of every algorithm, pinned through main().

Each case runs the command line in process with ``--stats`` and pins the
md5 of the bytes of standard output and, apart from it, the exact tuple of
the five step fields of the stats record.  ``wall_ns`` (a clock reading)
and ``peak_aux_memory_estimate`` (a memory gauge outside the step model)
are left out.  A change that keeps every stream and every step count
leaves every pin as it is; a change that moves one on purpose must say so
and record the new value, and a re-pinned step tuple with an unchanged
digest shows that no stream moved.
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
    # the acceptance suite's criterion-11 instance: after a short paced
    # start, its first 10^6 models are runs of one Gray walk
    "c11": lambda: generate("kdnf", 40, 1000, k=3, seed=11),
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
    for fmt in ("bits", "flips"):
        for limit in (123457, 1000000):
            cases[f"kdnf-c11-{fmt}-{limit}"] = (
                "c11", ["--algo", "kdnf", "--format", fmt, "--limit", str(limit)]
            )
    return cases


CASES = _cases()

#: (stream md5, step tuple) per case.  Recorded before enumerators took the
#: tries they drop off the node gauge, which moves no stream and no step
#: count; the two setunion step tuples were recorded once its cover counts
#: went bit-sliced, the kdnf and kdnf-hybrid ones once kdnf paced its
#: construction by a per-frame bound, and the union-ordered and monotone-rs
#: ones once a heap and a set of int masks replaced their binary tries, and
#: the term-gray, union-priority and flashlight ones once every output was
#: charged through charge_output: each moved step counts and no stream.
#: The four kdnf-c11 pins were recorded while runs were still lists
PINS = {
    "avg-bits": ("4110d857e5d51d45681f73bc02aeb09e", (6668, 872, 242, 7.49197247706422, 135)),
    "avg-flips": ("00675f7aa5526d06b16a282df244bbc2", (6668, 872, 242, 7.49197247706422, 135)),
    "avg-t10-bits": ("4110d857e5d51d45681f73bc02aeb09e", (6936, 872, 246, 7.799311926605505, 135)),
    "avg-t10-flips": ("00675f7aa5526d06b16a282df244bbc2", (6936, 872, 246, 7.799311926605505, 135)),
    "flashlight-bits": ("4110d857e5d51d45681f73bc02aeb09e", (19620, 872, 103, 22.397935779816514, 89)),
    "flashlight-flips": ("00675f7aa5526d06b16a282df244bbc2", (19620, 872, 103, 22.397935779816514, 89)),
    "kdnf-c11-bits-123457": ("d5c8f2d9cb71c3f6ea71366a4eafac34", (503211, 123457, 85, 4.017722769871291, 7195)),
    "kdnf-c11-bits-1000000": ("ff4c1cd99a63c860f56872e36f309dc8", (4009383, 1000000, 85, 4.002188, 7195)),
    "kdnf-c11-flips-123457": ("171fbbaadead5fc8dbb35f4135a97aab", (503211, 123457, 85, 4.017722769871291, 7195)),
    "kdnf-c11-flips-1000000": ("6d4530fed021e592be4f1287ec449b4a", (4009383, 1000000, 85, 4.002188, 7195)),
    "kdnf-bits": ("9ca94d78cc66b613a80b301c9ca9b684", (18124, 4096, 29, 4.3515625, 300)),
    "kdnf-flips": ("5c30c163e69433aef7d013d4b910714d", (18124, 4096, 29, 4.3515625, 300)),
    "kdnf-hybrid-bits": ("1224a593dcbd6dfe823d6b9f307f81f4", (18725, 4096, 63, 4.498291015625, 300)),
    "kdnf-hybrid-flips": ("481459ff6629a55e62ca4d808e17d5c5", (18725, 4096, 63, 4.498291015625, 300)),
    "kdnf-hybrid-limit-4095": ("b415e5bdd646b5606b3e75e7475ebda1", (16755, 4095, 31, 4.0556776556776555, 147)),
    "kdnf-hybrid-limit-4096": ("28fca92adc28834ffc0c117a237c7a29", (16759, 4096, 31, 4.0556640625, 147)),
    "kdnf-hybrid-limit-4097": ("e4c29c276e1dd3b3be69f467cba745a9", (16771, 4097, 31, 4.057603124237247, 147)),
    "kdnf-limit-4095": ("b415e5bdd646b5606b3e75e7475ebda1", (16755, 4095, 31, 4.0556776556776555, 147)),
    "kdnf-limit-4096": ("28fca92adc28834ffc0c117a237c7a29", (16759, 4096, 31, 4.0556640625, 147)),
    "kdnf-limit-4097": ("e4c29c276e1dd3b3be69f467cba745a9", (16771, 4097, 31, 4.057603124237247, 147)),
    "monotone-avg-bits": ("371066977650836104d93948bbbc5b51", (16733, 3072, 137, 5.407877604166667, 120)),
    "monotone-avg-flips": ("2050eeff6bde15baa7f118afd1b23e39", (16733, 3072, 137, 5.407877604166667, 120)),
    "monotone-avg-unate-bits": ("599cc19257f191dbbc6d48c1c7f7144d", (16733, 3072, 137, 5.407877604166667, 120)),
    "monotone-avg-unate-flips": ("64918e522bb72175f5c3ea4f846ac63f", (16733, 3072, 137, 5.407877604166667, 120)),
    "monotone-log-bits": ("371066977650836104d93948bbbc5b51", (28001, 3072, 426, 9.075846354166666, 120)),
    "monotone-log-flips": ("2050eeff6bde15baa7f118afd1b23e39", (28001, 3072, 426, 9.075846354166666, 120)),
    "monotone-log-unate-bits": ("599cc19257f191dbbc6d48c1c7f7144d", (28001, 3072, 426, 9.075846354166666, 120)),
    "monotone-log-unate-flips": ("64918e522bb72175f5c3ea4f846ac63f", (28001, 3072, 426, 9.075846354166666, 120)),
    "monotone-log-wide-bits": ("d4401c15ec3a94d120d45f082ebd369f", (24047, 1984, 259, 11.904233870967742, 429)),
    "monotone-log-wide-flips": ("300ab7ac18f1fbff6d3b24c5fe3af4a6", (24047, 1984, 259, 11.904233870967742, 429)),
    "monotone-rs-bits": ("941d887c987bd45dd3cd8c673fe0ec6f", (90681, 3072, 169, 29.511393229166668, 22)),
    "monotone-rs-flips": ("2aeeb5f2fb98d70633c3501517f8a778", (90681, 3072, 169, 29.511393229166668, 22)),
    "monotone-rs-unate-bits": ("ed1c0fb149913135ad10971856e46dc6", (90681, 3072, 169, 29.511393229166668, 22)),
    "monotone-rs-unate-flips": ("5bef844b9fe6235948e2d5ccaa6220ca", (90681, 3072, 169, 29.511393229166668, 22)),
    "setunion-bits": ("52b97e1a05c4172c5feb4cc3061ffec1", (3069, 32, 296, 92.75, 101)),
    "setunion-flips": ("f20026e01d1822420a761f71c4c2306b", (3069, 32, 296, 92.75, 101)),
    "term-gray-bits": ("75263c6055be74d42137e954a65e7a7d", (530, 128, 4, 3.96875, 22)),
    "term-gray-flips": ("d8219eb768076055597f6f704adf575a", (530, 128, 4, 3.96875, 22)),
    "union-ordered-bits": ("4110d857e5d51d45681f73bc02aeb09e", (45092, 872, 97, 51.31880733944954, 342)),
    "union-ordered-flips": ("00675f7aa5526d06b16a282df244bbc2", (45092, 872, 97, 51.31880733944954, 342)),
    "union-priority-bits": ("00843fe15ad6bd8c35347ef9e5aefc62", (12667, 872, 125, 14.361238532110091, 144)),
    "union-priority-flips": ("0b256bcad0adfc1d01f1623571a35a0f", (12667, 872, 125, 14.361238532110091, 144)),
}


def write_instances(root) -> dict[str, str]:
    paths = {}
    for name, make in INSTANCES.items():
        obj = make()
        path = root / f"{name}.txt"
        path.write_text(dumps_sets(obj) if isinstance(obj, SetFamily) else dumps_dnf(obj))
        paths[name] = str(path)
    return paths


def digest(path: str, argv: list[str]) -> tuple[str, tuple]:
    """md5 of the stdout of one run, and its five step fields in STEP_KEYS order."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([path, *argv, "--stats"])
    assert code == 0, err.getvalue()
    stats = json.loads(err.getvalue())
    return hashlib.md5(out.getvalue().encode()).hexdigest(), tuple(stats[k] for k in STEP_KEYS)


@pytest.fixture(scope="module")
def instance_paths(tmp_path_factory):
    return write_instances(tmp_path_factory.mktemp("pins"))


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_and_steps_match_the_pin(instance_paths, case):
    instance, argv = CASES[case]
    stream, steps = digest(instance_paths[instance], argv)
    assert (stream, steps) == PINS[case]
