"""End-to-end checks of the command-line front end."""

import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import resource
import subprocess
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import child_env, cli_launch, main_in_child
from dnfenum import (
    enum_avg,
    enum_flashlight,
    enum_kdnf,
    enum_kdnf_hybrid,
    enum_monotone_avg,
    enum_monotone_log,
    enum_monotone_rs,
    enum_single_term_dnf,
    enum_union_ordered,
    enum_union_priority,
    enum_unions,
)
from dnfenum.cli import ALGOS, GEN_KINDS, _StreamWriter, generate, main
from dnfenum.core import (
    MAX_INPUT_VARS,
    Dnf,
    bits_from_mask,
    brute_force_models,
    dumps_dnf,
    mask_from_bits,
    parse_dnf,
)
from dnfenum import graycode
from dnfenum.instances import _count_terms
from dnfenum.instrument import SINK_BLOCK
from dnfenum.setunion import SetFamily, dumps_sets

EXAMPLE = "p dnf 3 2\n1 2 0\n-3 0\n"  # (x1 & x2) | ~x3, five models
EXAMPLE_MODELS = {"110", "111", "000", "010", "100"}

STAT_KEYS = {
    "total_steps",
    "n_models",
    "max_delay_steps",
    "avg_delay_steps",
    "precompute_steps",
    "wall_ns",
    "peak_aux_memory_estimate",
}


@pytest.fixture
def example_file(tmp_path):
    f = tmp_path / "example.dnf"
    f.write_text(EXAMPLE)
    return str(f)


def replay_flips(n: int, text: str) -> list[str]:
    """Rebuild the bits stream from a flips stream."""
    lines = text.splitlines()
    out = [lines[0]]
    mask = mask_from_bits(lines[0])
    for line in lines[1:]:
        for pos in map(int, line.split()):
            mask ^= 1 << (n - pos)
        out.append(bits_from_mask(mask, n))
    return out


def reference_stream(n: int, fmt: str, masks) -> str:
    """Encode models one at a time, as a per-model writer would."""
    lines = []
    prev = None
    for mask in masks:
        if fmt == "bits" or prev is None:
            lines.append(bits_from_mask(mask, n))
        else:
            diff = mask ^ prev
            pos = []
            while diff:
                b = diff & -diff
                pos.append(n - b.bit_length() + 1)
                diff ^= b
            pos.reverse()
            lines.append(" ".join(map(str, pos)))
        prev = mask
    return "".join(line + "\n" for line in lines)


def assert_same_stream(got: str, want: str) -> None:
    """Equal streams; a mismatch names its first differing line.

    A full diff of two streams of ten thousand lines takes pytest minutes.
    """
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(
            f"streams differ first at line {i}: got {g[i:i + 1]}, want {w[i:i + 1]}"
            f" ({len(g)} against {len(w)} lines)"
        )


# Instances with more than two sink blocks of models.  x1 alone covers half
# of the 2^14 assignments; the other terms add more.
DENSE = Dnf(14, [(1,), (-2, 3), (4, -5, 6), (-7, 8, 9, -10)])
DENSE_MONOTONE = Dnf(14, [(1,), (2, 3), (4, 5, 6), (7, 8, 9, 10)])
SINGLETONS = SetFamily(14, [(e,) for e in range(1, 15)])
ONE_TERM = Dnf(15, [(3,)])

BLOCK_CASES = {
    "term-gray": (enum_single_term_dnf, ONE_TERM),
    "union-priority": (enum_union_priority, DENSE),
    "union-ordered": (enum_union_ordered, DENSE),
    "flashlight": (enum_flashlight, DENSE),
    "kdnf": (enum_kdnf, DENSE),
    "kdnf-hybrid": (enum_kdnf_hybrid, DENSE),
    "avg": (enum_avg, DENSE),
    "monotone-rs": (enum_monotone_rs, DENSE_MONOTONE),
    "monotone-avg": (enum_monotone_avg, DENSE_MONOTONE),
    "monotone-log": (enum_monotone_log, DENSE_MONOTONE),
    "setunion": (enum_unions, SINGLETONS),
}
#: limits on and around the sink's block boundaries; None runs to the end
BLOCK_LIMITS = (None, 1, SINK_BLOCK - 1, SINK_BLOCK, SINK_BLOCK + 1, 2 * SINK_BLOCK + 1)


@pytest.fixture(scope="module")
def block_instances(tmp_path_factory):
    """Per algorithm: (instance file, n, models in enumeration order)."""
    root = tmp_path_factory.mktemp("blocks")
    out = {}
    for algo, (enum, obj) in BLOCK_CASES.items():
        f = root / f"{algo}.txt"
        f.write_text(dumps_sets(obj) if isinstance(obj, SetFamily) else dumps_dnf(obj))
        out[algo] = (str(f), obj.n, list(enum(obj)))
    return out


def test_block_instances_cross_two_blocks(block_instances):
    assert set(block_instances) == set(ALGOS)
    for _, _, models in block_instances.values():
        assert len(models) > 2 * SINK_BLOCK + 1


@pytest.mark.parametrize("limit", BLOCK_LIMITS)
@pytest.mark.parametrize("fmt", ["bits", "flips"])
@pytest.mark.parametrize("algo", ALGOS)
def test_stream_matches_per_model_encoder(block_instances, algo, fmt, limit, capsys):
    path, n, models = block_instances[algo]
    argv = ["--algo", algo, "--format", fmt, path]
    if limit is not None:
        argv += ["--limit", str(limit)]
        models = models[:limit]
    assert main(argv) == 0
    assert_same_stream(capsys.readouterr().out, reference_stream(n, fmt, models))


#: the acceptance suite's criterion-11 instance, whose first 10^6 models
#: are, after a short paced start, runs of one Gray walk
C11 = generate("kdnf", 40, 1000, k=3, seed=11)


@pytest.fixture(scope="module")
def c11_file(tmp_path_factory):
    f = tmp_path_factory.mktemp("c11") / "c11.dnf"
    f.write_text(dumps_dnf(C11))
    return str(f)


@pytest.mark.parametrize("fmt", ["bits", "flips"])
@pytest.mark.parametrize("algo", ["kdnf", "kdnf-hybrid"])
def test_a_long_gray_stream_matches_per_model_encoder(c11_file, algo, fmt, capsys):
    # about 30 runs and a cut one, after the paced start
    limit = 123457
    enum = enum_kdnf if algo == "kdnf" else enum_kdnf_hybrid
    models = list(itertools.islice(enum(C11), limit))
    assert main(["--algo", algo, "--format", fmt, "--limit", str(limit), c11_file]) == 0
    assert_same_stream(capsys.readouterr().out, reference_stream(C11.n, fmt, models))


@pytest.mark.parametrize("fmt", ["--count", "--format=flips"])
def test_runs_are_not_built_to_be_counted_or_flip_written(c11_file, fmt, monkeypatch, capsys):
    built = 0
    real = graycode._masks
    real_advance = graycode.GrayState.advance

    def counting(*args):
        nonlocal built
        out = real(*args)
        built += len(out)
        return out

    def advancing(g, ctr):
        nonlocal built
        built += 1
        return real_advance(g, ctr)

    monkeypatch.setattr(graycode, "_masks", counting)
    monkeypatch.setattr(graycode.GrayState, "advance", advancing)
    assert main(["--algo", "kdnf", "--limit", "1000000", fmt, c11_file]) == 0
    lines = capsys.readouterr().out.count("\n")
    assert lines == (1 if fmt == "--count" else 1000000)
    # the paced start makes its few thousand models one at a time
    assert 0 < built < 10**4


@pytest.mark.parametrize("algo", ["avg", "union-ordered"])
def test_multi_bit_flip_opens_a_later_block(block_instances, algo, capsys):
    path, n, models = block_instances[algo]
    # the first model of the second block differs from its predecessor in
    # several bits, so its flips line misses the single-bit table
    assert (models[SINK_BLOCK] ^ models[SINK_BLOCK - 1]).bit_count() > 1
    assert main(["--algo", algo, "--format", "flips", path]) == 0
    flips = capsys.readouterr().out
    assert len(flips.splitlines()[SINK_BLOCK].split()) > 1
    assert_same_stream(flips, reference_stream(n, "flips", models))
    assert main(["--algo", algo, path]) == 0
    replayed = "".join(line + "\n" for line in replay_flips(n, flips))
    assert_same_stream(replayed, capsys.readouterr().out)


@pytest.mark.parametrize("fmt", ["bits", "flips"])
def test_zero_variable_stream(tmp_path, fmt, capsys):
    f = tmp_path / "empty.sets"
    f.write_text("p sets 0 1\n0\n")  # the empty set: one union over no elements
    assert main(["--algo", "setunion", "--format", fmt, str(f)]) == 0
    assert capsys.readouterr().out == reference_stream(0, fmt, [0]) == "\n"


def test_count_on_example(example_file, capsys):
    assert main(["--algo", "flashlight", "--count", example_file]) == 0
    assert capsys.readouterr().out == "5\n"


def test_bits_stream_is_the_model_set(example_file, capsys):
    assert main(["--algo", "union-ordered", example_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert set(lines) == EXAMPLE_MODELS
    assert lines == sorted(lines)  # this algorithm promises ascending order


@pytest.mark.parametrize("algo", [a for a in ALGOS if a not in ("term-gray", "setunion")])
def test_every_dnf_algorithm_passes_its_oracle(example_file, algo, capsys):
    argv = ["--algo", algo, "--check-oracle", example_file]
    if algo == "kdnf":
        argv += ["--k", "2"]
    assert main(argv) == 0
    capsys.readouterr()


NO_NUMPY_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on, any import of numpy fails
from dnfenum.cli import main

def run(text, *args):
    sys.stdin, out = io.StringIO(text), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["-", *args])
    return [code, out.getvalue()]

print(json.dumps([run(text, *args) for text, args in json.loads(sys.argv[1])]))
"""

EXAMPLE_SETS = "p sets 3 2\n1 2 0\n3 0\n"  # unions {1,2}, {3} and {1,2,3}


def test_no_run_needs_numpy(monkeypatch, capsys):
    # the package needs only the standard library, the oracle included
    runs = [
        [text, ["--algo", algo, flag]]
        for text, algo in [(EXAMPLE, "avg"), (EXAMPLE_SETS, "setunion")]
        for flag in ("--count", "--check-oracle")
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert [out for _, out in got[::2]] == ["5\n", "3\n"]
    for (text, args), (code, out) in zip(runs, got):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["-", *args]) == 0
        assert code == 0 and out == capsys.readouterr().out


def test_avg_slow_mode(example_file, capsys):
    assert main(["--algo", "avg", "--mode", "t10", "--check-oracle", example_file]) == 0
    capsys.readouterr()


def test_stats_record_keys(example_file, capsys):
    assert main(["--algo", "flashlight", "--stats", "--count", example_file]) == 0
    err = capsys.readouterr().err
    rec = json.loads(err)
    assert set(rec) == STAT_KEYS
    assert rec["n_models"] == 5
    assert rec["total_steps"] == rec["precompute_steps"] + round(
        rec["avg_delay_steps"] * rec["n_models"]
    )


def test_flips_replay(example_file, capsys):
    assert main(["--algo", "flashlight", example_file]) == 0
    bits = capsys.readouterr().out
    assert main(["--algo", "flashlight", "--format", "flips", example_file]) == 0
    flips = capsys.readouterr().out
    assert replay_flips(3, flips) == bits.splitlines()


def test_term_gray_flips_one_position_per_line(tmp_path, capsys):
    f = tmp_path / "one.dnf"
    f.write_text("p dnf 4 1\n2 -3 0\n")
    assert main(["--algo", "term-gray", "--format", "flips", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # two free variables
    assert all(len(line.split()) == 1 for line in lines[1:])
    d = parse_dnf(f.read_text())
    assert {mask_from_bits(b) for b in replay_flips(4, "\n".join(lines))} == set(
        brute_force_models(d)
    )


def test_limit_truncates_stream(example_file, capsys):
    assert main(["--algo", "flashlight", "--limit", "2", example_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_limit_zero(example_file, capsys):
    assert main(["--algo", "flashlight", "--limit", "0", example_file]) == 0
    assert capsys.readouterr().out == ""


def test_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE))
    assert main(["--algo", "flashlight", "--count", "-"]) == 0
    assert capsys.readouterr().out == "5\n"


# -- usage and input errors ---------------------------------------------------


def test_unknown_algo_is_usage_error(example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--algo", "nope", example_file])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_oracle_rejects_limit(example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--algo", "flashlight", "--check-oracle", "--limit", "3", example_file])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_file(capsys):
    assert main(["--algo", "flashlight", "/no/such/file.dnf"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.dnf"
    f.write_text("p dnf 2 1\n5 0\n")
    assert main(["--algo", "flashlight", str(f)]) == 3
    assert "dnfenum:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,algo,lineno",
    [
        ("p dnf 1_0 1\n1 0\n", "avg", 1),
        ("p dnf 3 1\n1 \uff13 0\n", "avg", 2),
        ("p sets 1_0 1\n1 0\n", "setunion", 1),
        ("p sets 3 1\n1 \uff13 0\n", "setunion", 2),
    ],
)
def test_numbers_must_be_ascii_integers(tmp_path, capsys, text, algo, lineno):
    # int() alone reads 1_0 as 10 and a full-width digit as that digit
    f = tmp_path / "in.txt"
    f.write_text(text, encoding="utf-8")
    assert main(["--algo", algo, "--count", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"dnfenum: line {lineno}: non-integer token ")
    assert captured.out == ""


def test_setunion_rejects_dnf_file(example_file, capsys):
    assert main(["--algo", "setunion", example_file]) == 3
    capsys.readouterr()


def test_dnf_algo_rejects_sets_file(tmp_path, capsys):
    f = tmp_path / "fam.sets"
    f.write_text("p sets 3 1\n1 2 0\n")
    assert main(["--algo", "flashlight", str(f)]) == 3
    capsys.readouterr()


# faults of the layout both formats share: each exits 3 at the line at fault
LAYOUT_FAULTS = {
    "surplus-row": ("p {kind} 3 1\n1 0\n2 0\n", 3),
    "missing-row": ("c x\np {kind} 3 2\n1 0\n", 2),  # reported at the header
    "row-before-header": ("1 0\n", 1),
    "no-header": ("c nothing\n", 1),
    "short-header": ("p {kind} 3\n", 1),
    "negative-m": ("p {kind} 3 -1\n", 1),
    "duplicate-header": ("p {kind} 3 1\np {kind} 3 1\n1 0\n", 2),
    "no-terminator": ("p {kind} 3 1\n1 2\n", 2),
    "inner-0": ("p {kind} 3 1\n1 0 2 0\n", 2),
    "non-integer": ("p {kind} 3 1\n1 x 0\n", 2),
    "out-of-range-late": ("p {kind} 3 2\n1 0\n\nc gap\n4 0\n", 5),
    "n-above-cap": ("p {kind} 65537 0\n", 1),
}


@pytest.mark.parametrize("kind,algo", [("dnf", "avg"), ("sets", "setunion")])
@pytest.mark.parametrize("fault", LAYOUT_FAULTS)
def test_layout_faults_exit_3_at_their_line(tmp_path, capsys, kind, algo, fault):
    text, lineno = LAYOUT_FAULTS[fault]
    f = tmp_path / f"in.{kind}"
    f.write_text(text.format(kind=kind))
    assert main(["--algo", algo, "--count", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"dnfenum: line {lineno}: ")
    assert captured.out == ""


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_negative_limit_is_a_usage_error(example_file, sweep, capsys):
    args = ["sweep", "--n", "6", "--sizes", "4"] if sweep else [example_file]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--algo", "avg", "--limit", "-1"])
    assert exc.value.code == 2
    assert "--limit must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_lambda_is_not_a_flag(example_file, sweep, capsys):
    args = ["sweep", "--n", "6", "--sizes", "4"] if sweep else [example_file]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--algo", "kdnf-hybrid", "--lambda", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lambda" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_monotone_rs_refuses_n_above_4096(tmp_path, sweep, capsys):
    # about n^2 steps an output: at n = 4096 the second output is charged
    # 16.8M steps
    if sweep:
        args = ["sweep", "--kind", "monotone", "--n", "4097", "--sizes", "1"]
    else:
        f = tmp_path / "wide.dnf"
        f.write_text("p dnf 4097 1\n1 -3 0\n")
        args = [str(f)]
    assert main([*args, "--algo", "monotone-rs"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "--algo monotone-rs needs n <= 4096" in err


def test_monotone_rs_runs_at_n_4096(tmp_path, capsys):
    f = tmp_path / "cap.dnf"
    f.write_text("p dnf 4096 1\n1 -3 0\n")
    assert main(["--algo", "monotone-rs", "--limit", "1", str(f)]) == 0
    assert capsys.readouterr().out == "10" + "0" * 4094 + "\n"


@pytest.mark.parametrize("algo", ["kdnf", "kdnf-hybrid"])
def test_kdnf_takes_a_term_of_any_width(tmp_path, algo, capsys):
    # the budget d = ceil(k^1.5 * 4^k) overflowed a float from k = 506 on
    f = tmp_path / "wide.dnf"
    f.write_text("p dnf 600 1\n" + " ".join(map(str, range(1, 601))) + " 0\n")
    assert main(["--algo", algo, str(f)]) == 0
    assert capsys.readouterr().out == "1" * 600 + "\n"
    assert main(["sweep", "--algo", algo, "--n", "600", "--sizes", "1", "--k", "600",
                 "--limit", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,600,1,")
    assert main(["--algo", algo, "--k", str(MAX_INPUT_VARS + 1), str(f)]) == 3
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_check_oracle_refuses_a_formula_over_24_variables(tmp_path, sweep, capsys):
    if sweep:
        args = ["sweep", "--algo", "avg", "--n", "25", "--sizes", "1"]
    else:
        f = tmp_path / "wide.dnf"
        f.write_text("p dnf 25 1\n1 0\n")
        args = ["--algo", "avg", str(f)]
    assert main([*args, "--check-oracle"]) == 3
    assert "dnfenum: --check-oracle needs n <= 24" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_check_oracle_refuses_a_family_over_20_sets(tmp_path, sweep, capsys):
    if sweep:
        args = ["sweep", "--algo", "setunion", "--n", "21", "--sizes", "21"]
    else:
        f = tmp_path / "many.sets"
        f.write_text("p sets 21 21\n" + "".join(f"{i} 0\n" for i in range(1, 22)))
        args = ["--algo", "setunion", str(f)]
    assert main([*args, "--check-oracle"]) == 3
    assert "dnfenum: --check-oracle needs m <= 20 sets" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("drop", "1 missing and 0 spurious models"),
        ("repeat", "1 duplicate models"),
        ("add", "0 missing and 1 spurious models"),
        ("stray", "0 missing and 1 spurious models"),
    ],
)
def test_check_oracle_mismatch_exits_4(example_file, monkeypatch, sweep, fault, message, capsys):
    real = enum_flashlight

    def faulty(d, *, counter):
        models = real(d, counter=counter)

        def gen():
            first = next(models)
            if fault == "repeat":
                yield first
                yield first
            if fault == "add":
                yield first
                yield min(set(range(1 << d.n)) - brute_force_models(d))
            if fault == "stray":  # a mask outside the 2^n assignments
                yield first
                yield 1 << d.n
            yield from models

        return gen()

    monkeypatch.setattr("dnfenum.classic.enum_flashlight", faulty)
    args = ["sweep", "--n", "6", "--sizes", "4"] if sweep else [example_file]
    assert main([*args, "--algo", "flashlight", "--check-oracle"]) == 4
    err = capsys.readouterr().err
    assert f"dnfenum: oracle mismatch: {message}\n" in err
    assert ("dnfenum: sweep failed at size 4" in err) == sweep


def test_term_gray_needs_single_term(example_file, capsys):
    assert main(["--algo", "term-gray", example_file]) == 3
    assert "exactly one term" in capsys.readouterr().err


def test_kdnf_k_below_width(example_file, capsys):
    assert main(["--algo", "kdnf", "--k", "1", example_file]) == 3
    assert "below the maximum term width" in capsys.readouterr().err


def test_monotone_rejects_mixed_polarity(tmp_path, capsys):
    f = tmp_path / "mixed.dnf"
    f.write_text("p dnf 2 2\n1 0\n-1 0\n")
    assert main(["--algo", "monotone-rs", str(f)]) == 3
    capsys.readouterr()


# -- gen ----------------------------------------------------------------------


def test_gen_monotone_round_trips(tmp_path, capsys):
    out = tmp_path / "g.dnf"
    assert main(["gen", "--kind", "monotone", "--n", "6", "--m", "5", "--seed", "7",
                 "-o", str(out)]) == 0
    d = parse_dnf(out.read_text())
    assert d.n == 6 and d.m == 5
    assert all(all(lit > 0 for lit in t) for t in d.terms)


def test_gen_is_seed_deterministic(capsys):
    argv = ["gen", "--kind", "random", "--n", "8", "--m", "6", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--kind", "random", "--n", "8", "--m", "6", "--seed", "4"]) == 0
    assert capsys.readouterr().out != first


def test_gen_kdnf_respects_width(capsys):
    assert main(["gen", "--kind", "kdnf", "--n", "10", "--m", "12", "--k", "2"]) == 0
    d = parse_dnf(capsys.readouterr().out)
    assert max(len(t) for t in d.terms) <= 2


def test_gen_feasibility(capsys):
    # only 3 distinct positive terms exist over 2 variables
    assert main(["gen", "--kind", "monotone", "--n", "2", "--m", "4"]) == 3
    assert "exceeds the number of distinct" in capsys.readouterr().err


def test_gen_all_terms_m_is_fixed(capsys):
    assert main(["gen", "--kind", "all-terms", "--n", "2", "--m", "9"]) == 3
    capsys.readouterr()
    assert main(["gen", "--kind", "all-terms", "--n", "2"]) == 0
    d = parse_dnf(capsys.readouterr().out)
    assert d.m == 8  # one term per nonempty sign pattern


def test_gen_needs_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "random", "--n", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gen_sets_pipeline(tmp_path, capsys):
    fam_file = tmp_path / "fam.sets"
    assert main(["gen", "--kind", "sets", "--n", "6", "--m", "5", "--seed", "1",
                 "-o", str(fam_file)]) == 0
    assert main(["--algo", "setunion", "--check-oracle", "--count", str(fam_file)]) == 0
    out = capsys.readouterr().out
    assert int(out) >= 5


def test_gen_random_at_large_n(capsys):
    # the term count sums a binomial per width; past the sampling cap the
    # rest of the sum cannot change what generate does
    assert _count_terms(16000, 16000, True, 1 << 20) == 2 * 16000 + 4 * math.comb(16000, 2)
    assert _count_terms(10, 3, False, 1 << 20) == 10 + 45 + 120
    assert main(["gen", "--kind", "random", "--n", "16000", "--m", "1"]) == 0
    d = parse_dnf(capsys.readouterr().out)
    assert d.n == 16000 and d.m == 1


@pytest.mark.parametrize("kind", ["random", "kdnf", "sets"])
def test_gen_and_sweep_refuse_n_above_the_input_limit(kind, capsys):
    # the file they would write could not be read back
    n = str(MAX_INPUT_VARS + 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        generate(kind, MAX_INPUT_VARS + 1, 3)
    assert main(["gen", "--kind", kind, "--n", n, "--m", "3"]) == 3
    algo = "setunion" if kind == "sets" else "kdnf"
    assert main(["sweep", "--algo", algo, "--kind", kind, "--n", n, "--sizes", "3"]) == 3
    assert "exceeds the limit" in capsys.readouterr().err


def test_gen_and_sweep_refuse_all_terms_above_its_cap(capsys):
    # the family has 3^n - 1 terms, all built in memory
    with pytest.raises(ValueError, match="limited to n <= 12"):
        generate("all-terms", 13, None)
    assert main(["gen", "--kind", "all-terms", "--n", "13"]) == 3
    assert main(["sweep", "--algo", "avg", "--kind", "all-terms", "--n", "13",
                 "--sizes", str(3**13 - 1)]) == 3
    assert capsys.readouterr().err.count("limited to n <= 12") == 2


@pytest.mark.parametrize("kind", GEN_KINDS)
def test_gen_writes_only_what_the_run_command_reads(kind, tmp_path, capsys):
    # n = 0 is the smallest n generate takes; .dnf needs n >= 1, .sets not
    out = tmp_path / "g.txt"
    argv = ["gen", "--kind", kind, "--n", "0", "-o", str(out)]
    code = main(argv if kind == "all-terms" else [*argv, "--m", "0"])
    if kind == "sets":
        assert code == 0
        assert main(["--algo", "setunion", "--count", str(out)]) == 0
    else:
        assert code == 3 and not out.exists()
        assert "dnfenum: the .dnf format needs n >= 1" in capsys.readouterr().err


def test_generate_api_matches_kinds():
    d = generate("random", 6, 4, seed=2)
    assert d.n == 6 and d.m == 4
    fam = generate("sets", 5, 3, seed=2)
    assert isinstance(fam, SetFamily) and fam.m == 3
    with pytest.raises(ValueError):
        generate("random", 6, None)
    with pytest.raises(ValueError):
        generate("bogus", 6, 4)


# (kind, n, m, k): draws of at least a third of a small pool sample the
# pool, the rest redraw until m are distinct
GENERATE_PINS = [
    ("random", 3, 5, 3),  # 26 terms: redraw
    ("random", 3, 20, 3),  # pool
    ("random", 3, 26, 3),  # the whole pool
    ("random", 8, 30, 3),  # redraw
    ("monotone", 4, 3, 3),  # 15 terms: redraw
    ("monotone", 4, 10, 3),  # pool
    ("monotone", 10, 40, 3),  # redraw
    ("kdnf", 5, 10, 2),  # 50 terms: redraw
    ("kdnf", 5, 30, 2),  # pool
    ("kdnf", 40, 100, 3),  # redraw
    ("sets", 4, 3, 3),  # 16 sets: redraw
    ("sets", 4, 10, 3),  # pool
    ("sets", 12, 50, 3),  # redraw
    ("sets", 0, 1, 3),  # the one set of an empty ground set
    ("random", 3, 0, 3),  # nothing to draw
]
GENERATE_PIN_MD5 = "c5a393a0e15cc202d6ffb1f0fe39fdcc"


def test_generate_output_is_pinned():
    texts = []
    for kind, n, m, k in GENERATE_PINS:
        for seed in (0, 1, 7):
            obj = generate(kind, n, m, k=k, seed=seed)
            texts.append(dumps_sets(obj) if kind == "sets" else dumps_dnf(obj))
    assert hashlib.md5("--\n".join(texts).encode()).hexdigest() == GENERATE_PIN_MD5


@pytest.mark.parametrize("kind,n,m,k,total", [
    ("random", 3, 27, 3, 26),
    ("monotone", 4, 16, 3, 15),
    ("kdnf", 5, 51, 2, 50),
    ("sets", 4, 17, 3, 16),
])
def test_generate_refuses_more_draws_than_distinct_objects(kind, n, m, k, total):
    with pytest.raises(ValueError, match=rf"m={m} exceeds the number of distinct \w+ \({total}\)"):
        generate(kind, n, m, k=k)


# -- sweep ---------------------------------------------------------------------


def test_sweep_csv(capsys):
    assert main(["sweep", "--algo", "flashlight", "--n", "6", "--sizes", "4,8",
                 "--check-oracle"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["m", "n", "n_models", "avg_delay_steps", "max_delay_steps", "wall_ns"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["4", "8"]
    assert all(int(r[2]) > 0 for r in rows[1:])


def test_sweep_header_only(capsys):
    assert main(["sweep", "--algo", "avg", "--n", "6", "--sizes", ""]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["m", "n", "n_models", "avg_delay_steps", "max_delay_steps", "wall_ns"]]


def test_sweep_setunion_default_kind(capsys):
    assert main(["sweep", "--algo", "setunion", "--n", "5", "--sizes", "3,6",
                 "--check-oracle"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3


def test_sweep_bad_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--algo", "avg", "--n", "6", "--sizes", "4,x"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- determinism through the real executable -----------------------------------


def run_cli(args, **kw):
    argv, env = cli_launch(args)
    return subprocess.run(argv, env=env, capture_output=True, text=True, **kw)


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--kind", "random", "--n", "5", "--m", "3"],
        ["sweep", "--algo", "avg", "--n", "5", "--sizes", "3"],
    ],
    ids=["gen", "sweep"],
)
def test_unwritable_output_is_an_error_without_traceback(tmp_path, args):
    out = tmp_path / "missing" / "out.txt"
    r = run_cli([*args, "-o", str(out)])
    assert r.returncode == 3
    assert r.stderr.startswith(f"dnfenum: cannot write {out}: ")
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_running_out_of_memory_is_exit_5_without_traceback(tmp_path):
    # monotone-rs keeps every model of x1 over n = 30, 2^29 of them: far
    # more than the address-space cap, which is set in the child only
    f = tmp_path / "wide.dnf"
    f.write_text("p dnf 30 1\n1 0\n")
    cap = 150 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    r = run_cli(["--algo", "monotone-rs", "--count", str(f)], preexec_fn=limit_memory, timeout=120)
    assert r.returncode == 5
    assert "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1
    assert "monotone-rs" in r.stderr and "--limit" in r.stderr


def test_check_oracle_keeps_no_list_of_its_models(tmp_path):
    # 3.4M models over n = 22: a list and sets of them would exceed the
    # cap, a 2^22-bit array stays far below it
    f = tmp_path / "k22.dnf"
    f.write_text(dumps_dnf(generate("kdnf", 22, 3, k=3, seed=1)))
    cap = 150 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    r = run_cli(["--algo", "kdnf", "--check-oracle", "--count", str(f)], preexec_fn=limit_memory, timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    assert int(r.stdout) > 3 * 10**6


def test_one_wide_term_runs_in_memory_linear_in_its_width(tmp_path):
    # one term of width 2,048 has one model.  Its frame's k blocks share one
    # prefix dict of at most k entries, and the run needs under half the
    # cap; a dict per block, k^2/2 entries in all (about 97 MB RSS), would
    # exceed it
    f = tmp_path / "wide.dnf"
    f.write_text("p dnf 2048 1\n" + " ".join(map(str, range(1, 2049))) + " 0\n")
    cap = 60 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    r = run_cli(["--algo", "kdnf", "--count", str(f)], preexec_fn=limit_memory, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (0, "1\n", "")


@pytest.mark.parametrize(
    "args, line",
    [
        (["gen", "--kind", "random", "--n", "5", "--m", "3"], "dnfenum: out of memory\n"),
        (
            ["sweep", "--algo=avg", "--n", "5", "--sizes", "3"],
            "dnfenum: out of memory in --algo avg; --limit N stops the run after N models\n",
        ),
        (
            ["--algo=kdnf", "in.dnf"],
            "dnfenum: out of memory in --algo kdnf; --limit N stops the run after N models\n",
        ),
    ],
    ids=["gen", "sweep", "run"],
)
def test_out_of_memory_names_the_algorithm_if_any(monkeypatch, capsys, args, line):
    def exhausted(*a, **kw):
        raise MemoryError

    monkeypatch.setattr("dnfenum.instances.generate", exhausted)
    monkeypatch.setattr("dnfenum.cli._read_input", exhausted)
    assert main(args) == 5
    assert capsys.readouterr().err == line


def test_stdout_closed_mid_stream_ends_quietly(tmp_path):
    # 2^19 models of 21 bytes: far more than a pipe buffer holds
    f = tmp_path / "one.dnf"
    f.write_text("p dnf 20 1\n1 0\n")
    argv, env = cli_launch(["--algo", "avg", str(f)])
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"10000000000000000000\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_stdout_closed_before_the_exit_flush_ends_quietly(example_file):
    # --count writes one short line, which sits in the buffer until the end
    argv, env = cli_launch(["--algo", "avg", "--count", example_file])
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_repeat_runs_are_byte_identical(tmp_path):
    f = tmp_path / "inst.dnf"
    r = run_cli(["gen", "--kind", "kdnf", "--n", "14", "--m", "30", "--k", "3",
                 "-o", str(f)])
    assert r.returncode == 0, r.stderr
    runs = [run_cli(["--algo", "kdnf", "--stats", str(f)]) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout
    recs = [json.loads(r.stderr) for r in runs]
    assert recs[0]["total_steps"] == recs[1]["total_steps"]
    assert recs[0]["n_models"] == recs[1]["n_models"]

# -- memory of the flips writer ---------------------------------------------------


def test_flips_writer_builds_no_table_up_front():
    tracemalloc.start()
    try:
        _StreamWriter(20000, "flips", io.StringIO())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- inputs at and above the alphabet cap, and parser fuzzing --------------------


@pytest.mark.parametrize(
    "text,algo",
    [
        ("p sets 99999999999999999999 1\n1 0\n", "setunion"),
        ("p dnf 100000000 1\n1 0\n", "kdnf"),
        (f"p dnf {MAX_INPUT_VARS + 1} 1\n1 0\n", "term-gray"),
    ],
    ids=["sets-20-digits", "dnf-1e8", "dnf-cap+1"],
)
def test_oversized_alphabet_is_refused(tmp_path, text, algo):
    f = tmp_path / "big.txt"
    f.write_text(text)
    r = run_cli([str(f), "--algo", algo])
    assert r.returncode == 3
    assert r.stderr.startswith(f"dnfenum: line 1: n exceeds the limit of {MAX_INPUT_VARS}")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "text,algo",
    [
        (f"p dnf {MAX_INPUT_VARS} 1\n1 -{MAX_INPUT_VARS} 0\n", "kdnf"),
        (f"p dnf {MAX_INPUT_VARS} 1\n1 -{MAX_INPUT_VARS} 0\n", "term-gray"),
        (f"p sets {MAX_INPUT_VARS} 2\n1 0\n{MAX_INPUT_VARS} 0\n", "setunion"),
    ],
    ids=["kdnf", "term-gray", "setunion"],
)
def test_alphabet_at_the_cap_runs(tmp_path, text, algo):
    f = tmp_path / "cap.txt"
    f.write_text(text)
    r = run_cli([str(f), "--algo", algo, "--limit", "3", "--format", "flips"])
    assert r.returncode == 0, r.stderr
    first, *rest = r.stdout.splitlines()
    assert len(first) == MAX_INPUT_VARS and len(rest) == 2
    assert r.stderr == ""


def test_undecodable_input_file_is_an_input_error(tmp_path):
    f = tmp_path / "bad.dnf"
    f.write_bytes(b"p dnf 3 1\n1 \xff 0\n")
    r = run_cli([str(f), "--algo", "kdnf"])
    assert r.returncode == 3
    assert r.stderr.startswith(f"dnfenum: cannot read {f}: ")
    assert "Traceback" not in r.stderr


FUZZ_SEEDS = {
    "dnf": [
        EXAMPLE,
        dumps_dnf(generate("kdnf", 6, 4, k=3, seed=2)),
        dumps_dnf(generate("monotone", 5, 3, seed=1)),
        "p dnf 4 1\n2 -3 0\n",
        "c comment\np dnf 2 0\n",
    ],
    "sets": [dumps_sets(generate("sets", 6, 4, seed=3)), "p sets 0 1\n0\n"],
}

# small ints keep every valid formula tiny; the other tokens are malformed
# or far above the alphabet cap, so no valid input has a large n
FUZZ_TOKENS = st.one_of(
    st.integers(-12, 12).map(str),
    st.sampled_from(
        ["p", "dnf", "sets", "c", "x", "-", "--1", "+2", "0x1", "1e3", "1.5", "\t",
         str(MAX_INPUT_VARS + 1), "99999999999999999999", "7" * 5000]
    ),
)


@st.composite
def fuzzed_texts(draw, kind):
    """A seed text of the kind, mutated token by token and line by line."""
    lines = [line.split() for line in draw(st.sampled_from(FUZZ_SEEDS[kind])).splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "new", "drop", "dup", "size"]))
        # count from the end, so that the simplest draws leave the header be
        i = len(lines) - draw(st.integers(0, len(lines)))
        if op == "size":
            # a new n or m in the header
            for line in lines:
                if line[:1] == ["p"] and len(line) == 4:
                    line[draw(st.sampled_from([2, 3]))] = draw(FUZZ_TOKENS)
                    break
        elif op == "new" or i == len(lines):
            lines.insert(i, draw(st.lists(FUZZ_TOKENS, max_size=5)))
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, list(lines[i]))
        else:
            line = lines[i]
            j = len(line) - draw(st.integers(0, len(line)))
            if op == "insert" or j == len(line):
                line.insert(j, draw(FUZZ_TOKENS))
            elif op == "delete":
                del line[j]
            else:
                line[j] = draw(FUZZ_TOKENS)
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(" ".join(line) for line in lines) + draw(st.sampled_from([sep, ""]))


@st.composite
def fuzz_cases(draw):
    """(algorithm, input text): mostly a mutant of the algorithm's own file
    kind, sometimes of the other kind, sometimes a line of loose tokens."""
    algo = draw(st.sampled_from(ALGOS))
    kind = "sets" if algo == "setunion" else "dnf"
    text = draw(
        st.one_of(
            fuzzed_texts(kind),
            fuzzed_texts(kind),
            fuzzed_texts("dnf" if kind == "sets" else "sets"),
            st.lists(FUZZ_TOKENS, max_size=12).map(" ".join),
        )
    )
    return algo, text


CAP_DNF = f"p dnf {MAX_INPUT_VARS} 1\n1 -{MAX_INPUT_VARS} 0\n"


@settings(max_examples=400)
@given(
    case=fuzz_cases(),
    out=st.sampled_from([["--format", "bits"], ["--format", "flips"], ["--count"], ["--stats"]]),
)
@example(case=("setunion", "p sets 99999999999999999999 1\n1 0\n"), out=["--count"])
@example(case=("kdnf", "p dnf 100000000 1\n1 0\n"), out=["--count"])
@example(case=("kdnf", CAP_DNF), out=["--format", "flips"])
@example(case=("term-gray", CAP_DNF), out=["--format", "flips"])
@example(case=("setunion", f"p sets {MAX_INPUT_VARS} 1\n{MAX_INPUT_VARS} 0\n"), out=["--count"])
@example(case=("avg", "p dnf 1_0 1\n1 0\n"), out=["--count"])
@example(case=("avg", "p dnf 3 1\n1 \uff13 0\n"), out=["--count"])
@example(case=("setunion", "p sets 1_0 1\n1 0\n"), out=["--count"])
@example(case=("setunion", "p sets 3 1\n1 \uff13 0\n"), out=["--count"])
def test_fuzzed_input_ends_in_exit_0_or_3(case, out):
    algo, text = case
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["-", "--algo", algo, "--limit", "3", *out])
    finally:
        sys.stdin = stdin
    assert code in (0, 3), (code, stderr.getvalue())
    if code == 3:
        assert stderr.getvalue().startswith("dnfenum: ")
        assert stdout.getvalue() == ""


# -- what a run loads and leaves -----------------------------------------------

#: modules that a run of the algorithm must not load
NOT_LOADED = {
    "setunion": {"avg", "classic", "graycode", "instances", "kdnf", "monotone"},
    "avg": {"classic", "graycode", "instances", "kdnf", "monotone", "setunion"},
    "kdnf": {"classic", "instances", "monotone", "setunion"},
}


@pytest.mark.parametrize("algo", sorted(NOT_LOADED))
def test_a_run_loads_only_its_algorithms_modules(block_instances, algo):
    path = block_instances[algo][0]
    loaded = []
    for flags in (["--limit", "0", "--count"], ["--format", "bits", "--stats"],
                  ["--format", "flips", "--stats"]):
        got = main_in_child([path, "--algo", algo, *flags])
        assert got["code"] == 0
        loaded.append({m.removeprefix("dnfenum.") for m in got["modules"]})
    assert {algo, "cli", "core", "instrument", "trie"} <= loaded[0]
    assert not loaded[0] & NOT_LOADED[algo]
    # the flags change what the run does, never what it loads
    assert loaded[1] == loaded[0] and loaded[2] == loaded[0]


@pytest.mark.parametrize("algo", ALGOS)
def test_a_longer_run_leaves_no_more_cyclic_garbage(block_instances, algo):
    path = block_instances[algo][0]
    left = [main_in_child([path, "--algo", algo, "--limit", str(limit)]) for limit in (1000, 20000)]
    assert [r["code"] for r in left] == [0, 0]
    assert left[0]["cyclic"] == left[1]["cyclic"]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("exit_code", [0, 3, 5, 141])
def test_main_leaves_the_collector_as_it_found_it(example_file, tmp_path, monkeypatch, enabled, exit_code, capsys):
    args = [example_file, "--algo", "avg"]
    if exit_code == 3:
        args[0] = str(tmp_path / "missing.dnf")
    if exit_code == 5:
        def exhausted(*a, **kw):
            raise MemoryError

        monkeypatch.setattr("dnfenum.cli._read_input", exhausted)
    was = gc.isenabled()
    with open(tmp_path / "pipe.out", "w") as sink:
        if exit_code == 141:
            # main points the closed stdout's descriptor at the null device
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(args)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
    assert (code, after) == (exit_code, enabled)
