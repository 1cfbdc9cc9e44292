"""Tests of the benchmark's own generator and output checker."""

import contextlib
import io

import pytest

import check
import gen
from dnfenum import generate
from dnfenum.cli import main
from dnfenum.core import dumps_dnf

# x1 and x2 over three variables: models 110 and 111.  Every single-bit
# change to an output gives a non-model or a repeat.
N, TERMS = 3, [(1, 2)]


def cli_stream(path, *args) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(path), *args]) == 0
    return buf.getvalue().encode()


def test_kdnf_generator_reproduces_the_criterion_11_instance():
    want = dumps_dnf(generate("kdnf", 40, 1000, k=3, seed=11))
    assert gen.dumps("dnf", 40, gen.kdnf_terms(40, 1000, 3, 11)) == want


def test_generators_are_deterministic_and_valid():
    assert gen.fixed_width_terms(24, 50, 12, 4) == gen.fixed_width_terms(24, 50, 12, 4)
    assert all(len(t) == 12 for t in gen.fixed_width_terms(24, 50, 12, 4))
    sets = gen.disjoint_sets(400, 15, 3, 8)
    elems = [e for s in sets for e in s]
    assert len(elems) == len(set(elems)) and all(1 <= e <= 400 for e in elems)
    assert [len(s) for s in sets] == [1 + i % 3 for i in range(15)]


@pytest.mark.parametrize("fmt", ["bits", "flips"])
def test_checker_accepts_a_good_stream(fmt):
    good = {"bits": b"110\n111\n", "flips": b"110\n3\n"}[fmt]
    assert check.check_stream(good, fmt, "dnf", N, TERMS, limit=None, ascending=True) is None


@pytest.mark.parametrize(
    "fmt,bad",
    [
        ("bits", b"110\n110\n"),  # duplicated line
        ("bits", b"110\n110\n111\n"),
        ("bits", b"010\n111\n"),  # flipped bit
        ("bits", b"110\n101\n"),
        ("bits", b"110\n"),  # truncated: a model is missing
        ("bits", b"110\n11"),  # truncated mid-line
        ("flips", b"110\n3\n3\n"),  # duplicated line
        ("flips", b"110\n2\n"),  # flipped bit
        ("flips", b"110\n"),  # truncated
        ("flips", b"110\n"[:-1]),
    ],
)
def test_checker_rejects_duplicate_flipped_and_truncated(fmt, bad):
    assert check.check_stream(bad, fmt, "dnf", N, TERMS, limit=None, ascending=True) is not None


def test_checker_rejects_out_of_order_and_short_limited_streams():
    assert check.check_stream(b"111\n110\n", "bits", "dnf", N, TERMS, limit=None, ascending=True)
    assert check.check_stream(b"111\n110\n", "bits", "dnf", N, TERMS, limit=None, ascending=False) is None
    assert check.check_stream(b"110\n", "bits", "dnf", N, TERMS, limit=2, ascending=True)
    assert check.check_stream(b"110\n", "bits", "dnf", N, TERMS, limit=1, ascending=True) is None


def test_checker_on_set_unions():
    sets = [(1,), (3,)]
    good = b"001\n100\n101\n"
    assert check.check_stream(good, "bits", "sets", 3, sets, limit=None, ascending=True) is None
    for bad in (b"001\n100\n100\n", b"001\n110\n101\n", b"001\n100\n", b"100\n001\n101\n"):
        assert check.check_stream(bad, "bits", "sets", 3, sets, limit=None, ascending=True)


@pytest.mark.parametrize(
    "kind,n,rows,args,limit,ascending",
    [
        ("dnf", 40, gen.kdnf_terms(40, 60, 3, 1), ["--algo", "kdnf", "--format", "flips"], 3000, False),
        ("dnf", 12, gen.fixed_width_terms(12, 40, 6, 2), ["--algo", "avg", "--format", "bits"], None, True),
        ("sets", 60, gen.disjoint_sets(60, 6, 3, 4), ["--algo", "setunion", "--format", "bits"], None, True),
    ],
)
def test_checker_accepts_the_cli_on_each_workload_shape(tmp_path, kind, n, rows, args, limit, ascending):
    path = tmp_path / f"in.{kind}"
    path.write_text(gen.dumps(kind, n, rows))
    extra = [] if limit is None else ["--limit", str(limit)]
    data = cli_stream(path, *args, *extra)
    fmt = args[-1]
    assert check.check_stream(data, fmt, kind, n, rows, limit=limit, ascending=ascending) is None
    lines = data.split(b"\n")
    assert check.check_stream(b"\n".join(lines[:-2] + [b""]), fmt, kind, n, rows, limit=limit, ascending=ascending)
