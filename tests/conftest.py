"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

import dnfenum
from dnfenum.core import Dnf, Term, make_term
from dnfenum.trie import TermTrie

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def terms(draw, n: int, signed: bool = True, max_width: int | None = None):
    width = draw(st.integers(1, min(max_width or n, n)))
    vs = draw(
        st.lists(st.integers(1, n), min_size=width, max_size=width, unique=True)
    )
    if signed:
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        lits = [v if s else -v for v, s in zip(vs, signs)]
    else:
        lits = vs
    return make_term(lits)


@st.composite
def dnfs(draw, max_n: int = 10, max_m: int = 12, signed: bool = True, max_width: int | None = None):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ts = draw(st.lists(terms(n, signed=signed, max_width=max_width), min_size=m, max_size=m))
    return Dnf(n, tuple(dict.fromkeys(ts)))


@st.composite
def monotone_dnfs(draw, max_n: int = 10, max_m: int = 12):
    return draw(dnfs(max_n=max_n, max_m=max_m, signed=False))


@st.composite
def set_families(draw, max_n: int = 9, max_m: int = 9):
    from dnfenum.setunion import SetFamily

    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    sets = []
    for _ in range(m):
        w = draw(st.integers(0, n))
        vs = draw(st.lists(st.integers(1, n), min_size=w, max_size=w, unique=True))
        sets.append(tuple(sorted(vs)))
    return SetFamily(n, tuple(sets))


def random_dnf(rng: random.Random, n: int, m: int, min_width: int = 1, max_width: int | None = None, signed: bool = True) -> Dnf:
    """Random formula with up to m distinct terms (collisions are dropped)."""
    max_width = max_width or n
    seen = set()
    out = []
    for _ in range(m):
        w = rng.randint(min_width, min(max_width, n))
        vs = rng.sample(range(1, n + 1), w)
        if signed:
            lits = tuple(sorted((v if rng.random() < 0.5 else -v) for v in vs), )
        else:
            lits = tuple(sorted(vs))
        t = make_term(lits)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return Dnf(n, tuple(out))


def _check_partial(d: Dnf, tau: Mapping[int, int]) -> None:
    for v, b in tau.items():
        if not 1 <= v <= d.n:
            raise ValueError(f"variable {v} out of range for n={d.n}")
        if b not in (0, 1):
            raise ValueError(f"assignment value for x{v} must be 0 or 1, got {b!r}")


def restrict(d: Dnf, tau: Mapping[int, int]) -> Dnf:
    """The restriction of d under a partial assignment.

    Terms falsified by tau are dropped and assigned variables are stripped
    from the survivors.  A term whose literals are all satisfied becomes the
    empty term, which makes the result a tautology over the remaining
    variables (the Dnf constructor collapses it to the single empty term).
    The result keeps the same n; assigned variables simply no longer occur,
    so models of d compatible with tau are exactly models of the result
    compatible with tau.
    """
    _check_partial(d, tau)
    kept: list[tuple[int, ...]] = []
    for t in d.terms:
        out = []
        for lit in t:
            b = tau.get(abs(lit))
            if b is None:
                out.append(lit)
            elif (lit > 0) != (b == 1):
                break
        else:
            kept.append(tuple(out))
    return Dnf(d.n, kept)


def compatible(mask: int, tau: Mapping[int, int], n: int) -> bool:
    """True iff the full assignment agrees with tau on its domain."""
    for v, b in tau.items():
        if (mask >> (n - v)) & 1 != b:
            return False
    return True


def decode(tt: TermTrie) -> list[Term]:
    """The trie's current word set as canonical terms, sorted in trie order."""
    out = []
    for w in sorted(tt.iter_words()):
        out.append(tuple(s // 2 + 1 if s & 1 else -(s // 2 + 1) for s in w))
    return out


#: most terms inclusion_exclusion_count takes: it walks up to 2^m subsets
IE_MAX_TERMS = 14


def inclusion_exclusion_count(d: Dnf) -> int:
    """|sat(d)| by inclusion-exclusion over the subsets of terms, for any n.

    A consistent subset fixes the variables of its terms and leaves
    2^(n - fixed) assignments.  An inconsistent subset and all its
    supersets add nothing, so the walk cuts them off.  Shares no logic
    with the enumerators; needs m <= IE_MAX_TERMS.
    """
    if d.m > IE_MAX_TERMS:
        raise ValueError(f"inclusion-exclusion limited to m <= {IE_MAX_TERMS}")
    tm = d.term_masks

    def rec(i: int, pos: int, neg: int, sign: int) -> int:
        total = 0
        for j in range(i, len(tm)):
            p, q = pos | tm[j][0], neg | tm[j][1]
            if p & q == 0:
                total += sign << (d.n - (p | q).bit_count())
                total += rec(j + 1, p, q, -sign)
        return total

    return rec(0, 0, 0, 1)


@st.composite
def wide_dnfs(draw, max_n: int, signed: bool = True):
    """Up to IE_MAX_TERMS terms over n <= max_n variables that each leave at
    most 4 variables free, so the models stay few at any n.  Terms are
    positive but for at most 2 negated literals each (none if not signed):
    they share long trie prefixes, and restrictions merge long words."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, IE_MAX_TERMS))
    out = []
    for _ in range(m):
        free = set(draw(st.lists(st.integers(1, n), max_size=4, unique=True)))
        neg = set(draw(st.lists(st.integers(1, n), max_size=2, unique=True))) if signed else set()
        out.append(make_term([-v if v in neg else v for v in range(1, n + 1) if v not in free]))
    return Dnf(n, tuple(dict.fromkeys(out)))


@contextmanager
def shallow_recursion_limit(headroom: int = 50):
    """Lower the recursion limit to `headroom` frames above the caller's depth.

    Code run inside the block that recurses deeper than `headroom` raises
    RecursionError; the old limit comes back on the way out.
    """
    depth = 0
    f = sys._getframe()
    while f is not None:
        depth += 1
        f = f.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def child_env() -> dict[str, str]:
    """An env whose Python imports the ``dnfenum`` this process imported.

    The directory this process imported ``dnfenum`` from goes first on the
    child's ``PYTHONPATH``, so a child interpreter runs the code under test.
    The env is a copy; this process's ``os.environ`` is left alone.
    """
    root = Path(dnfenum.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root), env.get("PYTHONPATH")]))
    return env


def cli_launch(args) -> tuple[list[str], dict[str, str]]:
    """The argv and env that run ``dnfenum ARGS`` in a separate process.

    The child is ``python -m dnfenum`` under :func:`child_env`, so it needs
    no installed console script.
    """
    return [sys.executable, "-m", "dnfenum", *args], child_env()


#: runs ``main(argv)`` with its stream discarded, then prints one JSON line:
#: its exit code, the sorted ``dnfenum.*`` keys of ``sys.modules`` and what
#: ``gc.collect()`` finds after it.  The collector is off from the start, so
#: no automatic collection takes any of the run's cyclic garbage first
_MAIN_CHILD = """
import contextlib, gc, io, json, sys
from dnfenum.cli import main
gc.collect()
gc.disable()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
modules = sorted(k for k in sys.modules if k.startswith("dnfenum."))
print(json.dumps({"code": code, "modules": modules, "cyclic": gc.collect()}))
"""


def main_in_child(args) -> dict:
    """Run ``dnfenum.cli.main(args)`` in a fresh interpreter and report on it.

    Returns what ``main`` returned (``code``), the ``dnfenum.*`` modules
    loaded when it returned (``modules``) and the number of unreachable
    objects that ``gc.collect()`` found then (``cyclic``): all the cyclic
    garbage the run made.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_CHILD, *args],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
