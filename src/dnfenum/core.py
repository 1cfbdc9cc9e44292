"""DNF formulas over variables x_1..x_n and the operations shared by all enumerators.

Conventions used throughout the package:

* A literal is a nonzero int: ``v`` for the positive literal on variable v,
  ``-v`` for the negated one (1 <= v <= n).
* A term is a conjunction of literals over distinct variables, stored as a
  tuple sorted in canonical literal order (see :func:`lit_index`).
* An assignment (a "model" once it satisfies the formula) is an int mask whose
  binary expansion, zero padded to n digits, is the bit string x_1 x_2 ... x_n.
  Variable v therefore lives at bit position ``n - v``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

Term = tuple[int, ...]

BRUTE_FORCE_MAX_VARS = 24

#: mode tokens for avg.enum_avg, kept here because they are also the CLI
#: --mode values and a run that is not avg's does not load avg
MODE_SLOW = "t10"  # strip-and-reinsert on every branch
MODE_FAST = "t11"  # greedy re-rooting when raising a variable

#: largest alphabet the parsers accept: a header n above it is refused, so a
#: huge n fails as malformed input instead of exhausting memory
MAX_INPUT_VARS = 1 << 16


class DnfFormatError(ValueError):
    """Raised for malformed formula text, with a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


#: numbers as the file formats spell them: ASCII digits after an optional
#: sign.  int() alone would also take 1_0 or non-ASCII digits such as ３
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_INT_TOKENS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def parse_ints(tokens: list[str], lineno: int, line: str) -> list[int]:
    """The tokens of one input line as ints; a token that is not an ASCII
    signed integer raises DnfFormatError with the line number."""
    if _INT_TOKENS.fullmatch(" ".join(tokens)) is None:
        bad = next((t for t in tokens if _INT_TOKEN.fullmatch(t) is None), "")
        raise DnfFormatError(lineno, f"non-integer token {bad!r} in {line!r}")
    return list(map(int, tokens))


def lit_index(lit: int) -> int:
    """Rank of a literal in the canonical order -x1 < x1 < -x2 < x2 < ...

    The rank doubles as the edge symbol for term tries, so the alphabet of a
    formula on n variables has exactly 2n symbols.
    """
    if lit > 0:
        return 2 * lit - 1
    return -2 * lit - 2


def make_term(lits: Iterable[int]) -> Term:
    """Sort literals canonically and reject repeated or contradictory variables."""
    # over distinct variables the canonical order is the order of abs(), with
    # 0 first; a variable met twice sits next to its twin
    out = sorted(set(lits), key=abs)
    if out and out[0] == 0:
        raise ValueError("literal 0 is not allowed")
    if len(set(map(abs, out))) < len(out):
        v = next(abs(a) for a, b in zip(out, out[1:]) if a == -b)
        raise ValueError(f"variable {v} appears twice in one term")
    return tuple(out)


@dataclass(frozen=True)
class Dnf:
    """A DNF formula: a set of terms interpreted as their disjunction.

    Terms are deduplicated, keeping first occurrence order.  A formula that
    contains the empty term is a tautology over its n variables; the empty
    term absorbs every other term, so the canonical form is then exactly
    ``((),)``.  Variables that appear in no term are free: models are always
    full length-n assignments.
    """

    n: int
    terms: tuple[Term, ...]

    def __init__(self, n: int, terms: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError("n must be >= 0")
        seen: dict[Term, None] = {}  # a dict keeps the first occurrence order
        for raw in terms:
            t = make_term(raw)
            # canonical order puts the largest variable last
            if t and abs(t[-1]) > n:
                lit = next(lit for lit in t if abs(lit) > n)
                raise ValueError(f"literal {lit} out of range for n={n}")
            seen[t] = None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", ((),) if () in seen else tuple(seen))

    @property
    def m(self) -> int:
        return len(self.terms)

    @cached_property
    def size(self) -> int:
        """Total number of literals, the usual input size ||D||."""
        return sum(len(t) for t in self.terms)

    @cached_property
    def term_masks(self) -> tuple[tuple[int, int], ...]:
        """Per term (pos, neg) bit masks; a satisfies t iff a&pos==pos and a&neg==0."""
        out = []
        for t in self.terms:
            pos = neg = 0
            for lit in t:
                b = 1 << (self.n - abs(lit))
                if lit > 0:
                    pos |= b
                else:
                    neg |= b
            out.append((pos, neg))
        return tuple(out)

    def __repr__(self) -> str:
        return f"Dnf(n={self.n}, terms={list(self.terms)!r})"


def mask_from_bits(bits: str) -> int:
    """Parse a bit string like '110' into the int mask convention."""
    if bits == "":
        return 0
    if set(bits) - {"0", "1"}:
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def bits_from_mask(mask: int, n: int) -> str:
    return format(mask, f"0{n}b") if n else ""


def satisfies(d: Dnf, assignment: int) -> bool:
    """True iff the assignment mask is a model of d."""
    for pos, neg in d.term_masks:
        if assignment & pos == pos and not assignment & neg:
            return True
    return False


def brute_force_models(d: Dnf) -> set[int]:
    """All models of d by exhaustive scan of the 2^n assignments (see
    :func:`brute_force_bits`).  Refuses n > 24."""
    sat = brute_force_bits(d)
    # one 0/1 byte per assignment, 2^n - 1 first, for compress() to pick from
    picks = format(sat, f"0{1 << d.n}b").encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return set(compress(range((1 << d.n) - 1, -1, -1), picks))


def brute_force_bits(d: Dnf) -> int:
    """The models of d as a 2^n-bit int: bit a is set iff assignment a is one.

    The ground-truth oracle for tests and --check-oracle: it reads only
    ``d.terms`` and shares no logic with the enumerators.  A term's models
    are grown from the lowest assignment bit up: a free variable doubles
    the set, a positive literal shifts it, a negative one leaves it.  d's
    models are the OR of its terms'.  Refuses n > 24.
    """
    if d.n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_VARS}")
    sat = 0
    for t in d.terms:
        sign = {abs(lit): lit > 0 for lit in t}
        p = 1
        for i in range(d.n):  # bit i of an assignment is variable n - i
            if (s := sign.get(d.n - i)) is None:
                p |= p << (1 << i)
            elif s:
                p <<= 1 << i
        sat |= p
    return sat


def parse_rows(text: str, kind: str, make, min_n: int = 0):
    """Read the layout both file formats share and build ``make(n, rows)``.

    Blank lines and lines that start with ``c`` are skipped.  The first
    other line is the header ``p <kind> <n> <m>`` with
    ``min_n <= n <= MAX_INPUT_VARS`` and ``m >= 0``; it is followed by
    exactly m rows, each a line of integers whose only 0 ends it.  ``make``
    gets n and the rows without their 0s, and may refuse them with
    ValueError, which is then reported at the first row that it refuses on
    its own.  Every fault raises DnfFormatError with its line number.
    """
    header_line = 0  # line numbers start at 1, so 0 means not read yet
    rows: list[list[int]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if not header_line:
            if len(parts) != 4 or parts[0] != "p" or parts[1] != kind:
                raise DnfFormatError(lineno, f"expected 'p {kind} <n> <m>', got {line!r}")
            n, m = parse_ints(parts[2:], lineno, line)
            if n < min_n or m < 0:
                raise DnfFormatError(lineno, f"need n >= {min_n} and m >= 0")
            if n > MAX_INPUT_VARS:
                raise DnfFormatError(lineno, f"n exceeds the limit of {MAX_INPUT_VARS}")
            header_line = lineno
            continue
        if parts[0] == "p":
            raise DnfFormatError(lineno, "duplicate header")
        if len(rows) == m:
            raise DnfFormatError(lineno, f"more rows than the {m} the header announces")
        nums = parse_ints(parts, lineno, line)
        if nums[-1] != 0 or 0 in nums[:-1]:
            raise DnfFormatError(lineno, "a row must end with its only 0")
        rows.append(nums[:-1])
        linenos.append(lineno)
    if not header_line:
        raise DnfFormatError(1, f"missing 'p {kind}' header")
    if len(rows) != m:
        raise DnfFormatError(header_line, f"header announces {m} rows, found {len(rows)}")
    try:
        return make(n, rows)
    except ValueError:
        for lineno, row in zip(linenos, rows):
            try:
                make(n, [row])
            except ValueError as e:
                raise DnfFormatError(lineno, str(e)) from None
        raise


def dumps_rows(kind: str, n: int, rows: Iterable[Iterable[int]]) -> str:
    """The text that parse_rows reads back as n and rows under ``p <kind>``."""
    lines = [" ".join(map(str, (*row, 0))) for row in rows]
    return "\n".join([f"p {kind} {n} {len(lines)}", *lines, ""])


def parse_dnf(text: str) -> Dnf:
    """Parse the .dnf format: rows of nonzero literals under ``p dnf <n> <m>``, n >= 1."""
    return parse_rows(text, "dnf", Dnf, min_n=1)


def dumps_dnf(d: Dnf) -> str:
    """Serialize back to the .dnf format; parse(dumps(d)) == d."""
    return dumps_rows("dnf", d.n, d.terms)


def all_terms(n: int) -> Iterator[Term]:
    """Every nonempty term over n variables, in canonical trie order."""

    def rec(v: int, acc: list[int]) -> Iterator[Term]:
        if acc:
            yield tuple(acc)
        for w in range(v, n + 1):
            for lit in (-w, w):
                acc.append(lit)
                yield from rec(w + 1, acc)
                acc.pop()

    yield from rec(1, [])
