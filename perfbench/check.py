"""Independent checker for the program's output streams.

It decodes a ``bits`` or ``flips`` stream and tests every output against the
formula or set family with an evaluator of its own, sharing no code with the
package.  A stream passes when every output is a model (or an achievable
union), no output repeats, the count equals the expected count, and, where
the algorithm promises it, the outputs ascend.

:func:`check_stream` returns ``None`` for a good stream and a one-line reason
otherwise.
"""

from __future__ import annotations

import numpy as np

#: widest formula whose outputs fit int64 masks
VECTOR_MAX_N = 62


class StreamError(Exception):
    pass


# -- decoding ------------------------------------------------------------------


def _lines(data: bytes) -> list[bytes]:
    if not data:
        return []
    if not data.endswith(b"\n"):
        raise StreamError("stream does not end with a newline (truncated?)")
    return data[:-1].split(b"\n")


def _bits_value(line: bytes, n: int) -> int:
    if len(line) != n or line.strip(b"01"):
        raise StreamError(f"bad bit string {line[:80]!r}")
    return int(line, 2)


def _positions(line: bytes, n: int) -> list[int]:
    try:
        pos = [int(x) for x in line.split()]
    except ValueError:
        raise StreamError(f"bad flips line {line[:80]!r}") from None
    if not pos or any(not 1 <= p <= n for p in pos) or len(set(pos)) != len(pos):
        raise StreamError(f"bad flips line {line[:80]!r}")
    return pos


def decode_int64(data: bytes, fmt: str, n: int) -> np.ndarray:
    """All masks of a stream over at most VECTOR_MAX_N variables."""
    lines = _lines(data)
    if not lines:
        return np.zeros(0, dtype=np.int64)
    weights = np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)
    if fmt == "bits":
        raw = np.frombuffer(data, dtype=np.uint8)
        if raw.size % (n + 1):
            raise StreamError("bit lines of unequal length")
        grid = raw.reshape(-1, n + 1)
        if (grid[:, n] != ord("\n")).any() or ((grid[:, :n] | 1) != ord("1")).any():
            raise StreamError("malformed bit line")
        return (grid[:, :n] - ord("0")).astype(np.int64) @ weights
    first = _bits_value(lines[0], n)
    rest = b"\n".join(lines[1:])
    if len(lines) == 1:
        return np.array([first], dtype=np.int64)
    # one 0 token closes each flips line; a line with no position is an error
    try:
        tok = np.array(rest.replace(b"\n", b" 0 ").split() + [b"0"], dtype=np.int64)
    except ValueError:
        raise StreamError("non-integer token in flips stream") from None
    ends = np.flatnonzero(tok == 0)
    if ends.size != len(lines) - 1 or (np.diff(ends, prepend=-1) < 2).any():
        raise StreamError("empty flips line")
    if ((tok < 0) | (tok > n)).any():
        raise StreamError("flip position out of range")
    keep = tok > 0
    line_of = (np.cumsum(tok == 0) - (tok == 0))[keep]
    pos = tok[keep]
    # a position repeated inside one line would cancel out in the xor
    if np.unique(line_of * (n + 1) + pos).size != pos.size:
        raise StreamError("repeated position in a flips line")
    delta = np.zeros(ends.size, dtype=np.int64)
    np.bitwise_xor.at(delta, line_of, weights[pos - 1])
    return np.concatenate(([first], first ^ np.bitwise_xor.accumulate(delta)))


# -- evaluators ----------------------------------------------------------------


def _term_masks(n: int, terms) -> list[tuple[int, int]]:
    out = []
    for t in terms:
        pos = neg = 0
        for lit in t:
            if lit > 0:
                pos |= 1 << (n - lit)
            else:
                neg |= 1 << (n + lit)
        out.append((pos, neg))
    return out


def non_models_int64(masks: np.ndarray, n: int, terms) -> int:
    """Number of masks that satisfy no term."""
    pending = masks
    for pos, neg in _term_masks(n, terms):
        if not pending.size:
            break
        hit = (pending & pos == pos) & (pending & neg == 0)
        pending = pending[~hit]
    return int(pending.size)


def model_count_small(n: int, terms) -> int:
    """Exact model count through a 2^n truth table (n up to 26)."""
    table = np.zeros(1 << n, dtype=bool)
    for pos, neg in _term_masks(n, terms):
        free = [1 << b for b in range(n) if not (pos | neg) >> b & 1]
        idx = np.array([pos], dtype=np.int64)
        for f in free:
            idx = np.concatenate((idx, idx | f))
        table[idx] = True
    return int(np.count_nonzero(table))


def _achievable_unions(masks: list[int]) -> set[int]:
    out: set[int] = set()
    for s in masks:
        out |= {u | s for u in out}
        out.add(s)
    return out


def _set_masks(n: int, sets) -> list[int]:
    out = []
    for s in sets:
        mk = 0
        for e in s:
            mk |= 1 << (n - e)
        out.append(mk)
    return out


# -- entry point ---------------------------------------------------------------


def check_stream(
    data: bytes,
    fmt: str,
    kind: str,
    n: int,
    rows,
    *,
    limit: int | None,
    ascending: bool,
) -> str | None:
    """None if `data` is a correct stream for the instance, else the reason.

    `kind` is ``dnf`` (rows are signed terms) or ``sets`` (rows are element
    tuples).  Without `limit` the count must equal the exhaustive total;
    with it, min(limit, total).
    """
    try:
        if kind == "sets":
            return _check_sets(data, fmt, n, rows, limit, ascending)
        return _check_dnf(data, fmt, n, rows, limit, ascending)
    except StreamError as e:
        return str(e)


def _expect(total_at_least: int, limit: int | None, exact) -> int:
    if limit is not None and total_at_least >= limit:
        return limit
    total = exact()
    return total if limit is None else min(limit, total)


def _check_dnf(data, fmt, n, terms, limit, ascending) -> str | None:
    wmin = min((len(t) for t in terms), default=None)
    lower = 0 if wmin is None else 1 << (n - wmin)
    if n > VECTOR_MAX_N:
        raise ValueError(f"formulas are checked for n <= {VECTOR_MAX_N}, got n={n}")
    masks = decode_int64(data, fmt, n)
    count = int(masks.size)
    if ascending and count > 1 and (np.diff(masks) <= 0).any():
        return "outputs do not ascend"
    if np.unique(masks).size != count:
        return "an output repeats"
    bad = non_models_int64(masks, n, terms)
    if bad:
        return f"{bad} outputs are not models"
    want = _expect(lower, limit, lambda: model_count_small(n, terms))
    if count != want:
        return f"{count} outputs, expected {want}"
    return None


def _check_sets(data, fmt, n, sets, limit, ascending) -> str | None:
    masks = _set_masks(n, sets)
    targets = _achievable_unions(masks)
    prev = None
    count = 0
    seen: set[int] = set()
    for ln in _lines(data):
        if fmt == "bits" or prev is None:
            u = _bits_value(ln, n)
        else:
            u = prev
            for p in _positions(ln, n):
                u ^= 1 << (n - p)
        count += 1
        if u not in targets:
            return f"output {count} is not a union of the family"
        if u in seen:
            return f"output {count} repeats an earlier one"
        if ascending and prev is not None and u <= prev:
            return "outputs do not ascend"
        seen.add(u)
        prev = u
    want = len(targets) if limit is None else min(limit, len(targets))
    if count != want:
        return f"{count} outputs, expected {want}"
    return None
