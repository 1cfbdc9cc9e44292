"""Command-line front end.

Three entry forms share one executable, the ``dnfenum`` console script;
``python -m dnfenum`` runs the same program with the same arguments:

* ``dnfenum [FILE] --algo NAME [flags]`` — enumerate the models of a .dnf
  formula (or the unions of a .sets family with ``--algo setunion``),
  streaming them to stdout.
* ``dnfenum gen --kind KIND --n N [--m M --k K --seed S]`` — write a
  reproducible random instance.
* ``dnfenum sweep --algo NAME --n N --sizes M1,M2,...`` — run one generated
  instance per size and emit a CSV of delay statistics.

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input (a
header n, or a gen/sweep --n, above ``MAX_INPUT_VARS`` = 2^16 counts as
malformed), an input the chosen algorithm refuses (``monotone-rs`` above
``RS_MAX_VARS`` = 4096 variables) or an unwritable output file, 4 oracle
mismatch under ``--check-oracle``, 5 out of memory (the one stderr line
names the algorithm and suggests ``--limit``), 141 stdout closed by its
reader (as in ``| head``; 128 + SIGPIPE, the status a shell reports for a
writer killed by that signal).  The last two end the run without a
traceback.

Output formats: ``bits`` prints one full bit string per model; ``flips``
prints the first model as a bit string and every later model as the
1-based positions in which it differs from its predecessor, which is
enough to replay the bits stream.  Gray-coded algorithms emit single-flip
lines; for the others a line may hold up to n positions.

With ``--stats``, one JSON record goes to stderr.  Delays are measured in
instrumented steps (wall_ns is informational only), and identical inputs,
flags, and seeds give identical step counts and byte-identical streams.

A command loads only its own modules: a run imports the module of its
``--algo`` and nothing for ``gen`` or ``sweep``, whatever its ``--format``,
``--stats``, ``--count`` or ``--limit``.  :func:`main` runs with the cyclic
garbage collector off, since nothing a run builds holds a reference cycle,
and turns it back on, if it was on, before it returns.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain
from operator import xor
from typing import Callable, Iterator

from .core import (
    BRUTE_FORCE_MAX_VARS,
    MODE_FAST,
    MODE_SLOW,
    Dnf,
    DnfFormatError,
    bits_from_mask,
    brute_force_bits,
    dumps_dnf,
    parse_dnf,
)
from .instrument import StepCounter, measure

ALGOS = (
    "term-gray",
    "union-priority",
    "union-ordered",
    "flashlight",
    "kdnf",
    "kdnf-hybrid",
    "avg",
    "monotone-rs",
    "monotone-avg",
    "monotone-log",
    "setunion",
)

GEN_KINDS = ("random", "monotone", "kdnf", "all-terms", "sets")

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_ORACLE = 4
EXIT_MEMORY = 5
EXIT_PIPE = 141

#: monotone-rs is charged about n^2 steps per output and keeps every model;
#: at n = 4096 its second output alone is charged 16.8M steps
RS_MAX_VARS = 4096


# -- enumerate ---------------------------------------------------------------


class _FlipLines(dict):
    """Maps the difference of two consecutive models to its flips line.

    Stores the line of each single-bit difference, the only kind a Gray
    step makes, the first time it is asked for; a difference of several
    bits, which non-Gray algorithms produce, is decoded bit by bit each
    time without being stored.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, diff: int) -> str:
        if diff and not diff & (diff - 1):
            line = self[diff] = str(self.n - diff.bit_length() + 1)
            return line
        pos = []
        while diff:
            b = diff & -diff
            pos.append(self.n - b.bit_length() + 1)
            diff ^= b
        pos.reverse()
        return " ".join(map(str, pos))


class _StreamWriter:
    """Formats each block of models from measure() in one pass, one write per block.

    ``bits`` gives each model its full bit string.  ``flips`` gives the first
    model of the run its bit string and every later model the ascending
    1-based positions in which it differs from its predecessor.  A block
    that is not a list is a Gray run (see ``instrument``); one that follows
    the last model written gives its lines itself (``flips_text``).  Any
    other block is looked up model by model in a :class:`_FlipLines` table
    that fills as the stream goes.
    Between blocks the writer keeps only the last model and that table.
    """

    def __init__(self, n: int, fmt: str, out):
        self.n = n
        self.out = out
        self.spec = f"0{n}b"
        self.prev: int | None = None
        self.flip_lines = _FlipLines(n) if fmt == "flips" else None

    def __call__(self, block) -> None:
        n = self.n
        if self.flip_lines is None:
            # format() pads to at least one digit, so n = 0 needs its own case
            lines = [format(m, self.spec) for m in block] if n else [""] * len(block)
        elif type(block) is not list and block.prev == self.prev:
            self.out.write(block.flips_text(n))
            self.prev = block.last
            return
        else:
            masks = block if type(block) is list else list(block)
            first = self.prev is None
            prev = masks[0] if first else self.prev
            lines = list(map(self.flip_lines.__getitem__, map(xor, masks, chain((prev,), masks))))
            if first:
                lines[0] = bits_from_mask(masks[0], n)
            self.prev = masks[-1]
        lines.append("")
        self.out.write("\n".join(lines))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _make_factory(args, obj) -> Callable[[StepCounter], Iterator[int]]:
    """Bind an algorithm to a parsed instance; raises ValueError on misuse.

    Each branch imports its algorithm's module, so a run loads only its own.
    """
    algo = args.algo
    if algo == "setunion":
        if isinstance(obj, Dnf):
            raise ValueError("--algo setunion needs a .sets family")
        from .setunion import enum_unions

        return lambda ctr: enum_unions(obj, counter=ctr)
    d = obj
    if not isinstance(d, Dnf):
        raise ValueError(f"--algo {algo} needs a .dnf formula")
    if algo == "term-gray":
        if d.m != 1:
            raise ValueError(f"--algo term-gray needs exactly one term, got {d.m}")
        from .graycode import enum_single_term_dnf

        return lambda ctr: enum_single_term_dnf(d, counter=ctr)
    if algo in ("union-priority", "union-ordered", "flashlight"):
        from . import classic

        fn = getattr(classic, "enum_" + algo.replace("-", "_"))
        return lambda ctr: fn(d, counter=ctr)
    if algo in ("kdnf", "kdnf-hybrid"):
        from .kdnf import KdnfConfig, enum_kdnf, enum_kdnf_hybrid

        wmax = max((len(t) for t in d.terms), default=1)
        if args.k is not None and args.k < wmax:
            raise ValueError(f"--k {args.k} is below the maximum term width {wmax}")
        cfg = KdnfConfig.for_width(args.k if args.k is not None else wmax)
        fn = enum_kdnf if algo == "kdnf" else enum_kdnf_hybrid
        return lambda ctr: fn(d, cfg, counter=ctr)
    if algo == "avg":
        from .avg import enum_avg

        return lambda ctr: enum_avg(d, args.mode, counter=ctr)
    if algo == "monotone-rs" and d.n > RS_MAX_VARS:
        raise ValueError(f"--algo monotone-rs needs n <= {RS_MAX_VARS}")
    from . import monotone

    # the monotone family accepts any unate formula: single-polarity
    # negative variables are flipped on the way in and the models on the
    # way out, which changes neither deltas nor step counts
    md, flip = monotone.normalize_unate(d)
    fn = getattr(monotone, "enum_" + algo.replace("-", "_"))
    # flip may be 0.  The generator expression calls fn at once, so the
    # enumerator's setup is still counted as precompute
    return lambda ctr: (mask ^ flip for mask in fn(md, counter=ctr))


class _OracleCheck:
    """A sink for measure() that folds each output into the outputs seen so
    far, then compares them with the brute-force oracle.

    A formula's outputs are bits of a 2^n-bit bytearray, a family's unions a
    set; an output that is already there is a duplicate.
    """

    def __init__(self, obj):
        self.obj = obj
        self.family = not isinstance(obj, Dnf)
        self.seen: set[int] | bytearray = set() if self.family else bytearray(((1 << obj.n) + 7) >> 3)
        self.stray = 0  # masks outside the 2^n assignments, all spurious
        self.dups = 0

    def __call__(self, block) -> None:
        dups = 0
        seen = self.seen
        if self.family:
            for u in block:
                if u in seen:
                    dups += 1
                else:
                    seen.add(u)
        else:
            n = self.obj.n
            for m in block:
                if m >> n:
                    self.stray += 1
                    continue
                byte = m >> 3
                bit = 1 << (m & 7)
                if seen[byte] & bit:
                    dups += 1
                else:
                    seen[byte] |= bit
        self.dups += dups

    def passed(self) -> bool:
        what = "unions" if self.family else "models"
        if self.dups:
            print(f"dnfenum: oracle mismatch: {self.dups} duplicate {what}", file=sys.stderr)
            return False
        if self.family:
            from .setunion import brute_force_unions

            expect = set(brute_force_unions(self.obj))
            missing = len(expect - self.seen)
            extra = len(self.seen - expect)
        else:
            got = int.from_bytes(self.seen, "little")
            expect = brute_force_bits(self.obj)
            missing = (expect & ~got).bit_count()
            extra = (got & ~expect).bit_count() + self.stray
        if missing or extra:
            print(
                f"dnfenum: oracle mismatch: {missing} missing and {extra} spurious {what}",
                file=sys.stderr,
            )
            return False
        return True


def _oracle_refusal(obj) -> str | None:
    """Why the brute-force oracle cannot check obj, or None if it can."""
    if not isinstance(obj, Dnf):
        from .setunion import ORACLE_MAX_SETS

        if obj.m > ORACLE_MAX_SETS:
            return f"--check-oracle needs m <= {ORACLE_MAX_SETS} sets"
    elif obj.n > BRUTE_FORCE_MAX_VARS:
        return f"--check-oracle needs n <= {BRUTE_FORCE_MAX_VARS}"
    return None


def _parse_enum_args(
    p: argparse.ArgumentParser, argv: list[str], ns: argparse.Namespace
) -> argparse.Namespace:
    """Add the flags that run and sweep share to p, parse argv into ns, and check them."""
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--mode", choices=(MODE_SLOW, MODE_FAST), default=MODE_FAST,
                   help="branching strategy for --algo avg")
    p.add_argument("--k", type=int, default=None,
                   help="width bound for --algo kdnf and kdnf-hybrid")
    p.add_argument("--limit", type=int, default=None, help="stop after this many models")
    p.add_argument("--check-oracle", action="store_true",
                   help="verify the output against the brute-force oracle")
    args = p.parse_args(argv, ns)
    if args.limit is not None and args.limit < 0:
        p.error("--limit must be >= 0")
    if args.check_oracle and args.limit is not None:
        p.error("--check-oracle needs the full stream, not --limit")
    return args


def _cmd_run(argv: list[str], ns: argparse.Namespace) -> int:
    p = argparse.ArgumentParser(
        prog="dnfenum",
        description="Enumerate the models of a DNF formula (or the unions of a set family).",
    )
    p.add_argument("file", nargs="?", default="-", help="input file, '-' for stdin")
    p.add_argument("--count", action="store_true", help="print only the model count")
    p.add_argument("--stats", action="store_true", help="emit a JSON stats record to stderr")
    p.add_argument("--format", choices=("bits", "flips"), default="bits")
    args = _parse_enum_args(p, argv, ns)

    try:
        text = _read_input(args.file)
    except (OSError, UnicodeDecodeError) as e:
        print(f"dnfenum: cannot read {args.file}: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.algo == "setunion":
            from .setunion import parse_sets

            obj = parse_sets(text)
        else:
            obj = parse_dnf(text)
        factory = _make_factory(args, obj)
    except (DnfFormatError, ValueError) as e:
        print(f"dnfenum: {e}", file=sys.stderr)
        return EXIT_INPUT
    if args.check_oracle and (why := _oracle_refusal(obj)):
        print(f"dnfenum: {why}", file=sys.stderr)
        return EXIT_INPUT

    writer = None if args.count else _StreamWriter(obj.n, args.format, sys.stdout)
    check = _OracleCheck(obj) if args.check_oracle else None
    sink = writer or check
    if writer and check:

        def sink(block) -> None:
            writer(block)
            check(block)

    _, stats = measure(factory, limit=args.limit, collect=False, sink=sink)
    if args.count:
        print(stats.n_models)
    if args.stats:
        print(stats.to_json(), file=sys.stderr)
    if check is not None and not check.passed():
        return EXIT_ORACLE
    return 0


# -- gen ---------------------------------------------------------------------


def _write_output(path: str, text: str) -> int:
    """Write text to path ("-" for stdout); returns the exit code."""
    if path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        print(f"dnfenum: cannot write {path}: {e}", file=sys.stderr)
        return EXIT_INPUT
    return 0


def _cmd_gen(argv: list[str]) -> int:
    from .instances import generate
    from .setunion import SetFamily, dumps_sets

    p = argparse.ArgumentParser(prog="dnfenum gen", description="Generate a random instance.")
    p.add_argument("--kind", required=True, choices=GEN_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=3, help="width bound for --kind kdnf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default="-")
    args = p.parse_args(argv)
    if args.m is None and args.kind != "all-terms":
        p.error(f"--kind {args.kind} needs --m")
    try:
        if args.kind != "sets" and args.n < 1:
            raise ValueError("the .dnf format needs n >= 1")
        obj = generate(args.kind, args.n, args.m, k=args.k, seed=args.seed)
    except ValueError as e:
        print(f"dnfenum: {e}", file=sys.stderr)
        return EXIT_INPUT
    return _write_output(args.out, dumps_sets(obj) if isinstance(obj, SetFamily) else dumps_dnf(obj))


# -- sweep -------------------------------------------------------------------


def _default_kind(algo: str) -> str:
    if algo == "setunion":
        return "sets"
    if algo.startswith("monotone"):
        return "monotone"
    if algo in ("kdnf", "kdnf-hybrid"):
        return "kdnf"
    return "random"


def _cmd_sweep(argv: list[str], ns: argparse.Namespace) -> int:
    import csv
    import io

    from .instances import generate

    p = argparse.ArgumentParser(
        prog="dnfenum sweep",
        description="Generate one instance per size, enumerate, and emit CSV delay stats.",
    )
    p.add_argument("--kind", choices=GEN_KINDS, default=None,
                   help="instance family (default chosen from --algo)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated m values; empty string for a header-only CSV")
    p.add_argument("--seed", type=int, default=0, help="instance i uses seed+i")
    p.add_argument("-o", "--out", default="-")
    args = _parse_enum_args(p, argv, ns)
    kind = args.kind if args.kind is not None else _default_kind(args.algo)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        p.error(f"bad --sizes value {args.sizes!r}")

    rows = []
    for i, m in enumerate(sizes):
        genk = args.k if args.k is not None else 3
        try:
            obj = generate(kind, args.n, m, k=genk, seed=args.seed + i)
            factory = _make_factory(args, obj)
        except ValueError as e:
            print(f"dnfenum: size {m}: {e}", file=sys.stderr)
            return EXIT_INPUT
        if args.check_oracle and (why := _oracle_refusal(obj)):
            print(f"dnfenum: {why}", file=sys.stderr)
            return EXIT_INPUT
        check = _OracleCheck(obj) if args.check_oracle else None
        _, stats = measure(factory, limit=args.limit, collect=False, sink=check)
        if check is not None and not check.passed():
            print(f"dnfenum: sweep failed at size {m}", file=sys.stderr)
            return EXIT_ORACLE
        rows.append(
            (m, args.n, stats.n_models, stats.avg_delay_steps, stats.max_delay_steps, stats.wall_ns)
        )

    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["m", "n", "n_models", "avg_delay_steps", "max_delay_steps", "wall_ns"])
    w.writerows(rows)
    return _write_output(args.out, out.getvalue())


def __getattr__(name: str):
    # generate is gen's and sweep's: a run does not load instances for it
    if name == "generate":
        from .instances import generate

        return generate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    ns = argparse.Namespace(algo=None)  # run and sweep parse into it; gen leaves it
    # what a run builds holds no reference cycle, so the cyclic collector
    # would only walk the growing trie again and again for nothing
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args[:1] == ["gen"]:
            code = _cmd_gen(args[1:])
        elif args[:1] == ["sweep"]:
            code = _cmd_sweep(args[1:], ns)
        else:
            code = _cmd_run(args, ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly, and point stdout at
        # the null device so that the flush at interpreter exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except MemoryError:
        pass  # reported below, once the traceback has let the run's memory go
    else:
        return code
    finally:
        if gc_was_enabled:
            gc.enable()
    # name the algorithm, if the command has one (gen has none)
    hint = f" in --algo {ns.algo}; --limit N stops the run after N models" if ns.algo else ""
    print(f"dnfenum: out of memory{hint}", file=sys.stderr)
    return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
