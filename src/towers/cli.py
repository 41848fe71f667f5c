"""Command-line front end.

Subcommands: enumerate, series, eliminate, guess, extend, asympt, render,
verify.  Everything is deterministic for fixed inputs and flags; big
integers always travel as decimal strings.  Each command parses its flags,
calls the library and formats the result; which route computes a series,
solved or unrolled, in t or by pieces, is `series`' choice.  Every
input, a file or stdin ("-"), is read as strict UTF-8, and every sequence
with exact `DecimalInt` terms (`jsonio.sequence_from_json`).

Each run starts a fresh interpreter, so start-up is part of every command's
cost.  At module level this executes only the standard library, `errors`
and `model` (the parser's choices).  The modules the commands run are
imported here too, but the package serves them lazily: each executes at
its first attribute access, so `--help` runs neither `jsonio` nor any
solver, and `guess` and `extend` run no series, algebra or enumeration
code.  `main` opens the one writer, `_written_on_success`, and every
command writes into it: the text replaces `--out` (which keeps its
permission bits) or reaches stdout, a device or a FIFO only once the
command returns, and a command that raises leaves them as they were.

Exit codes, all mapped in `main`: 0 success, 2 argument or configuration
error, 3 a recurrence guess came back empty, 4 a recurrence hit a
vanishing leading coefficient, 5 an internal consistency check failed
(`verify` still writes its report).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator, TextIO

from . import algebra, asymptotics, enumeration, gallery, identities, jsonio, recurrences, series
from .errors import (ConsistencyError, DegreeCapError, InconsistentRecurrenceError,
                     SingularRecurrenceError, UnsupportedConfigurationError)
from .model import PieceSet, Rule, Sequence, Shape

def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse sizes {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("at least one piece size is required")
    return sizes


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers >= low; its message follows the flag's name."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _piece_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sizes", type=_parse_sizes, required=True,
                        help="comma-separated piece sizes, e.g. 1,2,3")
    parser.add_argument("--rule", choices=[rule.value for rule in Rule], default="all",
                        help="interface rule (default: all)")
    parser.add_argument("--shape", choices=[shape.value for shape in Shape], default="tower",
                        help="shape class (default: tower)")


def _piece_set(args: argparse.Namespace) -> PieceSet:
    return PieceSet(args.sizes, Rule(args.rule))


@contextlib.contextmanager
def _input(path: str, seekable: bool = False) -> Iterator[TextIO]:
    """The file at path, or stdin for "-", read as strict UTF-8.

    Bad JSON or bytes that are not UTF-8 are a ValueError naming path.  With
    seekable, a stdin that cannot seek is first copied to a temporary file.
    """
    try:
        if path != "-":
            with open(path, "r", encoding="utf-8") as handle:
                yield handle
        elif not seekable or sys.stdin.seekable():
            handle = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")  # whatever stdin's errors
            try:
                yield handle
            finally:
                handle.detach()  # and stdin stays open
        else:
            with tempfile.TemporaryFile() as spool:
                shutil.copyfileobj(sys.stdin.buffer, spool)
                spool.seek(0)
                yield io.TextIOWrapper(spool, encoding="utf-8")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_json(path: str) -> dict:
    """The JSON document at path, or on stdin for "-"; a parse error names the path."""
    with _input(path) as handle:
        return json.load(handle)


@contextlib.contextmanager
def _written_on_success(out: str | None) -> Iterator[TextIO]:
    """A text handle whose output reaches out, or stdout for None, only if the block succeeds.

    A missing or regular out is written to a temporary beside its resolved
    path (a symlink is kept; a hard link and the owner are not), which gets
    an existing out's permission bits as it is made (a new out gets the
    mode open(out, "w") gives) and is renamed over out at the end.  Stdout,
    or a device or FIFO out, is spooled to an anonymous temporary file and
    copied in at the end.  On any exception the temporary is removed, and
    out and stdout are as before.  A directory out raises before the block.
    """
    if out and os.path.isdir(out):  # as a missing directory does, before the command runs
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if not out or (os.path.exists(out) and not os.path.isfile(out)):
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as handle:
                shutil.copyfileobj(spool, handle)
        return
    target = Path(out).resolve()
    temp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
    except OSError as exc:  # named by out, not by the temporary
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(target, temp)
            yield handle
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


class _NoRecurrence(Exception):
    """`guess` found no recurrence within its bounds: exit 3."""


def cmd_enumerate(args: argparse.Namespace, out: TextIO) -> int:
    pieces = _piece_set(args)
    shape = Shape(args.shape)
    if args.area is not None:
        kind, bound = enumeration.BoundKind.BY_AREA, args.area
    else:
        kind, bound = enumeration.BoundKind.BY_PIECE_COUNT, args.pieces
    query = enumeration.EnumerationQuery(pieces, shape, kind, bound)
    if args.list:
        for tower in enumeration.enumerate_towers(query):
            out.write(jsonio.tower_to_json(tower.to_lists()) + "\n")
        return 0
    if args.weighted:
        table = enumeration.weight_polynomial(query)
        out.write(jsonio.dumps(jsonio.weight_table_to_json(table, pieces.sizes)))
        return 0
    counts = enumeration.count_towers(query)
    if args.format == "csv":
        out.write(jsonio.counts_to_csv(counts))
    elif args.format == "text":
        out.write(jsonio.counts_to_text(counts))
    else:
        out.write(jsonio.dumps(jsonio.counts_to_json(kind, counts)))
    return 0


def cmd_series(args: argparse.Namespace, out: TextIO) -> int:
    pieces = _piece_set(args)
    shape = Shape(args.shape)
    if args.weighted:
        table = series.weighted_series(pieces, args.order, shape)
        out.write(jsonio.dumps(jsonio.weighted_series_to_json(table)))
        return 0
    if args.by_pieces:  # n pieces cover at most n times the largest size
        terms = series.piece_count_sequence(pieces, args.order // pieces.max_size, shape)
    else:
        plain = series.plain_series(pieces, shape, args.order)
        if args.format == "json":
            out.write(jsonio.dumps(jsonio.series_to_json(plain)))
            return 0
        terms = plain.coeffs
    if not terms:
        raise UnsupportedConfigurationError(
            f"order {args.order} is too small for even one piece of the largest size")
    seq = Sequence(1 if args.by_pieces else 0, tuple(terms))
    if args.format == "csv":
        out.write(jsonio.sequence_to_csv(seq))
    elif args.format == "text":
        out.write(jsonio.sequence_to_text(seq))
    else:
        out.write(jsonio.dumps(jsonio.sequence_to_json(seq)))
    return 0


def cmd_eliminate(args: argparse.Namespace, out: TextIO) -> int:
    pieces = _piece_set(args)
    shape = Shape(args.shape)
    algebra.check_degree_cap(pieces)
    truncated = series.series_family(pieces, args.order, through=shape)[shape]
    poly = algebra.annihilating_polynomial(pieces, shape, truncated)
    out.write(jsonio.dumps(jsonio.polynomial_to_json(poly)))
    return 0


def cmd_guess(args: argparse.Namespace, out: TextIO) -> int:
    seq = jsonio.sequence_from_json(_load_json(args.input))
    rec = recurrences.guess_recurrence(seq, args.max_order, args.max_degree, args.guard)
    if rec is None:
        raise _NoRecurrence("no recurrence found within the order/degree bounds")
    out.write(jsonio.dumps(jsonio.recurrence_to_json(rec)))
    return 0


def cmd_extend(args: argparse.Namespace, out: TextIO) -> int:
    rec = jsonio.recurrence_from_json(_load_json(args.rec))
    init = jsonio.sequence_from_json(_load_json(args.init))
    # unrolled a window at a time and written as made, so memory does not grow with --terms
    jsonio.dump_sequence(init, out, recurrences.extended_terms(rec, init, args.terms))
    return 0


def cmd_asympt(args: argparse.Namespace, out: TextIO) -> int:
    # The estimate reads only the tail: every term is checked, but only the
    # tail is kept, so memory does not grow with the file.  The depth sizes
    # that tail, and a bad one exits before any input is read.
    count = asymptotics.minimum_terms(args.depth)
    with _input(args.input, seekable=True) as handle:
        seq = jsonio.sequence_tail(handle, count)
    est = asymptotics.estimate_asymptotics(seq, depth=args.depth)
    out.write(jsonio.dumps(jsonio.estimate_to_json(est)))
    return 0


def cmd_render(args: argparse.Namespace, out: TextIO) -> int:
    gallery.render_gallery(_piece_set(args), Shape(args.shape), args.pieces, out)
    return 0


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    results = identities.verify_identities(max_area=args.max_area, max_pieces=args.max_pieces)
    out.write(jsonio.dumps(jsonio.report_to_json(results)))
    return 0 if all(r.passed for r in results) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towers",
        description="Exact enumeration of towers built from 1xk horizontal pieces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="brute-force counts (the oracle)")
    _piece_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pieces", type=_positive_int, help="bound by piece count")
    group.add_argument("--area", type=_positive_int, help="bound by total area")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--weighted", action="store_true", help="emit weight polynomials by area")
    output.add_argument("--list", action="store_true", help="emit towers, one JSON array per line")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate, usage_error=p.error)

    p = sub.add_parser("series", help="generating-function coefficients")
    _piece_args(p)
    p.add_argument("--order", type=_non_negative_int, default=200, help="series order (default: 200)")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--weighted", action="store_true", help="track z-markers per piece size")
    output.add_argument("--by-pieces", action="store_true",
                        help="emit the per-piece-count sequence instead of t-coefficients")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_series, usage_error=p.error)

    p = sub.add_parser("eliminate", help="polynomial annihilating the series")
    _piece_args(p)
    p.add_argument("--order", type=_non_negative_int, default=200,
                   help="series order for verifying the annihilator (default: 200)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("guess", help="guess a linear recurrence from a sequence")
    p.add_argument("--input", required=True, help="sequence JSON path, or - for stdin")
    p.add_argument("--max-order", type=_positive_int, default=5)
    p.add_argument("--max-degree", type=_non_negative_int, default=6)
    p.add_argument("--guard", type=_non_negative_int, default=10, help="held-out trailing terms")
    p.add_argument("--out")
    p.set_defaults(func=cmd_guess)

    p = sub.add_parser("extend", help="unroll a recurrence to many terms")
    p.add_argument("--rec", required=True, help="recurrence JSON path")
    p.add_argument("--init", required=True, help="initial-terms sequence JSON path")
    p.add_argument("--terms", type=_positive_int, required=True, help="target length")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("asympt", help="empirical growth estimate from a sequence")
    p.add_argument("--input", required=True, help="sequence JSON path, or - for stdin")
    p.add_argument("--depth", type=_non_negative_int, default=4, help="extrapolation depth (default: 4)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_asympt)

    p = sub.add_parser("render", help="SVG gallery of all towers with n pieces")
    _piece_args(p)
    p.add_argument("--pieces", type=_positive_int, required=True, help="exact piece count")
    p.add_argument("--out", help="output SVG path (default: stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the cross-module identity suite")
    p.add_argument("--max-area", type=_positive_int, default=12)
    p.add_argument("--max-pieces", type=_positive_int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # checks across flags, reported by the subcommand's parser as argparse reports its own
    json_only = [flag for flag in ("weighted", "list") if getattr(args, flag, False)]
    if json_only and args.format != "json":
        args.usage_error(f"argument --format: --{json_only[0]} prints JSON only, "
                         f"not --format {args.format}")
    if getattr(args, "weighted", False) and getattr(args, "pieces", None) is not None:
        args.usage_error("argument --weighted: weight polynomials are by area, use --area, not --pieces")
    try:
        with _written_on_success(args.out) as out:
            return args.func(args, out)
    except _NoRecurrence as exc:
        print(exc, file=sys.stderr)
        return 3
    except SingularRecurrenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InconsistentRecurrenceError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    # MalformedInputError, UnsupportedConfigurationError and JSONDecodeError are ValueErrors
    except (ValueError, OSError, DegreeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
