"""Command line interface.

Subcommands: classify, enumerate, count, table, series, verify.  Output
is deterministic: identical arguments and seed give byte-identical
stdout.  Exit codes: 0 success, 1 verification or consistency failure,
2 usage or input errors, 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as in ``purecross enumerate --n 9 | head -1``.

Every command takes bounded work, and a size above its limit exits 2.
``enumerate --n``, ``count --n`` and ``verify --max-n`` are at most 12;
on 2 CPUs (a faster host than the one that timed ``table`` and
``series`` below), ``enumerate --n 12`` (4,213,597 lines) took 26 s,
``count --n 12 --class co`` 0.9 s and ``verify --max-n 12`` 15 s,
against 26 s for ``verify --max-n 13``.
``verify --weighted-trials`` is at most 250; each trial costs about
15 ms at the default depth and 45 ms from ``--max-n 9`` on, so on the
same host ``verify`` took 1.3 s with the default 20 trials and 4.8 s
with 250, and ``verify --max-n 12`` 15 s with 20 and 25 s with 250.
``table --max-n`` is at most 350 and ``series --order`` at most 250.
Their cost grows about as the fourth power of the size, since the number
of integer products is cubic and their digits grow with the size too.
``series`` cost also grows with the lcm of the denominators of the
weights that reach it (those on partitions of at most ``--order``
atoms), and that lcm has at most 6 digits.  On 2 CPUs, ``table --max-n
350`` took 3.4 s, and ``series --which D --order 250`` 2.5 s unweighted,
5.1 s with denominators 2, 13 and 9, and 10-12 s with a 6-digit lcm,
against 18 s with 8 digits and 31 s with 12.  The numerators of those
weights have at most 30 digits, which also keeps every coefficient
printable (Python converts ints of at most 4,300 digits to text): with
one weight of 30 digits, ``series --which D --order 250`` took 5.0 s,
and 17.8 s with a 6-digit denominator under it, against 11.8 s for a
7-digit numerator over the same denominator; with an 80-digit weight it
ran 9.7 s and then could not print its result.
"""

import argparse
import json
import os
import sys
from math import lcm

from .bijections import WeightAssignment
from .enumeration import PartitionClass, count, iterate
from .partition import ParseError, Partition, PartitionError
from .pipeline import (
    bell_series,
    counts_table,
    derive_a_from_b,
    derive_b_from_c,
    derive_c_from_d,
    forward_weighted,
)
from .series import Series, render_text
from .verify import run_checks

_CLASS_CHOICES = [cls.value for cls in PartitionClass]

# Largest accepted sizes (see the module docstring).
_TABLE_MAX_N = 350
_SERIES_MAX_ORDER = 250
_SERIES_MAX_DEN_DIGITS = 6  # of the lcm of the weights' denominators
_SERIES_MAX_NUM_DIGITS = 30  # of each weight's numerator
_ENUMERATE_MAX_N = 12
_COUNT_MAX_N = 12
_VERIFY_MAX_N = 12
_VERIFY_MAX_TRIALS = 250


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purecross",
        description="Classify, enumerate, and count purely crossing set "
        "partitions and their relatives; evaluate the associated "
        "generating functions exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the predicates and cover of one partition")
    p.add_argument("partition", help="partition text, e.g. '1,3|2,4'")

    p = sub.add_parser("enumerate", help="stream every member of a family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="cls", choices=_CLASS_CHOICES, default="all")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("count", help="exact family size by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="cls", choices=_CLASS_CHOICES, default="all")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("table", help="family sizes for n = 1 .. max-n via the series pipeline")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")

    p = sub.add_parser("series", help="coefficients of one of the four counting series")
    p.add_argument("--which", choices=["A", "B", "C", "D"], required=True)
    p.add_argument("--order", type=int, default=15)
    p.add_argument(
        "--weights",
        metavar="FILE",
        help="JSON weight assignment on purely crossing partitions "
        "(unassigned ones weigh 1)",
    )
    p.add_argument("--format", choices=["plain", "tsv", "json"], default="plain")

    p = sub.add_parser("verify", help="run the library's invariant suite")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--weighted-trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _bad_size(flag: str, value: int, limit: int):
    """Exit code 2, with a message, for a size below 1 or above ``limit``;
    None for a size in range."""
    if value < 1:
        return _fail(f"{flag} must be at least 1")
    if value > limit:
        return _fail(f"{flag} must be at most {limit}")
    return None


def _fail_parse(exc: ParseError) -> int:
    print("error: invalid partition text", file=sys.stderr)
    print(f"  {exc.text}", file=sys.stderr)
    print(f"  {' ' * exc.pos}^ {exc}", file=sys.stderr)
    return 2


def _cmd_classify(args) -> int:
    try:
        pi = Partition.parse(args.partition)
    except ParseError as exc:
        return _fail_parse(exc)
    except PartitionError as exc:
        return _fail(str(exc))
    obj = {
        "partition": str(pi),
        "n": pi.n,
        "noncrossing": pi.is_noncrossing(),
        "has_neighbors": pi.has_neighbors(),
        "connected": pi.is_connected(),
        "pc_plus": pi.is_pc_plus(),
        "purely_crossing": pi.is_purely_crossing(),
        "cover": str(pi.noncrossing_cover()),
    }
    print(json.dumps(obj))
    return 0


def _cmd_enumerate(args) -> int:
    if code := _bad_size("--n", args.n, _ENUMERATE_MAX_N):
        return code
    members = iterate(args.n, PartitionClass(args.cls))
    if args.format == "json":
        # The bytes of json.dumps on the list, written one member at a
        # time so that memory stays flat.
        sep = "["
        for pi in members:
            print(f'{sep}"{pi}"', end="")
            sep = ", "
        print("[]" if sep == "[" else "]")
    else:
        for pi in members:
            print(pi)
    return 0


def _cmd_count(args) -> int:
    if code := _bad_size("--n", args.n, _COUNT_MAX_N):
        return code
    if args.workers < 1:
        return _fail("--workers must be at least 1")
    print(count(args.n, PartitionClass(args.cls), workers=args.workers))
    return 0


def _cmd_table(args) -> int:
    if code := _bad_size("--max-n", args.max_n, _TABLE_MAX_N):
        return code
    try:
        table = counts_table(args.max_n)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(table.to_json()))
    else:
        print(table.to_tsv())
    return 0


def _cmd_series(args) -> int:
    if code := _bad_size("--order", args.order, _SERIES_MAX_ORDER):
        return code
    order = args.order
    w = WeightAssignment()
    if args.weights is not None:
        try:
            with open(args.weights, encoding="utf-8") as handle:
                data = json.load(handle)
            w = WeightAssignment.from_json(data)
        except OSError as exc:
            return _fail(f"cannot read weights file: {exc}")
        except (ValueError, PartitionError) as exc:
            return _fail(f"bad weights file: {exc}")
        reaching = [weight for pi, weight in w.items() if pi.n <= order]
        if lcm(*(weight.denominator for weight in reaching)) >= 10**_SERIES_MAX_DEN_DIGITS:
            return _fail(
                f"the lcm of the weights' denominators must have at most "
                f"{_SERIES_MAX_DEN_DIGITS} digits"
            )
        if any(abs(weight.numerator) >= 10**_SERIES_MAX_NUM_DIGITS for weight in reaching):
            return _fail(
                f"the weights' numerators must have at most {_SERIES_MAX_NUM_DIGITS} digits"
            )
    # A holds |PC_n|; an assigned weight replaces its partition's default 1.
    a = derive_a_from_b(derive_b_from_c(derive_c_from_d(bell_series(order + 1))))
    coeffs = list(a.coeffs)
    for pi, weight in w.items():
        if pi.n <= order:
            coeffs[pi.n] += weight - 1
    a = Series(coeffs, order=order)
    # B, C and D come from the forward pass, which A does not need.
    chosen = a if args.which == "A" else forward_weighted(a)["BCD".index(args.which)]
    if args.format == "json":
        print(json.dumps([str(v) for v in chosen.coeffs]))
    elif args.format == "tsv":
        for k, v in enumerate(chosen.coeffs):
            print(f"{k}\t{v}")
    else:
        print(render_text(chosen))
    return 0


def _cmd_verify(args) -> int:
    if code := _bad_size("--max-n", args.max_n, _VERIFY_MAX_N):
        return code
    if code := _bad_size("--weighted-trials", args.weighted_trials, _VERIFY_MAX_TRIALS):
        return code
    ok = run_checks(max_n=args.max_n, trials=args.weighted_trials, seed=args.seed)
    return 0 if ok else 1


_HANDLERS = {
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "table": _cmd_table,
    "series": _cmd_series,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    return _HANDLERS[args.command](args)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Quiet the flush at exit (SIGPIPE note, ``signal`` docs); 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
