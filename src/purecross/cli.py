"""Command line interface.

Subcommands: classify, enumerate, count, table, series, verify.  Output
is deterministic: identical arguments and seed give byte-identical
stdout.  Exit codes: 0 success, 1 verification or consistency failure,
2 usage or input errors, 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as in ``purecross enumerate --n 9 | head -1``.

Every command takes bounded work.  ``enumerate --n``, ``count --n`` and
``verify --max-n`` are at most 12, ``verify --weighted-trials`` at most
250, ``table --max-n`` at most 350 and ``series --order`` at most 250;
``count --workers`` has no upper limit.  ``series`` also refuses weights
that reach its order (those on partitions of at most ``--order`` atoms)
when the lcm of their denominators has more than 6 digits or a numerator
more than 30.  Every size is an int of at least 1; any other value exits
2 with argparse's message, such as ``purecross table: error: argument
--max-n: must be at most 350``.  The README gives the timings behind
these limits.
"""

import argparse
import os
import sys
from itertools import islice
from math import lcm

from .bijections import WeightAssignment
from .enumeration import PartitionClass, count, iterate
from .partition import ParseError, Partition, PartitionError
from .pipeline import _forward, counts_table
from .series import Series, render_text

_CLASS_CHOICES = [cls.value for cls in PartitionClass]

# Largest accepted sizes (see the module docstring); each subcommand's
# parser reads its limits when it is built.
_TABLE_MAX_N = 350
_SERIES_MAX_ORDER = 250
_SERIES_MAX_DEN_DIGITS = 6  # of the lcm of the weights' denominators
_SERIES_MAX_NUM_DIGITS = 30  # of each weight's numerator
_ENUMERATE_MAX_N = 12
_COUNT_MAX_N = 12
_VERIFY_MAX_N = 12
_VERIFY_MAX_TRIALS = 250


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _size(limit=None):
    """An argparse type: an int of at least 1 and, given a limit, at most
    ``limit``.  argparse prints a range error after the flag's name, and
    text that is not an int as ``invalid int value: 'x'``."""

    def size(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        if limit is not None and value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}")
        return value

    size.__name__ = "int"  # the type argparse names when int() fails
    return size


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
    import json  # loaded only by the commands that write or read JSON

    print(json.dumps(obj))
    return 0


def _cmd_enumerate(args) -> int:
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
    print(count(args.n, PartitionClass(args.cls), workers=args.workers))
    return 0


def _cmd_table(args) -> int:
    try:
        table = counts_table(args.max_n)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        print(json.dumps(table.to_json()))
    else:
        print(table.to_tsv())
    return 0


def _cmd_series(args) -> int:
    order = args.order
    reaching = []  # (n, weight) of each assigned partition with n <= order
    if args.weights is not None:
        import json

        try:
            with open(args.weights, encoding="utf-8") as handle:
                data = json.load(handle)
            w = WeightAssignment.from_json(data)
        except OSError as exc:
            return _fail(f"cannot read weights file: {exc}")
        # json.load recurses once per level of nesting, so a deeply
        # nested file raises RecursionError: bad input, not a failure.
        except (ValueError, PartitionError, RecursionError) as exc:
            return _fail(f"bad weights file: {exc}")
        reaching = [(pi.n, weight) for pi, weight in w.items() if pi.n <= order]
        if lcm(*(weight.denominator for _, weight in reaching)) >= 10**_SERIES_MAX_DEN_DIGITS:
            return _fail(
                f"the lcm of the weights' denominators must have at most "
                f"{_SERIES_MAX_DEN_DIGITS} digits"
            )
        if any(abs(weight.numerator) >= 10**_SERIES_MAX_NUM_DIGITS for _, weight in reaching):
            return _fail(
                f"the weights' numerators must have at most {_SERIES_MAX_NUM_DIGITS} digits"
            )
    # A holds the table's |PC_n| column; an assigned weight replaces its
    # partition's default 1.
    coeffs = [0] + [row[1] for row in counts_table(order).rows]
    for n, weight in reaching:
        coeffs[n] += weight - 1
    a = Series(coeffs)
    # B, C and D are the forward pass's steps, run only as far as the
    # letter asked for: A takes none of them, and only D the fixpoint.
    chosen = a if args.which == "A" else next(islice(_forward(a), "BCD".index(args.which), None))
    if args.format == "json":
        import json

        print(json.dumps([str(v) for v in chosen.coeffs]))
    elif args.format == "tsv":
        for k, v in enumerate(chosen.coeffs):
            print(f"{k}\t{v}")
    else:
        print(render_text(chosen))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks  # only this command loads the suite

    ok = run_checks(max_n=args.max_n, trials=args.weighted_trials, seed=args.seed)
    return 0 if ok else 1


def _classify_arguments(p):
    p.add_argument("partition", help="partition text, e.g. '1,3|2,4'")


def _enumerate_arguments(p):
    p.add_argument("--n", type=_size(_ENUMERATE_MAX_N), required=True)
    p.add_argument("--class", dest="cls", choices=_CLASS_CHOICES, default="all")
    p.add_argument("--format", choices=["plain", "json"], default="plain")


def _count_arguments(p):
    p.add_argument("--n", type=_size(_COUNT_MAX_N), required=True)
    p.add_argument("--class", dest="cls", choices=_CLASS_CHOICES, default="all")
    p.add_argument("--workers", type=_size(), default=1)


def _table_arguments(p):
    p.add_argument("--max-n", type=_size(_TABLE_MAX_N), required=True)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")


def _series_arguments(p):
    p.add_argument("--which", choices=["A", "B", "C", "D"], required=True)
    p.add_argument("--order", type=_size(_SERIES_MAX_ORDER), default=15)
    p.add_argument(
        "--weights",
        metavar="FILE",
        help="JSON weight assignment on purely crossing partitions "
        "(unassigned ones weigh 1)",
    )
    p.add_argument("--format", choices=["plain", "tsv", "json"], default="plain")


def _verify_arguments(p):
    p.add_argument("--max-n", type=_size(_VERIFY_MAX_N), default=7)
    p.add_argument("--weighted-trials", type=_size(_VERIFY_MAX_TRIALS), default=20)
    p.add_argument("--seed", type=int, default=0)


# Each subcommand once: name -> (help, adds its arguments to a parser, handler).
_COMMANDS = {
    "classify": (
        "print the predicates and cover of one partition",
        _classify_arguments,
        _cmd_classify,
    ),
    "enumerate": ("stream every member of a family", _enumerate_arguments, _cmd_enumerate),
    "count": ("exact family size by enumeration", _count_arguments, _cmd_count),
    "table": (
        "family sizes for n = 1 .. max-n via the series pipeline",
        _table_arguments,
        _cmd_table,
    ),
    "series": ("coefficients of one of the four counting series", _series_arguments, _cmd_series),
    "verify": ("run the library's invariant suite", _verify_arguments, _cmd_verify),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="purecross",
        description="Classify, enumerate, and count purely crossing set "
        "partitions and their relatives; evaluate the associated "
        "generating functions exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv):
    """The subcommand's name and its parsed arguments.

    When ``argv`` names a subcommand, only that subcommand's parser is
    built: it is the parser the full tree hands the rest of ``argv`` to,
    so its help and its errors are the same.  Whatever it leaves over,
    and any ``argv`` that names no subcommand, goes to the full tree,
    which prints the top-level usage, help and errors.
    """
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        _, add_arguments, _ = _COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"purecross {name}")
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return name, args
    args = _build_parser().parse_args(argv)
    return args.command, args


def run(argv=None) -> int:
    """Parse arguments (``sys.argv[1:]`` when None) and execute; returns
    the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        name, args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    _, _, handler = _COMMANDS[name]
    return handler(args)


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
