"""Command-line front end.

Exit codes: 0 success, 2 usage errors (argparse), 3 dataset problems,
4 verification failures (a subalgebra relation or the non-triviality
criterion failed), so CI can gate on the distinction.  Each command
returns its result (an OutputTable or text) and its exit code; `run` alone
renders, writes and turns exceptions into exit codes.

A plain call (`--format V` / `--out P` pairs, a command, then each of its
flags at most once as `--flag value`, every value valid and not starting
with `-`) is read straight from the command table, `_COMMANDS`, which
builds no argparse parser.  Every other argv (`-h`, `--flag=value`,
abbreviations, repeated flags, `-`-leading values such as `--j -1`, and
every error) goes through argparse, which writes every usage line, error
and help text, so nothing printed depends on which route read the call.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys

from .dataset import DatasetError, decimal_int, load_dataset
from .gl2 import (
    Gl2ValidationError,
    UnsupportedBracketError,
    cartan_block_sizes,
    cartan_entry,
    pairing_value,
    primary_pair,
    verify_relations,
)
from .output import FORMATS, OutputTable
from .qseries import IntegralityError, euler_product, j_series, primary_dim_series
from .replication import _multiplicities, character, nontriviality_report, replicate_extend

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATASET = 3
EXIT_VERIFY = 4


def _int_arg(holds, message):
    """An argparse type: a `decimal_int` for which `holds` is true, else `message`."""

    def parse(text):
        try:
            value = decimal_int(text)
        except ValueError as exc:  # past the digit limit
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value is None:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if not holds(value):
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_nonneg = _int_arg(lambda n: n >= 0, "must be nonnegative")
_positive = _int_arg(lambda n: n >= 1, "must be a positive integer")
_root_index = _int_arg(
    lambda n: n == -1 or n >= 1, "root index must be -1 or a positive integer"
)


def _cmd_jcoeffs(args):
    series = j_series(args.max)
    return OutputTable.build(["n", "c(n)"], enumerate(series.coeffs, -1)), EXIT_OK


def _cmd_dims(args):
    dims = primary_dim_series(args.max)
    return OutputTable.build(["weight", "dim_primary"], enumerate(dims.coeffs)), EXIT_OK


def _cmd_eta(args):
    series = euler_product(args.max + 1)
    return OutputTable.build(["n", "coefficient"], enumerate(series.coeffs)), EXIT_OK


def _cmd_cartan(args):
    labels = [-1] + list(range(1, args.depth + 1))
    columns = ["i", "block_size"] + [f"A(i,{j})" for j in labels]
    sizes = cartan_block_sizes(labels)
    rows = [
        [i, size] + [cartan_entry(i, j) for j in labels]
        for i, size in zip(labels, sizes)
    ]
    return OutputTable.build(columns, rows), EXIT_OK


def _cmd_replicate(args):
    dataset = load_dataset(args.data)
    names = [r.name for r in dataset.classes] if args.only_class is None else [args.only_class]
    table = replicate_extend(dataset, args.max, names)
    rows = [
        (name, j, value)
        for name in names
        for j, value in enumerate(table.rows[name].coeffs[2 : args.max + 2], 1)
    ]
    return OutputTable.build(["class", "j", "C(class,j)"], rows), EXIT_OK


def _cmd_mult(args):
    dataset = load_dataset(args.data)
    character(dataset, args.k)  # a missing irreducible raises before the fill
    table = replicate_extend(dataset, args.max)
    rows = enumerate(_multiplicities(dataset, table, args.k, 1, args.max), 1)
    return OutputTable.build(["j", f"mult_{args.k}(j+1)"], rows), EXIT_OK


def _cmd_check_nontrivial(args):
    """The table, and a verdict note that `run` writes after it."""
    dataset = load_dataset(args.data)
    report = nontriviality_report(dataset, replicate_extend(dataset, args.max), args.max)
    rows = [(r.j, r.dim_primary, r.trivial_multiplicity, r.verdict) for r in report]
    table = OutputTable.build(["j", "dim_primary(j+1)", "mult_1(j+1)", "verdict"], rows)
    failures = sum(not r.holds for r in report)
    note = f"non-triviality criterion failed at {failures} of {len(report)} indices"
    return (table, EXIT_VERIFY, note) if failures else (table, EXIT_OK)


def _cmd_verify_gl2(args):
    j = args.j
    u, v = primary_pair(j)  # a matched pair, so (u, v) = +-1
    if args.pairing_sign != "auto":
        sign = int(args.pairing_sign)
        v = v.rescaled(sign * pairing_value(u, v))  # (u, v) = sign; make_gl2 checks it
    report = verify_relations(j, u, v)
    lines = []
    for check in report.checks:
        status = "pass" if check.passed else f"FAIL ({check.detail})"
        lines.append(f"{check.name}: {status}")
    lines.extend(report.summary_lines())
    return "\n".join(lines) + "\n", EXIT_OK if report.all_passed else EXIT_VERIFY


def _cmd_validate_data(args):
    dataset = load_dataset(args.data)  # raises DatasetError on any violation
    order = dataset.group_order
    text = f"dataset valid: {len(dataset.classes)} classes, group order {order}\n"
    return text, EXIT_OK


_MAX = ("--max", dict(type=_positive, default=100))
_MAX_NONNEG = ("--max", dict(type=_nonneg, default=100))
_DATA = ("--data", dict(required=True, metavar="PATH"))
_K = ("--k", dict(type=_positive, default=1, help="irreducible index"))
_SIGN_HELP = "(u,v) value; auto picks the valid (-1)**j"
_SIGN = dict(choices=("auto", "+1", "-1"), default="auto", help=_SIGN_HELP)

# name: (handler, help line, [(flag, add_argument keywords), ...])
_COMMANDS = {
    "jcoeffs": (_cmd_jcoeffs, "coefficients of the modular invariant", [_MAX_NONNEG]),
    "dims": (_cmd_dims, "dimensions of the primary-vector subspaces", [_MAX_NONNEG]),
    "eta": (_cmd_eta, "pentagonal-number expansion of prod(1-q^j)", [_MAX]),
    "cartan": (
        _cmd_cartan,
        "Cartan matrix blocks with multiplicities",
        [("--depth", dict(type=_positive, default=3))],
    ),
    "replicate": (
        _cmd_replicate,
        "extend trace coefficients per class",
        [_DATA, _MAX, ("--class", dict(dest="only_class", metavar="NAME"))],
    ),
    "mult": (_cmd_mult, "irreducible multiplicities by orthogonality", [_DATA, _MAX, _K]),
    "check-nontrivial": (
        _cmd_check_nontrivial,
        "compare primary dimensions against trivial multiplicities",
        [_DATA, _MAX],
    ),
    "verify-gl2": (
        _cmd_verify_gl2,
        "verify the gl2 subalgebra relations",
        [("--j", dict(type=_root_index, required=True)), ("--pairing-sign", _SIGN)],
    ),
    "validate-data": (_cmd_validate_data, "validate a dataset file", [_DATA]),
}

_FORMAT_HELP = "output rendering (default: table)"
_OUT_HELP = "write output to PATH instead of standard output"
# the options before the command, read like a command's flags
_GLOBALS = [
    ("--format", dict(choices=FORMATS, default="table", help=_FORMAT_HELP)),
    ("--out", dict(metavar="PATH", help=_OUT_HELP)),
]
_TEXT_COMMANDS = ("validate-data", "verify-gl2")  # `--format` does not apply


def _read_flags(tokens, flags, values):
    """Put each flag's value or default into `values`; False unless `tokens`
    are `--flag value` pairs of known flags, each at most once, with every
    required flag given and every value valid and not starting with `-`."""
    pairs = dict(zip(tokens[::2], tokens[1::2]))
    if len(tokens) != 2 * len(pairs) or not pairs.keys() <= {f for f, _ in flags}:
        return False
    for flag, keywords in flags:
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        text = pairs.get(flag)
        if text is None:
            if keywords.get("required"):
                return False
            values[dest] = keywords.get("default")
            continue
        if text.startswith("-"):
            return False
        try:
            value = keywords.get("type", str)(text)
        except argparse.ArgumentTypeError:
            return False
        if value not in keywords.get("choices", (value,)):
            return False
        values[dest] = value
    return True


def _plain_call(argv):
    """The namespace the two-stage argparse parse gives a plain call, read
    from the command table; None for any other argv."""
    at = next((i for i in range(0, len(argv), 2) if argv[i] in _COMMANDS), None)
    if at is None:
        return None
    command = argv[at]
    values = {"command": command, "args": list(argv[at + 1 :])}
    if not (
        _read_flags(argv[:at], _GLOBALS, values)
        and _read_flags(argv[at + 1 :], _COMMANDS[command][2], values)
    ):
        return None
    if values["format"] != "table" and command in _TEXT_COMMANDS:
        return None
    return argparse.Namespace(**values)


def _global_parser():
    """The options before the command, the command, and the rest of argv."""
    commands = [f"  {name:<18}{line}" for name, (_, line, _) in _COMMANDS.items()]
    parser = argparse.ArgumentParser(
        prog="monsterlie",
        description="Exact q-series, replication recursions, and gl2 subalgebra "
        "verification for\nthe Monster Lie algebra.",
        epilog="\n".join(["commands:", *commands]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for flag, keywords in _GLOBALS:
        parser.add_argument(flag, **keywords)
    parser.add_argument("command", choices=_COMMANDS, help="the command to run")
    rest = parser.add_argument(
        "args", nargs=argparse.REMAINDER, help="its options; every command takes -h"
    )
    rest.required = False  # or a missing command would name `args` too
    return parser


def _argparse_call(argv):
    """The global parse, then the command's own parser on the rest of argv;
    argparse writes help and errors and raises SystemExit."""
    parser = _global_parser()
    args = parser.parse_args(argv)
    command = argparse.ArgumentParser(prog=f"monsterlie {args.command}")
    for flag, keywords in _COMMANDS[args.command][2]:
        command.add_argument(flag, **keywords)
    command.parse_args(args.args, namespace=args)
    if args.format != "table" and args.command in _TEXT_COMMANDS:
        parser.error(f"--format {args.format} does not apply to {args.command}")
    return args


def _write_stdout(text):
    """Write all of `text` to standard output, or raise the OSError that stops it."""
    stream = sys.stdout
    if stream is None:  # the process started with descriptor 1 closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    if isinstance(getattr(stream, "buffer", None), io.RawIOBase):
        # unbuffered (-u): the text layer drops the rest of a short write, so
        # a buffered writer on the same descriptor writes it or fails
        fd, encoding, errors = stream.fileno(), stream.encoding, stream.errors
        with open(fd, "w", encoding=encoding, errors=errors, closefd=False) as stream:
            stream.write(text)
        return
    stream.write(text)
    stream.flush()


def run(argv):
    """Parse argv, run one command, write its result; returns the exit code."""
    args = _plain_call(argv)
    if args is None:
        try:
            args = _argparse_call(argv)
        except SystemExit as exc:
            return exc.code if exc.code is not None else EXIT_USAGE
    try:
        result, code, *notes = _COMMANDS[args.command][0](args)
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except (Gl2ValidationError, UnsupportedBracketError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except IntegralityError as exc:
        print(f"integrality failure: {exc}", file=sys.stderr)
        return EXIT_DATASET
    text = result if isinstance(result, str) else result.render(args.format)
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            _write_stdout(text)
    except OSError as exc:
        if args.out is None and sys.stdout is not None:  # the last flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "standard output" if args.out is None else f"--out {args.out}"
        message = f"cannot write {where}: {exc.strerror or exc}"
        print(f"usage error: {message}", file=sys.stderr)
        return EXIT_USAGE
    for note in notes:
        print(note, file=sys.stderr)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
