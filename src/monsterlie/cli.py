"""Command-line front end.

Exit codes: 0 success, 2 usage errors (argparse), 3 dataset problems,
4 verification failures (a subalgebra relation or the non-triviality
criterion failed), so CI can gate on the distinction.
"""

from __future__ import annotations

import argparse
import sys

from .dataset import DatasetError, load_dataset
from .gl2 import (
    Gl2ValidationError,
    UnsupportedBracketError,
    cartan_block_sizes,
    cartan_entry,
    primary_pair,
    vacuum_vector,
    verify_relations,
)
from .output import FORMATS, OutputTable
from .qseries import IntegralityError, euler_product, j_series, primary_dim_series
from .replication import character, multiplicity, nontriviality_report, replicate_extend

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATASET = 3
EXIT_VERIFY = 4


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text):
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text):
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _root_index(text):
    value = _int(text)
    if value == 0 or value < -1:
        raise argparse.ArgumentTypeError("root index must be -1 or a positive integer")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monsterlie",
        description=(
            "Exact q-series, replication recursions, and gl2 subalgebra "
            "verification for the Monster Lie algebra."
        ),
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="table",
        help="output rendering (default: table)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write output to PATH instead of standard output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jcoeffs", help="coefficients of the modular invariant")
    p.add_argument("--max", type=_nonneg_int, default=100)

    p = sub.add_parser("dims", help="dimensions of the primary-vector subspaces")
    p.add_argument("--max", type=_nonneg_int, default=100)

    p = sub.add_parser("eta", help="pentagonal-number expansion of prod(1-q^j)")
    p.add_argument("--max", type=_positive_int, default=100)

    p = sub.add_parser("cartan", help="Cartan matrix blocks with multiplicities")
    p.add_argument("--depth", type=_positive_int, default=3)

    p = sub.add_parser("replicate", help="extend trace coefficients per class")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--max", type=_positive_int, default=100)
    p.add_argument("--class", dest="only_class", metavar="NAME")

    p = sub.add_parser("mult", help="irreducible multiplicities by orthogonality")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--max", type=_positive_int, default=100)
    p.add_argument("--k", type=_positive_int, default=1, help="irreducible index")

    p = sub.add_parser(
        "check-nontrivial",
        help="compare primary dimensions against trivial multiplicities",
    )
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--max", type=_positive_int, default=100)

    p = sub.add_parser("verify-gl2", help="verify the gl2 subalgebra relations")
    p.add_argument("--j", type=_root_index, required=True)
    p.add_argument(
        "--pairing-sign",
        choices=("auto", "+1", "-1"),
        default="auto",
        help="(u,v) value; auto picks the valid (-1)**j",
    )

    p = sub.add_parser("validate-data", help="validate a dataset file")
    p.add_argument("--data", required=True, metavar="PATH")

    return parser


class _OutputPathError(Exception):
    """The --out path cannot be written (a usage error, exit code 2)."""


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _OutputPathError(
                f"cannot write --out {args.out}: {exc.strerror or exc}"
            ) from exc
    else:
        sys.stdout.write(text)


def _cmd_jcoeffs(args):
    series = j_series(args.max)
    rows = [(n, series.coeff(n)) for n in range(-1, args.max + 1)]
    _emit(args, OutputTable.build(["n", "c(n)"], rows).render(args.format))
    return EXIT_OK


def _cmd_dims(args):
    dims = primary_dim_series(args.max)
    rows = [(j, dims.coeff(j - 1)) for j in range(0, args.max + 1)]
    _emit(args, OutputTable.build(["weight", "dim_primary"], rows).render(args.format))
    return EXIT_OK


def _cmd_eta(args):
    series = euler_product(args.max + 1)
    rows = [(n, series.coeff(n)) for n in range(0, args.max + 1)]
    _emit(args, OutputTable.build(["n", "coefficient"], rows).render(args.format))
    return EXIT_OK


def _cmd_cartan(args):
    labels = [-1] + list(range(1, args.depth + 1))
    columns = ["i", "block_size"] + [f"A(i,{j})" for j in labels]
    sizes = cartan_block_sizes(labels)
    rows = [
        [i, size] + [cartan_entry(i, j) for j in labels]
        for i, size in zip(labels, sizes)
    ]
    _emit(args, OutputTable.build(columns, rows).render(args.format))
    return EXIT_OK


def _cmd_replicate(args):
    dataset = load_dataset(args.data)
    names = [r.name for r in dataset.classes]
    only = None
    if args.only_class:
        if args.only_class not in dataset.by_name:
            raise DatasetError(f"unknown class {args.only_class!r}")
        names = only = [args.only_class]
    table = replicate_extend(dataset, max(args.max, 5), only)
    rows = [
        (name, j, table.value(name, j))
        for name in names
        for j in range(1, args.max + 1)
    ]
    _emit(args, OutputTable.build(["class", "j", "C(class,j)"], rows).render(args.format))
    return EXIT_OK


def _cmd_mult(args):
    dataset = load_dataset(args.data)
    try:
        character(dataset, args.k)
    except KeyError as exc:
        raise DatasetError(exc.args[0]) from exc
    table = replicate_extend(dataset, max(args.max, 5))
    rows = [
        (j, multiplicity(dataset, table, args.k, j)) for j in range(1, args.max + 1)
    ]
    _emit(
        args,
        OutputTable.build(["j", f"mult_{args.k}(j+1)"], rows).render(args.format),
    )
    return EXIT_OK


def _cmd_check_nontrivial(args):
    dataset = load_dataset(args.data)
    report = nontriviality_report(dataset, args.max)
    rows = [
        (r.j, r.dim_primary, r.trivial_multiplicity, r.verdict) for r in report
    ]
    table = OutputTable.build(
        ["j", "dim_primary(j+1)", "mult_1(j+1)", "verdict"], rows
    )
    _emit(args, table.render(args.format))
    failures = [r for r in report if not r.holds]
    if failures:
        print(
            f"non-triviality criterion failed at {len(failures)} of "
            f"{len(report)} indices",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify_gl2(args):
    j = args.j
    if args.pairing_sign == "auto":
        u, v = primary_pair(j)
    elif j == -1:
        u = v = vacuum_vector()  # the vacuum pairing is fixed at -1
        if args.pairing_sign == "+1":
            raise Gl2ValidationError("the vacuum pair has pairing -1")
    else:
        u, _ = primary_pair(j)
        sign = 1 if args.pairing_sign == "+1" else -1
        v = u.rescaled(sign)  # (u,v) = sign; rejected unless sign == (-1)**j
    report = verify_relations(j, u, v)
    lines = []
    for check in report.checks:
        status = "pass" if check.passed else f"FAIL ({check.detail})"
        lines.append(f"{check.name}: {status}")
    lines.extend(report.summary_lines())
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def _cmd_validate_data(args):
    dataset = load_dataset(args.data)  # raises DatasetError on any violation
    _emit(
        args,
        f"dataset valid: {len(dataset.classes)} classes, "
        f"group order {dataset.group_order}\n",
    )
    return EXIT_OK


_COMMANDS = {
    "jcoeffs": _cmd_jcoeffs,
    "dims": _cmd_dims,
    "eta": _cmd_eta,
    "cartan": _cmd_cartan,
    "replicate": _cmd_replicate,
    "mult": _cmd_mult,
    "check-nontrivial": _cmd_check_nontrivial,
    "verify-gl2": _cmd_verify_gl2,
    "validate-data": _cmd_validate_data,
}


def run(argv):
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except (Gl2ValidationError, UnsupportedBracketError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except IntegralityError as exc:
        print(f"integrality failure: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except _OutputPathError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
