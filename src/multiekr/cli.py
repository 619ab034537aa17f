"""Command-line frontend.

Subcommands: ``bound`` (star/AK tables over a grid), ``enumerate`` (write
all k-multisets in the family file format), ``compress`` (down-compress a
family file with a step trace), ``search`` / ``verify`` (exact maximum and
theorem check), ``table`` (the acceptance battery as one CSV). Each
subcommand accepts only the options it reads.

Exit status: 0 success, 1 identity failure, 2 usage error, 3 budget
exceeded, 4 internal fault (a failed runtime certificate or an unexpected
exception). All numeric output is exact integers, and identical
configuration plus seed yields byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from itertools import product
from typing import Optional, Sequence

from . import battery
from . import bounds as bounds_mod
from .compression import CompressionStep, down_compress
from .core import Family, multiset_vectors
from .corpus import DEFAULT_SEED
from .errors import BudgetError, CertificationError, MultiEkrError
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    max_t_intersecting,
    verify_theorem,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_range(text: str) -> range:
    """Accept "A" or "A..B" (inclusive) and return the range."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected A or A..B")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _positive_int(text: str) -> int:
    """A size or budget: below 1 it would check nothing or exit 3 unasked."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _emit(out_path: Optional[str], text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args: argparse.Namespace) -> list[tuple[int, int, int]]:
    """The grid points with 1 <= t <= k and n >= 1; having none is a usage error."""
    points = [p for p in product(args.n, args.k, args.t) if bounds_mod.in_domain(*p)]
    if not points:
        raise argparse.ArgumentTypeError("no grid point has 1 <= t <= k and n >= 1")
    return points


def _cmd_bound(args: argparse.Namespace) -> int:
    reports = [bounds_mod.bound_report(n, k, t) for n, k, t in _grid(args)]
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n"
    else:
        lines = [bounds_mod.BOUND_CSV_HEADER]
        lines.extend(r.csv_row() for r in reports)
        text = "\n".join(lines) + "\n"
    _emit(args.out, text)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    fam = Family(multiset_vectors(args.n, args.k, args.cap), n=args.n, k=args.k)
    _emit(args.out, fam.to_text())
    return EXIT_OK


def _cmd_compress(args: argparse.Namespace) -> int:
    fam = Family.load(args.in_path)
    steps: list[CompressionStep] = []
    compressed = down_compress(fam, args.t, on_step=steps.append)
    if args.trace:
        lines = ["step,i,j,potential,size,kernel"]
        lines.extend(
            f"{s.step},{s.i},{s.j},{s.potential},{s.size},{int(s.kernel_ok)}"
            for s in steps
        )
        with open(args.trace, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit(args.out, compressed.to_text())
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    points = _grid(args)
    if args.witness and len(points) != 1:
        raise argparse.ArgumentTypeError("--witness needs a single (n, k, t) grid point")
    results = [
        max_t_intersecting(
            n,
            k,
            t,
            args.cap,
            budget_vertices=args.budget_vertices,
            budget_nodes=args.budget_nodes,
        )
        for n, k, t in points
    ]
    if args.witness:
        results[0].witness.save(args.witness)
    _emit(args.out, json.dumps([r.to_dict() for r in results], sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    lines = []
    reports = []
    all_sharp = True
    for n, k, t in _grid(args):
        if not bounds_mod.multiset_bound_proven(n, k, t):
            lines.append(
                f"n={n} k={k} t={t} SKIP (no proven bound below n=2k-t)"
            )
            continue
        report = verify_theorem(
            n,
            k,
            t,
            budget_vertices=args.budget_vertices,
            budget_nodes=args.budget_nodes,
        )
        reports.append(report)
        lines.append(report.summary())
        all_sharp = all_sharp and report.sharp
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(args.out, text)
    return EXIT_OK if all_sharp else EXIT_IDENTITY


def _cmd_table(args: argparse.Namespace) -> int:
    rows = list(
        battery.rows(quick=args.quick, corpus_size=args.corpus_size, seed=args.seed)
    )
    _emit(args.out, "\n".join([battery.HEADER, *(r.csv() for r in rows)]) + "\n")
    failures = [row for row in rows if not row.ok]
    for row in failures:
        print(f"FAILED: {row.csv()}", file=sys.stderr)
    return EXIT_IDENTITY if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiekr",
        description=(
            "Exact computations on t-intersecting families of k-multisets: "
            "bounds, enumeration, compression, search, verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def add_grid(p):
        for flag, what in (
            ("--n", "ground-set size"),
            ("--k", "member cardinality"),
            ("--t", "intersection threshold"),
        ):
            p.add_argument(flag, type=_parse_range, required=True,
                           help=f"{what}, A or A..B")

    def add_cap(p):
        p.add_argument("--cap", type=int, default=None,
                       help="optional height cap on multiplicities")

    def add_budgets(p):
        p.add_argument("--budget-nodes", type=_positive_int,
                       default=DEFAULT_NODE_BUDGET,
                       help="search node budget (exceeding it exits 3)")
        p.add_argument("--budget-vertices", type=_positive_int,
                       default=DEFAULT_VERTEX_BUDGET,
                       help="instance size budget (exceeding it exits 3)")

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format")

    def add_out(p):
        p.add_argument("--out", default=None,
                       help="output path (default stdout)")

    p_bound = command(
        "bound", _cmd_bound, "star and AK bound table over an (n, k, t) grid;"
        " CSV columns n,k,t,star,ak_set,i_star (JSON adds per_i and proven)")
    add_grid(p_bound)
    add_format(p_bound)
    add_out(p_bound)

    p_enum = command(
        "enumerate", _cmd_enumerate,
        "write every k-multiset of [n] in the family file format")
    p_enum.add_argument("--n", type=int, required=True, help="ground-set size")
    p_enum.add_argument("--k", type=int, required=True, help="member cardinality")
    add_cap(p_enum)
    add_out(p_enum)

    p_comp = command(
        "compress", _cmd_compress,
        "down-compress a family file until the first row is a kernel")
    p_comp.add_argument("--t", type=int, required=True,
                        help="intersection threshold")
    p_comp.add_argument("--in", dest="in_path", required=True,
                        help="input family file")
    add_out(p_comp)
    p_comp.add_argument("--trace", default=None,
                        help="CSV trace of changing steps: step,i,j,potential,size,kernel")

    p_search = command(
        "search", _cmd_search,
        "exact maximum t-intersecting family size (JSON results)")
    add_grid(p_search)
    add_cap(p_search)
    add_budgets(p_search)
    add_out(p_search)
    p_search.add_argument("--witness", default=None,
                          help="write the witness family file (single grid point only)")

    p_verify = command(
        "verify", _cmd_verify, "compare the exact maximum against the proven bound")
    add_grid(p_verify)
    add_budgets(p_verify)
    add_format(p_verify)
    add_out(p_verify)

    p_table = command(
        "table", _cmd_table, "run the acceptance battery; exits 1 on any failure")
    p_table.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="seed of the random family corpus (fixed default)")
    add_out(p_table)
    p_table.add_argument("--quick", action="store_true",
                         help="small sharpness grid without the oracle, corpus"
                         f" of at most {battery.QUICK_CORPUS_SIZE} families")
    p_table.add_argument("--corpus-size", type=_positive_int,
                         default=battery.CORPUS_SIZE,
                         help="number of random maximal families in the corpus")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except CertificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (MultiEkrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a fault of the program, not of its input: keep it apart from
        # exit 1, which reports a failed identity
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
