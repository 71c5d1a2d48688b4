"""Command-line interface; one subcommand per library capability.

Data goes to stdout (or --out); progress and errors go to stderr, keeping
the data stream clean for piping.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import islice

from .families import (
    FamilySpec,
    FamilyVerdict,
    _admit,
    _reciprocal_verdict,
    _verify_admitted,
    verify_family,
)
from .gf2poly import BitCapExceeded, F2Poly, ensure_bits, parse_poly
from .order_beta import beta, beta_N, cofactor, order
from .representations import (
    DigitSet,
    _diatomic_terms,
    _parity_terms,
    count_representations,
    parity_profile,
    stern,
)
from .search import (
    PRESETS,
    ScanConfig,
    _order_ceiling,
    _ordered_map,
    figure_data,
    gap_census,
    scan,
    write_figure_csv,
    write_scan_csv,
    write_scan_jsonl,
)


def _flag(v: bool) -> str:
    return "true" if v else "false"


def _format_poly(p: F2Poly, fmt: str) -> str:
    if fmt == "hex":
        return p.to_hex()
    if fmt == "index":
        return f"@{p.bits}"
    return p.to_text()


@contextmanager
def _output(path: str | None, corpus: ScanConfig):
    """stdout or the file at path, opened only once no order of the corpus can
    need a cofactor over the bit cap, so a refusal comes before the header."""
    ensure_bits(_order_ceiling(corpus) + 1)
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as out:
            yield out


def _print_terms(terms, sep: str) -> None:
    """print(sep.join(map(str, terms))), a slice at a time, so memory stays flat."""
    lead = ""
    while chunk := list(islice(terms, 4096)):
        sys.stdout.write(lead + sep.join(map(str, chunk)))
        lead = sep
    sys.stdout.write("\n")


def _progress_printer(done: int, total: int) -> None:
    print(f"scanned {done}/{total}", file=sys.stderr)


def _cmd_order(args: argparse.Namespace) -> int:
    print(order(parse_poly(args.poly)))
    return 0


def _cmd_beta(args: argparse.Namespace) -> int:
    f = parse_poly(args.poly)
    rep = beta(f) if args.period is None else beta_N(f, args.period)
    a, b = rep.beta
    print(
        f"order={rep.period} exact={_flag(rep.order_exact)} "
        f"beta=({a},{b}) gamma={rep.gamma} robust={_flag(rep.robust)}"
    )
    return 0


def _cmd_cofactor(args: argparse.Namespace) -> int:
    f = parse_poly(args.poly)
    N = args.period if args.period is not None else order(f)
    print(_format_poly(cofactor(f, N), args.format))
    return 0


def _family_line(v: FamilyVerdict) -> str:
    cf = "skipped" if v.closed_form_matches is None else _flag(v.closed_form_matches)
    s = v.spec
    # divides is always true: verify_family raises unless the period divides.
    return (
        f"r={s.r} variant={s.variant} reciprocal={_flag(s.reciprocal)} "
        f"period={v.period} divides=true "
        f"exact={_flag(v.order_exact)} beta=({v.beta[0]},{v.beta[1]}) "
        f"gamma={v.gamma} prediction={_flag(v.matches_prediction)} "
        f"closed_form={cf} robust={_flag(v.robust)}"
    )


def _cmd_family_verify(args: argparse.Namespace) -> int:
    spec = FamilySpec(r=args.r, variant=args.variant, reciprocal=args.reciprocal)
    print(_family_line(verify_family(spec, allow_large_r=args.allow_large_r)))
    return 0


def _cmd_family_range(args: argparse.Namespace) -> int:
    if args.r_max < 1:
        raise ValueError("r_max must be >= 1")
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    # Every (r, variant) pair is admitted as it is made, in r order, before any
    # runs, and verified before the first line, so a refused or failing member
    # prints no partial table and a huge r_max stops at its first refused pair.
    for r in range(1, args.r_max + 1):
        for variant in (1, 2):
            _admit(FamilySpec(r=r, variant=variant), args.allow_large_r)
    # One task per (r, variant), largest r first so that a pool starts on the
    # costliest; each base verdict also gives its reciprocal member's line.
    # The pairs are admitted already, so no worker reads the environment.
    bases = [FamilySpec(r=r, variant=v) for r in range(args.r_max, 0, -1) for v in (1, 2)]
    verdicts = sorted(_ordered_map(_verify_admitted, bases, args.jobs), key=lambda v: v.spec.r)
    for v in verdicts:
        print(_family_line(v))
        print(_family_line(_reciprocal_verdict(v)))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.preset is not None:
        if (args.index_max, args.degree_max, args.shape) != (None, None, None):
            raise ValueError("give either --preset or --index-max/--degree-max/--shape, not both")
        cfg = PRESETS[args.preset]
        if args.order_bound is not None:
            cfg = replace(cfg, order_bound=args.order_bound)
    elif args.index_max is not None or args.degree_max is not None:
        cfg = ScanConfig(
            index_max=args.index_max,
            degree_max=args.degree_max,
            shape=args.shape or "all",
            order_bound=args.order_bound,
        )
    else:
        raise ValueError("need --preset or one of --index-max / --degree-max")
    cfg = replace(cfg, jobs=args.jobs)
    progress = _progress_printer if args.progress else None
    records = scan(cfg, progress=progress)
    if args.robust_only:
        records = (rec for rec in records if rec.robust)
    with _output(args.out, cfg) as out:
        (write_scan_jsonl if args.json else write_scan_csv)(records, out)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    rows = figure_data(args.max)  # refuses a --max below 5 first
    with _output(args.out, ScanConfig(index_max=args.max)) as out:
        write_figure_csv(rows, out)
    return 0


def _cmd_repr(args: argparse.Namespace) -> int:
    print(count_representations(DigitSet.parse(args.set), args.n))
    return 0


def _cmd_parity(args: argparse.Namespace) -> int:
    A = DigitSet.parse(args.set)
    if args.series is not None:
        _print_terms(_parity_terms(A, args.series), "")
        return 0
    prof = parity_profile(A)
    residues = ",".join(map(str, prof.odd_residues))
    # order_exact is always true: the profile's period is order(phi).
    print(
        f"period={prof.period} order_exact=true "
        f"odd_count={len(prof.odd_residues)} odd_residues={{{residues}}}"
    )
    return 0


def _cmd_stern(args: argparse.Namespace) -> int:
    if args.row is not None:
        _print_terms(_diatomic_terms(args.row), " ")
    else:
        print(stern(args.n))
    return 0


def _cmd_gapcheck(args: argparse.Namespace) -> int:
    for e in gap_census(args.degree_max):
        print(
            f"degree={e.degree} max_gap={e.max_gap} "
            f"bound={format(e.bound, '.6g')} ok={_flag(e.ok)}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2rep",
        description="Orders, cofactor statistics, robust families, and "
        "representation counting for GF(2) polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="least D with the polynomial dividing 1 + x^D")
    p.add_argument("poly", help="expression 'x^9 + x^7 + x + 1', hex '0x283', or index '@643'")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("beta", help="cofactor one/zero counts, gamma, robustness")
    p.add_argument("poly")
    p.add_argument("--period", type=int, help="use this period multiple instead of the exact order")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("cofactor", help="(1 + x^D) / poly at the order (or --period)")
    p.add_argument("poly")
    p.add_argument("--period", type=int)
    p.add_argument("--format", choices=("expr", "hex", "index"), default="expr")
    p.set_defaults(func=_cmd_cofactor)

    p = sub.add_parser("family", help="verify the parametric quadrinomial families")
    fsub = p.add_subparsers(dest="family_command", required=True)
    pv = fsub.add_parser("verify", help="one member")
    pv.add_argument("--r", type=int, required=True)
    pv.add_argument("--variant", type=int, choices=(1, 2), required=True)
    pv.add_argument("--reciprocal", action="store_true")
    pv.add_argument("--allow-large-r", action="store_true")
    pv.set_defaults(func=_cmd_family_verify)
    pr = fsub.add_parser("range", help="all members for r = 1..R")
    pr.add_argument("--r-max", type=int, default=8)
    pr.add_argument("--allow-large-r", action="store_true")
    pr.add_argument("--jobs", type=int, default=1)
    pr.set_defaults(func=_cmd_family_range)

    p = sub.add_parser("scan", help="per-polynomial records over a corpus")
    p.add_argument("--preset", choices=tuple(PRESETS))
    p.add_argument("--index-max", type=int)
    p.add_argument("--degree-max", type=int)
    p.add_argument("--shape", choices=("all", "trinomial", "quadrinomial"))
    p.add_argument("--order-bound", type=int)
    p.add_argument("--robust-only", action="store_true")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", default=True, help="CSV rows (the default)")
    fmt.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--progress", action="store_true", help="report progress on stderr")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("figure", help="gamma per odd index, CSV")
    p.add_argument("--max", type=int, default=4096)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("repr", help="count base-2 representations over a digit set")
    p.add_argument("--set", required=True, help="digit set like '{0,1,2}'")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_repr)

    p = sub.add_parser("parity", help="parity period / series of representation counts")
    p.add_argument("--set", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--profile", action="store_true", default=True,
        help="period and odd residues (the default)",
    )
    group.add_argument("--series", type=int, metavar="N")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("stern", help="Stern sequence values or diatomic rows")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--row", type=int)
    p.set_defaults(func=_cmd_stern)

    p = sub.add_parser("gapcheck", help="per-degree maximum coordinate gap vs 2^(k/2)")
    p.add_argument("--degree-max", type=int, default=14)
    p.set_defaults(func=_cmd_gapcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Reader closed the pipe; silence the interpreter's exit-time flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError, BitCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
