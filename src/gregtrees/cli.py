"""Command line interface.

Subcommands: polys (polynomial tables), trees (enumeration and censuses),
series (exact Taylor coefficients), check (the verification suite), wfun
(Lambert W values and derivatives).  All output is byte-deterministic for
a fixed invocation; --out writes the same bytes to a file instead of
stdout.  The polys tables are stepped, formatted and written one row at a
time, so the text in memory stays near one row, not the whole table.  A
usage error names the subcommand it belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .polys import FAMILIES, Poly, table_rows
from .series import _egf_text, series_T, series_W
from .suite import CHECK_NAMES, CHECKS, SuiteConfig, run_suite
from .trees import VARIANTS, enumerate_greg, imp_polynomial, u_bound, unl_polynomial
from .wfunc import _derivative_at, eval_W

_VERTEX_CAP = 11          # trees work caps at 11 total vertices
_IMP_CAP = 7              # 1,296 Pruefer folds at n = 7; 8 would take 16,807

# aliases accepted by `check` beside full names
CHECK_ALIASES = {
    "egf": "egf-theorem",
    "bernstein": "bernstein-signs",
    "golden": "golden-tables",
    "reversion": "reversion-lemma",
}

def _emit(chunks: str | Iterable[str], out: str | None) -> None:
    """Write `chunks` in order to stdout, or to the file `out`; a str is one
    chunk.  A generator is formatted as it is written, so a table streamed
    row by row never sits in memory whole.  The file is opened before the
    first chunk is made, and a path that cannot be written is one error
    line and exit 2."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if out is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()          # a closed pipe shows here, inside main
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        sys.stderr.write(f"gregtrees: error: cannot write {out}: {exc.strerror or exc}\n")
        raise SystemExit(2) from None


def _bfile(rows: Iterable[Sequence[int]]) -> Iterator[str]:
    """b-file lines "index value", one chunk per row; the index runs on
    across rows.  Values go through `str`, as in the csv rows: for a
    `Decimal`, `__format__` writes the same bytes more slowly."""
    index = 0
    for row in rows:
        yield "".join(f"{i} {value!s}\n" for i, value in enumerate(row, start=index + 1))
        index += len(row)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _json_rows(rows) -> Iterator[str]:
    """``_json_text`` of the rows' json form for a nonempty list of rows,
    one chunk per row, laid out by hand: with ``indent`` the json module
    runs its pure-Python encoder.  A row is a Poly, or a tuple of them (a
    Q row)."""
    sep = "[\n  "
    for row in rows:
        yield sep + _json_nested(row, 1)
        sep = ",\n  "
    yield "\n]\n"


def _json_nested(row, depth: int) -> str:
    """``json.dumps(.., indent=2)`` of a Poly's ``to_json()``, or of the
    list of those of a tuple of Polys, `depth` levels into the document.
    Decimal strings need no escaping."""
    if not row:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + "]"
    # a row can hold 100 kB of digits: each + after the join copies it
    if isinstance(row, Poly):
        return "[" + pad + '"' + f'",{pad}"'.join(map(str, row.coeffs)) + ('"' + close)
    return "[" + pad + f",{pad}".join(_json_nested(p, depth + 1) for p in row) + close


# ── polys ─────────────────────────────────────────────────────────────────

def _run_polys(args, parser) -> int:
    family, n, fmt = args.family, args.n, args.format
    # every usage check comes before the first row is written
    if family == "Q" and fmt == "bfile":
        parser.error("the Q triangle holds polynomials, not integers; no b-file form")
    if family == "P" and fmt == "bfile":
        parser.error("P rows have mixed signs; b-file output is for the nonnegative tables")
    # one chunk per row: no list of row strings and no joined table
    if family == "Q":
        triangle = table_rows("Q", n)
        if fmt == "text":
            chunks = (" | ".join(map(str, row)) + "\n" for row in triangle)
        elif fmt == "json":
            chunks = _json_rows(triangle)
        else:
            chunks = chain(["n,k,j,coefficient\n"], (
                "".join(f"{m},{k},{j},{c}\n" for k, q in enumerate(row)
                        for j, c in enumerate(q.coeffs))
                for m, row in enumerate(triangle, start=1)))
        _emit(chunks, args.out)
        return 0
    base = family.removesuffix("-shift")
    # Decimal text takes time linear in its digits; str of an int is
    # quadratic and refuses past 4300 digits
    rows = map(Poly, table_rows(base, n, shifted=base != family, one=Decimal(1)))
    if fmt == "text":
        chunks = (f"{p}\n" for p in rows)
    elif fmt == "json":
        chunks = _json_rows(rows)
    elif fmt == "csv":
        chunks = chain(["n,k,coefficient\n"], (
            "".join(f"{m},{k},{c!s}\n" for k, c in enumerate(p.coeffs))
            for m, p in enumerate(rows, start=1)))
    else:
        chunks = _bfile(p.coeffs for p in rows)
    _emit(chunks, args.out)
    return 0


# ── trees ─────────────────────────────────────────────────────────────────

def _census_output(args, counts: list[int], column: str, meta: dict) -> int:
    if args.format == "text":
        text = "\n".join(f"{i} {c}" for i, c in enumerate(counts)) + "\n"
    elif args.format == "json":
        text = _json_text({**meta, "counts": counts})
    elif args.format == "csv":
        text = "\n".join([f"{column},count"] + [f"{i},{c}" for i, c in enumerate(counts)]) + "\n"
    else:
        text = _bfile([counts])
    _emit(text, args.out)
    return 0


def _run_trees(args, parser) -> int:
    n, variant = args.n, args.variant
    if args.action == "census-imp":
        if variant not in {f.imp for f in FAMILIES.values()}:
            parser.error("census-imp applies to rooted or unrooted trees")
        if n > _IMP_CAP:
            parser.error(f"census-imp caps at n = {_IMP_CAP}")
        counts = list(imp_polynomial(n, rooted=VARIANTS[variant].roots > 0).coeffs)
        return _census_output(args, counts, "imp",
                              {"n": n, "variant": variant, "statistic": "imp"})
    if n + u_bound(n, variant) > _VERTEX_CAP:
        parser.error(f"{variant} trees at n = {n} can reach "
                     f"{n + u_bound(n, variant)} vertices; the cap is {_VERTEX_CAP}")
    if args.action == "census-unl":
        counts = list(unl_polynomial(n, variant).coeffs)
        return _census_output(args, counts, "u",
                              {"n": n, "variant": variant, "statistic": "unl"})
    # list
    if args.format == "text":
        text = "\n\n".join(t.to_text() for t in enumerate_greg(n, variant)) + "\n"
    elif args.format == "json":
        text = _json_text([t.to_json_dict() for t in enumerate_greg(n, variant)])
    else:
        parser.error("tree listings come as text or json")
    _emit(text, args.out)
    return 0


# ── series ────────────────────────────────────────────────────────────────

def _run_series(args, parser) -> int:
    order = args.order
    which = args.which
    e = series_W(order) if which == "W" else series_T(int(which[1]), order)
    coeffs = [_egf_text(e, k) for k in range(order + 1)]
    if args.format == "text":
        text = "\n".join(coeffs) + "\n"
    elif args.format == "json":
        text = _json_text({"series": which, "order": order, "coefficients": coeffs})
    elif args.format == "csv":
        text = "\n".join(["k,coefficient"] + [f"{k},{c}" for k, c in enumerate(coeffs)]) + "\n"
    else:
        parser.error("series coefficients are rationals; no b-file form")
    _emit(text, args.out)
    return 0


# ── check ─────────────────────────────────────────────────────────────────

def rational(text: str) -> Fraction:
    """The argparse type of --x; its name shows in the usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc


def count(text: str) -> int:
    """The argparse type of --n-max, --samples and ORDER: an int >= 0."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def positive(text: str) -> int:
    """The argparse type of the row and label count N: an int >= 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _run_check(args, parser) -> int:
    config = SuiteConfig.quick() if args.quick else SuiteConfig()

    target = CHECK_ALIASES.get(args.name, args.name)
    if target != "all" and target not in CHECK_NAMES:
        parser.error(f"unknown check {target!r}; valid: all, "
                     + ", ".join(CHECK_NAMES) + "; aliases: " + ", ".join(CHECK_ALIASES))

    # each option sets the budget field that the target's table entry names
    entry = None if target == "all" else CHECKS[CHECK_NAMES.index(target)]
    options = entry.options if entry else {}
    overrides = {} if args.corrupt is None else {"corrupt": args.corrupt}
    for flag in ("--x", "--n-max", "--samples", "--seed"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag not in options:
            parser.error(f"{flag} does not apply to {target!r}; it tunes "
                         + ", ".join(c.name for c in CHECKS if flag in c.options))
        overrides[options[flag]] = tuple(value) if isinstance(value, list) else value
    # an option that sets the lower side of a budget pair raises the upper side to meet it
    for a, b, k in entry.needs if entry else ():
        if b in overrides and a not in overrides:
            overrides[a] = max(getattr(config, a), overrides[b] + k)
    config = replace(config, **overrides)

    try:
        result = run_suite(config, only=None if target == "all" else [target])
    except ValueError as exc:
        parser.error(str(exc))
    except OverflowError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    text = result.to_json() if args.format == "json" else result.to_text()
    _emit(text, args.out)
    if args.timings:
        sys.stderr.writelines(f"{r.name} {r.seconds:.6f}\n" for r in result.reports)
    return 0 if result.ok else 1


# ── wfun ──────────────────────────────────────────────────────────────────

def number(text: str) -> float | complex:
    """The argparse type of Z: a float where one parses, else a complex."""
    try:
        return float(text)
    except ValueError:
        return complex(text)


def _run_wfun(args, parser) -> int:
    try:
        res = eval_W(args.z)
    except (ValueError, ArithmeticError) as exc:
        parser.error(str(exc))
    real_positive = not isinstance(res.z, complex) and res.z > 0
    derivs = []
    if real_positive:
        for k in range(1, args.n_max + 1):
            try:
                derivs.append(_derivative_at("W", res.w, k))
            except OverflowError as exc:
                parser.exit(2, f"{parser.prog}: error: d^{k} W at z={res.z!r} "
                               f"is past the float range ({exc})\n")
    if args.format == "text":
        lines = [f"W({res.z!r}) = {res.w!r}",
                 f"residual = {res.residual:.3e}",
                 f"iterations = {res.iterations}"]
        lines += [f"d^{k} W = {v!r}" for k, v in enumerate(derivs, start=1)]
        if args.n_max > 0 and not real_positive:
            lines.append("derivatives: printed for real z > 0 only")
        text = "\n".join(lines) + "\n"
    else:
        def num(c):
            return [c.real, c.imag] if isinstance(c, complex) else c
        text = _json_text({"z": num(res.z), "w": num(res.w),
                           "residual": res.residual, "iterations": res.iterations,
                           "derivatives": derivs})
    _emit(text, args.out)
    return 0


# ── parser ────────────────────────────────────────────────────────────────

class _Parser(argparse.ArgumentParser):
    """Reads a token starting -digit or -.digit as a value, where argparse
    takes -1/2, -1e-3 and -0.3+0.1j for options; subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gregtrees",
        description="Tree-function derivative polynomials, Greg tree enumeration, "
                    "and the identity verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "csv", "bfile")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("polys", help="polynomial family tables, rows 1..N")
    p.add_argument("family", choices=(*FAMILIES, "P", "Q", *(f"{f}-shift" for f in FAMILIES)))
    p.add_argument("n", type=positive, metavar="N")
    add_common(p)
    p.set_defaults(run=_run_polys, parser=p)

    p = sub.add_parser("trees", help="enumerate Greg trees or print censuses")
    p.add_argument("variant", choices=tuple(VARIANTS))
    p.add_argument("n", type=positive, metavar="N")
    p.add_argument("action", choices=("list", "census-unl", "census-imp"))
    add_common(p)
    p.set_defaults(run=_run_trees, parser=p)

    p = sub.add_parser("series", help="exact Taylor coefficients through ORDER")
    p.add_argument("which", choices=("T0", "T1", "T2", "W"))
    p.add_argument("order", type=count, metavar="ORDER")
    add_common(p)
    p.set_defaults(run=_run_series, parser=p)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("name", nargs="?", default="all",
                   help="check name or 'all' (default)")
    p.add_argument("--quick", action="store_true",
                   help="reduced budgets")
    p.add_argument("--corrupt", metavar="FAMILY:ROW", default=None,
                   help="bump one stored polynomial, to see the checks catch it")
    p.add_argument("--x", action="append", type=rational, metavar="RATIONAL",
                   help="sample points for the egf-theorem check")
    p.add_argument("--n-max", type=count, default=None, help="depth override for one check")
    p.add_argument("--samples", type=count, default=None, help="halfplane sample count")
    p.add_argument("--seed", type=int, default=None, help="halfplane sampler seed")
    p.add_argument("--timings", action="store_true",
                   help="write each check's wall time to stderr, one 'name seconds' line")
    add_common(p, formats=("text", "json"))
    p.set_defaults(run=_run_check, parser=p)

    p = sub.add_parser("wfun", help="evaluate W and its derivatives")
    p.add_argument("z", type=number, metavar="Z", help="real or complex, e.g. 0.5 or 1+2j")
    p.add_argument("--n-max", type=count, default=4,
                   help="derivatives to print for real z > 0 (default 4)")
    add_common(p, formats=("text", "json"))
    p.set_defaults(run=_run_wfun, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # each runner gets its own subparser, so its usage errors name it;
        # unknown arguments are that subparser's error too
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error("unrecognized arguments: " + " ".join(unknown))
        return args.run(args, args.parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # the reader closed the pipe: the rest of the output has no reader,
        # and stdout points at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
