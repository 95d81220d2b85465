"""Batch command-line interface: pairings, expansions, tables, RSK, the
determinant analysis, and the verification suites.

Each subcommand bounds its sized inputs where it parses them, before any
work.  Exit codes: 0 all requested checks pass, 1 verification failure (a
JSON witness goes to stdout), 2 usage error, input out of bound, or an
output path that cannot be written.
"""

import argparse
import csv
import json
import pathlib
import re
import sys
from functools import lru_cache
from importlib import resources

from . import bases, form, gramdet, hopf, oddring
from .combinat import is_partition, matrix_sign, partitions_of
from .polyq import QPoly
from .rsk import rsk as rsk_map
from .rsk import rsk_verify_degree, sign_record, sign_theorem_check

# The pair word degree bound at q = -1, the largest degree bound.  Every part
# is at least 1, so parse_parts rejects a longer k^m run before building it.
MAX_WORD_DEGREE = 16

DIGITS = re.compile(r"[0-9]+")

VERIFY_MAX_DEGREE = {"hopf": 9, "schur": 8, "rsk": 7, "semiorth": 10,
                     "primitives": 10, "all": 7}


def _bound(what: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{what} must be in {lo}..{hi}")


def _int(token: str, expected: str, text: str | None = None) -> int:
    """The integer of an ASCII token [0-9]+, or a ValueError naming the
    expected form and echoing the input text (by default the token).  int()
    would also take a sign, other Unicode digits, underscores and
    whitespace."""
    if DIGITS.fullmatch(token) is None:
        raise ValueError(f"expected {expected}: {token if text is None else text!r}")
    return int(token)


def parse_q(text: str):
    """--q: "generic" or an integer of absolute value at most 2^64, the one
    integer that takes a sign (one leading + or -)."""
    if text == "generic":
        return text
    digits = text[1:] if text[:1] in ("+", "-") else text
    q = _int(digits, "generic or an integer for q", text)
    q = -q if text[:1] == "-" else q
    _bound("--q", q, -(2**64), 2**64)
    return q


def _tokens(text: str, expected: str):
    """Yields (token, m) for each comma-separated token of a stripped word,
    written k or k^m for m copies of k, with 1 <= m <= MAX_WORD_DEGREE checked
    before any copies are built.  Spaces may surround "," and "^".  The whole
    word "" or "0" is empty."""
    if text in ("", "0"):
        return
    for token in text.split(","):
        token = token.strip()
        base, caret, count = token.partition("^")
        base = base.rstrip()
        # a negative count is out of range rather than malformed
        count = count.lstrip()
        m = _int(count.removeprefix("-"), expected, text) if caret else 1
        if count.startswith("-") or not 1 <= m <= MAX_WORD_DEGREE:
            raise ValueError(
                f"repeat count in {token!r} must be in 1..{MAX_WORD_DEGREE}")
        yield base, m


def parse_parts(text: str) -> tuple[int, ...]:
    """Comma-separated positive integers; k^m shorthand for m copies of k.

    Examples: "2,2", "1^5", "3,1^2".
    """
    text = text.strip()
    expected = "comma-separated positive integers, k^m for m copies of k"
    parts: list[int] = []
    for base, m in _tokens(text, expected):
        parts.extend([_int(base, expected, text)] * m)
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive: {text!r}")
    return tuple(parts)


def parse_colored(text: str):
    """Mixed word: tokens like e2 or h3 (plain integers default to h), with
    the k^m shorthand and the empty word of parse_parts, e.g. "e2^3,1"."""
    text = text.strip()
    expected = "comma-separated letters e<n>, h<n> or <n> (an h)"
    word = []
    for base, m in _tokens(text, expected):
        lettered = base.startswith(("e", "h"))
        n = _int(base[1:] if lettered else base, expected, text)
        if n < 1:
            raise ValueError(f"letter subscripts must be positive: {text!r}")
        word.extend([(n, form.E if base.startswith("e") else form.H)] * m)
    return tuple(word)


def parse_matrix(text: str) -> list[list[int]]:
    """JSON list of equal-length rows of non-negative integers."""
    try:
        matrix = json.loads(text)
    except ValueError:
        matrix = None
    if (
        not isinstance(matrix, list)
        or not matrix
        or any(not isinstance(r, list) or len(r) != len(matrix[0]) for r in matrix)
        or any(type(x) is not int or x < 0 for r in matrix for x in r)
    ):
        raise ValueError(
            "matrix must be a JSON list of equal-length rows with non-negative "
            "integer entries"
        )
    return matrix


def fmt_parts(parts) -> str:
    return ",".join(map(str, parts)) if parts else "-"


def table_cells(row_labels, col_labels, rows) -> list[list[str]]:
    """A header row of column labels, then each row behind its label."""
    cells = [[""] + [fmt_parts(c) for c in col_labels]]
    for label, row in zip(row_labels, rows):
        cells.append([fmt_parts(label)] + [str(x) for x in row])
    return cells


def emit_csv(rows) -> None:
    """The one CSV writer of stdout: CRLF line ends, quotes only as needed."""
    csv.writer(sys.stdout).writerows(rows)


def emit_table(args, row_labels, col_labels, rows, title: str) -> None:
    fmt = args.format
    if fmt == "json":
        print(
            json.dumps(
                {
                    "title": title,
                    "rows": [list(r) for r in row_labels],
                    "columns": [list(c) for c in col_labels],
                    "entries": [[_jsonable(x) for x in row] for row in rows],
                }
            )
        )
        return
    cells = table_cells(row_labels, col_labels, rows)
    if fmt == "csv":
        emit_csv(cells)
        return
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    print(title)
    for r in cells:
        print("  ".join(x.rjust(w) for x, w in zip(r, widths)))


def _jsonable(x):
    if isinstance(x, QPoly):
        return list(x.coeffs)
    return x


def emit_expansion(args, name: str, terms: dict, letter: str) -> None:
    fmt = args.format
    if fmt == "json":
        print(json.dumps({name: {",".join(map(str, p)): c for p, c in sorted(terms.items())}}))
        return
    if fmt == "csv":
        emit_csv([["index", "coefficient"]]
                 + [[fmt_parts(p), c] for p, c in sorted(terms.items())])
        return
    bits = []
    for p, c in sorted(terms.items()):
        label = f"{letter}({fmt_parts(p)})" if p else "1"
        if c == 1:
            bits.append(f"+ {label}")
        elif c == -1:
            bits.append(f"- {label}")
        else:
            bits.append(f"{c:+d}*{label}")
    print(f"{name} =", " ".join(bits) if bits else "0")


# ---------------------------------------------------------------------------
# subcommands


def _pair_words(args):
    if args.basis == "mixed":
        return parse_colored(args.left), parse_colored(args.right)
    mk = form.e_word if args.basis == "e" else form.h_word
    return mk(parse_parts(args.left)), mk(parse_parts(args.right))


def cmd_pair(args) -> int:
    q = parse_q(args.q)
    odd = q == -1
    left, right = _pair_words(args)
    degree = max(form.word_degree(left), form.word_degree(right))
    if odd:
        _bound("word degree at q = -1", degree, 0, MAX_WORD_DEGREE)
        value = payload = form.pair_words_odd(left, right)
    else:
        # the generic route expands each e_n into its 2^(n-1) h-words
        _bound("word degree", degree, 0, 10)
        _bound("log2 of the e-letter expansion",
               sum(n - 1 for n, c in left + right if c == form.E), 0, 10)
        value = form.pair_words_generic(left, right)
        if q == "generic":
            payload = list(value.coeffs)
        else:
            value = payload = value.evaluate(q)
    shown = str(value)
    if args.format == "json":
        print(json.dumps({"left": args.left, "right": args.right, "q": args.q,
                          "value": payload}))
    elif args.format == "csv":
        emit_csv([["left", "right", "q", "value"],
                  [args.left, args.right, args.q, shown]])
    else:
        print(shown)
    return 0


def cmd_expand(args) -> int:
    what = args.what
    index = parse_parts(args.index)
    _bound("index degree", sum(index), 0, 9)
    if what == "htilde":
        if args.in_basis != "h":
            raise ValueError("htilde expands over h-words only")
        terms = form.htilde_expansion(index)
        emit_expansion(args, f"htilde({fmt_parts(index)})", terms, "h")
        return 0
    makers = {
        "e": oddring.e_elt,
        "m": bases.monomial,
        "f": bases.forgotten,
        "s": bases.schur,
        "p": lambda p: bases.power_sum(p[0]),
    }
    if what == "p" and len(index) != 1:
        raise ValueError("power sums are indexed by a single integer")
    if what in ("m", "f", "s") and not is_partition(index):
        raise ValueError(f"{what} is indexed by a partition (weakly decreasing "
                         f"parts): {args.index!r}")
    elt = makers[what](index)
    terms = elt.terms if args.in_basis == "h" else oddring.e_coordinates(elt)
    emit_expansion(args, f"{what}({fmt_parts(index)})", terms,
                   args.in_basis)
    return 0


def cmd_kostka(args) -> int:
    n = _int(args.degree, "an integer for --degree")
    _bound("degree", n, 1, 8)
    parts, rows = bases.kostka_matrix(n)
    emit_table(args, parts, parts, rows,
               f"signed Kostka numbers, degree {n} (rows = shape)")
    return 0


def cmd_gram(args) -> int:
    n = _int(args.degree, "an integer for --degree")
    _bound("degree", n, 1, 8)
    labels, rows = gramdet.gram_matrix(n, parse_q(args.q), args.basis)
    title = "" if args.format == "json" else (
        f"Gram matrix, degree {n}, q = {args.q}")
    emit_table(args, labels, labels, rows, title)
    return 0


def cmd_rsk(args) -> int:
    if (args.matrix is None) == (args.verify is None):
        raise ValueError("pass exactly one of --matrix or --verify")
    if args.verify is not None:
        n = _int(args.verify, "an integer for --verify")
        _bound("verify degree", n, 1, 7)
        # each class is written as it arrives; the JSON chunks form one flat list
        first_bad = None
        sep = "["
        for cls in rsk_verify_degree(n):
            if args.format == "json":
                sys.stdout.write(sep + json.dumps(cls["matrices"])[1:-1])
                sep = ", "
            else:
                print(
                    f"margins {fmt_parts(cls['mu'])} x {fmt_parts(cls['rho'])}: "
                    f"{len(cls['matrices'])} matrices, signed sum "
                    f"{cls['aggregate_sign_count']}, "
                    f"{'ok' if cls['ok'] else 'FAIL'}"
                )
            if first_bad is None and not cls["ok"]:
                first_bad = cls
        if args.format == "json":
            print("]")
        else:
            print("degree", n, "PASS" if first_bad is None else "FAIL")
            if first_bad is not None:
                print(json.dumps(first_bad))
        return 0 if first_bad is None else 1
    matrix = parse_matrix(args.matrix)
    _bound("matrix weight", sum(map(sum, matrix)), 0, 1000)
    _bound("matrix entry count", sum(map(len, matrix)), 1, 1000)
    payload = sign_record(matrix, rsk_map(matrix), matrix_sign(matrix))
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("P:", payload["P"])
        print("Q:", payload["Q"])
        print(
            "sign(A) =", payload["sign_A"],
            " sign(P) =", payload["sign_P"],
            " sign(Q) =", payload["sign_Q"],
            " shape sign =", payload["shape_sign"],
        )
    return 0


def cmd_det(args) -> int:
    n = _int(args.degree, "an integer for --degree")
    _bound("degree", n, 2, gramdet.GENERIC_DET_BOUND)
    report = gramdet.det_degree_check(n)
    payload = {"degree_check": report}
    ok = report["ok"]
    if args.factors:
        payload["factors"] = gramdet.factor_multiplicity_check(n)
        ok = ok and payload["factors"]["ok"]
    det = gramdet.gram_det(n)
    if args.format == "json":
        payload["determinant"] = list(det.coeffs)
        print(json.dumps(payload))
    else:
        print(f"det degree {report['det_degree']} (formula {report['formula']}), "
              f"leading coefficient {report['leading_coefficient']}: "
              f"{'ok' if report['ok'] else 'FAIL'}")
        if n <= 3:
            print("det =", det)
        if args.factors:
            for f in payload["factors"]["items"]:
                print(f"  {f['factor']}: multiplicity {f['multiplicity']} "
                      f"(listed {f['listed']}) {'ok' if f['ok'] else 'FAIL'}")
            print(f"  residual after all listed factors: "
                  f"{payload['factors']['residual']}")
    if not ok:
        if args.format != "json":
            print(json.dumps(payload))
        return 1
    return 0


def run_suite(suite: str, max_degree: int):
    """Yields (name, failures) pairs; a check passes when its list of
    failure witnesses is empty."""
    if suite in ("hopf", "all"):
        yield "hopf/adjointness", hopf.adjointness_check(max_degree)
        for n in range(max_degree + 1):
            yield f"hopf/antipode-axiom deg {n}", hopf.antipode_axiom_check(n)
            yield (f"hopf/composite-involutive deg {n}",
                   hopf.composite_involutive_check(n))
        yield "hopf/group-relations", hopf.group_relations_check(max_degree)
        yield "hopf/images", hopf.antipode_images_check(max_degree)
        yield "hopf/generating-function", [
            w for n in range(1, max_degree + 1)
            for w in hopf.generating_function_check(n)
        ]
        yield "hopf/schur-action", hopf.schur_action_check(max_degree)
    if suite in ("schur", "all"):
        for n in range(1, max_degree + 1):
            yield f"schur/orthonormality deg {n}", bases.schur_orthonormality(n)
        for lam in partitions_of(max_degree):
            yield f"schur/alt-routes {fmt_parts(lam)}", bases.schur_alt_routes(lam)
    if suite in ("rsk", "all"):
        for n in range(1, max_degree + 1):
            yield f"rsk/sign-theorem deg {n}", sign_theorem_check(n)
    if suite in ("semiorth", "all"):
        for n in range(1, max_degree + 1):
            yield f"semiorth deg {n}", oddring.semiorthogonality_check(n)
    if suite in ("primitives", "all"):
        for n in range(1, max_degree + 1):
            yield f"primitives deg {n}", hopf.primitives_check(n)
        for k in range(1, max_degree):
            yield f"primitives/centrality p_{k}", hopf.centrality_check(k, max_degree)


def cmd_verify(args) -> int:
    max_degree = _int(args.max_degree, "an integer for --max-degree")
    _bound(f"max degree of suite {args.suite}", max_degree, 1,
           VERIFY_MAX_DEGREE[args.suite])
    failures = []
    results = []
    for name, witness in run_suite(args.suite, max_degree):
        results.append({"check": name, "ok": not witness})
        if args.format != "json":
            note = ""
            if name.startswith("hopf/composite-involutive"):
                note = ("  (involutive composite; the axiom-satisfying antipode"
                        " is not involutive)")
            print(f"{'FAIL' if witness else 'PASS'}  {name}{note}")
        if witness:
            failures.append({"check": name, "witness": witness})
    if args.format == "json":
        print(json.dumps({"results": results, "failures": failures}))
    elif failures:
        print(json.dumps({"failures": failures}))
    return 1 if failures else 0


def cmd_tables(args) -> int:
    if not args.appendix:
        raise ValueError("nothing to do: pass --appendix")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write_csv(name, row_labels, col_labels, rows):
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(table_cells(row_labels, col_labels, rows))

    for n in range(1, 6):
        parts, rows = bases.kostka_matrix(n)
        write_csv(f"kostka_degree_{n}.csv", parts, parts, rows)
    for n in range(1, 5):
        labels, rows = gramdet.gram_matrix(n)
        write_csv(f"gram_generic_degree_{n}.csv", labels, labels, rows)
    for n in range(1, 7):
        labels, rows = gramdet.gram_matrix(n, q=-1, basis="partitions")
        write_csv(f"gram_qminus1_degree_{n}.csv", labels, labels, rows)

    def write_expansions(name, indices, maker):
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "h-basis expansion"])
            for lam in indices:
                w.writerow([fmt_parts(lam), repr(maker(lam))])

    upto4 = [lam for n in range(1, 5) for lam in partitions_of(n)]
    upto5 = [lam for n in range(1, 6) for lam in partitions_of(n)]
    write_expansions("monomial_expansions.csv", upto4, bases.monomial)
    write_expansions("forgotten_expansions.csv", upto4, bases.forgotten)
    write_expansions("schur_expansions.csv", upto5, bases.schur)

    data = resources.files("oddsym.data").joinpath("degenerate_factors.json").read_text()
    (out / "degenerate_factors.json").write_text(data)
    print(f"wrote appendix tables to {out}")
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of main reads the same one."""
    parser = argparse.ArgumentParser(
        prog="oddsym",
        description="Exact computations in the ring of odd symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, with_csv=False):
        formats = ("plain", "csv", "json") if with_csv else ("plain", "json")
        p.add_argument("--format", choices=formats, default="plain")

    p = sub.add_parser("pair", help="bilinear form of two basis words")
    p.add_argument("--basis", choices=("h", "e", "mixed"), default="h")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--q", default="generic")
    add_format(p, with_csv=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("expand", help="expand a named element in a basis")
    p.add_argument("--what", choices=("e", "m", "f", "s", "p", "htilde"),
                   required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--in-basis", dest="in_basis", choices=("h", "e"),
                   default="h")
    add_format(p, with_csv=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("kostka", help="signed Kostka table for one degree")
    p.add_argument("--degree", required=True)
    add_format(p, with_csv=True)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("gram", help="Gram matrix of the pairing")
    p.add_argument("--degree", required=True)
    p.add_argument("--q", default="generic")
    p.add_argument("--basis", choices=("compositions", "partitions"),
                   default="compositions")
    add_format(p, with_csv=True)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("rsk", help="RSK of a matrix, or exhaustive sign check")
    p.add_argument("--matrix", help="JSON list of rows")
    p.add_argument("--verify", metavar="DEGREE",
                   help="check the sign theorem for all margins of this weight")
    add_format(p)
    p.set_defaults(func=cmd_rsk)

    p = sub.add_parser("det", help="Gram determinant analysis")
    p.add_argument("--degree", required=True)
    p.add_argument("--factors", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=VERIFY_MAX_DEGREE, required=True)
    p.add_argument("--max-degree", dest="max_degree", default="5")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="regenerate the appendix tables")
    p.add_argument("--appendix", action="store_true")
    p.add_argument("--out", default="appendix_tables")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
