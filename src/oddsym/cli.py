"""Batch command-line interface: pairings, expansions, tables, RSK, the
determinant analysis, and the verification suites.

Each subcommand checks its sized inputs against BOUNDS where it parses them,
before any work, and returns (failures, payload): the list of its failure
witnesses, empty on success, and the object that its JSON output encodes.
main hands both to the one writer of the requested format, which alone
renders them (plain and CSV by a renderer per subcommand), and exits 1 if
failures is not empty once the payload is written.  Exit codes: 0 all
requested checks pass, 1 verification failure (a JSON witness goes to
stdout), 2 usage error, input out of bound, or an output (a --out path or
stdout itself) that cannot be written.
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
from .rsk import rsk as rsk_map
from .rsk import decoded, rsk_verify_degree, sign_record, sign_theorem_check, tableau_facts

DIGITS = re.compile(r"[0-9]+")

# Every sized CLI input by where it is given: (the name its error message uses,
# lo, hi), inclusive.  A key ending in an option bounds that option's token.
BOUNDS = {
    "--q": ("--q", -(2**64), 2**64),
    # e-letters are rows and columns of one margin recursion, with no h-word
    # expansion: every e-word pair of degree 10 takes under 0.1 s
    "pair": ("word degree", 0, 10),
    "pair --q -1": ("word degree at q = -1", 0, 16),
    "expand --index": ("index degree", 0, 9),
    "kostka --degree": ("degree", 1, 8),
    "gram --degree": ("degree", 1, 8),
    "rsk --verify": ("verify degree", 1, 7),
    "rsk --matrix weight": ("matrix weight", 0, 1000),
    "rsk --matrix entries": ("matrix entry count", 1, 1000),
    "det --degree": ("degree", 2, gramdet.GENERIC_DET_BOUND),
    **{f"verify --suite {suite} --max-degree": (f"max degree of suite {suite}", 1, hi)
       for suite, hi in (("hopf", 9), ("schur", 8), ("rsk", 7), ("semiorth", 10),
                         ("primitives", 10), ("all", 7))},
}
# The largest word degree: every part is at least 1, so parse_parts rejects a
# longer k^m run before building it.
BOUNDS["k^m"] = ("repeat count", 1, BOUNDS["pair --q -1"][2])

# Every bound has at most this many digits, so a longer token (int() raises
# past 4300 digits) is past every bound and reads as 10^_WIDTH.
_WIDTH = max(len(str(abs(v))) for _, *bounds in BOUNDS.values() for v in bounds)


def _bound(key: str, value: int | str, what: str | None = None) -> int:
    """value if it lies in BOUNDS[key], else a ValueError naming the input.  A
    str value is the token of the option that ends the key."""
    if isinstance(value, str):
        value = _int(value, f"a non-negative integer for {key.rpartition(' ')[2]}")
    name, lo, hi = BOUNDS[key]
    if not lo <= value <= hi:
        raise ValueError(f"{what or name} must be in {lo}..{hi}")
    return value


def _int(token: str, expected: str, text: str | None = None) -> int:
    """The integer of an ASCII token [0-9]+, or a ValueError naming the
    expected form and echoing the input text (by default the token).  int()
    would also take a sign, other Unicode digits, underscores and
    whitespace."""
    if DIGITS.fullmatch(token) is None:
        raise ValueError(f"expected {expected}: {token if text is None else text!r}")
    digits = token.lstrip("0")
    return int(digits or "0") if len(digits) <= _WIDTH else 10**_WIDTH


def parse_q(text: str):
    """--q: "generic" or an integer of absolute value at most 2^64, the one
    integer that takes a sign (one leading + or -)."""
    if text == "generic":
        return text
    digits = text[1:] if text[:1] in ("+", "-") else text
    q = _int(digits, "generic or an integer for q", text)
    return _bound("--q", -q if text[:1] == "-" else q)


def _tokens(text: str, expected: str):
    """Yields (token, m) for each comma-separated token of a stripped word,
    written k or k^m for m copies of k, with m in BOUNDS["k^m"] checked before
    any copies are built.  Spaces may surround "," and "^".  The whole word ""
    or "0" is empty."""
    if text in ("", "0"):
        return
    for token in text.split(","):
        token = token.strip()
        base, caret, count = token.partition("^")
        base = base.rstrip()
        # a negative count is out of range rather than malformed
        count = count.lstrip()
        m = _int(count.removeprefix("-"), expected, text) if caret else 1
        yield base, _bound("k^m", -m if count.startswith("-") else m,
                           f"repeat count in {token!r}")


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
    except (ValueError, RecursionError):
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


# ---------------------------------------------------------------------------
# subcommands


def _pair_words(args):
    if args.basis == "mixed":
        return parse_colored(args.left), parse_colored(args.right)
    mk = form.e_word if args.basis == "e" else form.h_word
    return mk(parse_parts(args.left)), mk(parse_parts(args.right))


def cmd_pair(args):
    q = parse_q(args.q)
    left, right = _pair_words(args)
    degree = max(form.word_degree(left), form.word_degree(right))
    _bound("pair --q -1" if q == -1 else "pair", degree)
    if q == -1:
        value = form.pair_words_odd(left, right)
    else:
        value = form.pair_words_generic(left, right)
        if q != "generic":
            value = value.evaluate(q)
    return [], {"left": args.left, "right": args.right, "q": args.q, "value": value}


def cmd_expand(args):
    what = args.what
    index = parse_parts(args.index)
    _bound("expand --index", sum(index))
    if what == "htilde" and args.in_basis != "h":
        raise ValueError("htilde expands over h-words only")
    if what == "p" and len(index) != 1:
        raise ValueError("power sums are indexed by a single integer")
    if what in ("m", "f", "s") and not is_partition(index):
        raise ValueError(f"{what} is indexed by a partition (weakly decreasing "
                         f"parts): {args.index!r}")
    if what == "htilde":
        terms = form.htilde_expansion(index)
    else:
        elt = {"e": oddring.e_elt, "m": bases.monomial, "f": bases.forgotten,
               "s": bases.schur, "p": lambda p: bases.power_sum(p[0])}[what](index)
        terms = elt.terms if args.in_basis == "h" else oddring.e_coordinates(elt)
    return [], {f"{what}({fmt_parts(index)})": {
        ",".join(map(str, p)): c for p, c in sorted(terms.items())}}


def cmd_kostka(args):
    n = _bound("kostka --degree", args.degree)
    parts, rows = bases.kostka_matrix(n)
    return [], {"title": f"signed Kostka numbers, degree {n} (rows = shape)",
                "rows": parts, "columns": parts, "entries": rows}


def cmd_gram(args):
    n = _bound("gram --degree", args.degree)
    labels, rows = gramdet.gram_matrix(n, parse_q(args.q), args.basis)
    return [], {"title": f"Gram matrix, degree {n}, q = {args.q}",
                "rows": labels, "columns": labels, "entries": rows}


def cmd_rsk(args):
    if (args.matrix is None) == (args.verify is None):
        raise ValueError("pass exactly one of --matrix or --verify")
    if args.verify is not None:
        n = _bound("rsk --verify", args.verify)
        failures = []

        def classes():
            # filled as the writer drains the stream, so whole once it is written
            for cls in rsk_verify_degree(n):
                if not cls["ok"]:
                    failures.append(cls)
                yield cls

        return failures, classes()
    matrix = parse_matrix(args.matrix)
    _bound("rsk --matrix weight", sum(map(sum, matrix)))
    _bound("rsk --matrix entries", sum(map(len, matrix)))
    p, q = rsk_map(matrix)
    return [], sign_record(matrix, tableau_facts(p), tableau_facts(q), matrix_sign(matrix))


def cmd_det(args):
    n = _bound("det --degree", args.degree)
    checked = {"degree_check": gramdet.det_degree_check(n)}
    if args.factors:
        checked["factors"] = gramdet.factor_multiplicity_check(n)
    failures = [] if all(c["ok"] for c in checked.values()) else [checked]
    return failures, {**checked, "determinant": gramdet.gram_det(n)}


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
        # p_1 = h_1 commutes with h_1: p_k needs some h_m, m != k, in range
        for k in range(1, max_degree):
            if any(m != k for m in range(1, max_degree - k + 1)):
                yield f"primitives/centrality p_{k}", hopf.centrality_check(k, max_degree)


def cmd_verify(args):
    max_degree = _bound(f"verify --suite {args.suite} --max-degree", args.max_degree)
    results, failures = [], []
    for name, witness in run_suite(args.suite, max_degree):
        results.append({"check": name, "ok": not witness})
        if witness:
            failures.append({"check": name, "witness": witness})
    return failures, {"results": results, "failures": failures}


def cmd_tables(args):
    if not args.appendix:
        raise ValueError("nothing to do: pass --appendix")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write_table(name, row_labels, col_labels, rows):
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(table_cells(row_labels, col_labels, rows))

    for n in range(1, 6):
        parts, rows = bases.kostka_matrix(n)
        write_table(f"kostka_degree_{n}.csv", parts, parts, rows)
    for n in range(1, 5):
        labels, rows = gramdet.gram_matrix(n)
        write_table(f"gram_generic_degree_{n}.csv", labels, labels, rows)
    for n in range(1, 7):
        labels, rows = gramdet.gram_matrix(n, q=-1, basis="partitions")
        write_table(f"gram_qminus1_degree_{n}.csv", labels, labels, rows)

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
    return [], f"wrote appendix tables to {out}"


# ---------------------------------------------------------------------------
# writers: each renders a subcommand's (failures, payload) in one format


# The one JSON encoder, built once (json.dumps(default=...) builds one per
# call); a QPoly, the one value JSON has no form for, is its coefficient list.
_JSON = json.JSONEncoder(default=lambda poly: list(poly.coeffs))


def plain_expand(args, failures, payload):
    [(name, terms)] = payload.items()
    bits = []
    for index, c in terms.items():
        label = f"{args.in_basis}({index})" if index else "1"
        bits.append({1: f"+ {label}", -1: f"- {label}"}.get(c, f"{c:+d}*{label}"))
    yield f"{name} = {' '.join(bits) if bits else '0'}"


def _cells(payload):
    return table_cells(payload["rows"], payload["columns"], payload["entries"])


def plain_table(args, failures, payload):
    cells = _cells(payload)
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    yield payload["title"]
    for r in cells:
        yield "  ".join(x.rjust(w) for x, w in zip(r, widths))


def plain_rsk(args, failures, payload):
    if args.verify is None:
        yield f"P: {payload['P']}"
        yield f"Q: {payload['Q']}"
        yield (f"sign(A) = {payload['sign_A']}  sign(P) = {payload['sign_P']}  "
               f"sign(Q) = {payload['sign_Q']}  shape sign = {payload['shape_sign']}")
        return
    for cls in payload:
        yield (f"margins {fmt_parts(cls['mu'])} x {fmt_parts(cls['rho'])}: "
               f"{len(cls['matrices'])} matrices, signed sum "
               f"{cls['aggregate_sign_count']}, {'ok' if cls['ok'] else 'FAIL'}")
    yield f"degree {_bound('rsk --verify', args.verify)} {'FAIL' if failures else 'PASS'}"
    if failures:
        yield _JSON.encode(decoded(failures[0]))


def plain_det(args, failures, payload):
    report = payload["degree_check"]
    yield (f"det degree {report['det_degree']} (formula {report['formula']}), "
           f"leading coefficient {report['leading_coefficient']}: "
           f"{'ok' if report['ok'] else 'FAIL'}")
    if report["degree"] <= 3:
        yield f"det = {payload['determinant']}"
    if args.factors:
        for f in payload["factors"]["items"]:
            yield (f"  {f['factor']}: multiplicity {f['multiplicity']} "
                   f"(listed {f['listed']}) {'ok' if f['ok'] else 'FAIL'}")
        yield f"  residual after all listed factors: {payload['factors']['residual']}"
    if failures:
        yield _JSON.encode(failures[0])


def plain_verify(args, failures, payload):
    for result in payload["results"]:
        involutive = result["check"].startswith("hopf/composite-involutive")
        note = "  (involutive composite; the axiom-satisfying antipode is not involutive)"
        yield f"{'PASS' if result['ok'] else 'FAIL'}  {result['check']}{note if involutive else ''}"
    if failures:
        yield _JSON.encode({"failures": failures})


PLAIN = {"pair": lambda args, failures, payload: [str(payload["value"])],
         "expand": plain_expand, "kostka": plain_table, "gram": plain_table,
         "rsk": plain_rsk, "det": plain_det, "verify": plain_verify,
         "tables": lambda args, failures, payload: [payload]}
CSV = {"pair": lambda payload: [list(payload), list(payload.values())],
       "expand": lambda payload: [["index", "coefficient"]] + [
           [index or "-", c] for terms in payload.values() for index, c in terms.items()],
       "kostka": _cells, "gram": _cells}


def write_plain(args, failures, payload):
    for line in PLAIN[args.command](args, failures, payload):
        print(line)


def write_csv(args, failures, payload):
    """The one CSV writer of stdout: CRLF line ends, quotes only as needed."""
    csv.writer(sys.stdout).writerows(CSV[args.command](payload))


def write_json(args, failures, payload):
    if isinstance(payload, dict):
        print(_JSON.encode(payload))
        return
    # the rsk --verify stream: each class's records are JSON texts already,
    # joined into one flat list as the classes arrive
    sep = "["
    for cls in payload:
        sys.stdout.write(sep + ", ".join(cls["matrices"]))
        sep = ", "
    print("]")


WRITERS = {"plain": write_plain, "csv": write_csv, "json": write_json}


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argparse errors exit 2 with one stderr line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of main reads the same one."""
    parser = _Parser(
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
    p.add_argument("--suite", required=True, choices=[
        key.split()[2] for key in BOUNDS if key.startswith("verify ")])
    p.add_argument("--max-degree", dest="max_degree", default="5")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="regenerate the appendix tables")
    p.add_argument("--appendix", action="store_true")
    p.add_argument("--out", default="appendix_tables")
    p.set_defaults(func=cmd_tables, format="plain")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        failures, payload = args.func(args)
        # inside the handler, so a failed write to stdout exits 2 too
        WRITERS[args.format](args, failures, payload)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    # read after the write: a streamed payload fills failures as it drains
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
