"""Output checks, run in the worker after the timed job has ended.

Operations of the `det`, `tables` and `hopf` workloads are reduced to a
fingerprint that run.py compares with the digest recorded in
expected.json.  Every `queries` response is recomputed through a second
route that the CLI does not take for that request.
"""

import hashlib
import json
from pathlib import Path

from oddsym import bases, form, oddring
from oddsym.combinat import Tableau, matrix_sign, partitions_of, shape_sign
from oddsym.polyq import QPoly


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _options(argv) -> dict:
    """`--name value` pairs after the subcommand."""
    return dict(zip(argv[1::2], argv[2::2]))


def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def fingerprint(workload: str, argv, stdout: str, root: Path) -> str:
    """What the digest in expected.json covers for one operation."""
    if workload == "det":
        payload = json.loads(stdout)
        ok = payload["degree_check"]["ok"] and payload["factors"]["ok"]
        return sha256(json.dumps([ok, payload["determinant"]]))
    if argv[:2] == ["tables", "--appendix"]:
        out = root / argv[argv.index("--out") + 1]
        files = sorted(p for p in out.iterdir() if p.is_file())
        return sha256("".join(f"{p.name}\n{p.read_text()}\n" for p in files))
    if workload == "hopf":
        report = json.loads(stdout)
        if report["failures"] or not all(r["ok"] for r in report["results"]):
            return "failed checks"
    return sha256(stdout)


# ---------------------------------------------------------------------------
# queries: an independent route per request


def _word(text: str, basis: str):
    if basis == "h":
        return form.h_word(_parts(text))
    if basis == "e":
        return form.e_word(_parts(text))
    return tuple((int(t[1:]), form.E if t[0] == "e" else form.H)
                 for t in text.split(","))


def _check_pair(opts, payload) -> bool:
    basis = opts["--basis"]
    left, right = _word(opts["--left"], basis), _word(opts["--right"], basis)
    odd = form.pair_words_odd(left, right)
    if opts["--q"] == "-1":
        return payload["value"] == odd
    poly = QPoly(payload["value"])
    if poly.evaluate(-1) != odd:
        return False
    if basis == "h":
        return poly.evaluate(2) == form.pair_h_at(_parts(opts["--left"]),
                                                  _parts(opts["--right"]), 2)
    return True


def _check_expand(opts, payload) -> bool:
    """Rebuild the element in the h-basis, then test its defining property
    with the colored q = -1 pairing, which no expansion route uses."""
    what, index = opts["--what"], _parts(opts["--index"])
    ((_, coords),) = payload.items()
    coords = {_parts(k): c for k, c in coords.items()}
    if opts["--in-basis"] == "e":
        x = oddring.OddElt.zero()
        for lam, c in coords.items():
            x = x + oddring.e_elt(lam).scale(c)
    else:
        x = oddring.OddElt(coords)
    if what == "e":
        return x == oddring.normalize_via_gram({form.e_word(index): 1})
    as_words = {form.h_word(p): c for p, c in x.terms.items()}
    if what == "p":
        what, index = "m", (index[0],)
    for lam in partitions_of(sum(index)):
        if what == "m":
            got, want = form.pair_words_odd(form.h_word(lam), as_words), int(lam == index)
        elif what == "f":
            got, want = form.pair_words_odd(form.e_word(lam), as_words), int(lam == index)
        else:
            got = form.pair_words_odd(form.h_word(lam), as_words)
            want = shape_sign(index) * bases.kostka(index, lam)
        if got != want:
            return False
    return True


def _check_rsk(opts, payload) -> bool:
    """The sign theorem and the content/shape conditions of the pair."""
    matrix = json.loads(opts["--matrix"])
    p, q = Tableau(payload["P"]), Tableau(payload["Q"])
    col_sums = tuple(sum(col) for col in zip(*matrix))
    row_sums = tuple(sum(row) for row in matrix)
    return (
        payload["matrix"] == matrix
        and p.shape == q.shape
        and p.is_semistandard()
        and q.is_semistandard()
        and p.content(len(col_sums)) == col_sums
        and q.content(len(row_sums)) == row_sums
        and payload["sign_A"] == matrix_sign(matrix)
        and payload["sign_P"] == p.sign()
        and payload["sign_Q"] == q.sign()
        and payload["shape_sign"] == shape_sign(p.shape)
        and payload["sign_A"] == shape_sign(p.shape) * p.sign() * q.sign()
    )


def _check_gram(opts, payload) -> bool:
    """Entries at q = -1 against the colored pairing of the labels."""
    labels = [tuple(r) for r in payload["rows"]]
    if labels != [tuple(c) for c in payload["columns"]]:
        return False
    for b, row in zip(labels, payload["entries"]):
        for a, entry in zip(labels, row):
            value = QPoly(entry).evaluate(-1) if opts["--q"] == "generic" else entry
            if value != form.pair_words_odd(form.h_word(b), form.h_word(a)):
                return False
    return len(labels) == len(payload["entries"])


def _check_kostka(opts, payload) -> bool:
    """Unitriangularity, and sum_lam shape_sign(lam) K[lam][mu] K[lam][rho]
    = (h_mu, h_rho) at q = -1 for every mu, rho."""
    parts = [tuple(r) for r in payload["rows"]]
    if parts != list(partitions_of(int(opts["--degree"]))):
        return False
    K = payload["entries"]
    if any(K[i][i] != 1 for i in range(len(parts))):
        return False
    for m, mu in enumerate(parts):
        for r, rho in enumerate(parts):
            total = sum(shape_sign(lam) * K[i][m] * K[i][r]
                        for i, lam in enumerate(parts))
            if total != form.pair_words_odd(form.h_word(mu), form.h_word(rho)):
                return False
    return True


QUERY_CHECKS = {
    "pair": _check_pair,
    "expand": _check_expand,
    "rsk": _check_rsk,
    "gram": _check_gram,
    "kostka": _check_kostka,
}


def check_query(argv, stdout: str) -> bool:
    return QUERY_CHECKS[argv[0]](_options(argv), json.loads(stdout))
