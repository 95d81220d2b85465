import contextlib
import csv
import hashlib
import io
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oddsym import form, gramdet, hopf, rsk
from oddsym.combinat import matrices_with_margins, partitions_of
from oddsym.cli import (
    BOUNDS,
    build_parser,
    main,
    parse_colored,
    parse_parts,
    parse_q,
)

# The largest word degree, which also bounds a k^m repeat count.
MAX_WORD_DEGREE = BOUNDS["k^m"][2]

# Inputs that exit 2: an argparse error, a malformed word, a format the
# subcommand does not render, and a bound.
USAGE_ERRORS = [
    ["pair", "--basis", "x", "--left", "2", "--right", "2"],
    ["pair", "--left", "2,x", "--right", "1"],
    ["rsk", "--verify", "2", "--format", "csv"],
    ["gram", "--degree", "0", "--basis", "partitions"],
]

# The failure witness of an injected hopf/group-relations fault.
WITNESS = [{"lambda": [2, 1], "failed": ["braid"]}]


def overstate_q_multiplicity(monkeypatch):
    """Lists the multiplicity of q in the degree-3 determinant as 6; it is 5."""
    patched = tuple(
        dict(f, multiplicities={**f["multiplicities"], 3: 6})
        if f["name"] == "q" else f
        for f in gramdet.degenerate_factors()
    )
    monkeypatch.setattr(gramdet, "degenerate_factors", lambda: patched)


def fail_group_relations(monkeypatch):
    monkeypatch.setattr(hopf, "group_relations_check", lambda n: WITNESS)


def flip_two_row_signs(monkeypatch):
    """Each row the RSK kernel fills gains one SW-NE pair, which flips sign(A)
    of every two-row matrix."""
    fillings = rsk.row_fillings
    monkeypatch.setattr(rsk, "row_fillings", lambda *args: [
        (m, exp + 1) for m, exp in fillings(*args)])


def raise_an_entry_to_nine(monkeypatch):
    """After each row insertion the largest entry of P becomes 9, outside the
    content range."""
    insert_row = rsk._insert_row

    def raised(p_rows, q_rows, i, row):
        insert_row(p_rows, q_rows, i, row)
        max(p_rows, key=lambda r: r[-1])[-1] = 9

    monkeypatch.setattr(rsk, "_insert_row", raised)


def random_composition(rng, n):
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


class TestParsing:
    def test_plain(self):
        assert parse_parts("2,2") == (2, 2)
        assert parse_parts("5") == (5,)

    def test_power_shorthand(self):
        assert parse_parts("1^5") == (1, 1, 1, 1, 1)
        assert parse_parts("3,1^2") == (3, 1, 1)
        assert parse_parts("2^2,1") == (2, 2, 1)
        assert parse_parts(f"1^{MAX_WORD_DEGREE}") == (1,) * MAX_WORD_DEGREE

    def test_ascii_signs_and_spaces_around_commas(self):
        # only --q takes a sign
        with pytest.raises(ValueError):
            parse_parts("+3")
        assert parse_parts(" 2 , 2 ") == parse_parts("2,2")
        assert parse_parts("2 ^ 2") == (2, 2)
        assert parse_q("-1") == -1 and parse_q("+3") == 3

    @pytest.mark.parametrize("text", ["\uff12", "1_0", " 2", "2 ", "0x2", "--2"])
    def test_integer_tokens_are_ascii_digits(self, text):
        with pytest.raises(ValueError):
            parse_q(text)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_parts("2,0")
        with pytest.raises(ValueError):
            parse_parts("-1")

    def test_colored(self):
        assert parse_colored("e2,h1,h2") == ((2, "e"), (1, "h"), (2, "h"))
        assert parse_colored("2,3") == ((2, "h"), (3, "h"))
        # the empty word and the k^m shorthand read as in parse_parts
        assert parse_colored("") == parse_colored("0") == ()
        assert parse_colored("e2^3") == ((2, "e"),) * 3
        assert parse_colored("h1^2,3^2,e1") == (
            (1, "h"), (1, "h"), (3, "h"), (3, "h"), (1, "e"))

    @pytest.mark.parametrize("text, message", [
        ("ex", "expected comma-separated letters e<n>, h<n> or <n> (an h): 'ex'"),
        ("E1", "expected comma-separated letters e<n>, h<n> or <n> (an h): 'E1'"),
        ("h0", "letter subscripts must be positive: 'h0'"),
        ("1^17", f"repeat count in '1^17' must be in 1..{MAX_WORD_DEGREE}"),
    ])
    def test_colored_rejects(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_colored(text)
        assert str(exc.value) == message


class TestCommands:
    def test_pair_generic(self, capsys):
        assert main(["pair", "--left", "2,2", "--right", "1,2,1", "--q", "generic"]) == 0
        assert capsys.readouterr().out.strip() == "1+2q^2+q^3"

    def test_pair_mixed_at_minus_one(self, capsys):
        code = main(["pair", "--basis", "mixed", "--left", "e2,h1,h2",
                     "--right", "h2,e3", "--q", "-1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_pair_mixed_empty_words(self, capsys):
        assert main(["pair", "--basis", "mixed", "--left", "", "--right", "0",
                     "--q", "-1"]) == 0
        assert capsys.readouterr().out == "1\n"

    @pytest.mark.parametrize("q, value", [("1", "4"), ("2", "17")])
    def test_pair_integer_q(self, capsys, q, value):
        # at q = 1 the pairing counts the N-matrices with these margins
        assert len(matrices_with_margins((2, 2), (1, 2, 1))) == 4
        assert main(["pair", "--left", "2,2", "--right", "1,2,1", "--q", q]) == 0
        assert capsys.readouterr().out == f"{value}\n"

    def test_pair_integer_q_csv(self, capsys):
        assert main(["pair", "--left", "2,2", "--right", "1,2,1", "--q", "1",
                     "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["left", "right", "q", "value"], ["2,2", "1,2,1", "1", "4"]]

    def test_pair_csv_bytes(self, capsys):
        # the csv.writer dialect of every other CSV output: CRLF, quotes only
        # around fields with a comma
        assert main(["pair", "--left", "2,2", "--right", "1,2,1", "--q", "1",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == 'left,right,q,value\r\n"2,2","1,2,1",1,4\r\n'

    def test_pair_at_integer_q_bound(self, capsys):
        q = 2**64
        assert main(["pair", "--left", "2,2", "--right", "1,2,1", "--q", str(q)]) == 0
        assert capsys.readouterr().out == f"{1 + 2 * q**2 + q**3}\n"

    def test_pair_e_basis(self, capsys):
        assert main(["pair", "--basis", "e", "--left", "3", "--right", "3",
                     "--q", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_pair_at_minus_one_matches_generic_route(self, capsys):
        # --q -1 takes the colored q = -1 rule; the expansion of e-letters
        # into h-words, evaluated at -1, is the oracle
        rng = random.Random(20110728)
        for basis in ("e", "mixed"):
            for _ in range(30):
                n = rng.randint(1, 5)
                left, right = (
                    tuple((p, form.E if basis == "e" else rng.choice((form.E, form.H)))
                          for p in random_composition(rng, n))
                    for _ in range(2)
                )
                texts = [",".join(str(p) if basis == "e" else c + str(p) for p, c in w)
                         for w in (left, right)]
                assert main(["pair", "--basis", basis, "--left", texts[0],
                             "--right", texts[1], "--q", "-1"]) == 0
                want = form.pair_words_generic(left, right).evaluate(-1)
                assert int(capsys.readouterr().out) == want, texts

    def test_pair_e_basis_degree_fourteen(self, capsys):
        # degree 14 is past the generic route's bound of 10; the colored rule
        # answers directly
        assert main(["pair", "--basis", "e", "--left", "7,7", "--right", "7,7",
                     "--q", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_pair_of_unequal_degrees_enters_no_recursion(self, capsys):
        # degrees 15 and 16: the colored recursion would fill rows until the
        # margins fail
        misses = form._pair_colored.cache_info().misses
        assert main(["pair", "--basis", "e", "--left", "3^5", "--right", "2^8",
                     "--q", "-1"]) == 0
        assert capsys.readouterr().out == "0\n"
        assert form._pair_colored.cache_info().misses == misses

    def test_pair_json(self, capsys):
        assert main(["pair", "--left", "2", "--right", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == [1]

    def test_expand(self, capsys):
        assert main(["expand", "--what", "s", "--index", "2,2"]) == 0
        out = capsys.readouterr().out
        assert "h(2,2)" in out and "-2*h(4)" in out

    def test_expand_power_sum_json(self, capsys):
        assert main(["expand", "--what", "p", "--index", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p(3)"] == {"1,1,1": 1, "2,1": 1, "3": -1}

    def test_expand_htilde(self, capsys):
        assert main(["expand", "--what", "htilde", "--index", "3,1"]) == 0
        assert "- h(4)" in capsys.readouterr().out

    def test_expand_in_e_basis(self, capsys):
        assert main(["expand", "--what", "m", "--index", "1^4",
                     "--in-basis", "e"]) == 0
        assert "e(4)" in capsys.readouterr().out

    def test_expand_csv_bytes(self, capsys):
        assert main(["expand", "--what", "m", "--index", "2,1",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == 'index,coefficient\r\n"2,1",-1\r\n3,1\r\n'

    def test_kostka_plain_table(self, capsys):
        assert main(["kostka", "--degree", "3"]) == 0
        assert capsys.readouterr().out == (
            "signed Kostka numbers, degree 3 (rows = shape)\n"
            "       1,1,1  2,1  3\n"
            "1,1,1      1    0  0\n"
            "  2,1      0    1  0\n"
            "    3      1    1  1\n"
        )

    def test_gram_plain_table(self, capsys):
        assert main(["gram", "--degree", "2"]) == 0
        assert capsys.readouterr().out == (
            "Gram matrix, degree 2, q = generic\n"
            "     1,1  2\n"
            "1,1  1+q  1\n"
            "  2    1  1\n"
        )

    def test_kostka_csv(self, capsys):
        assert main(["kostka", "--degree", "5", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].startswith(',"1,1,1,1,1"')
        # row (2,2,1) has the signed entry -1 in column (1^5)
        row = next(r for r in rows if r.startswith('"2,2,1"'))
        assert row.split(",")[3] == "-1"

    def test_gram_partition_basis(self, capsys):
        assert main(["gram", "--degree", "6", "--q", "-1",
                     "--basis", "partitions", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        row = next(r for r in rows if r.startswith('"2,2,2"'))
        assert row.endswith("6,6,3,-3,6,5,5,3,0,3,1")

    def test_gram_json_round_trip(self, capsys):
        assert main(["gram", "--degree", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"][0][0] == [1, 2, 2, 1]  # [3]! constant-first

    def test_kostka_json(self, capsys):
        assert main(["kostka", "--degree", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == data["columns"] == [[1, 1, 1], [2, 1], [3]]
        assert data["entries"] == [[1, 0, 0], [0, 1, 0], [1, 1, 1]]

    def test_gram_json_at_an_integer_q(self, capsys):
        # integer entries, against the generic pairing evaluated at q = -1
        assert main(["gram", "--degree", "3", "--q", "-1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        labels = [tuple(r) for r in data["rows"]]
        assert labels == gramdet.composition_labels(3)
        assert data["entries"] == [
            [form.pair_h_generic(b, a).evaluate(-1) for a in labels] for b in labels]

    def test_rsk_matrix(self, capsys):
        assert main(["rsk", "--matrix", "[[1,0],[0,1],[1,0]]",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["P"] == [[1, 1], [2]]
        assert data["Q"] == [[1, 2], [3]]
        assert data["sign_A"] == -1

    def test_rsk_verify(self, capsys):
        assert main(["rsk", "--verify", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_rsk_verify_json(self, capsys):
        # the class-by-class chunks form one list of every class's records
        assert main(["rsk", "--verify", "3", "--format", "json"]) == 0
        records = [json.loads(r) for cls in rsk.rsk_verify_degree(3) for r in cls["matrices"]]
        assert len(records) > 1
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(records))

    def test_rsk_verify_record_is_the_matrix_payload(self, capsys):
        # one record builder: without "ok", each verify record serializes
        # byte for byte, key order included, as the rsk --matrix payload
        count = 0
        for n in range(1, 5):
            for cls in rsk.rsk_verify_degree(n):
                for record in cls["matrices"]:
                    record = {k: v for k, v in json.loads(record).items() if k != "ok"}
                    assert main(["rsk", "--matrix", json.dumps(record["matrix"]),
                                 "--format", "json"]) == 0
                    assert capsys.readouterr().out == json.dumps(record) + "\n"
                    count += 1
        assert count == sum(len(matrices_with_margins(mu, rho))
                            for n in range(1, 5)
                            for mu in partitions_of(n) for rho in partitions_of(n))

    def test_rsk_verify_entry_out_of_range(self, monkeypatch, capsys):
        # an entry outside the content range: a failed check with its
        # witness, not exit 2
        raise_an_entry_to_nine(monkeypatch)
        assert main(["rsk", "--verify", "2"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert lines[-2] == "degree 2 FAIL"
        first = json.loads(lines[-1])
        assert (first["mu"], first["rho"], first["ok"]) == ([1, 1], [1, 1], False)
        # both images are semistandard, so only the content check rejects them
        assert [(e["P"], e["ok"]) for e in first["matrices"]] == [
            ([[1], [9]], False), ([[2], [9]], False)]

    def test_rsk_verify_failure(self, monkeypatch, capsys):
        flip_two_row_signs(monkeypatch)
        assert main(["rsk", "--verify", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "margins 1,1 x 1,1: 2 matrices, signed sum 0, FAIL"
        assert lines[-2] == "degree 2 FAIL"
        first = json.loads(lines[-1])
        assert (first["mu"], first["rho"], first["ok"]) == ([1, 1], [1, 1], False)

    def test_det_with_factors(self, capsys):
        assert main(["det", "--degree", "3", "--factors"]) == 0
        out = capsys.readouterr().out
        assert "det degree 7 (formula 7)" in out
        assert "q: multiplicity 5 (listed 5) ok" in out

    @pytest.mark.parametrize("n, multiplicities", [
        (2, {"q": 1}),
        (3, {"q": 5, "q-1": 1, "q+1": 1}),
        (4, {"q": 17, "q-1": 4, "q+1": 4, "q^6+2q^4-q^3+2q^2+1": 1}),
        (5, {"q": 49, "q-1": 14, "q+1": 12, "q^6+2q^4-q^3+2q^2+1": 2,
             "q^2+q+1": 2, "q^2-q+1": 1, "degree-18 palindromic": 1}),
        (6, {"q": 129, "q-1": 38, "q+1": 34, "q^6+2q^4-q^3+2q^2+1": 5,
             "q^2+q+1": 6, "q^2-q+1": 4, "degree-18 palindromic": 2,
             "q^2+1": 2, "degree-10 palindromic": 1,
             "degree-50 palindromic": 1}),
    ])
    def test_det_factor_multiplicities(self, capsys, n, multiplicities):
        assert main(["det", "--degree", str(n), "--factors", "--format", "json"]) == 0
        factors = json.loads(capsys.readouterr().out)["factors"]
        assert factors["items"] == [
            {"factor": name, "multiplicity": m, "listed": m, "ok": True}
            for name, m in multiplicities.items()
        ]
        assert factors["residual"] == "1" and factors["ok"] is True

    def test_verify_suite(self, capsys):
        assert main(["verify", "--suite", "semiorth", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_verify_check_names(self, capsys):
        assert main(["verify", "--suite", "all", "--max-degree", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("PASS  ") for line in lines)
        assert [line[6:] for line in lines] == [
            "hopf/adjointness",
            "hopf/antipode-axiom deg 0",
            "hopf/composite-involutive deg 0  (involutive composite; the "
            "axiom-satisfying antipode is not involutive)",
            "hopf/antipode-axiom deg 1",
            "hopf/composite-involutive deg 1  (involutive composite; the "
            "axiom-satisfying antipode is not involutive)",
            "hopf/antipode-axiom deg 2",
            "hopf/composite-involutive deg 2  (involutive composite; the "
            "axiom-satisfying antipode is not involutive)",
            "hopf/antipode-axiom deg 3",
            "hopf/composite-involutive deg 3  (involutive composite; the "
            "axiom-satisfying antipode is not involutive)",
            "hopf/group-relations",
            "hopf/images",
            "hopf/generating-function",
            "hopf/schur-action",
            "schur/orthonormality deg 1",
            "schur/orthonormality deg 2",
            "schur/orthonormality deg 3",
            "schur/alt-routes 1,1,1",
            "schur/alt-routes 2,1",
            "schur/alt-routes 3",
            "rsk/sign-theorem deg 1",
            "rsk/sign-theorem deg 2",
            "rsk/sign-theorem deg 3",
            "semiorth deg 1",
            "semiorth deg 2",
            "semiorth deg 3",
            "primitives deg 1",
            "primitives deg 2",
            "primitives deg 3",
            "primitives/centrality p_1",
            "primitives/centrality p_2",
        ]

    def test_verify_failure_plain(self, monkeypatch, capsys):
        fail_group_relations(monkeypatch)
        assert main(["verify", "--suite", "hopf", "--max-degree", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  hopf/group-relations" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert json.loads(lines[-1]) == {
            "failures": [{"check": "hopf/group-relations", "witness": WITNESS}]
        }

    def test_verify_failure_json(self, monkeypatch, capsys):
        fail_group_relations(monkeypatch)
        assert main(["verify", "--suite", "hopf", "--max-degree", "2",
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {"check": "hopf/group-relations", "ok": False} in report["results"]
        assert sum(not r["ok"] for r in report["results"]) == 1
        assert report["failures"] == [
            {"check": "hopf/group-relations", "witness": WITNESS}
        ]

    def test_tables_byte_stable(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["tables", "--appendix", "--out", str(out1)]) == 0
        assert main(["tables", "--appendix", "--out", str(out2)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len(names) == 19
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tables_kostka_content(self, tmp_path, capsys):
        assert main(["tables", "--appendix", "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        text = (tmp_path / "t" / "kostka_degree_4.csv").read_text()
        assert '"3,1",1,0,-1,1,0' in text


class TestExitCodes:
    def test_bad_partition_syntax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--left", "2,x", "--right", "2"])
        assert exc.value.code == 2

    def test_rsk_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit) as exc:
            main(["rsk"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["rsk", "--matrix", "[[1]]", "--verify", "2"])
        assert exc.value.code == 2

    def test_det_overstated_multiplicity_is_a_failure(self, monkeypatch, capsys):
        overstate_q_multiplicity(monkeypatch)
        assert main(["det", "--degree", "3", "--factors"]) == 1
        out = capsys.readouterr().out
        assert "q: multiplicity 5 (listed 6) FAIL" in out
        assert json.loads(out.splitlines()[-1])["factors"]["ok"] is False

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_tables_out_path_blocked_by_a_file(self, tmp_path, capsys, below):
        # --out is an existing file (FileExistsError) or lies under one
        # (NotADirectoryError): one error line and exit 2, no traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--appendix", "--out", str(blocker.joinpath(*below))])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--appendix"],
            ["rsk", "--verify", "2"],
            ["det", "--degree", "2"],
            ["verify", "--suite", "rsk", "--max-degree", "2"],
        ],
    )
    def test_takes_no_csv_format(self, monkeypatch, tmp_path, argv):
        # tables takes no --format; rsk, det and verify render plain or json
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("bad", USAGE_ERRORS)
    def test_usage_error_leaves_the_next_call_unchanged(self, capsys, bad):
        valid = ["pair", "--basis", "e", "--left", "2,1", "--right", "1,2",
                 "--q", "-1", "--format", "json"]
        build_parser.cache_clear()
        assert main(valid) == 0
        alone = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(valid) == 0
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize("bad", [*USAGE_ERRORS, ["det"],
                                     ["det", "--degree", "3", "--format", "csv"]])
    def test_usage_error_is_one_stderr_line(self, capsys, bad):
        # argparse errors too: no usage line before the message
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [["-h"], ["det", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: oddsym")

    @pytest.mark.parametrize(
        "matrix", ["[[1.5,0]]", '[["a"]]', "[[1],[0,1]]", "[[true]]", "[[-1]]",
                   "5", "[]", "[[1,"])
    def test_rsk_matrix_contract(self, capsys, matrix):
        with pytest.raises(SystemExit) as exc:
            main(["rsk", "--matrix", matrix])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: matrix must be") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["pair", "--left", "2", "--right", "2"],
                                         ["gram", "--degree", "8"]])
    @pytest.mark.parametrize("q", [2**64 + 1, -(2**64) - 1])
    def test_integer_q_out_of_bound(self, capsys, command, q):
        # rejected before any work
        with pytest.raises(SystemExit) as exc:
            main([*command, "--q", str(q)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --q must be in {-(2**64)}..{2**64}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pair", "--left", "2,x", "--right", "1"],
             "expected comma-separated positive integers, k^m for m copies "
             "of k: '2,x'"),
            (["pair", "--left", "2^x", "--right", "1"],
             "expected comma-separated positive integers, k^m for m copies "
             "of k: '2^x'"),
            (["expand", "--what", "e", "--index", "y"],
             "expected comma-separated positive integers, k^m for m copies "
             "of k: 'y'"),
            (["pair", "--basis", "mixed", "--left", "ex", "--right", "h1"],
             "expected comma-separated letters e<n>, h<n> or <n> (an h): 'ex'"),
            (["pair", "--left", "2", "--right", "2", "--q", "x"],
             "expected generic or an integer for q: 'x'"),
            (["gram", "--degree", "3", "--q", "x"],
             "expected generic or an integer for q: 'x'"),
            (["gram", "--degree", "3", "--q", "2.5"],
             "expected generic or an integer for q: '2.5'"),
            (["pair", "--left", "\uff12", "--right", "2", "--q", "-1"],
             "expected comma-separated positive integers, k^m for m copies "
             "of k: '\uff12'"),
            (["pair", "--left", "2", "--right", "2", "--q", "1_0"],
             "expected generic or an integer for q: '1_0'"),
            (["pair", "--left", "2", "--right", "2", "--q", " -1"],
             "expected generic or an integer for q: ' -1'"),
            # int() would read these four as 8, 2, 2 and 10
            (["kostka", "--degree", "\uff18"],
             "expected a non-negative integer for --degree: '\uff18'"),
            (["gram", "--degree", " 2"],
             "expected a non-negative integer for --degree: ' 2'"),
            (["verify", "--suite", "hopf", "--max-degree", "\uff12"],
             "expected a non-negative integer for --max-degree: '\uff12'"),
            (["rsk", "--verify", "1_0"],
             "expected a non-negative integer for --verify: '1_0'"),
            (["kostka", "--degree", "-3"],
             "expected a non-negative integer for --degree: '-3'"),
        ],
    )
    def test_parse_error_names_the_expected_form(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["pair", "--left", "+3", "--right", "3"],
         "expected comma-separated positive integers, k^m for m copies of k: '+3'"),
        (["pair", "--left", "2^+2", "--right", "4"],
         "expected comma-separated positive integers, k^m for m copies of k: '2^+2'"),
        (["pair", "--basis", "mixed", "--left", "e+2", "--right", "h2"],
         "expected comma-separated letters e<n>, h<n> or <n> (an h): 'e+2'"),
        (["kostka", "--degree", "+3"],
         "expected a non-negative integer for --degree: '+3'"),
        (["det", "--degree", "+3"],
         "expected a non-negative integer for --degree: '+3'"),
        (["verify", "--suite", "hopf", "--max-degree", "+2"],
         "expected a non-negative integer for --max-degree: '+2'"),
        (["rsk", "--verify", "+3"],
         "expected a non-negative integer for --verify: '+3'"),
    ])
    def test_only_q_takes_a_sign(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("what", ["m", "f", "s"])
    def test_expand_index_must_be_a_partition(self, capsys, what):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--what", what, "--index", "3,4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "indexed by a partition" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["expand", "--what", "p", "--index", "2,1"],
         "power sums are indexed by a single integer"),
        (["tables"], "nothing to do: pass --appendix"),
    ])
    def test_nothing_to_compute(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_htilde_e_basis_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--what", "htilde", "--index", "2,1",
                  "--in-basis", "e"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["pair", "--left", "2^-1", "--right", "0"],
            ["pair", "--left", "2^0", "--right", "0"],
            ["pair", "--left", "1^17", "--right", "17", "--q", "-1"],
            ["pair", "--basis", "mixed", "--left", "e1^17", "--right", "h17",
             "--q", "-1"],
            ["expand", "--what", "e", "--index", "1^-3"],
            ["expand", "--what", "e", "--index", "1^1000000000000"],
        ],
    )
    def test_repeat_count_out_of_range(self, capsys, argv):
        # the count is checked before the list of copies is built
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repeat count in") and err.count("\n") == 1
        assert err.endswith(f"must be in 1..{MAX_WORD_DEGREE}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pair", "--left", "17", "--right", "17", "--q", "-1"],
             "word degree at q = -1 must be in 0..16"),
            (["pair", "--left", "11", "--right", "1^11", "--q", "2"],
             "word degree must be in 0..10"),
            (["pair", "--basis", "e", "--left", "11", "--right", "1^11"],
             "word degree must be in 0..10"),
            (["expand", "--what", "m", "--index", "10"],
             "index degree must be in 0..9"),
            (["rsk", "--matrix", "[[1001]]"], "matrix weight must be in 0..1000"),
            (["rsk", "--matrix", json.dumps([[0] * 1001])],
             "matrix entry count must be in 1..1000"),
            (["verify", "--suite", "hopf", "--max-degree", "10"],
             "max degree of suite hopf must be in 1..9"),
            (["verify", "--suite", "semiorth", "--max-degree", "11"],
             "max degree of suite semiorth must be in 1..10"),
            (["verify", "--suite", "all", "--max-degree", "8"],
             "max degree of suite all must be in 1..7"),
            (["verify", "--suite", "rsk", "--max-degree", "0"],
             "max degree of suite rsk must be in 1..7"),
            (["kostka", "--degree", "9"], "degree must be in 1..8"),
            (["gram", "--degree", "0"], "degree must be in 1..8"),
            (["det", "--degree", "1"], "degree must be in 2..7"),
            (["det", "--degree", "8"], "degree must be in 2..7"),
            (["det", "--degree", "9"], "degree must be in 2..7"),
            (["rsk", "--verify", "8"], "verify degree must be in 1..7"),
        ],
    )
    def test_out_of_bound_input(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pair", "--basis", "e", "--left", "4,4,4,4", "--right", "16",
             "--q", "-1"],
            ["pair", "--basis", "mixed", "--left", "e4,h6", "--right", "e5,h5",
             "--q", "generic"],
            ["expand", "--what", "m", "--index", "9"],
            ["rsk", "--matrix", "[[2,2,2],[2,2,2],[2,2,2]]"],
            # weight 1000 and 1000 entries, both rsk --matrix bounds
            ["rsk", "--matrix", json.dumps([[1] * 25] * 40)],
            ["pair", "--basis", "e", "--left", "5,5", "--right", "10"],
        ],
    )
    def test_at_bound_input_is_answered(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out


# The argv that gives the input of a BOUNDS key a value, for the keys that are
# not a command line to end with the value.
EDGE_ARGV = {
    "--q": lambda v: ["gram", "--degree", "2", "--q", str(v)],
    "pair": lambda v: ["pair", "--left", str(v), "--right", "1"],
    "pair --q -1": lambda v: ["pair", "--left", str(v), "--right", "1", "--q", "-1"],
    "k^m": lambda v: ["pair", "--left", f"1^{v}", "--right", "1"],
    "expand --index": lambda v: ["expand", "--what", "e", "--index", str(v)],
    "rsk --matrix weight": lambda v: ["rsk", "--matrix", f"[[{v}]]"],
    "rsk --matrix entries": lambda v: ["rsk", "--matrix", json.dumps([[0] * v])],
}


def bound_edge_argv(key: str, value: int) -> list[str]:
    return EDGE_ARGV.get(key, lambda v: [*key.split(), str(v)])(value)


BOUND_EDGES = [bound_edge_argv(key, value) for key, (_, lo, hi) in BOUNDS.items()
               for value in (lo - 1, hi + 1)]


def mostly(good, odd):
    """Draws from good seven times in eight, else from odd."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 7 else good)


# Tokens drawn in place of a number of the grammar: the forms int() would also
# take, over-long and zero-padded digit runs, and malformed text.
ODD_NUMBERS = st.sampled_from(
    ["", "0", "00", "-0", "+2", "-2", "2" * 25, "9" * 5000, "0" * 5000 + "2", "２", "٢",
     "1_0", " 2", "2 ", "2\t", "0x2", "1e3", "2.0", "^"])


def numbers(lo: int, hi: int):
    return mostly(st.integers(lo, hi).map(str), ODD_NUMBERS)


def words(letters: str):
    """Up to two tokens k or k^m, k and m up to 2, so that the accepted words
    stay at degree 8 or less, with odd tokens and odd whole words."""
    def tokens(count):
        return st.lists(st.builds("{}{}{}".format, st.sampled_from(letters), count,
                                  st.one_of(st.just(""), count.map("^{}".format))),
                        max_size=2).map(",".join)
    return mostly(tokens(st.integers(1, 2).map(str)), st.one_of(
        tokens(numbers(1, 2)), st.sampled_from(["0", ",", "1,,1", " 1 , 2 ", "1 ^ 2"])))


def option(name, values):
    return values.map(lambda value: [name, value])


def command(*parts):
    return st.tuples(*parts).map(lambda chunks: [x for chunk in chunks for x in chunk])


Q = option("--q", mostly(
    st.sampled_from(["generic", "-1", "0", "1", "2", "-2", "+1", str(2**64), str(-(2**64))]),
    st.sampled_from(["x", "", "-", "1.5", "--1", "２", "9" * 5000, "-" + "9" * 5000])))
FORMAT = mostly(st.sampled_from([[], ["--format", "plain"], ["--format", "csv"],
                                 ["--format", "json"]]), st.just(["--format", "xml"]))
MATRIX = option("--matrix", mostly(
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1,
             max_size=3).map(json.dumps),
    st.sampled_from(["[" * 1000 + "]" * 1000, "[[1.5]]", "[[true]]", '[["1"]]', "[[1,",
                     "", "{}", "null", "[[-1]]", "[[1e3]]", "[[1],[0,1]]", "[]",
                     f"[[{'9' * 5000}]]"])))
SUITES = [key.split()[2] for key in BOUNDS if key.startswith("verify ")]
PAIR_LETTERS = {"h": " ", "e": " ", "mixed": "eh ", "x": " "}

GRAMMAR = st.one_of(
    mostly(st.sampled_from(["h", "e", "mixed"]), st.just("x")).flatmap(lambda basis: command(
        st.just(["pair", "--basis", basis]), option("--left", words(PAIR_LETTERS[basis])),
        option("--right", words(PAIR_LETTERS[basis])), Q, FORMAT)),
    command(st.just(["expand", "--what"]),
            st.sampled_from(["e", "m", "f", "s", "p", "htilde"]).map(lambda w: [w]),
            option("--index", words(" ")),
            st.sampled_from([[], ["--in-basis", "h"], ["--in-basis", "e"]]), FORMAT),
    command(st.just(["kostka"]), option("--degree", numbers(1, 4)), FORMAT),
    command(st.just(["gram"]), option("--degree", numbers(1, 4)), Q,
            st.sampled_from([[], ["--basis", "partitions"]]), FORMAT),
    command(st.just(["rsk"]), mostly(st.one_of(MATRIX, option("--verify", numbers(1, 3))),
                                     command(MATRIX, option("--verify", numbers(1, 3)))),
            FORMAT),
    command(st.just(["det"]), option("--degree", numbers(2, 3)),
            st.sampled_from([[], ["--factors"]]), FORMAT),
    command(st.just(["verify"]), option("--suite", st.sampled_from(SUITES)),
            option("--max-degree", numbers(1, 2)), FORMAT),
    st.just(["tables"]),
)


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def with_examples(argvs):
    """Decorates a test of (argv, cut) with each argv, uncut, as an example."""
    def decorate(test):
        for argv in argvs:
            test = example(argv, -1)(test)
        return test
    return decorate


def readme_bound_rows():
    """The cells of the table that follows "Input bounds" in the README."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    lines = lines[next(i for i, line in enumerate(lines) if line.startswith("Input bounds")):]
    table = itertools.takewhile(lambda line: line.startswith("|"),
                                itertools.dropwhile(lambda line: not line.startswith("|"), lines))
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in list(table)[2:]]


def readme_number(cell: str) -> int:
    """A decimal, or a power of two written 2^k or -2^k."""
    sign, caret, power = cell.partition("2^")
    return (-1 if sign else 1) * 2 ** int(power) if caret else int(cell)


class TestContract:
    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_deeply_nested_matrix_is_malformed(self, depth):
        code, out, err = run_main(["rsk", "--matrix", "[" * depth + "]" * depth])
        assert (code, out) == (2, "")
        assert err == ("error: matrix must be a JSON list of equal-length rows with "
                       "non-negative integer entries\n")

    @pytest.mark.parametrize("argv, message", [
        (["pair", "--left", "9" * 4400, "--right", "1"], "word degree must be in 0..10"),
        (["pair", "--left", "9" * 4400, "--right", "1", "--q", "-1"],
         "word degree at q = -1 must be in 0..16"),
        (["gram", "--degree", "9" * 5000], "degree must be in 1..8"),
        (["expand", "--what", "e", "--index", "9" * 5000], "index degree must be in 0..9"),
        (["pair", "--left", "1^" + "9" * 5000, "--right", "1"],
         f"repeat count in '1^{'9' * 5000}' must be in 1..16"),
        (["pair", "--left", "1", "--right", "1", "--q", "-" + "9" * 5000],
         f"--q must be in {-(2**64)}..{2**64}"),
        (["verify", "--suite", "rsk", "--max-degree", "9" * 5000],
         "max degree of suite rsk must be in 1..7"),
    ])
    def test_over_long_integer_gets_the_bound_message(self, argv, message):
        # int() refuses more than 4300 digits on CPython 3.11+
        assert run_main(argv) == (2, "", f"error: {message}\n")

    def test_leading_zeros_do_not_count_as_digits(self):
        code, out, _ = run_main(["kostka", "--degree", "0" * 5000 + "2", "--format", "json"])
        assert code == 0 and out == run_main(["kostka", "--degree", "2", "--format", "json"])[1]

    def test_readme_lists_every_bound(self):
        rows = [(key.strip("`"), name, readme_number(lo), readme_number(hi))
                for key, _, name, lo, hi in readme_bound_rows()]
        assert rows == [(key, *bound) for key, bound in BOUNDS.items()]

    @pytest.mark.parametrize("key", BOUNDS)
    def test_bound_edges_exit_2(self, key):
        name, lo, hi = BOUNDS[key]
        for value in (lo - 1, hi + 1):
            code, out, err = run_main(bound_edge_argv(key, value))
            assert (code, out) == (2, "") and err.startswith("error: "), (value, err)
            assert err.count("\n") == 1, err
        # hi + 1 is well formed, so it gets the bound's message
        assert err.startswith(f"error: {name}") and err.endswith(f" must be in {lo}..{hi}\n")

    @pytest.fixture
    def checked(self):
        """The argv that one run of the contract test has checked."""
        return set()

    # every bound edge, and nesting past the recursion limit (which hypothesis
    # raises while it runs a test), run before the draws; the fixture lives
    # for the whole run, which is what the health check warns of
    @with_examples([*BOUND_EDGES, ["rsk", "--matrix", "[" * 10**5 + "]" * 10**5]])
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(GRAMMAR, mostly(st.just(-1), st.integers(0, 11)))
    def test_every_input_exits_0_1_or_2(self, checked, argv, cut):
        # cut drops one element of the argv, when it has one there; a draw of
        # an argv already checked is rejected, so that the draws are distinct
        argv = argv[:cut] + argv[cut + 1:] if 0 <= cut < len(argv) else argv
        assume(tuple(argv) not in checked)
        code, out, err = run_main(argv)
        failures = (argv[:1] == ["verify"] or argv[:1] == ["det"] and "--factors" in argv
                    or argv[:1] == ["rsk"] and "--verify" in argv)
        assert code in (0, 2) or code == 1 and failures, (argv, code)
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        if code != 2 and "json" in argv:
            json.loads(out)
        if code != 2 and "csv" in argv:
            list(csv.reader(io.StringIO(out)))
        checked.add(tuple(argv))



# The bytes of every renderer: each subcommand in each format it accepts, and
# the four injected faults, as (argv, fault, exit code, sha256 of stdout).  The
# tables run in a fresh directory, so their stdout names the relative --out.
# The two gram JSON rows carry the plain title; every other digest is that of
# the output before the writers took over the formats.
RENDER_PINS = [
    (["pair", "--left", "2,2", "--right", "1,2,1"], None, 0,
     "76287aa20fdd955213a3035b688fe8af61be2ca6d25afb9bb1eaa9aac39d3ccd"),
    (["pair", "--left", "2,2", "--right", "1,2,1", "--format", "csv"], None, 0,
     "0a99e56deb8412908592bb2464f0afbd87b1ea6e4cb3c1db0691a92c90e7736b"),
    (["pair", "--left", "2,2", "--right", "1,2,1", "--format", "json"], None, 0,
     "612a9a8c09b2b944d0c7b93ae7a2f142c136841a16ea09b3ba64e873547ad7d3"),
    (["pair", "--basis", "mixed", "--left", "e2,h1", "--right", "h2,e1", "--q", "-1",
      "--format", "csv"], None, 0,
     "8f9a796a02dc8bbebbf81115b03829583308191bf1abd9e55f4b64a41c8d8ed9"),
    (["expand", "--what", "s", "--index", "2,2"], None, 0,
     "52f915b5982b45c0c0e5f6644aadb8cc790154e65e7a0bc31baccbba43e854a2"),
    (["expand", "--what", "s", "--index", "2,2", "--format", "csv"], None, 0,
     "d1e2516124c172eaf3deede7fceb36a7ab9de9a793078d15b85d153b3cb94015"),
    (["expand", "--what", "s", "--index", "2,2", "--format", "json"], None, 0,
     "479389b2a55afae0ab4237da5ada77afeb9c6b02cb235365d8ceac969d8c81b6"),
    (["expand", "--what", "m", "--index", "1^4", "--in-basis", "e"], None, 0,
     "fc3db87a7c71d81aa1c71b13af845ea5c15ca82ff6d492d3f8f59a427c1f4455"),
    (["expand", "--what", "htilde", "--index", "2,1"], None, 0,
     "8482f0c3518de9621da58a32d2725578db9051ba409ae701dbab119a8a586e4e"),
    (["expand", "--what", "e", "--index", "0", "--format", "csv"], None, 0,
     "4c260381f5ab4575f6fe73663f408759d7d40bc734860174d44dbc245045fb99"),
    (["kostka", "--degree", "4"], None, 0,
     "09a756ad4a147c79eed1338066af294b2b1670b5359ddc5814250a9b8ef9ae1c"),
    (["kostka", "--degree", "4", "--format", "csv"], None, 0,
     "eae837cf561279a012bca6fb75f99776e43cf03fd56a68657fb6d6cb37cb120b"),
    (["kostka", "--degree", "4", "--format", "json"], None, 0,
     "647c842656b98699d629cbbad6e3d9471935ec24767af7cd11fd5a5790e67ad9"),
    (["gram", "--degree", "3"], None, 0,
     "93de714e3a44611394e0de933529af98e213656bfa00a8eacb0d4febb4b17f9b"),
    (["gram", "--degree", "3", "--format", "csv"], None, 0,
     "83cd52afcc8bb0eb629841431cf84b336151f37b9c6d874ae3a18cedc7b67161"),
    (["gram", "--degree", "3", "--format", "json"], None, 0,
     "057c68f2369b457734f2bc9e39c461a76c9c66e8b24f588b86de83437bef44e3"),
    (["gram", "--degree", "4", "--q", "-1", "--basis", "partitions"], None, 0,
     "32407692da43dd3f5d1ec915007b22b68caaf4bd79417b18c52e8321387be02d"),
    (["gram", "--degree", "4", "--q", "-1", "--basis", "partitions", "--format", "csv"],
     None, 0, "99a2519849326999697140e7ad4ec853213cc287650681b021101055669675c1"),
    (["gram", "--degree", "4", "--q", "-1", "--basis", "partitions", "--format", "json"],
     None, 0, "cf40d7a2f6b4f81f92569c26f60d91aea46855fd356d02ed65497267306bb3cc"),
    (["rsk", "--matrix", "[[1,0],[0,1],[1,0]]"], None, 0,
     "a391fc285110caf654afb480304ded89f1652f5a762a7c90afbd193a64975edd"),
    (["rsk", "--matrix", "[[1,0],[0,1],[1,0]]", "--format", "json"], None, 0,
     "271cd8a0e609d1820482848249a75bb92ea738f427bb10db733b84fc0734c73b"),
    (["rsk", "--verify", "3"], None, 0,
     "ac8a9304a6d4aa09e6d6e4fccb6640f3596adb5eebbe17e76cb4197611dc4026"),
    (["rsk", "--verify", "3", "--format", "json"], None, 0,
     "61ab6f7ed9a8f0588df69f9f82854b2d0909727acdcdeec6deb8dec2a56554fc"),
    (["det", "--degree", "3", "--factors"], None, 0,
     "d667bebe89c2ecc5df7a253d6c32fea91ccf0fd0fe7751e2297119bc8e68cbf2"),
    (["det", "--degree", "3", "--factors", "--format", "json"], None, 0,
     "e9e4207dd5227d49402c572d68e96e96cd7b45e03af90647de91ed8ac1a74b4c"),
    (["det", "--degree", "4"], None, 0,
     "0f6b9fdf19de56ee4c57e776077898bb50df2546bae4621db909d6fabd99c3db"),
    (["det", "--degree", "4", "--format", "json"], None, 0,
     "eebcd064c9a942dd6755e5e8a3a4bf9efa42f0ce0a9e9d042551fc88e9328525"),
    (["verify", "--suite", "all", "--max-degree", "2"], None, 0,
     "87277ae43603261fdf5fcbdabc109cc984cfe12668a3ea52aff5de5f2697d158"),
    (["verify", "--suite", "all", "--max-degree", "2", "--format", "json"], None, 0,
     "2471d9405e979e6cc86db70b75e9602f12ebb1288aab3e20918a6edbaf3db86c"),
    (["tables", "--appendix", "--out", "t"], None, 0,
     "1bb51afcb5df872dbb4b44e4930a16852dcd7190cea7c1eee6701aa72135e522"),
    (["det", "--degree", "3", "--factors"], overstate_q_multiplicity, 1,
     "6cb695327ab62acc7d2917bb637e3d860bf7ef0a8e7dbf0548c0e215bef76453"),
    (["det", "--degree", "3", "--factors", "--format", "json"], overstate_q_multiplicity,
     1, "120867f5d17ead2402a01dfa40961e7a7a970c7f4376c08938ac5ddaa7ceab22"),
    (["verify", "--suite", "hopf", "--max-degree", "2"], fail_group_relations, 1,
     "64d5b3b3bf8ee2c64d4bef51629876ac90d9a3c75c29ba6ffbb7b17ea1c0e809"),
    (["verify", "--suite", "hopf", "--max-degree", "2", "--format", "json"],
     fail_group_relations, 1, "f05a9a6279f051ab57ccdfd68ce020cb4dbf621cf65cbb321a98c785191bd6bd"),
    (["rsk", "--verify", "2"], flip_two_row_signs, 1,
     "78beb4cc8196fd8740e0d4bdb5f8e23a1ca670d43945b69bde7f658c0659a31b"),
    (["rsk", "--verify", "2", "--format", "json"], flip_two_row_signs, 1,
     "b3947acda319caf0ae374ce4e5138da1e70269e328eb8deb523f34591ffcfa6e"),
    (["rsk", "--verify", "2"], raise_an_entry_to_nine, 1,
     "2b7828d6b9905fe36d1a18e162402aee742acfaab0f84147c231b2074e36065b"),
    (["rsk", "--verify", "2", "--format", "json"], raise_an_entry_to_nine, 1,
     "c72f226290b3378725ba281ec627a4d5aaa41f98c79191d620c87f8c15b0ed6a"),
]


class BrokenPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestRenderers:
    @pytest.mark.parametrize("argv, fault, code, digest", RENDER_PINS, ids=[
        " ".join(argv) + (f" ({fault.__name__})" if fault else "")
        for argv, fault, *_ in RENDER_PINS])
    def test_stdout_bytes(self, monkeypatch, tmp_path, argv, fault, code, digest):
        monkeypatch.chdir(tmp_path)
        if fault:
            fault(monkeypatch)
        got, out, err = run_main(argv)
        assert (got, err, hashlib.sha256(out.encode()).hexdigest()) == (code, "", digest)

    def test_gram_json_title_is_the_plain_title(self):
        argv = ["gram", "--degree", "2", "--q", "-1"]
        title = run_main(argv)[1].splitlines()[0]
        assert title == "Gram matrix, degree 2, q = -1"
        assert json.loads(run_main([*argv, "--format", "json"])[1])["title"] == title

    @pytest.mark.parametrize("argv", [
        ["rsk", "--verify", "2"],
        ["rsk", "--verify", "2", "--format", "json"],
        ["kostka", "--degree", "3"],
        ["verify", "--suite", "rsk", "--max-degree", "2"],
        ["pair", "--left", "2", "--right", "2"],
        ["tables", "--appendix", "--out", "t"],
    ], ids=" ".join)
    def test_failed_write_exits_2_with_one_line(self, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        err = io.StringIO()
        with contextlib.redirect_stdout(BrokenPipe()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert (exc.value.code, err.getvalue()) == (2, "error: [Errno 32] Broken pipe\n")
