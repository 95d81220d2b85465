import csv
import io
import json
import random

import pytest

from oddsym import form, gramdet, hopf, rsk
from oddsym.combinat import matrices_with_margins
from oddsym.cli import (
    MAX_WORD_DEGREE,
    build_parser,
    main,
    parse_colored,
    parse_parts,
    parse_q,
)


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
        # each e_7 expands into 64 h-words, so the generic route would pair
        # 64^4 word pairs; the colored rule answers directly
        assert main(["pair", "--basis", "e", "--left", "7,7", "--right", "7,7",
                     "--q", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

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
        # integer entries, against the colored q = -1 rule
        assert main(["gram", "--degree", "3", "--q", "-1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        labels = [tuple(r) for r in data["rows"]]
        assert labels == gramdet.composition_labels(3)
        assert data["entries"] == [
            [form.pair_words_odd(form.h_word(b), form.h_word(a)) for a in labels]
            for b in labels]

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
        records = [r for cls in rsk.rsk_verify_degree(3) for r in cls["matrices"]]
        assert len(records) > 1
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(records))

    def test_rsk_verify_failure(self, monkeypatch, capsys):
        # each row the kernel fills gains one SW-NE pair, which flips sign(A)
        # of every two-row matrix
        fillings = rsk.row_fillings
        monkeypatch.setattr(rsk, "row_fillings", lambda *args: [
            (m, exp + 1) for m, exp in fillings(*args)])
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

    WITNESS = [{"lambda": [2, 1], "failed": ["braid"]}]

    def test_verify_failure_plain(self, monkeypatch, capsys):
        monkeypatch.setattr(hopf, "group_relations_check", lambda n: self.WITNESS)
        assert main(["verify", "--suite", "hopf", "--max-degree", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  hopf/group-relations" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert json.loads(lines[-1]) == {
            "failures": [{"check": "hopf/group-relations", "witness": self.WITNESS}]
        }

    def test_verify_failure_json(self, monkeypatch, capsys):
        monkeypatch.setattr(hopf, "group_relations_check", lambda n: self.WITNESS)
        assert main(["verify", "--suite", "hopf", "--max-degree", "2",
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {"check": "hopf/group-relations", "ok": False} in report["results"]
        assert sum(not r["ok"] for r in report["results"]) == 1
        assert report["failures"] == [
            {"check": "hopf/group-relations", "witness": self.WITNESS}
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
        from oddsym import gramdet

        patched = tuple(
            dict(f, multiplicities={**f["multiplicities"], 3: 6})
            if f["name"] == "q" else f
            for f in gramdet.degenerate_factors()
        )
        monkeypatch.setattr(gramdet, "degenerate_factors", lambda: patched)
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

    @pytest.mark.parametrize("bad", [
        ["pair", "--basis", "x", "--left", "2", "--right", "2"],
        ["pair", "--left", "2,x", "--right", "1"],
        ["rsk", "--verify", "2", "--format", "csv"],
        ["gram", "--degree", "0", "--basis", "partitions"],
    ])
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
             "expected an integer for --degree: '\uff18'"),
            (["gram", "--degree", " 2"], "expected an integer for --degree: ' 2'"),
            (["verify", "--suite", "hopf", "--max-degree", "\uff12"],
             "expected an integer for --max-degree: '\uff12'"),
            (["rsk", "--verify", "1_0"], "expected an integer for --verify: '1_0'"),
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
        (["kostka", "--degree", "+3"], "expected an integer for --degree: '+3'"),
        (["det", "--degree", "+3"], "expected an integer for --degree: '+3'"),
        (["verify", "--suite", "hopf", "--max-degree", "+2"],
         "expected an integer for --max-degree: '+2'"),
        (["rsk", "--verify", "+3"], "expected an integer for --verify: '+3'"),
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
            (["pair", "--basis", "e", "--left", "5,5", "--right", "10"],
             "log2 of the e-letter expansion must be in 0..10"),
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
        ],
    )
    def test_at_bound_input_is_answered(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out
