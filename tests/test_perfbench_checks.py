"""The benchmark's output checks call library routes that no CLI path pins
(oddring.normalize_via_gram, bases.kostka, OddElt.zero, + and scale, ==,
QPoly.evaluate).  One request of each `queries` kind runs through the CLI
here and must pass its check, so a change to those routes fails here
instead of in a benchmark run; a response with one value changed must fail
it."""

import importlib.util
import json
from pathlib import Path

import pytest

from oddsym.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, workloads = load("checks"), load("workloads")


def kind(argv) -> str:
    """The workloads.QUERY_MIX kind of a request."""
    if argv[0] == "pair":
        return "pair_" + argv[argv.index("--basis") + 1]
    if argv[0] == "expand":
        return "expand_" + argv[argv.index("--what") + 1]
    return argv[0]


def first_of_each_kind() -> dict:
    first: dict = {}
    for op in workloads.job_ops("queries", 1, 0):
        first.setdefault(kind(op["argv"]), op["argv"])
    return first


FIRST = first_of_each_kind()


def respond(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_every_kind_is_drawn():
    assert sorted(FIRST) == sorted(workloads.QUERY_MIX)
    argvs = list(FIRST.values())
    # the routes named above are all reached
    assert any(a[:4] == ["expand", "--what", "e", "--index"] for a in argvs)
    assert any("--in-basis" in a and a[a.index("--in-basis") + 1] == "e" for a in argvs)
    assert any("generic" in a for a in argvs)


@pytest.mark.parametrize("name", sorted(workloads.QUERY_MIX))
def test_first_request_passes_its_check(capsys, name):
    argv = FIRST[name]
    assert checks.check_query(argv, respond(argv, capsys)) is True


def test_changed_gram_entry_fails(capsys):
    argv = FIRST["gram"]
    payload = json.loads(respond(argv, capsys))
    entry = payload["entries"][0][0]
    if isinstance(entry, list):  # generic q: shift the constant coefficient
        payload["entries"][0][0] = [entry[0] + 1] + entry[1:] if entry else [1]
    else:
        payload["entries"][0][0] = entry + 1
    assert checks.check_query(argv, json.dumps(payload)) is False


@pytest.mark.parametrize("name", ["expand_e", "expand_s", "expand_m"])
def test_changed_expand_coefficient_fails(capsys, name):
    argv = FIRST[name]
    payload = json.loads(respond(argv, capsys))
    ((_, coords),) = payload.items()
    key = next(iter(coords))
    coords[key] += 1
    assert checks.check_query(argv, json.dumps(payload)) is False
