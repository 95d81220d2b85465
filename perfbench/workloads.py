"""Seeded operation lists for the benchmark workloads.

An operation is one argv for ``oddsym.cli.main``, tagged with a ``key`` that
names it independently of the order it runs in.  Each `queries` job of a run
gets its own request list, derived from (seed, job index), so a run's medians
span several lists while one seed always yields the same lists.  Nothing here
imports oddsym: only the generated argv reaches the program.
"""

import random

WORKLOADS = ("det", "tables", "hopf", "queries")

# Directory, relative to the checkout root, that `tables --appendix` writes.
APPENDIX_DIR = ".perfbench_tmp/appendix_tables"

# Requests per kind in one `queries` job.  The counts are fixed and the
# degrees cycle through their range, so every job has the same shape and only
# the words, partitions, matrices and the order are drawn from the seed.  That
# keeps the latency tail, which the 10th-slowest request sets, comparable
# across seeds.
QUERY_MIX = {
    "pair_h": 150,
    "pair_e": 60,
    "pair_mixed": 60,
    "expand_e": 40,
    "expand_s": 40,
    "expand_m": 40,
    "expand_f": 40,
    "expand_p": 40,
    "rsk": 70,
    "gram": 36,
    "kostka": 24,
}

# The CLI pairs e-words by expanding each letter e_n into 2^(n-1) h-words.
# Every e/mixed `pair` request expands into exactly 2^k word pairs, with
# k = min(PAIR_EXPANSION_LOG2, 2n - 2) at degree n: small requests that still
# take the slow route.
PAIR_EXPANSION_LOG2 = 7


def _rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{job}")


def _op(argv) -> dict:
    return {"key": " ".join(argv), "argv": list(argv)}


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, parts weakly decreasing, in a fixed order."""
    if n == 0:
        return [()]
    largest = n if largest is None else min(largest, n)
    return [
        (first,) + rest
        for first in range(largest, 0, -1)
        for rest in partitions(n - first, first)
    ]


def _fmt(parts) -> str:
    return ",".join(map(str, parts))


# The batch workloads run a fixed list in a fixed order: their inputs are the
# whole of a degree range, and order would only move which operation pays for
# a memo table first.  Only `queries` draws its requests from the seed.


def det_ops(rng: random.Random) -> list[dict]:
    # Degrees 5 and 6 only.  Below 5 a call takes milliseconds; as the
    # median call of the job it would set req_p50_ms alone, and calls that
    # short swing by a fifth or more between runs.
    return [_op(["det", "--degree", str(n), "--factors", "--format", "json"])
            for n in (5, 6)]


def tables_ops(rng: random.Random) -> list[dict]:
    ops = [
        _op(["tables", "--appendix", "--out", APPENDIX_DIR]),
        _op(["kostka", "--degree", "8", "--format", "json"]),
    ]
    for what in "mfs":
        for n in range(1, 8):
            for lam in partitions(n):
                ops.append(_op(["expand", "--what", what, "--index", _fmt(lam),
                                "--format", "json"]))
    ops.append(_op(["rsk", "--verify", "7", "--format", "json"]))
    return ops


def hopf_ops(rng: random.Random) -> list[dict]:
    return [
        _op(["verify", "--suite", "hopf", "--max-degree", "9", "--format", "json"]),
        _op(["verify", "--suite", "semiorth", "--max-degree", "10",
             "--format", "json"]),
    ]


def _composition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    return tuple(parts + [run])


def _pair_request(rng: random.Random, basis: str, n: int) -> list[str]:
    expansion = min(PAIR_EXPANSION_LOG2, 2 * n - 2)
    while True:
        left, right = _composition(rng, n), _composition(rng, n)
        letters = left + right
        if basis == "h":
            colors = "h" * len(letters)
        elif basis == "e":
            colors = "e" * len(letters)
        else:
            colors = "".join(rng.choice("eh") for _ in letters)
        if basis != "h" and expansion != sum(
                p - 1 for p, c in zip(letters, colors) if c == "e"):
            continue
        if basis == "mixed":
            tokens = [c + str(p) for c, p in zip(colors, letters)]
            left_text = ",".join(tokens[: len(left)])
            right_text = ",".join(tokens[len(left):])
        else:
            left_text, right_text = _fmt(left), _fmt(right)
        return ["pair", "--basis", basis, "--left", left_text, "--right",
                right_text, "--q", rng.choice(("-1", "generic")), "--format",
                "json"]


def _query(rng: random.Random, kind: str, i: int) -> list[str]:
    """The i-th request of one kind in a job."""
    if kind.startswith("pair_"):
        return _pair_request(rng, kind[len("pair_"):], 3 + i % 8)
    if kind.startswith("expand_"):
        what, n = kind[len("expand_"):], 1 + i % 7
        index = str(n) if what == "p" else _fmt(rng.choice(partitions(n)))
        return ["expand", "--what", what, "--index", index, "--in-basis",
                rng.choice("he"), "--format", "json"]
    if kind == "rsk":
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        while True:
            matrix = [[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)]
            if any(map(any, matrix)):
                break
        return ["rsk", "--matrix", str(matrix).replace(" ", ""), "--format",
                "json"]
    if kind == "gram":
        generic = i % 2 == 0
        return ["gram", "--degree", str(1 + i // 2 % (4 if generic else 5)),
                "--q", "generic" if generic else "-1", "--basis",
                rng.choice(("compositions", "partitions")), "--format", "json"]
    if kind == "kostka":
        return ["kostka", "--degree", str(1 + i % 6), "--format", "json"]
    raise ValueError(f"unknown query kind {kind!r}")


def queries_ops(rng: random.Random) -> list[dict]:
    """One client session: a closed loop of small in-bounds requests."""
    ops = [_op(_query(rng, kind, i))
           for kind, count in QUERY_MIX.items() for i in range(count)]
    rng.shuffle(ops)
    return ops


MAKERS = {"det": det_ops, "tables": tables_ops, "hopf": hopf_ops,
          "queries": queries_ops}

def job_ops(workload: str, seed: int, job: int) -> list[dict]:
    """The operation list of one job of a run."""
    return MAKERS[workload](_rng(workload, seed, job))


def repeat_share(ops: list[dict]) -> float:
    """Share of operations that repeat an earlier operation of the list."""
    seen: set[str] = set()
    repeats = 0
    for op in ops:
        repeats += op["key"] in seen
        seen.add(op["key"])
    return repeats / len(ops)
