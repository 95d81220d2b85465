"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes about a minute and exits 0 when every
check passes.  It checks that one seed yields one operation list, that
tracing changes no output, that every count the trace reports repeats
exactly, that a wrong recorded digest makes run.py fail, and that
BENCHMARK.json lists the metrics run.py reports.
"""

import json
import subprocess
import sys
import time

import run
import tracer
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def op(*argv: str) -> dict:
    return {"key": " ".join(argv), "argv": list(argv)}


# Short lists, one per workload, so traced runs stay quick.
SMALL = {
    "det": [op("det", "--degree", str(n), "--factors", "--format", "json")
            for n in range(2, 6)],
    "tables": [op("tables", "--appendix", "--out", workloads.APPENDIX_DIR)]
    + [op("expand", "--what", what, "--index", ",".join(map(str, lam)),
          "--format", "json")
       for what in "mfs" for n in range(1, 6) for lam in workloads.partitions(n)]
    + [op("rsk", "--verify", "4", "--format", "json")],
    "hopf": [op("verify", "--suite", "hopf", "--max-degree", "5", "--format", "json"),
             op("verify", "--suite", "semiorth", "--max-degree", "7",
                "--format", "json")],
    "queries": workloads.job_ops("queries", 7, 0)[:200],
}


def check_seeded_lists() -> None:
    for name in workloads.WORKLOADS:
        expect(workloads.job_ops(name, 7, 0) == workloads.job_ops(name, 7, 0),
               f"{name}: seed 7 yields the same operation list twice")
    queries = workloads.job_ops("queries", 7, 0)
    expect(queries != workloads.job_ops("queries", 8, 0),
           "queries: seeds 7 and 8 yield different requests")
    expect(queries != workloads.job_ops("queries", 7, 1),
           "queries: jobs 0 and 1 of seed 7 yield different requests")


def outputs(job: dict) -> list:
    return [(r["key"], r["code"], r["crash"], r["stdout_sha256"], r.get("ok"))
            for r in job["ops"]]


def check_tracing() -> None:
    counts = [m for m, unit in tracer.per_layer_metrics().items() if unit != "s"]
    for name, ops in SMALL.items():
        deadline = time.perf_counter() + run.RUN_DEADLINE_S
        plain, first, second = (
            run.spawn({"workload": name, "ops": ops, "trace": traced}, deadline)
            for traced in (False, True, True))
        expect(outputs(plain) == outputs(first) == outputs(second),
               f"{name}: traced and untraced runs give identical outputs")
        expect(all(r["code"] == 0 and r.get("ok", True) for r in plain["ops"]),
               f"{name}: every operation exits 0 and passes its check")
        differ = [m for m in counts if first["layers"][m] != second["layers"][m]]
        expect(not differ, f"{name}: every count metric repeats exactly {differ}")


def check_wrong_digest_fails() -> None:
    expected = json.loads((run.HERE / "expected.json").read_text())
    key = sorted(expected["hopf"])[0]
    expected["hopf"][key] = "0" * 64
    run.OUT_DIR.mkdir(exist_ok=True)
    bad = run.OUT_DIR / "wrong_expected.json"
    bad.write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "hopf",
         "--seconds", "1", "--expected", str(bad)],
        stdout=subprocess.PIPE, text=True, cwd=run.ROOT, timeout=180)
    bad.unlink()
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(proc.returncode != 0 and not result["correct"] and result["failed"] >= 1,
           "a wrong recorded digest makes run.py fail")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect(per_layer == tracer.per_layer_metrics(),
           "BENCHMARK.json per_layer matches the tracer")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def main() -> int:
    check_seeded_lists()
    check_benchmark_json()
    check_tracing()
    check_wrong_digest_fails()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
