"""Cold-start benchmark of the oddsym command line.

    python3 perfbench/run.py [--workload det|tables|hopf|queries|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each job runs in a fresh worker process
(perfbench/worker.py), so all memo caches start empty, as in a user's CLI
run.  A run repeats jobs until the next one would overrun --seconds, then
reports medians; each `queries` job draws its own requests from the seed.
With --trace 1 it runs one plain and one traced job and reports the
per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the run context and
each metric by name with its unit.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_tmp"

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
}
SETUP_SAMPLES = 7
# A run must end within 180 s: a worker still running at this point is
# killed and the run fails.
RUN_DEADLINE_S = 170
CALIBRATION_LOOPS = 1_000_000


class BenchError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
            timeout=max(deadline - start, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the run deadline ({spec['workload']})") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_raw_s"] = result["imported"] - start
    result["setup_s"] = result["setup_raw_s"] * speed.REFERENCE_S / result["setup_probe"]
    result["wall_s"] = time.perf_counter() - start
    return result


def tail(jobs: list[dict], key: str) -> tuple[float, float]:
    """(time, percentile) of the request latency tail, from the operation
    times under `key` ("scaled" or the measured "seconds").

    For one job it is the highest percentile with at least ten operations
    beyond it: the 11th slowest operation.  A run of J jobs pools their
    operations and takes the median of those ranked 10J+1 to 11J from the
    slowest, so every job's operations inform the estimate of that
    percentile; when each job runs the same list, that is the median over
    jobs of the 11th slowest.  When a job has fewer than eleven operations
    the tail is its slowest one, the median over jobs."""
    per_job = [sorted(row[key] for row in job["ops"]) for job in jobs]
    if min(map(len, per_job)) < 11:
        return statistics.median(lat[-1] for lat in per_job), 100.0
    pooled = sorted((x for latencies in per_job for x in latencies), reverse=True)
    beyond = 10 * len(per_job)
    return (statistics.median(pooled[beyond:beyond + len(per_job)]),
            100.0 * (len(pooled) - beyond) / len(pooled))


def timings(jobs: list[dict], setups: list[float], key: str) -> dict:
    """End-to-end metrics from the operation times under `key`: medians
    over jobs of each job's figure, and the tail over all jobs."""
    med = statistics.median
    return {
        "setup_s": med(setups),
        "job_s": med(sum(row[key] for row in job["ops"]) for job in jobs),
        "peak_rss_mb": med(job["peak_rss_mb"] for job in jobs),
        "req_p50_ms": 1000 * med(med(row[key] for row in job["ops"]) for job in jobs),
        "req_tail_ms": 1000 * tail(jobs, key)[0],
    }


def failed_ops(job: dict, expected: dict) -> list[str]:
    """Keys of the operations that exited non-zero, crashed, failed their
    check, or whose fingerprint differs from the recorded digest."""
    bad = []
    for row in job["ops"]:
        ok = row["code"] == 0 and not row["crash"] and row.get("ok", True)
        if "fingerprint" in row:
            ok = ok and row["fingerprint"] == expected.get(row["key"])
        if not ok:
            bad.append(row["key"])
    return bad


def layer_self_times(metrics: dict) -> dict:
    """Traced self time summed per layer (module), largest first."""
    totals: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + value
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    pkg = ROOT / "src" / "oddsym"
    digest = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 expected: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    idle = {"workload": name, "ops": [], "trace": False}
    spawn(idle, deadline)  # untimed: compiles bytecode once per checkout
    calibration_s = speed.probe(CALIBRATION_LOOPS)

    lists, jobs = [], []
    if trace:
        lists = [workloads.job_ops(name, seed, 0)]
        for traced in (False, True):
            jobs.append(spawn({"workload": name, "ops": lists[0], "trace": traced},
                              deadline))
    else:
        while not jobs or (time.perf_counter() - start
                           + max(j["wall_s"] for j in jobs) <= seconds):
            lists.append(workloads.job_ops(name, seed, len(jobs)))
            jobs.append(spawn({"workload": name, "ops": lists[-1], "trace": False},
                              deadline))
    idle_setups = [spawn(idle, deadline) for _ in range(SETUP_SAMPLES - len(jobs))]
    setups = jobs + idle_setups

    failed = [key for j in jobs for key in failed_ops(j, expected.get(name, {}))]
    attempted = sum(len(j["ops"]) for j in jobs)
    timed = jobs[:1] if trace else jobs
    measured = timings(timed, [j["setup_raw_s"] for j in setups], "seconds")
    if trace:
        metrics = dict(jobs[1]["layers"])
        metrics["trace.overhead_s"] = (sum(r["scaled"] for r in jobs[1]["ops"])
                                       - sum(r["scaled"] for r in jobs[0]["ops"]))
        units = tracer.per_layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace_{name}_seed{seed}.json"
        spans_path.write_text(json.dumps(jobs[1]["spans"], indent=1) + "\n")
    else:
        metrics = timings(jobs, [j["setup_s"] for j in setups], "scaled")
        units = END_TO_END
    context = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s,
        "jobs": len(jobs),
        "ops_per_job": [len(ops) for ops in lists],
        "repeat_share": statistics.mean(workloads.repeat_share(ops) for ops in lists),
        "tail_percentile": tail(timed, "seconds")[1],
        "measured": measured,
        "job_scaled_s": [sum(r["scaled"] for r in j["ops"]) for j in timed],
        "fail_ratio": len(failed) / attempted,
        "failed_ops": sorted(set(failed))[:10],
        "run_s": time.perf_counter() - start,
    }
    if trace:
        context["spans_file"] = str(spans_path.relative_to(ROOT))
        context["layer_self_s"] = layer_self_times(metrics)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="recorded output digests (default: %(default)s)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oddsym" / "__init__.py").is_file():
        print(f"error: no oddsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(args.expected.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        try:
            context, result = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), expected)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"context": context}))
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"{name} fail_ratio = {context['fail_ratio']:.6g} "
              f"({result['failed']} of {result['attempted']} operations)")
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
