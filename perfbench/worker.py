"""One benchmark job in a fresh process, so every memo cache starts empty.

Reads a job spec as JSON on stdin, runs each operation through
`oddsym.cli.main` in-process with stdout captured, checks the outputs once
the timed region has ended, and writes one JSON result line to stdout.
An empty operation list only measures set-up.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oddsym  # noqa: E402
import oddsym.cli  # noqa: E402

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_job(ops) -> list[dict]:
    """Run the operations in order while probing CPU speed."""
    with speed.Prober() as prober:
        raw = [run_op(op["argv"], prober) for op in ops]
    for res in raw:
        res["scaled"] = res["seconds"] * speed.scale(res["start"], res["end"], prober)
    return raw


def run_op(argv, prober: speed.Prober) -> dict:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    probing = prober.spent
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = oddsym.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # any crash is a failed operation, not a dead job
            code, crash = None, traceback.format_exc()
    end = time.perf_counter()
    seconds = end - start - (prober.spent - probing)
    if crash is None and "Traceback" in err.getvalue():
        crash = err.getvalue()
    if crash:
        print(f"{' '.join(argv)}\n{crash}", file=sys.stderr)
    return {"code": code, "start": start, "end": end, "seconds": seconds,
            "stdout": out.getvalue(), "crash": crash is not None}


def check(workload: str, op: dict, res: dict) -> dict:
    """Exit code, crash and output check of one operation, outside timing."""
    row = {"key": op["key"], "seconds": res["seconds"], "scaled": res["scaled"],
           "code": res["code"], "crash": res["crash"],
           "stdout_sha256": checks.sha256(res["stdout"])}
    if res["code"] != 0 or res["crash"]:
        return row
    try:
        if workload == "queries":
            row["ok"] = checks.check_query(op["argv"], res["stdout"])
        else:
            row["fingerprint"] = checks.fingerprint(workload, op["argv"],
                                                    res["stdout"], ROOT)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        row["ok"] = False
        row["error"] = repr(exc)
    return row


def main() -> int:
    src = (ROOT / "src" / "oddsym").resolve()
    if Path(oddsym.__file__).resolve().parent != src:
        print(f"error: imported oddsym from {oddsym.__file__}, not {src}",
              file=sys.stderr)
        return 2
    setup_probe = statistics.median(speed.probe() for _ in range(5))
    spec = json.load(sys.stdin)
    result = {"imported": IMPORTED, "setup_probe": setup_probe}
    ops = spec["ops"]
    if ops:
        appendix = ROOT / workloads.APPENDIX_DIR
        shutil.rmtree(appendix, ignore_errors=True)
        trace = tracer.Tracer() if spec["trace"] else None
        if trace:
            trace.install()
        raw = run_job(ops)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            trace.uninstall()
            layers = trace.metrics()
            layers.update(tracer.cache_metrics())
            layers["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in raw)
            result["layers"] = layers
            result["spans"] = trace.tree()
        result["ops"] = [check(spec["workload"], op, res) for op, res in zip(ops, raw)]
        shutil.rmtree(appendix, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
