"""Record the benchmark's results for one commit as BENCH_<commit>_<workload>.json.

    python3 tools/bench_record.py [--rev REV]

For each workload of perfbench/workloads.py it runs
`perfbench/run.py --workload W --seed 1` as it is, with its default run
length, and writes BENCH_<commit>_<workload>.json at the root of this
checkout.  With --rev the runs take place in a temporary `git worktree` of
REV, with REV's own perfbench/ and src/, and <commit> is REV's 12-digit
hash; the worktree is removed afterwards.  Without --rev they take place in
this checkout, and <commit> is the 12-digit hash of HEAD, with "-dirty"
appended when src/ or perfbench/ differ from HEAD: such files measure the
uncommitted change on top of HEAD, so once that change is committed,
"<parent>-dirty" names the child commit, and the context's source_sha256
(a hash of src/oddsym) is what ties them to its code.  Recording
that commit again with --rev gives files named by its own hash.

A file holds three lines, one JSON object each: the `{"context": ...}` line
and the result line exactly as run.py printed them, then
`{"recorder": ...}`, which names the commit (run.py's context has none in
a worktree) and the command and says whether PYTHONDONTWRITEBYTECODE was
set.  That variable is dropped from the
environment run.py gets: its workers inherit that environment, and with it
set every setup_s sample would compile src/oddsym anew.  The exit code is 1
if a run failed or reported a failed operation.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def record(checkout: Path, commit: str, label: str, workload: str, env: dict,
           flag_set: bool) -> bool:
    """Run one workload in checkout and write its file; False if the run
    failed or reported a failed operation."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    done = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    context = [line for line in lines if line.startswith('{"context": ')]
    if len(context) != 1 or not lines[-1].startswith('{"correct": '):
        print(f"{label} {workload}: run.py exited {done.returncode} with no result",
              file=sys.stderr)
        return False
    recorder = {"commit": commit, "label": label, "command": command[1:],
                "exit": done.returncode, "PYTHONDONTWRITEBYTECODE_was_set": flag_set}
    path = ROOT / f"BENCH_{label}_{workload}.json"
    path.write_text("\n".join([context[0], lines[-1], json.dumps({"recorder": recorder})])
                    + "\n")
    print(f"{path.name}: exit {done.returncode}")
    return done.returncode == 0


@contextlib.contextmanager
def worktree(commit: str):
    """A temporary detached worktree of commit, removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        git("worktree", "add", "--detach", str(checkout), commit)
        try:
            yield checkout
        finally:
            git("worktree", "remove", "--force", str(checkout))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="record this revision from a temporary worktree")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    flag_set = env.pop("PYTHONDONTWRITEBYTECODE", None) is not None
    commit = git("rev-parse", f"{args.rev or 'HEAD'}^{{commit}}")
    if args.rev is None:
        dirty = git("status", "--porcelain", "--", "src", "perfbench")
        label, place = commit[:12] + ("-dirty" if dirty else ""), contextlib.nullcontext(ROOT)
    else:
        label, place = commit[:12], worktree(commit)
    with place as checkout:
        ok = all([record(checkout, commit, label, w, env, flag_set) for w in WORKLOADS])
    return int(not ok)


if __name__ == "__main__":
    sys.exit(main())
