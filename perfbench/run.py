#!/usr/bin/env python3
"""Build `cfq` and the benchmark from source, then run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace all

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); generated inputs, records and span files go under
`<target>/perfbench/`. For one workload and trace setting, the last line
of stdout is the run's JSON result. `all` runs every workload of
BENCHMARK.json (and both trace settings), printing a `# workload trace`
line before each result. Exits non-zero when the build fails (for
instance when the repository's crates are absent) or when a run fails a
correctness check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sh(cmd):
    """Runs `cmd` from the repository root with its output on stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def with_value(args, key, value):
    """`args` with the value after `key` replaced."""
    out = list(args)
    out[out.index(key) + 1] = value
    return out


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: the repository's Cargo.toml is missing", file=sys.stderr)
        return 2
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "cfq-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if sh(cmd) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    work = os.path.join(target, "perfbench")
    base = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--cfq", os.path.join(target, "release", "cfq"),
        "--out", os.path.join(work, "results"),
        "--commit", capture(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "--rustc", capture(["rustc", "--version"]) or "unknown",
    ]
    runs = [base]
    if "all" in sys.argv[1:]:
        bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        workloads = [w["name"] for w in bench["workloads"]]
        if "--workload" in base and base[base.index("--workload") + 1] == "all":
            runs = [with_value(r, "--workload", w) for r in runs for w in workloads]
        if "--trace" in base and base[base.index("--trace") + 1] == "all":
            runs = [with_value(r, "--trace", t) for r in runs for t in ("0", "1")]
    worst = 0
    for i, argv in enumerate(runs):
        run_dir = os.path.join(work, "run-%d-%d" % (os.getpid(), i))
        if len(runs) > 1:
            print("# %s trace %s" % (argv[argv.index("--workload") + 1],
                                     argv[argv.index("--trace") + 1]), flush=True)
        try:
            worst = max(worst, subprocess.run(argv + ["--work", run_dir], cwd=ROOT).returncode)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
