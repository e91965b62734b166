#!/usr/bin/env python3
"""Run one measured run of the CLA benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a CLA checkout.  It builds the benchmark program
(perfbench/main.exe) and the cla executable from source with dune, runs
the workload, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.

The detailed result (seed, host facts, tails with their percentile and
sample count, per-layer self times) goes to .perfbench_out/, and a traced
run also writes its spans there.  --tiny and --inject KIND are for the
benchmark's own tests (test_perfbench.py).
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("gimp_batch", "emacs_fi_solve", "vortex_watch")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run this from the root of a CLA checkout (no dune-project/lib here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/cla.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail("build failed")


def line_count():
    n = 0
    for pattern in ("lib/**/*.ml", "lib/**/*.mli", "bin/*.ml", "bench/*.ml"):
        for path in glob.glob(pattern, recursive=True):
            with open(path, "rb") as f:
                n += f.read().count(b"\n")
    return n


def git_commit():
    if not os.path.isdir(".git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--inject", choices=("solution", "linked", "object", "served"))
    a = p.parse_args()

    build()
    root = os.getcwd()
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    tag = "%s-seed%d-trace%s%s" % (a.workload, a.seed, a.trace, "-tiny" if a.tiny else "")
    work = os.path.join(out, "work-" + tag)
    report = os.path.join(out, tag + ".json")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        os.path.join(root, "_build", "default", "perfbench", "main.exe"),
        "run",
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--work", work,
        "--report", report,
        "--cla", os.path.join(root, "_build", "default", "bin", "cla.exe"),
    ]
    if a.tiny:
        cmd.append("--tiny")
    if a.inject:
        cmd += ["--inject", a.inject]
    # its own process group, so a timeout also stops the server and the
    # iteration processes it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the run took longer than %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("main.exe exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    missing = [k for k, m in result["metrics"].items() if m["value"] is None]
    if missing:
        fail("no value measured for " + ", ".join(missing))

    with open(report) as f:
        detail = json.load(f)
    detail["host"] = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ocaml_version": detail.get("ocaml_version"),
        "git_commit": git_commit(),
        "lib_bin_bench_lines": line_count(),
    }
    with open(report, "w") as f:
        json.dump(detail, f, indent=2)
    print("perfbench: detailed result in " + os.path.relpath(report), file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
