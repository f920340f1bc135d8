#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/perfbench.exe with dune, runs one workload
and passes its output through; the last line is one JSON object
{correct, attempted, failed, metrics}. The metric names are checked
against BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1). The second form is the tiny self-check described in
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 840


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "-j", "2", "--display", "quiet", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=BUILD_TIMEOUT,
    )
    if proc.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        sys.stderr.write(proc.stdout)
        die("build failed")


def run(args, timeout=RUN_TIMEOUT):
    """Run the benchmark binary; return (exit code, stdout lines, result)."""
    proc = subprocess.run(
        [os.path.join(ROOT, EXE)] + [str(a) for a in args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result, proc.stderr


def expected_names(bench, trace):
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def check_names(bench, trace, result):
    got = list(result["metrics"].keys())
    want = expected_names(bench, trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def one_run(ns):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if ns.workload not in names:
        die(f"unknown workload {ns.workload}; BENCHMARK.json has {names}")
    build()
    code, lines, result, err = run(
        ["--workload", ns.workload, "--seed", ns.seed, "--seconds", ns.seconds, "--trace", ns.trace]
    )
    sys.stderr.write(err)
    for line in lines[:-1]:
        print(line)
    if result is None:
        die("no result line", 1)
    if code == 0 and result.get("correct"):
        problem = check_names(bench, ns.trace != 0, result)
        if problem:
            print(problem)
            result["correct"] = False
            code = 1
    print(json.dumps(result), flush=True)
    sys.exit(code)


# Metrics that are counts or virtual times of the deterministic window:
# the same seed must give the same value. The runtime's allocation
# counter jitters by a word or two in ten million, so words_per_op must
# agree to one part in a million.
TOLERANCE = {"words_per_op": 1e-6}

DETERMINISTIC_E2E = [
    "commit_vt_p50",
    "commit_vt_p99",
    "words_per_op",
    "disk_writes_per_commit",
    "log_bytes_per_user_byte",
    "recover_page_reads",
    "heap_peak_mb",
]


def deterministic_layer(name, unit):
    return unit in ("count", "bytes", "vt") and name not in ("repl.promote_us",)


def selfcheck(seed):
    bench = spec()
    build()
    ok = True
    for wl in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            outs = []
            for _ in range(2):
                code, lines, result, err = run(
                    ["--workload", wl, "--seed", seed, "--seconds", 1, "--trace", trace, "--tiny"]
                )
                if code != 0 or result is None or not result.get("correct"):
                    print(f"FAIL {wl} trace={trace}: run failed (exit {code})")
                    print("\n".join(lines[-5:]) + err)
                    ok = False
                    break
                problem = check_names(bench, trace == 1, result)
                if problem:
                    print(f"FAIL {wl} trace={trace}: {problem}")
                    ok = False
                outs.append(result["metrics"])
            if len(outs) != 2:
                continue
            units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            if trace:
                det = [n for n in units if deterministic_layer(n, units[n])]
            else:
                det = DETERMINISTIC_E2E
            def same(n):
                a, b = outs[0][n]["value"], outs[1][n]["value"]
                return abs(a - b) <= TOLERANCE.get(n, 0.0) * max(abs(a), abs(b))

            diff = [n for n in det if not same(n)]
            if diff:
                ok = False
                for n in diff:
                    print(f"FAIL {wl} trace={trace}: {n} differs across same-seed runs: "
                          f"{outs[0][n]['value']} vs {outs[1][n]['value']}")
            else:
                print(f"ok   {wl} trace={trace}: names match, {len(det)} deterministic metrics repeat")
            if trace:
                print(f"     {wl} trace.overhead = {outs[0]['trace.overhead']['value']:.4f}, "
                      f"trace.ring_cost = {outs[0]['trace.ring_cost']['value']:.4f}")
    # The known housekeeping defect (README.md, "Known defect"): report,
    # do not fail, so its fix shows up here.
    # Three seconds of traffic: the defect needs a checkpoint that starts
    # while actions are in flight, and one second does not always bring one.
    code, lines, result, err = run(["--workload", "update-2pc", "--seed", seed, "--seconds", 3,
                                    "--trace", 0, "--tiny", "--incremental-housekeeping"])
    if result is not None and result.get("correct"):
        print("note incremental snapshot housekeeping now passes the gate: "
              "the workloads can switch to it (README.md, Known defect)")
    else:
        why = next((l for l in lines if l.startswith("VIOLATION")), "no verdict")
        print(f"note known defect still present with incremental snapshot housekeeping: {why}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    ns = p.parse_args()
    if ns.selfcheck:
        selfcheck(ns.seed)
    if not ns.workload:
        die("--workload is required")
    one_run(ns)


if __name__ == "__main__":
    main()
