#!/usr/bin/env python3
"""Build and run the paper-workload benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

A run builds perfbench/perfbench.exe with dune (the library sources are
compiled from the checkout), runs it with the given arguments and relays
its output; the last line of standard output is the JSON result. Inputs,
snapshots, results and spans go to perfbench/_work/.

--selftest runs the benchmark's own tests: the OCaml tests in
perfbench/test_perfbench.ml (seeded generators, oracle), then a short run
of every workload in both trace modes, checking that the metrics printed
are exactly the metrics BENCHMARK.json declares, with the same units.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join("perfbench", "_work")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune(*args, timeout):
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", *args, "--root", ".", "-j", "2", "--display", "quiet"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=timeout)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("dune %s timed out" % args[0])
    return proc


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from the root of a source checkout" % need)
    proc = dune("build", "./perfbench/perfbench.exe", timeout=880)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run(args, timeout=RUN_TIMEOUT):
    """Run perfbench.exe; return (exit code, stdout). The child is killed
    and waited for if this script times out or is terminated."""
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    proc = subprocess.Popen([EXE, *args, "--work-dir", WORK], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")
    return proc.returncode, out


def selftest():
    proc = dune("test", "perfbench", timeout=880)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("perfbench unit tests failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m for m in spec["end_to_end"]},
        1: {m["name"]: m for m in spec["per_layer"]},
    }
    problems = []
    for group in declared.values():
        for m in group.values():
            if m.get("better") not in ("lower", "higher"):
                problems.append("%s: better must be lower or higher" % m["name"])
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run(["--workload", w["name"], "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)])
            if code != 0:
                problems.append("%s trace %d: exit %d" % (w["name"], trace, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            printed = result["metrics"]
            want = declared[trace]
            for name in sorted(set(printed) - set(want)):
                problems.append("%s: %s printed but not declared" % (w["name"], name))
            for name in sorted(set(want) - set(printed)):
                problems.append("%s: %s declared but not printed" % (w["name"], name))
            for name in sorted(set(printed) & set(want)):
                if printed[name]["unit"] != want[name]["unit"]:
                    problems.append("%s: %s unit %s, declared %s" % (
                        w["name"], name, printed[name]["unit"], want[name]["unit"]))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: %d failed ops" % (
                    w["name"], trace, result["failed"]))
            print("ok %s --trace %d: %d metrics, %d ops" % (
                w["name"], trace, len(printed), result["attempted"]))
    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)
    print("selftest passed")


def main(argv):
    build()
    if argv == ["--selftest"]:
        selftest()
        return 0
    code, out = run(argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
