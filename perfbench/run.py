#!/usr/bin/env python3
"""Build and run the tabv end-to-end benchmark.

    python3 perfbench/run.py --workload check|record-recheck|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  Builds the benchmark and the
`tabv` binary (release profile, build directory .perfbench/build), then
runs the benchmark; its last line of standard output is the JSON
result.  Build output goes to standard error.  Exits non-zero when the
build fails or any unit fails its correctness check.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".perfbench", "build")
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
TABV = os.path.join(BUILD_DIR, "default", "bin", "tabv.exe")


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("run.py: %s missing: not a tabv source checkout\n" % needed)
            return False
    build_dir = os.path.join(ROOT, BUILD_DIR)
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./perfbench/bench.exe", "./bin/tabv.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.stderr.write("run.py: cannot run dune: %s\n" % e)
        return False
    return done.returncode == 0


def main(argv):
    if not build():
        sys.stderr.write("run.py: build failed\n")
        return 2
    args = [os.path.join(ROOT, BENCH)] + argv
    if "--self-test" not in argv:
        args += ["--tabv", TABV]
    sys.stdout.flush()
    child = subprocess.Popen(args, cwd=ROOT)

    # Pass SIGTERM/SIGINT on, so the benchmark can stop its daemon, and
    # always wait for it to end.
    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
