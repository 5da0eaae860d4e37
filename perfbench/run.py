#!/usr/bin/env python3
"""Build the simulator and the perfbench driver from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed through to the perfbench binary (see main.cpp; the
smoke test also uses --inject-mismatch). The build goes to
$CARGO_TARGET_DIR/perfbench when that variable is set, else to
.bench_build/perfbench, relative to the repository root; build output goes
to stderr so the last line of stdout stays the result JSON. A traced run
writes its spans as Chrome-trace JSON next to the binary.

Exit status: the binary's, or 3 when the build fails (no result printed).
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build; False when either step fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: the simulator sources (src/) are missing\n")
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", bdir, "--parallel", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="0")
    known, _ = parser.parse_known_args()

    bdir = build_dir()
    if not build(bdir):
        sys.stderr.write("run.py: build failed\n")
        return 3
    tag = re.sub(r"[^A-Za-z0-9_.-]", "_", "%s-seed%s" % (known.workload,
                                                         known.seed))
    spans = os.path.join(bdir, "spans-%s.json" % tag)
    cmd = [os.path.join(bdir, "perfbench")] + sys.argv[1:]
    cmd += ["--trace-out", spans]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
