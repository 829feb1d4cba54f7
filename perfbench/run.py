#!/usr/bin/env python3
"""Builds and runs the mmsyn whole-run benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth_nodvs --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the perfbench program
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later calls rebuild only what changed. Build output
goes to stderr, so the last stdout line is the program's JSON result. The
exit code is the program's: nonzero when any output was incorrect. Without
the repository's sources the build fails and no result is printed.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    # Relative, so the server's unix socket path stays short.
    run_dir = os.path.relpath(os.path.join(root, build_root, "run"), root)

    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        print("perfbench: the repository sources (src/) are missing",
              file=sys.stderr)
        return 2

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    sys.stdout.flush()
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--run-dir", run_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
