#!/usr/bin/env python3
"""Build and run the layered simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator
libraries plus the sfbench program) with CMake into
$CARGO_TARGET_DIR/cmake (default .bench_build/cmake), then runs one
workload. Build output goes to stderr; the last stdout line is the
result JSON. Further sfbench flags (--scale tiny, --reference FILE,
--record FILE, --golden FILE, --trace-out DIR) pass through; see
perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    """The build tree: $CARGO_TARGET_DIR or .bench_build, under ROOT."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return out if os.path.isabs(out) else os.path.join(ROOT, out)


def build():
    """Configure (once) and build sfbench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp")):
        raise RuntimeError("simulator sources not found in " + ROOT)
    tree = os.path.join(build_dir(), "cmake")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "--target", "sfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(tree, "sfbench")


def main(argv):
    try:
        exe = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = list(argv)
    defaults = {
        "--reference": os.path.join(HERE, "reference.json"),
        "--golden": os.path.join(ROOT, "tests", "golden",
                                 "fig1_n64_quick.json"),
        "--trace-out": os.path.join(build_dir(), "traces"),
    }
    for flag, value in defaults.items():
        if flag not in args:
            args += [flag, value]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
