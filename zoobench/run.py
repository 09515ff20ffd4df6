#!/usr/bin/env python3
"""Builds zoobench from source and runs one workload.

    python3 zoobench/run.py --workload zoo --seed 1 --seconds 20 --trace 0
    python3 zoobench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/zoobench (default .bench_build/zoobench)
under the repository root: a Release CMake tree of zoobench/CMakeLists.txt,
configured once and brought up to date on every run. Build output reaches
stderr only on failure; the benchmark's own stdout is passed through, so its last line is
the JSON result. Exits non-zero, without a result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"zoobench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step; its output reaches stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail(what)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to zoobench/; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "zoobench")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    ninja = shutil.which("ninja") is not None
    marker = os.path.join(build_dir, "build.ninja" if ninja else "Makefile")
    if not os.path.isfile(marker):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if ninja:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--parallel", jobs]
    run_quiet(cmd, "build failed")
    return build_dir


def main(argv):
    build_dir = build()
    args = list(argv)
    if "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
            seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
            trace_file = os.path.join(build_dir, "traces", f"{workload}-seed{seed}.json")
            args += ["--trace-out", trace_file]
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(build_dir, "zoobench")] + args, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
