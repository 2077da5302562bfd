#!/usr/bin/env python3
"""Builds pipebench from the repository sources and runs it.

    python3 pipebench/run.py --workload image_online --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --smoke

Run from the repository root. The CMake package in this directory compiles
the libraries under ../src and the benchmark program into .bench_build/
(or $CARGO_TARGET_DIR when set), then runs the program with a private work
directory under .bench_work/ that is removed afterwards. Build output goes
to standard error, so the last line of standard output is the program's
JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "pipebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "pipebench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pipebench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"pipebench: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    try:
        sys.stdout.flush()
        return subprocess.run([binary, *sys.argv[1:], "--workdir", work]).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
