"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

The Go package in this directory is compiled into .bench_build/perfbench
(with its build cache there too, so nothing is written outside the
checkout), then executed with the given arguments. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=SRC, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
