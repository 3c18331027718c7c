"""
Run one logmeans command in a fresh process and gate it on its exit code, wall time and max RSS.

    python .github/fresh_run.py --mb 1024 --seconds 60 -- lemma --n 12 --out "$(mktemp -d)"

prints the command, its exit code, its wall time and the max RSS of the child, and exits 1 when the
command exits nonzero, takes more than --seconds (no limit when omitted) or passes --mb of max RSS.
"""

import argparse
import math
import resource
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one logmeans command and gate its time and memory.")
    parser.add_argument("--mb", type=float, required=True, help="largest max RSS allowed, in MB")
    parser.add_argument("--seconds", type=float, default=math.inf, help="longest wall time allowed")
    parser.add_argument("argv", nargs="+", help="the logmeans arguments, after --")
    args = parser.parse_args()
    start = time.perf_counter()
    code = subprocess.call(["logmeans", *args.argv])
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(" ".join(args.argv), "exit", code, round(seconds, 1), "s, max RSS", round(rss_mb, 1), "MB")
    return int(code != 0 or seconds > args.seconds or rss_mb > args.mb)


if __name__ == "__main__":
    sys.exit(main())
