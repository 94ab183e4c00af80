"""Starts the benchmark's operations from a process that holds no input.

A child's peak RSS, as ``wait4`` reports it, also counts the memory of the
process it was forked from. run.py holds the generated input, so it does not
start operations itself: it sends them here. This process reads one JSON
request per line on stdin (argv, cwd, env, stdout and stderr paths), runs the
command, and answers with one JSON line: the wall time from launch to exit,
the child's peak RSS and its exit code. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"], env=req["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024, "returncode": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
