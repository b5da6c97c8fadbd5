"""Starts the benchmark's children and reports their times and peak RSS.

Linux starts a child's `ru_maxrss` at the high-water mark of the process that
spawned it, so children spawned by run.py, which grows while it checks
outputs, would report run.py's peak instead of their own.  This process stays
small: it reads one JSON request per line on stdin,

    {"argv": [...], "stdin": path or null, "stdout": path, "stderr": path}

runs the child to completion with those files, and answers one JSON line,
{"wall_s", "cpu_s", "rss_kb", "code"}: wall time from spawn to reap, and the
child's user + system CPU time.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdin"] or os.devnull, "rb") as fin, \
                open(req["stdout"], "wb") as fout, open(req["stderr"], "wb") as ferr:
            t0 = perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=fin, stdout=fout, stderr=ferr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "rss_kb": usage.ru_maxrss, "code": proc.returncode}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
