"""Small helper that runs the benchmark's timed children.

Linux starts a new process's peak-RSS record at the size of the process it
was forked from (a vfork child even takes that process's own peak), and
``wait4`` reports the larger of that record and the child's real peak.  The
benchmark process grows while it checks outputs and reads spans, so it
starts this helper once and lets it spawn every child: the helper stays near
the size of a bare interpreter, well below any sirbif child.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "log": PATH, "timeout": SECONDS}``, and one JSON reply per
line on stdout, ``{"code", "wall_s", "cpu_s", "maxrss_kb"}``.  The helper
exits when stdin closes.  Children inherit its working directory and
environment.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list, log: str, timeout: float) -> dict:
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
