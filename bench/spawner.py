"""Spawns the benchmark's commands from a small process of its own.

On Linux a child's ``ru_maxrss`` starts at the peak resident size of the
process it was forked from, and keeps it across ``exec``.  Jobs spawned
straight from ``run.py``, which holds job outputs and the oracle's state,
would report ``run.py``'s peak whenever it is the larger.  ``run.py``
therefore starts this script once per run and has it spawn every command:
it reads one JSON request per line on stdin, runs the command with its
output in files, and answers with one JSON line on stdout.

Request: ``{"cmd", "cwd", "env", "out", "err", "timeout"}``.  Answer:
``{"seconds", "maxrss_kb", "cpu_s", "returncode", "timed_out"}``, where
``seconds`` runs from spawn to exit and a command still running after
``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    killed = threading.Event()
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "returncode": proc.returncode,
        "timed_out": killed.is_set(),
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
