"""Run one command and write its exit code, wall time and peak RSS as JSON.

    python3 bench/launch.py RESULT.json CMD [ARG ...]

The command inherits this process's stdout and stderr.  Wall time runs
from just before the launch to the moment wait4 reaps the command.  The
peak is wait4's ru_maxrss: the largest resident set of the command and of
every descendant it reaped (pool workers).  Linux also charges a child the
peak of the process it was forked from, so the launch happens here, in a
bare interpreter, rather than in the benchmark, which has scipy loaded.
"""

import json
import os
import subprocess
import sys
import time

result_path, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
proc = subprocess.Popen(argv)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
with open(result_path, "w") as fh:
    json.dump({"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
