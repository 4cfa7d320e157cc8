"""Starts the benchmark's CLI commands, one at a time, and times each one.

``run.py`` starts this as a child before it generates any input, and sends it
one JSON request per line on standard input::

    {"argv": [...], "cwd": "...", "timeout": 60}

For each request it runs ``argv`` in ``cwd`` and answers with one JSON line,
followed by the command's standard output and standard error, raw::

    {"rc": 0, "seconds": 0.0712, "peak_rss_kb": 41234, "stdout": 1234, "stderr": 0}

``seconds`` is the wall time from start to exit. ``peak_rss_kb`` is the
largest resident set of any command so far. On Linux, a program counts the
high-water mark of the process that started it as part of its own peak, so
the commands must be started from a small process. This one is small: the
command's output goes to unlinked files in ``cwd`` and is copied on in
chunks, never held whole.
"""

import json
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time


def main() -> None:
    requests, answers = sys.stdin, sys.stdout.buffer
    while True:
        line = requests.readline()
        if not line:
            return
        request = json.loads(line)
        with tempfile.TemporaryFile(dir=request["cwd"]) as out, \
                tempfile.TemporaryFile(dir=request["cwd"]) as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                     stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            # A timer rather than wait(timeout=...), which polls with sleeps
            # of up to 50 ms and would add them to the measured time.
            timer = threading.Timer(request["timeout"], child.kill)
            timer.start()
            rc = child.wait()
            seconds = time.perf_counter() - start
            timer.cancel()
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            header = {"rc": rc, "seconds": seconds, "peak_rss_kb": peak,
                      "stdout": out.tell(), "stderr": err.tell()}
            answers.write(json.dumps(header).encode() + b"\n")
            for stream in (out, err):
                stream.seek(0)
                shutil.copyfileobj(stream, answers)
            answers.flush()


if __name__ == "__main__":
    main()
