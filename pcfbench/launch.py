"""Starts ``pcf`` children for the benchmark, one at a time, and reports
each one's exit code and peak RSS.

run.py starts this as a small process of its own before it imports
pcfkit. Linux carries the RSS high-water mark of the process that calls
exec into the new program's ``ru_maxrss``, so a child started straight
from the benchmark's (larger) process would report at least the
benchmark's size; started from here, it reports its own.

One request per line on stdin: stdout path, stderr path and the argv,
separated by tabs. One reply per line on stdout: exit code and peak RSS
in KB. The loop ends when stdin closes.
"""

import os
import sys


def main():
    env = dict(os.environ)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        out, err, *argv = line.rstrip("\n").split("\t")
        pid = os.posix_spawn(
            argv[0], argv, env,
            file_actions=[(os.POSIX_SPAWN_CLOSE, 0),
                          (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                          (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(
            f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
