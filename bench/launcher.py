"""Start child processes on request and report their resource usage.

Runs as a small process of its own, started with ``python3 -S``: it reads
one JSON request per line on stdin, ``[argv, stdout_path, stderr_path,
timeout_s]``, runs the child with stdout and stderr going to those files
and the launcher's own environment, waits for it, and writes one JSON
line ``[wall_s, exit_code, cpu_s, max_rss_mb]``.  It ends at end of input.

It exists because the max RSS that ``os.wait4`` reports for a child
includes the high-water mark of the process image it was spawned from
(Linux records it at exec).  The benchmark process grows while it
generates and checks files; this one stays at the size of a bare
interpreter, below any child's own peak.
"""

import contextlib
import json
import os
import signal
import sys
import threading
import time


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def spawn(argv, out_path, err_path, timeout):
    """Run a child to completion, killing it after ``timeout`` seconds.

    Returns wall seconds from spawn to exit, the exit code, and from
    ``os.wait4`` the child's CPU seconds (user + system) and max RSS in MB.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(timeout, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    return [wall, os.waitstatus_to_exitcode(status),
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024]


def main() -> None:
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
