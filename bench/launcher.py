"""Small helper that runs each request's child process.

Linux reports a child's ru_maxrss as at least the RSS of the process that
forked it, so children forked straight from the benchmark would all show
the benchmark's own footprint.  This helper stays small, forks every
child itself and reports each one's latency, exit code and peak RSS.

Protocol: one JSON object per line on stdin,
``{"cmd": [...], "cwd": ..., "out": path, "err": path, "timeout": s}``,
answered by one line ``{"latency": s, "rc": int, "maxrss_kb": int,
"killed": bool}``.  End of input ends the helper.
"""

import json
import os
import signal
import sys
import time


def run(cmd, cwd, out, err, timeout):
    fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in (out, err)]
    null = os.open(os.devnull, os.O_RDONLY)
    killed = False
    try:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # child: plumb stdio, move to cwd, exec; never returns
            try:
                os.dup2(null, 0)
                os.dup2(fds[0], 1)
                os.dup2(fds[1], 2)
                os.chdir(cwd)
                os.execv(cmd[0], cmd)
            finally:
                os._exit(127)

        def kill(signum, frame):
            nonlocal killed
            killed = True
            os.kill(pid, signal.SIGKILL)  # the timer is off before the reap, so pid is ours

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        _, status, usage = os.wait4(pid, 0)
    finally:
        for fd in fds + [null]:
            os.close(fd)
    return {
        "latency": latency,
        "rc": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
        "killed": killed,
    }


def main():
    for line in sys.stdin:
        job = json.loads(line)
        reply = run(job["cmd"], job["cwd"], job["out"], job["err"], job["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
