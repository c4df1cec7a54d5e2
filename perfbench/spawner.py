"""Small helper process that starts each request child and times it.

Linux charges a child's ru_maxrss with the resident size of the process
it was forked from, so children are forked from this small process
rather than from run.py, whose memory grows with the checker's state.
It reads one JSON command per line on stdin:

    {"argv": [...], "cwd": "...", "env": {...}, "timeout": seconds}

and answers each with one JSON header line followed by the child's raw
stdout and stderr bytes:

    {"status": int, "wall": seconds, "maxrss_kb": int, "stdout": n, "stderr": m}

status is -1 when the child was killed at the timeout.  It exits when
stdin closes.
"""

import json
import os
import selectors
import signal
import sys
import time


def run(command):
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(command["cwd"])
            null = os.open(os.devnull, os.O_RDONLY)
            os.dup2(null, 0)
            os.dup2(out_w, 1)
            os.dup2(err_w, 2)
            os.execve(command["argv"][0], command["argv"], command["env"])
        finally:
            os._exit(127)
    os.close(out_w)
    os.close(err_w)
    chunks = {out_r: [], err_r: []}
    deadline = start + command["timeout"]
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not killed:
                os.kill(pid, signal.SIGKILL)
                killed = True
            for key, _ in sel.select(1.0 if killed else max(remaining, 0.01)):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
    _, wait_status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    status = -1 if killed else os.waitstatus_to_exitcode(wait_status)
    return status, wall, usage.ru_maxrss, b"".join(chunks[out_r]), b"".join(chunks[err_r])


def main():
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        status, wall, maxrss, stdout, stderr = run(json.loads(line))
        header = {"status": status, "wall": wall, "maxrss_kb": maxrss,
                  "stdout": len(stdout), "stderr": len(stderr)}
        out.write(json.dumps(header).encode() + b"\n")
        out.write(stdout)
        out.write(stderr)
        out.flush()


if __name__ == "__main__":
    main()
