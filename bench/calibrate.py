"""Background probe of how fast the CPU that runs the ops is right now.

A shared host slows each of its CPUs by up to a quarter, from one tenth of
a second to the next, with other guests' load; the CPU time of one op
moves with it.  The harness starts this file once per run, at low priority
on the one CPU the ops use, where it takes about a quarter of the CPU.  It
spins on a fixed integer loop and, after each chunk of the loop, publishes
the number of chunks done and its own CPU time to a 16-byte file that the
harness maps.  The CPU time a chunk took while an op ran says how slow the
CPU was during that op.  The loop never changes and never imports
gridband, so a change to gridband cannot move it.

    python3 bench/calibrate.py PATH

It exits when its parent does, or after LIFETIME_S.
"""

import mmap
import os
import struct
import sys
import time

CHUNK = 1000  # loop iterations between two publications
NICE = 5  # about a quarter of a CPU against one op at nice 0
LIFETIME_S = 900
RECORD = struct.Struct("dd")  # chunks done, CPU seconds


def main(path):
    os.nice(NICE)
    parent = os.getppid()
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    os.ftruncate(fd, RECORD.size)
    shared = mmap.mmap(fd, RECORD.size)
    deadline = time.monotonic() + LIFETIME_S
    chunks = 0
    while os.getppid() == parent and time.monotonic() < deadline:
        total = 0
        for i in range(CHUNK):
            total += i * i % 7
        chunks += 1
        shared[:] = RECORD.pack(chunks, time.thread_time())


if __name__ == "__main__":
    main(sys.argv[1])
