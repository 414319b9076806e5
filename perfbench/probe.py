"""CPU-speed probe that runs beside the benchmark.

Every 200 ms it times a fixed pure-Python loop and keeps
``(monotonic time, seconds)``.  When its stdin closes it prints the
samples as one JSON list and exits.  It asks for real-time priority
(falling back to the highest nice level, then to none), so it runs as
soon as it wakes and its loop time reflects how fast the host runs the
container's vCPUs at that moment, not how busy the benchmark keeps
them.  At about 2% duty it barely loads the machine, yet it tracks the
host's speed drift, which on a shared two-vCPU container moves every
timing by up to a third over minutes; ``run.py`` divides each
repetition's times by the probe's speed during that repetition.
"""

import json
import os
import select
import sys
import time

LOOP = 50_000
PERIOD_S = 0.2


def raise_priority():
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        return
    except (AttributeError, OSError):
        pass
    try:
        os.nice(-20)
    except OSError:
        pass


def main():
    raise_priority()
    samples = []
    while True:
        start = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i * i
        samples.append((time.monotonic(), time.perf_counter() - start))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
