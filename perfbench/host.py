"""Host speed, read off a fixed reference load between measurements.

The reference VM's CPU speed wanders by up to 2x over minutes (other
tenants share the machine), and every timing moves with it.  A
:class:`HostMeter` runs a fixed pure-Python load shaped like the service
(a closed loop of OUTSTANDING requests from this thread into a two-thread
pool) for REFERENCE_SECONDS, and reports its rate relative to
REFERENCE_RATE.  The benchmark brackets each timed piece with two samples
and scales it by their mean: seconds times speed, rates divided by speed.
Nothing in the load depends on ``src/``, so a change to the program moves
the scaled figures and a change of host speed mostly does not.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import ThreadPoolExecutor

from driver import OUTSTANDING

#: Length of one reference sample.
REFERENCE_SECONDS = 0.1
#: Reference tasks per second on the reference box at its usual top speed
#: (a 2-vCPU Xeon VM, Python 3.11): a speed of 1.0.
REFERENCE_RATE = 7000.0


def _task(seed: int) -> int:
    """Fixed interpreter work: dict updates, small strings, a sort."""
    counts: dict[int, int] = {}
    words = []
    for i in range(300):
        key = (i * seed) % 97
        counts[key] = counts.get(key, 0) + i
        words.append(str(key))
    words.sort()
    return len("".join(words)) + len(counts)


class HostMeter:
    """Samples the host's speed with the reference load."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(OUTSTANDING, thread_name_prefix="perfbench-host")

    def sample(self) -> float:
        """The host's current speed relative to the reference box."""
        done: queue.SimpleQueue = queue.SimpleQueue()
        inflight = completed = 0
        started = time.perf_counter()
        deadline = started + REFERENCE_SECONDS
        while True:
            while inflight < OUTSTANDING and time.perf_counter() < deadline:
                self._pool.submit(_task, completed + inflight + 1).add_done_callback(done.put)
                inflight += 1
            if inflight == 0:
                break
            done.get().result()
            inflight -= 1
            completed += 1
        return completed / (time.perf_counter() - started) / REFERENCE_RATE

    def close(self) -> None:
        self._pool.shutdown(wait=True)
