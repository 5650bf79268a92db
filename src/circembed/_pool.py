"""The package's one worker pool. Monte Carlo trials and the chunks of large
draws both run through ``fan_out``, and fan-outs do not nest: a call made on
a pool thread, such as a large draw inside a trial that runs on the pool,
runs its items in order on that thread, so the pool never waits on itself or
oversubscribes the cores. A trial run on the caller's thread (one trial
thread, or one trial) is not on the pool, so its large draws fan out.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

WORKERS = os.cpu_count() or 1
_local = threading.local()  # .inside is set on pool threads only
_pool = ThreadPoolExecutor(  # its threads start on the first submit
    WORKERS, thread_name_prefix="circembed", initializer=lambda: setattr(_local, "inside", True)
)


def fan_out(fn, items, width: int = WORKERS) -> list:
    """[fn(x) for x in items], in item order, on up to min(width, WORKERS) pool threads."""
    items = list(items)
    if width < 2 or len(items) < 2 or getattr(_local, "inside", False):
        return [fn(x) for x in items]
    results = [None] * len(items)
    todo = enumerate(items)  # shared: its next() is one C call, so no item is run twice

    def drain():
        for i, x in todo:
            results[i] = fn(x)

    threads = [_pool.submit(drain) for _ in range(min(width, WORKERS, len(items)))]
    wait(threads)  # no item may still be running when an error is raised
    for t in threads:
        t.result()
    return results
