"""The one worker pool: fan_out's order, nesting, width and error rules."""

import threading
import time

import pytest

from circembed._pool import WORKERS, fan_out
from circembed.io import generate_pointset
from circembed.rng import _CHUNK
from circembed.validation import distortion_experiment

needs_cores = pytest.mark.skipif(WORKERS < 2, reason="one core: every fan-out runs on the caller")


def _slow_ident(x):
    time.sleep(0.002)  # gives the other threads time to take items
    return x, threading.get_ident()


def _returns_within(fn, seconds=120):
    """fn() run on a fresh thread; fails rather than hangs if a fan-out deadlocks."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), "did not return"
    return out[0]


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("count", [0, 1, 2, 37])
def test_results_come_back_in_item_order(width, count):
    def square(x):
        time.sleep(0.0005 * (x % 5))  # items finish out of order
        return x * x

    items = [3 * i + 1 for i in range(count)]
    assert fan_out(square, items, width) == [x * x for x in items]
    assert fan_out(square, iter(items), width) == [x * x for x in items]


def test_narrow_or_short_fan_outs_run_on_the_caller():
    me = threading.get_ident()
    for items, width in ((range(8), 1), (range(8), 0), (range(1), WORKERS)):
        assert {t for _, t in fan_out(_slow_ident, items, width)} <= {me}


@needs_cores
def test_a_fan_out_on_a_pool_thread_runs_its_items_on_that_thread():
    def outer(x):
        inner = fan_out(_slow_ident, range(6))
        return threading.get_ident(), {t for _, t in inner}

    rows = _returns_within(lambda: fan_out(outer, range(4)))
    me = threading.get_ident()
    for outer_thread, inner_threads in rows:
        assert outer_thread != me
        assert inner_threads == {outer_thread}
    # the caller is not a pool thread, so its next fan-out still spreads out
    assert me not in {t for _, t in fan_out(_slow_ident, range(6))}


@needs_cores
@pytest.mark.parametrize("width", [2, WORKERS, WORKERS + 3])
def test_at_most_width_and_worker_count_threads_run_items(width):
    threads = {t for _, t in fan_out(_slow_ident, range(40), width)}
    assert threading.get_ident() not in threads
    assert 1 <= len(threads) <= min(width, WORKERS)


@needs_cores
def test_an_error_is_raised_only_after_no_item_is_running():
    lock = threading.Lock()
    running, finished = [0], []

    def fn(x):
        with lock:
            running[0] += 1
        try:
            if x == 0:
                raise RuntimeError("item 0")
            time.sleep(0.01)
            finished.append(x)
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(RuntimeError, match="item 0"):
        fan_out(fn, range(12))
    assert running[0] == 0
    assert sorted(finished) == list(range(1, 12))


def test_large_draws_inside_threaded_trials_give_the_serial_report():
    # k * n > 2 * _CHUNK, so each trial's gaussian operator is a draw that
    # would fan out on its own; in a trial it runs on the trial's thread
    n, k = 256, 640
    assert k * n > 2 * _CHUNK
    ps = generate_pointset("uniform_sphere", n, 6, 2)
    serial, threaded = (
        _returns_within(lambda t=t: distortion_experiment(ps, "gaussian", k, 4, 11, threads=t)) for t in (1, 8)
    )
    assert serial == threaded
