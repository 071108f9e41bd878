import sys
import threading

from srldpc import blas


def test_overlapping_blocks_restore_the_first_counts(getters):
    """Two threads open and close one_thread() blocks interleaved: the
    second block keeps OpenBLAS on one thread after the first has closed,
    and once both have closed OpenBLAS has the count it started with."""
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    inside = []

    def first():
        with blas.one_thread():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with blas.one_thread():
            second_in.set()
            first_out.wait(10)
            inside.extend(get() for get in getters)

    threads = [threading.Thread(target=first),
               threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert inside == [1] * len(getters)
    assert [get() for get in getters] == [2] * len(getters)


def test_nested_blocks_restore_on_the_last_exit(getters):
    with blas.one_thread():
        with blas.one_thread():
            pass
        assert [get() for get in getters] == [1] * len(getters)
    assert [get() for get in getters] == [2] * len(getters)


def test_many_threads_opening_blocks_keep_one_thread_inside(getters):
    """Four threads open and close blocks many times with a short switch
    interval: every block sees one OpenBLAS thread, and the count the
    first block saved is restored when the last one closes."""
    seen = []

    def open_and_close():
        for _ in range(200):
            with blas.one_thread():
                seen.append([get() for get in getters])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=open_and_close)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[1] * len(getters)] * 800
    assert [get() for get in getters] == [2] * len(getters)
