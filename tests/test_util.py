import tracemalloc

import numpy as np

from tests.util import traced_peak


def test_traced_peak_under_an_outer_tracemalloc_session():
    # as under `python -X tracemalloc`: a session is on and has seen a 40 MB peak
    outer = not tracemalloc.is_tracing()
    if outer:
        tracemalloc.start()
    try:
        big = np.ones(5_000_000)
        del big
        assert traced_peak(lambda: np.ones(1024)) < 1_000_000  # an 8 KB array
        assert tracemalloc.is_tracing()  # the caller's session is left on
    finally:
        if outer:
            tracemalloc.stop()
    if outer:
        traced_peak(lambda: None)
        assert not tracemalloc.is_tracing()  # a session it started, it stops
