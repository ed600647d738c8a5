"""Traced memory of one call, for the tests that bound what a layer holds."""

import tracemalloc


def traced_call(fn, *args, **kwargs):
    """(result, held, peak) of `fn(*args, **kwargs)`: its result, and the
    bytes `tracemalloc` counts still allocated when it returns and at
    most during the call. Tracing starts just before the call and stops
    after it, so what existed before is not counted."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak
