"""Span recording, self times and the nesting check."""

import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans


def test_self_time_subtracts_union_of_children():
    recorded = [
        (1, "parent", 0.0, 10.0, None, 1),
        (2, "a", 1.0, 4.0, 1, 1),
        (3, "b", 3.0, 6.0, 1, 2),   # overlaps a, on another thread
        (4, "c", 8.0, 12.0, 1, 2),  # runs past the parent's end
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def test_nesting_errors_flag_overfull_parent_on_one_thread():
    ok = [(1, "parent", 0.0, 10.0, None, 1), (2, "a", 1.0, 4.0, 1, 1),
          (3, "b", 4.0, 9.0, 1, 1)]
    assert spans.nesting_errors(ok) == []
    overfull = ok + [(4, "c", 2.0, 5.0, 1, 1)]
    assert spans.nesting_errors(overfull) == ["parent"]
    # children on pool threads may overlap each other
    pooled = ok + [(4, "c", 2.0, 5.0, 1, 7)]
    assert spans.nesting_errors(pooled) == []


def test_wrapped_calls_nest_and_pool_threads_attach_to_main_span():
    owner = types.SimpleNamespace(inner=lambda x: x + 1)
    owner.outer = lambda x: owner.inner(x) * 2
    tracer = spans.Tracer()
    tracer.wrap(owner, "inner", "inner")
    tracer.wrap(owner, "outer", "outer")
    assert owner.outer(1) == 4
    with tracer.span("pool"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(owner.inner, range(4))) == [1, 2, 3, 4]
    with tracer.paused():
        owner.outer(0)
    tracer.restore()
    owner.outer(0)

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)
    (outer,), (pool,) = by_name["outer"], by_name["pool"]
    inner = by_name["inner"]
    assert len(inner) == 5
    assert inner[0][4] == outer[0]
    assert all(s[4] == pool[0] for s in inner[1:])
    assert any(s[5] != threading.get_ident() for s in inner[1:])
