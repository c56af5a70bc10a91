"""Self time and call counts derived from recorded spans.

    python -m pytest avqbench
"""

import pytest

from tracer import Tracer


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    # op.x [0, 10] > variables.f [1, 7] > hilbert.g [2, 5]; hilbert.g [8, 9]
    for name, start, end, parent in [("op.x", 0.0, 10.0, -1),
                                     ("variables.f", 1.0, 7.0, 0),
                                     ("hilbert.g", 2.0, 5.0, 1),
                                     ("hilbert.g", 8.0, 9.0, 0)]:
        tr.name_id.append(tr.name_index(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
    totals = tr.layer_totals()
    assert totals["op"] == pytest.approx((3.0, 1))
    assert totals["variables"] == pytest.approx((3.0, 1))
    assert totals["hilbert"] == pytest.approx((4.0, 2))


def test_wrapped_calls_nest():
    tr = Tracer()
    inner = tr.wrap(lambda x: x + 1, "hilbert.inner")
    outer = tr.wrap(lambda x: inner(x) * 2, "variables.outer")
    assert outer(1) == 4
    assert list(tr.parent) == [-1, 0]
    assert [tr.names[i] for i in tr.name_id] == ["variables.outer", "hilbert.inner"]
    assert all(e >= s for s, e in zip(tr.start, tr.end))
