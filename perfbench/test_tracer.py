"""Self-time and repeat-fraction arithmetic of the tracer, on toy call trees."""

import itertools

import pytest

from tracer import KEY_SPAN, Tracer


def test_self_time_subtracts_child_spans():
    # A [0, 10] has children B [1, 4] and C [5, 9]; C has child D [6, 7].
    clock = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(clock))
    a = tr.open("A")
    b = tr.open("B")
    tr.close(b)
    c = tr.open("C")
    d = tr.open("D")
    assert tr.current() == "D"
    tr.close(d)
    tr.close(c)
    tr.close(a)
    assert tr.current() is None
    s = tr.summary()
    assert {n: s[n]["self_s"] for n in "ABCD"} == {"A": 3.0, "B": 3.0, "C": 3.0, "D": 1.0}
    assert {n: s[n]["total_s"] for n in "ABCD"} == {"A": 10.0, "B": 3.0, "C": 4.0, "D": 1.0}
    assert all(s[n]["calls"] == 1 for n in "ABCD")


def test_wrap_counts_repeats_and_charges_keys_to_neither_side():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda x: x * 2, key=lambda x: x)

    def body():
        return [inner(1), inner(2), inner(1)]

    outer = tr.wrap("outer", body)
    assert outer() == [2, 4, 2]
    s = tr.summary()
    # 14 clock reads: outer opens at 0 and closes at 13; each inner call
    # reads the clock for its key span [t, t+1] and its own span [t+2, t+3].
    assert s["outer"]["total_s"] == 13.0
    assert s["inner"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0, "repeat_frac": pytest.approx(1 / 3)}
    assert s[KEY_SPAN]["calls"] == 3
    assert s["outer"]["self_s"] == 13.0 - 3.0 - 3.0


def test_span_closed_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.current() is None
    assert tr.summary()["boom"]["calls"] == 1


def test_counters_and_maxima():
    tr = Tracer()
    tr.count("c")
    tr.count("c", 2)
    tr.record_max("m", 0.5)
    tr.record_max("m", 0.25)
    assert tr.counters == {"c": 3}
    assert tr.maxima == {"m": 0.5}
