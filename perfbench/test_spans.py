"""Tracer arithmetic on synthetic spans driven by a fake clock."""
import types

import pytest

from spans import Tracer, patched


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def traced():
    clock = Clock()
    tracer = Tracer(clock=clock)
    tracer.active = True
    return clock, tracer


def test_self_time_subtracts_direct_children_only():
    clock, tracer = traced()
    with tracer.span("outer"):
        clock.now = 10
        with tracer.span("child"):
            clock.now = 15
            with tracer.span("grandchild"):
                clock.now = 25
            clock.now = 30
        clock.now = 40
        with tracer.span("child"):
            clock.now = 50
        clock.now = 100
    outer, child, grand, child2 = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracer.self_seconds() == pytest.approx([70e-9, 10e-9, 10e-9, 10e-9])
    by_name = tracer.self_by_name()
    assert by_name["outer"] == pytest.approx(70e-9)
    assert by_name["child"] == pytest.approx(20e-9)
    assert by_name["grandchild"] == pytest.approx(10e-9)
    assert outer.seconds == pytest.approx(100e-9)


def test_generator_wrapper_charges_only_next():
    clock, tracer = traced()

    def planes(n, height):
        for i in range(3):
            clock.now += 1  # enumeration work inside next()
            yield i
        clock.now += 1  # the final next() that raises StopIteration

    wrapped = tracer.wrap_generator("hyperplanes.meeting", planes,
                                    lambda args, kw: {"mvecs": args[1]})
    with tracer.span("constructor.construct"):
        got = []
        for item in wrapped(2, 7):
            clock.now += 10  # the caller's separation work between yields
            got.append(item)
    assert got == [0, 1, 2]
    nexts = [s for s in tracer.spans if s.name == "hyperplanes.meeting"]
    assert len(nexts) == 4
    assert [s.seconds for s in nexts] == pytest.approx([1e-9] * 4)
    assert nexts[0].attrs == {"mvecs": 7, "calls": 1, "yielded": 1}
    assert sum(s.attrs.get("yielded", 0) for s in nexts) == 3
    assert sum(s.attrs.get("calls", 0) for s in nexts) == 1
    by_name = tracer.self_by_name()
    assert by_name["hyperplanes.meeting"] == pytest.approx(4e-9)
    assert by_name["constructor.construct"] == pytest.approx(30e-9)


def test_generator_wrapper_closes_span_on_error():
    clock, tracer = traced()

    def broken():
        yield 1
        raise ValueError("boom")

    it = tracer.wrap_generator("g", broken)()
    assert next(it) == 1
    with pytest.raises(ValueError):
        next(it)
    assert tracer.stack == []
    assert all(s.end is not None for s in tracer.spans)


def test_inactive_tracer_records_nothing():
    clock, tracer = traced()
    tracer.active = False
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert list(tracer.wrap_generator("g", lambda: iter([1, 2]))()) == [1, 2]
    with tracer.span("s") as span:
        assert span is None
    assert tracer.spans == []


def test_wrap_evaluates_attrs_outside_the_span():
    clock, tracer = traced()

    def attrs(args, kwargs):
        clock.now += 5
        return {"n": args[0]}

    def work(n):
        clock.now += 2
        return n

    assert tracer.wrap("w", work, attrs)(3) == 3
    (span,) = tracer.spans
    assert span.attrs == {"n": 3}
    assert span.seconds == pytest.approx(2e-9)


def test_patched_restores_on_error():
    owner = types.SimpleNamespace(f=1, g=2)
    with pytest.raises(RuntimeError):
        with patched([(owner, "f", 10), (owner, "g", 20)]):
            assert (owner.f, owner.g) == (10, 20)
            raise RuntimeError
    assert (owner.f, owner.g) == (1, 2)


def test_out_of_order_end_is_refused():
    clock, tracer = traced()
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)
