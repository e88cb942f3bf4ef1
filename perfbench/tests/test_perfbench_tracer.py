"""Self-time accounting and wrapper installation of the benchmark tracer."""

import sys
import threading
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, add_attr  # noqa: E402


class FakeClock:
    """Returns the queued instants in order (nanoseconds)."""

    def __init__(self, *instants: int) -> None:
        self.instants = list(instants)

    def __call__(self) -> int:
        return self.instants.pop(0)


def test_nested_self_time_excludes_only_direct_children():
    # outer 0..100 > mid 10..60 > leaf 20..50
    tracer = Tracer(FakeClock(0, 10, 20, 50, 60, 100))
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("leaf"):
                pass
    s = tracer.summary()
    assert round(s["leaf"]["self_s"] * 1e9) == 30
    assert round(s["mid"]["self_s"] * 1e9) == 20  # 50 - leaf's 30
    assert round(s["outer"]["self_s"] * 1e9) == 50  # 100 - mid's 50
    assert round(s["outer"]["total_s"] * 1e9) == 100


def test_repeated_spans_accumulate():
    # outer 0..100 with children 10..30 and 40..70
    tracer = Tracer(FakeClock(0, 10, 30, 40, 70, 100))
    with tracer.span("outer"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    s = tracer.summary()
    assert s["child"]["calls"] == 2
    assert round(s["child"]["self_s"] * 1e9) == 50
    assert round(s["outer"]["self_s"] * 1e9) == 50


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    done = threading.Event()

    def worker():
        with tracer.span("thread-root"):
            pass
        done.set()

    with tracer.span("main-root"):
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
    assert done.is_set() and not t.is_alive()
    s = tracer.summary()
    # The thread's span is a root of its own: it does not eat main's self time.
    assert s["main-root"]["self_s"] == s["main-root"]["total_s"]


def test_wrap_function_generator_and_uninstall():
    def square(x):
        return x * x

    def count(n):
        yield from range(n)

    module = types.SimpleNamespace(square=square, count=count)
    tracer = Tracer()
    tracer.wrap(module, "square", "sq", on_return=lambda f, a, k, r: add_attr(f, "sum", r))
    tracer.wrap(module, "count", "gen", generator=True)
    assert module.square(3) == 9 and module.square(4) == 16
    assert list(module.count(3)) == [0, 1, 2]
    s = tracer.summary()
    assert s["sq"]["calls"] == 2 and s["sq"]["sum"] == 25
    assert s["gen"]["calls"] == 4  # three items plus the exhausting next()
    tracer.uninstall()
    assert module.square is square and module.count is count


def test_wrap_method_registers_instances_without_span():
    class Thing:
        def __init__(self, n):
            self.n = n

    seen = []
    tracer = Tracer()
    tracer.wrap(Thing, "__init__", None, on_return=lambda f, a, k, r: seen.append(a[0]))
    thing = Thing(5)
    assert seen == [thing] and thing.n == 5
    assert tracer.summary() == {}
    tracer.uninstall()
    Thing(6)
    assert len(seen) == 1
