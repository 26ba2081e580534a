"""The tracer: binding patches, span nesting, self time."""

import sys
import threading
import types

import pytest

from tracer import Tracer


@pytest.fixture
def fake_modules():
    """A defining module plus one that imported its function by name."""
    a = types.ModuleType("repro._bench_fake_a")
    exec("def f(x):\n    return x + 1\n\ndef g(x):\n    return f(x) * 2\n", a.__dict__)
    b = types.ModuleType("repro._bench_fake_b")
    b.f = a.f
    b.alias = a.f
    sys.modules[a.__name__] = a
    sys.modules[b.__name__] = b
    yield a, b
    del sys.modules[a.__name__], sys.modules[b.__name__]


def test_wrap_function_patches_every_binding(fake_modules):
    a, b = fake_modules
    original = a.f
    t = Tracer()
    assert t.wrap_function(a.__name__, "f", span="fake.f", calls="fake.calls") == 3
    assert a.f is b.f is b.alias is not original
    assert a.g(1) == 4          # a's own global call goes through the wrapper
    assert b.f(1) == 2 and b.alias(1) == 2
    assert t.counts["fake.calls"] == 3
    assert len(t.spans_of("fake.f")) == 3
    t.unwrap()
    assert a.f is b.f is b.alias is original


def test_only_in_restricts_the_patch(fake_modules):
    a, b = fake_modules
    t = Tracer()
    t.wrap_function(a.__name__, "f", calls="n", only_in=[b.__name__])
    a.f(0), b.f(0), b.alias(0)
    assert t.counts["n"] == 2
    t.unwrap()


def test_missing_binding_is_an_error(fake_modules):
    a, _ = fake_modules
    t = Tracer()
    with pytest.raises(LookupError):
        t.wrap_function(a.__name__, "f", calls="n", only_in=["repro._nowhere"])


def test_count_callback_and_errors():
    class K:
        def m(self, n):
            if n < 0:
                raise ValueError(n)
            return list(range(n))

    original = K.__dict__["m"]
    t = Tracer()
    t.wrap_method(K, "m", span="k.m", count=lambda a, k, r: {"items": len(r)})
    K().m(3), K().m(2)
    with pytest.raises(ValueError):
        K().m(-1)
    assert t.counts["items"] == 5
    assert sum(t.errors.values()) == 1
    assert len(t.spans_of("k.m")) == 3   # the failed call is still a span
    t.unwrap()
    assert K.__dict__["m"] is original


def test_self_time_and_union():
    t = Tracer()
    with t.span("outer"):
        with t.span("x"):
            with t.span("x"):      # nested same-layer span: counted once
                pass
        with t.span("y"):
            pass
    dur = t.durations_ns()
    outer, x1, x2, y = range(4)
    assert t.span_parent == [-1, outer, x1, outer]
    own = t.self_ns()
    assert own[outer] == dur[outer] - dur[x1] - dur[y]
    assert own[x1] == dur[x1] - dur[x2]
    assert t.total_s(["x"]) == dur[x1] / 1e9
    assert t.total_s(["x", "y"]) == (dur[x1] + dur[y]) / 1e9
    assert t.self_s(["outer"]) == own[outer] / 1e9


def test_threads_keep_their_own_stack():
    t = Tracer()

    def work():
        with t.span("server"):
            pass

    with t.span("client"):
        th = threading.Thread(target=work)
        th.start()
        th.join(timeout=10)
    assert not th.is_alive()
    server = t.spans_of("server")[0]
    assert t.span_parent[server] == -1
    assert t.span_thread[server] != t.span_thread[t.spans_of("client")[0]]


def test_to_json_holds_every_span():
    class K:
        def m(self):
            return None

    t = Tracer()
    t.wrap_method(K, "m", span="a", calls="work")
    for _ in range(3):
        K().m()
    t.unwrap()
    doc = t.to_json()
    assert doc["names"] == ["a"]
    assert len(doc["spans"]["start_ns"]) == len(doc["spans"]["self_ns"]) == 3
    assert doc["by_name"]["a"]["spans"] == 3
    assert doc["counts"] == {"work": 3}
