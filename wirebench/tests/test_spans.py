"""Self time is span time minus what the children cover."""

from spans import Tracer


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    # root [0, 100) holds a [10, 40) (which holds c [20, 30)) and b [50, 90).
    tracer.spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["c", 20, 30, 1, 0],
        ["b", 50, 90, 0, 0],
    ]
    own, inclusive, calls = tracer.totals()
    assert own == {"root": 30, "a": 20, "c": 10, "b": 40}
    assert sum(own.values()) == 100
    assert inclusive["a"] == 30 and calls == {"root": 1, "a": 1, "c": 1, "b": 1}


def test_wrap_records_a_span_and_unwrap_restores_the_method():
    class Layer:
        def work(self, x):
            return x + 1

    layer = Layer()
    tracer = Tracer()
    tracer.wrap(layer, "work", "layer.work")
    assert layer.work(1) == 2
    assert [span[0] for span in tracer.spans] == ["layer.work"]
    tracer.unwrap_all()
    assert "work" not in vars(layer) and layer.work(2) == 3
