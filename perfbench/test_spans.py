"""Checks of the benchmark's span tracer.

    python3 -m pytest perfbench/test_spans.py

A synthetic nested call with a scripted clock fixes every span boundary,
so self time can be checked exactly; the sedlab part checks that removing
the tracer leaves no wrapper behind.
"""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402


class _Clock:
    """Returns the scripted times in order, one per call."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def _nested_module():
    module = types.ModuleType("sedlab_fake")

    def leaf():
        return 1

    def outer():
        return module.leaf() + module.leaf()

    module.leaf, module.outer = leaf, outer
    return module


def test_self_time_is_duration_minus_child_coverage():
    module = _nested_module()
    # outer: 0 -> 10; leaf: 1 -> 3 and 4 -> 8
    tracer = spans.Tracer(clock=_Clock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    tracer.patch_function("outer", module.outer, [module])
    tracer.patch_function("leaf", module.leaf, [module])
    assert module.outer() == 2
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (0, 0, -1)
    assert spans.self_times(tracer.spans) == [10.0 - 6.0, 2.0, 4.0]
    summary = spans.summarize(tracer.spans)
    assert summary["leaf"] == {"calls": 2, "busy_s": 6.0, "self_s": 6.0, "ms_p50": 3000.0}
    assert summary["outer"]["busy_s"] == 10.0
    assert spans.covered_fraction(tracer.spans, -10.0, 10.0) == 0.5


def test_overlapping_children_are_counted_once():
    parent = spans.Span("p", 0.0, 10.0, -1)
    kids = [spans.Span("c", 1.0, 5.0, 0), spans.Span("c", 3.0, 6.0, 0)]
    assert spans.self_times([parent, *kids])[0] == 5.0


def test_remove_restores_every_name_it_replaced():
    module = _nested_module()
    alias = types.ModuleType("sedlab_alias")
    alias.leaf = module.leaf  # imported by name elsewhere
    original = module.leaf
    tracer = spans.Tracer()
    tracer.patch_function("leaf", original, [module, alias])
    assert module.leaf is not original and alias.leaf is module.leaf
    module.outer()
    alias.leaf()
    assert [s.name for s in tracer.spans] == ["leaf"] * 3
    tracer.remove()
    assert module.leaf is original and alias.leaf is original


def test_sedlab_wrappers_are_all_removed():
    import layers
    from sedlab import kernels, kinetic

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert kinetic.brinkman_solve is kernels.brinkman_solve  # one wrapper, both names
        assert "sedlab.kinetic.brinkman_solve" in layers.leftover_wrappers()
        assert hasattr(kernels.StokesOperator.__dict__["apply"], "span_name")
    finally:
        tracer.remove()
    assert layers.leftover_wrappers() == []
    assert kinetic.brinkman_solve is layers.FUNCTIONS["kernels.brinkman"]
