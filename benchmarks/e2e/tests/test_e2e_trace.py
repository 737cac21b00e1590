"""The tracer: self time, and that it leaves the program as it found it."""

from __future__ import annotations

import importlib
import time

import trace as tr
import worker


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    *path, attribute = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attribute]


def _targets():
    targets = [(m, d) for m, d, *_ in tr.SYNC_TARGETS]
    targets += [(m, d) for m, d, _ in tr.ASYNC_TARGETS]
    targets += list(tr.REGISTER_TARGETS)
    targets += [(m, "asyncio") for m in tr.SLEEP_MODULES]
    return targets


def test_every_target_exists_in_this_checkout():
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()


def test_wrappers_are_fully_restored_after_a_traced_run(tmp_path):
    before = {target: _resolve(*target) for target in _targets()}
    result = worker.run_pass(
        {
            "workload": "sim_object_512",
            "seed": 3,
            "seconds": 2.0,
            "smoke": True,
            "traced": True,
            "setup_only": False,
            "out_dir": str(tmp_path),
            "spawned_at": time.time(),
        }
    )
    assert result["violation"] is None and result["failed"] == 0
    assert result["layers"]["core.dissemination.round_tick_us"] > 0
    assert result["info"]["trace_spans_written"] == result["info"]["spans"]
    for target, original in before.items():
        assert _resolve(*target) is original, target


def test_self_time_is_duration_minus_child_spans():
    tracer = tr.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("child", child)

    def parent():
        time.sleep(0.01)
        traced_child()
        traced_child()

    tracer.wrap("parent", parent)()
    summary = tracer.aggregate(0, 1 << 62)
    parent_total = summary.layer("parent")
    child_total = summary.layer("child")
    assert (parent_total.count, child_total.count) == (1, 2)
    assert parent_total.total_ns >= 50_000_000
    assert parent_total.self_ns == parent_total.total_ns - child_total.total_ns
    assert 10_000_000 <= parent_total.self_ns < 20_000_000
    # Only the parent is a root: untraced time is measured against it.
    assert summary.root_ns == parent_total.total_ns
    assert tracer.spans()[1][3] == 0 and tracer.spans()[0][3] == -1


def test_a_span_survives_an_exception():
    tracer = tr.Tracer()

    def boom():
        raise KeyError("x")

    try:
        tracer.wrap("boom", boom)()
    except KeyError:
        pass
    assert tracer.spans()[0][0] == "boom"
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.spans()[1][3] == -1  # the stack was unwound
