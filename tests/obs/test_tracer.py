"""Tests for the span/event tracer and its logical/physical split."""

from __future__ import annotations

import pytest

from repro.obs import (
    PHYSICAL_FIELDS,
    Tracer,
    canonical_lines,
    current_tracer,
    logical_view,
    set_tracer,
    use_tracer,
)


class TestSpans:
    def test_records_appear_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("run", "outer"):
            with tracer.span("phase", "inner"):
                pass
        kinds = [record["kind"] for record in tracer.events]
        assert kinds == ["phase", "run"]  # children close first

    def test_span_and_parent_ids_reconstruct_the_tree(self):
        tracer = Tracer()
        with tracer.span("run", "outer"):
            with tracer.span("phase", "a"):
                pass
            with tracer.span("phase", "b"):
                pass
        a, b, outer = tracer.events
        assert outer["span"] == 1 and outer["parent"] == 0
        assert a["span"] == 2 and a["parent"] == 1
        assert b["span"] == 3 and b["parent"] == 1

    def test_late_attrs_land_on_the_record(self):
        tracer = Tracer()
        with tracer.span("phase", "work", fixed=1) as span:
            span.attrs["rounds"] = 7
        record = tracer.events[0]
        assert record["fixed"] == 1
        assert record["rounds"] == 7

    def test_span_records_timing(self):
        tracer = Tracer()
        with tracer.span("run", "timed"):
            pass
        record = tracer.events[0]
        assert record["wall_s"] >= 0.0
        assert isinstance(record["t0"], float)

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("run", "boom"):
                raise RuntimeError("kapow")
        assert tracer.events[0]["name"] == "boom"
        # The stack unwound: a new span is a root again.
        with tracer.span("run", "after"):
            pass
        assert tracer.events[1]["parent"] == 0

    def test_point_events_nest_without_consuming_span_ids(self):
        tracer = Tracer()
        with tracer.span("run", "outer"):
            tracer.event("round-batch", "rounds", rounds=3)
            with tracer.span("phase", "later"):
                pass
        batch, phase, outer = tracer.events
        assert "span" not in batch
        assert batch["parent"] == outer["span"]
        # The event did not shift the next span's id.
        assert phase["span"] == 2

    def test_annotations_are_kernel_kind(self):
        tracer = Tracer()
        with tracer.span("run", "outer"):
            tracer.annotate("dispatch", kernel="TwoSweepKernel")
        assert tracer.events[0]["kind"] == "kernel"
        assert tracer.events[0]["kernel"] == "TwoSweepKernel"


class TestLogicalView:
    def test_strips_physical_fields(self):
        tracer = Tracer()
        with tracer.span("run", "r", rounds=5, engine="reference"):
            pass
        view = logical_view(tracer.events)
        assert view[0]["rounds"] == 5
        assert not PHYSICAL_FIELDS & set(view[0])

    def test_drops_kernel_records_entirely(self):
        tracer = Tracer()
        with tracer.span("run", "r"):
            tracer.annotate("dispatch", kernel="K")
        assert [record["kind"] for record in logical_view(tracer.events)] \
            == ["run"]

    def test_canonical_lines_ignore_physical_differences(self):
        def trace(engine):
            tracer = Tracer()
            with tracer.span("run", "r", rounds=5, engine=engine) as span:
                span.attrs["messages"] = 9
                tracer.annotate("dispatch", kernel=engine)
            return tracer

        ref = trace("reference")
        vec = trace("vectorized")
        assert canonical_lines(ref.events) == canonical_lines(vec.events)
        assert canonical_lines(ref.events)  # and it is non-empty

    def test_canonical_lines_sort_keys(self):
        tracer = Tracer()
        with tracer.span("run", "r", zulu=1, alpha=2):
            pass
        line = canonical_lines(tracer.events)
        assert line.index('"alpha"') < line.index('"zulu"')


class TestMerge:
    def _worker_events(self):
        worker = Tracer()
        with worker.span("run", "trial"):
            worker.event("round-batch", "rounds", rounds=2)
        return worker.events

    def test_merge_rebases_ids_and_stamps_extra(self):
        parent = Tracer()
        with parent.span("algorithm", "sweep"):
            parent.merge(self._worker_events(), worker=1234)
        batch, run, algo = parent.events
        assert run["span"] == 2  # rebased past the open algorithm span
        assert run["parent"] == algo["span"]  # re-parented under it
        assert batch["parent"] == run["span"]
        assert run["worker"] == 1234 and batch["worker"] == 1234

    def test_merge_advances_seq_past_merged_ids(self):
        parent = Tracer()
        parent.merge(self._worker_events())
        with parent.span("run", "after"):
            pass
        span_ids = [
            record["span"] for record in parent.events if "span" in record
        ]
        assert len(span_ids) == len(set(span_ids))

    def test_two_workers_do_not_collide(self):
        parent = Tracer()
        parent.merge(self._worker_events(), worker=1)
        parent.merge(self._worker_events(), worker=2)
        span_ids = [
            record["span"] for record in parent.events if "span" in record
        ]
        assert len(span_ids) == len(set(span_ids)) == 2


class TestInstallation:
    def test_no_tracer_by_default(self):
        assert current_tracer() is None

    def test_use_tracer_installs_and_restores(self):
        with use_tracer() as tracer:
            assert current_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        assert set_tracer(tracer) is None
        try:
            assert current_tracer() is tracer
        finally:
            assert set_tracer(None) is tracer
        assert current_tracer() is None
