"""Shared-memory CSR segments and the process pool's zero-copy workers.

Two contracts are enforced here (`repro.graph.shm` and the process backend
of `repro.service.SPGEngine`):

1. **The zero-copy graph**: a :class:`~repro.DiGraph` attached to a
   :class:`~repro.graph.shm.SharedGraphSegment` reads its CSR pairs from
   the block, answers every adjacency and EVE query exactly like the graph
   it mirrors, pickles into a self-contained copy, and the segment is
   unlinked exactly once (``close()`` / GC finalizer).
2. **Shared-memory serving**: process-pool workers attach to the CSR
   arrays zero-copy instead of unpickling the graph, answer identically to
   pickled workers, release the old segment on a graph swap, fall back to
   pickled workers when the segment cannot be built (unless it is
   required), and dropping an engine without ``close()`` leaks neither the
   block nor a ``resource_tracker`` warning.
"""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import textwrap
from array import array

import pytest

from test_executor_backends import canonical_report, make_engine, random_workload

from repro import DiGraph, SPGEngine, build_spg
from repro.graph.generators import erdos_renyi, power_law_cluster
from repro.graph.shm import (
    SharedGraphSegment,
    attach_shared_graph,
    shared_memory_available,
)
from repro.queries.workload import random_reachable_queries
from repro.service import Call
from repro.service.engine import _worker_graph_probe

pytestmark = [
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
    pytest.mark.skipif(
        not shared_memory_available(),
        reason="multiprocessing.shared_memory unavailable",
    ),
]

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def buffer_types(graph: DiGraph) -> set:
    """The types of the four CSR buffers a graph reads."""
    return {type(part) for part in (*graph.csr(), *graph.csr_reverse())}


class TestSharedGraphSegment:
    def test_attach_round_trip_equals_graph(self):
        graph = power_law_cluster(26, 2, seed=19)
        graph.csr(), graph.csr_reverse()
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            assert type(view) is DiGraph and buffer_types(view) == {memoryview}
            assert view == graph
            assert view.fingerprint() == graph.fingerprint()
            assert view.num_edges == graph.num_edges
            assert view.max_degree() == graph.max_degree()
            assert view.edge_set() == graph.edge_set()
            for vertex in graph.vertices():
                assert list(view.out_neighbors(vertex)) == list(graph.out_neighbors(vertex))
                assert list(view.in_neighbors(vertex)) == list(graph.in_neighbors(vertex))
                assert view.out_degree(vertex) == graph.out_degree(vertex)
                assert view.in_degree(vertex) == graph.in_degree(vertex)
            attached.close()

    def test_view_answers_eve_queries_identically(self):
        graph = erdos_renyi(28, 2.5, seed=20)
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            for source, target, k in random_reachable_queries(graph, 5, 6, seed=20).as_batch():
                ours = build_spg(view, source, target, k)
                reference = build_spg(graph, source, target, k)
                assert ours.edges == reference.edges
                assert ours.labels == reference.labels
            attached.close()

    def test_unlinked_exactly_once_on_close(self):
        graph = erdos_renyi(12, 1.5, seed=22)
        segment = SharedGraphSegment(graph)
        descriptor = segment.descriptor
        assert not segment.closed
        segment.close()
        assert segment.closed
        segment.close()  # second close is a no-op, not a double unlink
        with pytest.raises(FileNotFoundError):
            attach_shared_graph(descriptor)

    def test_gc_finalizer_unlinks_dropped_segment(self):
        graph = erdos_renyi(12, 1.5, seed=23)
        segment = SharedGraphSegment(graph)
        descriptor = segment.descriptor
        del segment
        gc.collect()
        with pytest.raises(FileNotFoundError):
            attach_shared_graph(descriptor)

    def test_view_pickle_round_trip_is_self_contained(self):
        graph = erdos_renyi(18, 2.0, seed=24)
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            clone = pickle.loads(pickle.dumps(attached.graph))
            attached.close()
        # The segment is gone; the clone must still answer.
        assert type(clone) is DiGraph and buffer_types(clone) == {array}
        assert clone == graph
        assert clone.fingerprint() == graph.fingerprint()

    def test_view_copy_and_reverse(self):
        graph = erdos_renyi(16, 2.0, seed=25)
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            clone = view.copy(name="clone")
            assert clone == graph and clone.fingerprint() == graph.fingerprint()
            reverse = view.reverse()
            assert reverse.edge_set() == {(v, u) for (u, v) in graph.edge_set()}
            assert DiGraph(view.num_vertices, view.edges()) == graph
            attached.close()


class TestSharedMemoryServing:
    def test_plain_engine_workers_attach_zero_copy(self):
        graph = erdos_renyi(24, 2.5, seed=26)
        queries = random_reachable_queries(graph, 4, 6, seed=26).as_batch()
        with SPGEngine(graph, executor_backend="process", max_workers=2) as engine:
            report = engine.run_batch(queries)
            assert all(outcome.ok for outcome in report)
            assert engine._segment is not None and not engine._segment.closed
            probes = engine._ensure_backend(graph).run([Call(_worker_graph_probe)] * 2)
            for probe in probes:
                assert probe["shared"], probe
                assert probe["fingerprint"] == graph.fingerprint()
        assert engine._segment is None  # released by close()

    def test_required_shared_memory_attaches_and_unlinks(self):
        graph = erdos_renyi(24, 2.5, seed=26)
        queries = random_reachable_queries(graph, 4, 6, seed=26).as_batch()

        def live_segments():
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

        baseline = live_segments()
        with SPGEngine(
            graph, executor_backend="process", max_workers=2, shared_memory=True
        ) as engine:
            report = engine.run_batch(queries)
            assert all(outcome.ok for outcome in report)
            probes = engine._ensure_backend(graph).run([Call(_worker_graph_probe)] * 2)
            assert all(probe["shared"] for probe in probes), probes
        assert live_segments() <= baseline  # nothing leaked

    def test_segment_failure_policy(self, monkeypatch):
        # Automatic mode treats a failed segment as "unsupported here" and
        # pickles the graph into each worker; required mode raises.
        def no_shared_memory(graph):
            raise OSError("no shared memory here")

        monkeypatch.setattr(
            "repro.service.engine.SharedGraphSegment", no_shared_memory
        )
        graph, queries = random_workload(9)
        with make_engine(graph, "serial") as reference_engine:
            reference = canonical_report(reference_engine.run_batch(queries))
        with SPGEngine(graph, executor_backend="process", max_workers=2) as engine:
            assert canonical_report(engine.run_batch(queries)) == reference
            assert engine._segment is None
            [probe] = engine._ensure_backend(graph).run([Call(_worker_graph_probe)])
            assert not probe["shared"]
        with SPGEngine(
            graph, executor_backend="process", max_workers=2, shared_memory=True
        ) as engine:
            with pytest.raises(OSError, match="no shared memory here"):
                engine.run_batch(queries)

    def test_shared_memory_false_pickles_instead(self):
        graph = erdos_renyi(24, 2.5, seed=26)
        queries = random_reachable_queries(graph, 4, 6, seed=26).as_batch()
        with SPGEngine(
            graph, executor_backend="process", max_workers=2, shared_memory=False
        ) as engine:
            engine.run_batch(queries)
            assert engine._segment is None
            probes = engine._ensure_backend(graph).run([Call(_worker_graph_probe)])
            assert not probes[0]["shared"]

    def test_shared_and_pickled_serving_identical(self):
        graph, queries = random_workload(9)
        reports = {}
        for shared in (True, False):
            with SPGEngine(
                graph, executor_backend="process", max_workers=2, shared_memory=shared
            ) as engine:
                reports[shared] = canonical_report(engine.run_batch(queries))
        assert reports[True] == reports[False]

    def test_graph_swap_releases_old_segment(self):
        first_graph = erdos_renyi(20, 2.0, seed=28)
        second_graph = erdos_renyi(20, 2.0, seed=29)
        queries = random_reachable_queries(first_graph, 3, 4, seed=28).as_batch()
        with SPGEngine(first_graph, executor_backend="process", max_workers=2) as engine:
            engine.run_batch(queries)
            old_segment = engine._segment
            engine.set_graph(second_graph)
            engine.run_batch(queries)
            assert engine._segment is not old_segment
            assert old_segment.closed
            assert not engine._segment.closed

    def test_serial_backend_never_builds_segments(self):
        graph, queries = random_workload(10)
        with SPGEngine(graph, executor_backend="serial", max_workers=2) as engine:
            engine.run_batch(queries)
            assert engine._segment is None


LEAK_PROBE_SCRIPT = textwrap.dedent(
    """
    import gc, os, sys

    from repro.graph.generators import erdos_renyi
    from repro.queries.workload import random_reachable_queries
    from repro.service import SPGEngine

    def main():
        graph = erdos_renyi(30, 2.5, seed=1)
        queries = random_reachable_queries(graph, 4, 6, seed=1).as_batch()
        engine = SPGEngine(graph, executor_backend="process", max_workers=2)
        report = engine.run_batch(queries)
        assert all(outcome.ok for outcome in report), "batch failed"
        segment = engine._segment
        assert segment is not None, "no shared segment was created"
        name = segment.name
        # Drop the engine WITHOUT close(): the GC finalizer must reap the
        # pool and unlink the segment exactly once.
        del engine
        del segment
        gc.collect()
        print("SEGMENT", name, os.path.exists("/dev/shm/" + name.lstrip("/")))

    if __name__ == "__main__":
        main()
    """
)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm to observe unlink")
class TestResourceTrackerHygiene:
    def test_dropped_engine_leaks_no_segment_and_no_warnings(self):
        completed = subprocess.run(
            [sys.executable, "-c", LEAK_PROBE_SCRIPT],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert completed.returncode == 0, completed.stderr
        marker = [line for line in completed.stdout.splitlines() if line.startswith("SEGMENT")]
        assert marker, completed.stdout
        _, name, still_exists = marker[0].split()
        assert still_exists == "False", f"segment {name} leaked past the finalizer"
        # The whole point: no resource_tracker grumbling, no teardown noise.
        assert "leaked shared_memory" not in completed.stderr, completed.stderr
        assert "resource_tracker" not in completed.stderr, completed.stderr
        assert "BufferError" not in completed.stderr, completed.stderr
        assert "Traceback" not in completed.stderr, completed.stderr
