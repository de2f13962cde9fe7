"""Fold single HTTP queries into planner batches by group commit.

Independent clients each send one query, but the engine's wins — shared
``(t, k)`` backward passes, in-batch deduplication, one executor round
trip — only materialise on *batches*.  The :class:`QueryCoalescer` runs
at most one batch at a time: a query that finds the coalescer idle is
dispatched on the next event-loop iteration (together with anything else
that arrived in the same tick), and queries that arrive while a batch is
in flight queue up and form the next batch, up to ``max_batch`` at a time.
An idle server therefore adds no wait, and a busy one batches across
connections as deeply as its load makes it queue.

A query the engine can answer from its result cache never queues: it is
answered on the event loop by
:meth:`~repro.service.engine.SPGEngine.cached_outcome` before it is
enqueued.  Event-loop-confined like the admission layer; per-query error
isolation is inherited from the engine (an errored query resolves its own
future with an errored outcome, not an exception).
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Tuple

from repro.service.engine import QueryOutcome, SPGEngine

__all__ = ["QueryCoalescer"]

#: One pending entry: the normalised query, the future its HTTP request
#: handler awaits, and when it was enqueued (``time.perf_counter``).
_Pending = Tuple[Tuple[int, int, int], "asyncio.Future[QueryOutcome]", float]


class QueryCoalescer:
    """Answer cache hits inline and batch the rest by group commit.

    Parameters
    ----------
    engine:
        The engine queries are answered by (``cached_outcome`` on the
        loop, ``run_batch_async`` for batches).
    max_batch:
        The most queries one batch hands to the planner; a longer queue
        is worked off in several consecutive batches.
    """

    def __init__(self, engine: SPGEngine, *, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._engine = engine
        self._max_batch = max_batch
        self._pending: List[_Pending] = []
        # The one task that runs batches while queries are pending; the
        # strong reference also keeps it alive (the loop holds tasks weakly).
        self._runner: Optional[asyncio.Task] = None
        self._closed = False
        #: Flush/batch accounting for tests and the run-table harness.
        self.batches_flushed = 0
        self.queries_coalesced = 0

    # ------------------------------------------------------------------
    async def submit(self, query: Tuple[int, int, int]) -> QueryOutcome:
        """Answer one normalised ``(s, t, k)`` query.

        A cache hit returns without yielding to the loop; a miss joins the
        pending queue, starting the runner if no batch is in flight.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        outcome = self._engine.cached_outcome(query)
        if outcome is not None:
            return outcome
        future: "asyncio.Future[QueryOutcome]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append((query, future, time.perf_counter()))
        if self._runner is None:
            self._runner = asyncio.create_task(self._run())
        return await future

    @property
    def pending(self) -> int:
        """Queries queued behind the batch in flight (not counting it)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """Run the pending queue batch by batch, then exit."""
        batch: List[_Pending] = []
        try:
            while self._pending:
                batch = self._pending[: self._max_batch]
                del self._pending[: self._max_batch]
                await self._run_batch(batch)
        except asyncio.CancelledError:
            # Nobody else will answer these futures: fail every waiter,
            # then let the cancellation through.
            for _, future, _ in batch + self._pending:
                future.cancel()
            self._pending.clear()
            raise
        finally:
            self._runner = None

    async def _run_batch(self, batch: List[_Pending]) -> None:
        queries = [query for query, _, _ in batch]
        started = time.perf_counter()
        try:
            report = await self._engine.run_batch_async(queries)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            tracer = self._engine.tracer
            if tracer is not None:
                tracer.record(
                    "http.batch",
                    started,
                    time.perf_counter() - started,
                    queries=len(batch),
                    wait_ms=(started - batch[0][2]) * 1000.0,
                )
        self.batches_flushed += 1
        self.queries_coalesced += len(batch)
        for (_, future, _), outcome in zip(batch, report.outcomes):
            # A future may be done already if its client disconnected and
            # the handler cancelled it; the outcome is simply dropped.
            if not future.done():
                future.set_result(outcome)

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Refuse new queries, answer every pending one and wait for the runner."""
        self._closed = True
        if self._runner is not None:
            # asyncio.wait, unlike awaiting the task, does not cancel the
            # runner if this caller is cancelled.
            await asyncio.wait([self._runner])

    def __repr__(self) -> str:
        return (
            f"QueryCoalescer(max_batch={self._max_batch}, "
            f"in_flight={self._runner is not None}, pending={len(self._pending)}, "
            f"flushed={self.batches_flushed})"
        )
