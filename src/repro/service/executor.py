"""Pluggable task execution backends with deterministic ordering and isolation.

The serving layer runs batches as lists of independent *tasks*.  Every
backend honours the same two guarantees, which is what makes them
interchangeable (and differential-testable, see
``tests/test_executor_backends.py``):

* **deterministic ordering** — results come back *in task order*, no matter
  how the pool schedules them;
* **error isolation** — a task that raises is captured as a
  :class:`TaskError` entry instead of poisoning the whole batch.

Two backends are provided, selected by name (:data:`EXECUTOR_BACKENDS`):

``serial`` (the default)
    Every task runs inline on the calling thread, and at most
    ``max_workers`` tasks run at once however many threads call in.  The
    reference semantics the other backend must match.  EVE is CPU-bound
    pure Python, so a thread pool would add hand-offs and lock contention
    but no parallelism under the GIL.
``process``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor`: true
    multi-core parallelism for CPU-bound tasks.  Tasks must be *picklable*
    (use :class:`Call` with a module-level function; closures and bound
    methods will not cross the process boundary).  Per-worker state (the
    graph, reusable scratch buffers) is installed once via the pool
    ``initializer`` — a one-time pickle per worker under the
    ``forkserver`` start method (chosen because forking from a
    multi-threaded parent risks deadlock).

Backends are synchronous; an event loop awaits a whole batch on a helper
thread instead (see :meth:`repro.service.engine.SPGEngine.run_batch_async`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TaskError",
    "Call",
    "EXECUTOR_BACKENDS",
    "BACKEND_ENV_VAR",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessBackend",
    "create_backend",
    "resolve_backend_name",
    "default_worker_count",
]

#: Recognised backend names, in "least to most machinery" order.
EXECUTOR_BACKENDS = ("serial", "process")

#: Environment variable consulted by :func:`resolve_backend_name` when no
#: backend is named (engine construction, ``EngineConfig``, the CLI); lets
#: CI exercise the whole service test suite on e.g. the process backend.
BACKEND_ENV_VAR = "REPRO_EXECUTOR_BACKEND"


@dataclass(frozen=True)
class TaskError:
    """A captured exception from one task."""

    error: BaseException

    @property
    def message(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


@dataclass(frozen=True)
class Call:
    """A picklable task payload: ``fn(*args)``.

    The process backend cannot ship closures or bound methods to workers;
    a :class:`Call` of a module-level function with picklable arguments is
    the portable task form that every backend accepts.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()

    def __call__(self) -> Any:
        return self.fn(*self.args)


Task = Union[Callable[[], Any], Call]


def default_worker_count() -> int:
    """Default pool size: *available* CPUs (affinity-aware), capped at 32.

    Containers and batch schedulers routinely pin a process to a subset of
    the machine's cores; sizing pools by raw ``os.cpu_count()`` then
    oversubscribes the pinned set.  Where the platform exposes it,
    ``os.sched_getaffinity(0)`` counts the CPUs this process may actually
    run on.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus: Optional[int] = None
    if affinity is not None:
        try:
            cpus = len(affinity(0))
        except OSError:  # pragma: no cover - platform quirk fallback
            cpus = None
    if not cpus:
        cpus = os.cpu_count() or 1
    return max(1, min(32, cpus))


def resolve_backend_name(name: Optional[str]) -> str:
    """Resolve a backend name, falling back to ``$REPRO_EXECUTOR_BACKEND``.

    ``None`` (the "unspecified" default throughout the serving layer) reads
    the environment variable and finally defaults to ``"serial"``.  Unknown
    names raise :class:`ValueError` naming the valid choices.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "serial"
    name = name.lower()
    if name not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown executor backend {name!r}; expected one of {EXECUTOR_BACKENDS}"
        )
    return name


def _invoke(task: Task) -> Any:
    """Run one task, capturing any exception as a :class:`TaskError`."""
    try:
        return task()
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return TaskError(exc)


class ExecutorBackend:
    """Common interface of every execution backend.

    Subclasses implement :meth:`run`, which returns one entry per task, in
    task order, with per-task exceptions captured as :class:`TaskError`.
    Backends that own pools keep them warm across calls; :meth:`close`
    releases them (idempotent, also invoked by the context-manager
    protocol).
    """

    name: str = "base"
    #: True when tasks must survive pickling (process boundary).
    requires_picklable_tasks: bool = False

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutorBackend):
    """Inline execution on the calling thread, at most ``max_workers`` at once.

    Each task holds one permit of a semaphore sized ``max_workers`` while
    it runs, so the number of callers does not bound how many tasks run at
    once.  Under :meth:`~repro.service.engine.SPGEngine.run_batch_async`
    the callers are the event loop's default-executor threads
    (``min(32, CPUs + 4)``), and each running query holds a pooled
    :class:`~repro.core.eve.QueryScratch` (about 20 MB at n=100k).
    """

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self._permits = threading.BoundedSemaphore(self._workers)

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        results: List[Any] = []
        for task in tasks:
            with self._permits:
                results.append(_invoke(task))
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self._workers})"


class ProcessBackend(ExecutorBackend):
    """A persistent process pool: true parallelism for CPU-bound tasks.

    Parameters
    ----------
    max_workers:
        Pool size (affinity-aware default).
    initializer / initargs:
        Installed per worker at spawn time — the one-time cost that replaces
        per-task shipping of heavyweight shared state (for SPG serving: the
        graph, whose flat CSR arrays pickle compactly, plus a per-worker
        ``DistanceScratch``).

    Workers start by ``forkserver`` where the platform has it (they fork
    from a clean single-threaded server, immune to locks held by the
    parent's threads), and by the platform default elsewhere.

    A pool whose worker died mid-task is marked :attr:`broken`; the engine
    reacts by closing and lazily rebuilding the backend.
    """

    name = "process"
    requires_picklable_tasks = True

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        self._workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_guard = threading.Lock()
        self._broken = False

    @property
    def broken(self) -> bool:
        """True once the pool has failed; callers should close and rebuild."""
        return self._broken

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                import multiprocessing

                # fork from a multi-threaded parent (thread pools, asyncio's
                # default executor, overlapping batches) can deadlock the
                # child on an inherited lock.  forkserver forks workers from
                # a clean single-threaded server and keeps one-time
                # per-worker initialisation; fall back to the platform
                # default where it is unavailable.
                context = (
                    multiprocessing.get_context("forkserver")
                    if "forkserver" in multiprocessing.get_all_start_methods()
                    else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=context,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
                self._broken = False
            return self._pool

    def _collect(self, future) -> Any:
        try:
            return future.result()
        except BrokenExecutor as exc:
            self._broken = True
            return TaskError(exc)
        except Exception as exc:  # noqa: BLE001 - e.g. unpicklable task/result
            return TaskError(exc)

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        if not tasks:
            return []
        pool = self._ensure_pool()
        entries: List[Any] = []
        for task in tasks:
            try:
                entries.append(pool.submit(_invoke, task))
            except RuntimeError as exc:
                # The pool was shut down concurrently or a worker died
                # (BrokenExecutor is a RuntimeError): the task degrades to
                # a TaskError, and the broken flag tells the owning engine
                # to rebuild the pool before the next batch.
                self._broken = True
                entries.append(TaskError(exc))
        return [
            entry if isinstance(entry, TaskError) else self._collect(entry)
            for entry in entries
        ]

    def close(self) -> None:
        with self._pool_guard:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:
        return (
            f"ProcessBackend(max_workers={self._workers}, "
            f"warm={self._pool is not None}, broken={self._broken})"
        )


def create_backend(
    name: Optional[str] = None,
    max_workers: Optional[int] = None,
    *,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> ExecutorBackend:
    """Build an :class:`ExecutorBackend` by name.

    ``name=None`` resolves through :func:`resolve_backend_name` (environment
    override, then ``"serial"``).  ``max_workers`` is the pool size of the
    process backend and the in-flight bound of the serial one.
    ``initializer``/``initargs`` only apply to the process backend; the
    serial backend already shares the caller's state.
    """
    resolved = resolve_backend_name(name)
    if resolved == "serial":
        return SerialBackend(max_workers)
    return ProcessBackend(max_workers, initializer=initializer, initargs=initargs)
