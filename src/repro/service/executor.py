"""Pluggable task execution backends with deterministic ordering and isolation.

The serving layer runs batches as lists of independent *tasks*.  Every
backend honours the same two guarantees, which is what makes them
interchangeable (and differential-testable, see
``tests/test_executor_backends.py``):

* **deterministic ordering** — results come back *in task order*, no matter
  how the pool schedules them;
* **error isolation** — a task that raises is captured as a
  :class:`TaskError` entry instead of poisoning the whole batch.

Three backends are provided, selected by name (:data:`EXECUTOR_BACKENDS`):

``serial``
    Everything runs inline on the calling thread.  Zero overhead, the
    reference semantics every other backend must match.
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap
    task dispatch, shared memory — but CPU-bound pure-Python tasks stay
    GIL-bound on one core.
``process``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor`: true
    multi-core parallelism for CPU-bound tasks.  Tasks must be *picklable*
    (use :class:`Call` with a module-level function; closures and bound
    methods will not cross the process boundary).  Per-worker state (the
    graph, reusable scratch buffers) is installed once via the pool
    ``initializer`` — a one-time pickle per worker under the default
    ``forkserver`` start method (chosen because forking from a
    multi-threaded parent risks deadlock), a copy-on-write share under an
    explicit ``fork`` override.

Backends are synchronous; an event loop awaits a whole batch on a helper
thread instead (see :meth:`repro.service.engine.SPGEngine.run_batch_async`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TaskError",
    "Call",
    "EXECUTOR_BACKENDS",
    "BACKEND_ENV_VAR",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "resolve_backend_name",
    "default_worker_count",
]

#: Recognised backend names, in "least to most machinery" order.
EXECUTOR_BACKENDS = ("serial", "thread", "process")

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
    the environment variable and finally defaults to ``"thread"``.  Unknown
    names raise :class:`ValueError` naming the valid choices.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "thread"
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


def _submit_ordered(
    pool,
    fn: Callable[[Task], Any],
    tasks: Sequence[Task],
    on_failure: Optional[Callable[[BaseException], None]] = None,
) -> List[Any]:
    """Submit every task, degrading submit-time failures per task.

    ``submit`` raising ``RuntimeError`` (pool shut down concurrently, or —
    its :class:`BrokenExecutor` subclass — a dead worker) becomes a
    pre-resolved :class:`TaskError` placeholder in the returned list, so
    batches keep their ordering and isolation guarantees instead of
    escaping with an exception.  ``on_failure`` observes the raw submit
    exception (e.g. to mark a process pool broken).
    """
    entries: List[Any] = []
    for task in tasks:
        try:
            entries.append(pool.submit(fn, task))
        except RuntimeError as exc:
            if on_failure is not None:
                on_failure(exc)
            entries.append(TaskError(exc))
    return entries


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
    """Inline execution on the calling thread — the reference semantics."""

    name = "serial"

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        return [_invoke(task) for task in tasks]


class ThreadBackend(ExecutorBackend):
    """A persistent thread pool (today's default backend).

    Every task goes to the pool, even a single task or at
    ``max_workers=1``.  Running small batches inline would save a hand-off,
    but then the number of callers, not the pool width, would bound how
    many queries run at once.  Under
    :meth:`~repro.service.engine.SPGEngine.run_batch_async` the callers are
    the event loop's default-executor threads (``min(32, CPUs + 4)``), and
    each running query holds a pooled :class:`~repro.core.eve.QueryScratch`
    (about 20 MB at n=100k): with the inline shortcut, the HTTP server's
    resident memory rose by about 15% on a 2-CPU machine.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        # First use may race: two batches on a fresh backend must not each
        # build (and then leak) a pool.
        self._pool_guard = threading.Lock()

    @property
    def max_workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self._workers)
            return self._pool

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        # _invoke never raises, so result() only propagates pool-level failures.
        return [
            entry if isinstance(entry, TaskError) else entry.result()
            for entry in _submit_ordered(self._ensure_pool(), _invoke, tasks)
        ]

    def close(self) -> None:
        with self._pool_guard:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_workers={self._workers}, "
            f"warm={self._pool is not None})"
        )


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
        ``DistanceScratch``).  With an explicit ``fork`` start method the
        state is shared copy-on-write instead of pickled.
    start_method:
        Optional :mod:`multiprocessing` start method override (``"fork"`` /
        ``"spawn"`` / ``"forkserver"``).  ``None`` prefers ``forkserver``
        (workers fork from a clean single-threaded server, immune to locks
        held by the parent's threads) and otherwise uses the platform
        default.

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
        start_method: Optional[str] = None,
    ) -> None:
        self._workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self._initializer = initializer
        self._initargs = initargs
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_guard = threading.Lock()
        self._broken = False

    @property
    def max_workers(self) -> int:
        return self._workers

    @property
    def broken(self) -> bool:
        """True once the pool has failed; callers should close and rebuild."""
        return self._broken

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                import multiprocessing

                method = self._start_method
                if method is None:
                    # fork from a multi-threaded parent (thread pools,
                    # asyncio's default executor, overlapping batches) can
                    # deadlock the child on an inherited lock.  forkserver
                    # forks workers from a clean single-threaded server and
                    # keeps one-time per-worker initialisation; fall back to
                    # the platform default where it is unavailable.
                    if "forkserver" in multiprocessing.get_all_start_methods():
                        method = "forkserver"
                context = (
                    multiprocessing.get_context(method)
                    if method is not None
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

    def _mark_broken(self, exc: BaseException) -> None:
        # Any submit-time failure means the pool can no longer be trusted;
        # the broken flag tells the owning engine to rebuild before the
        # next batch.
        self._broken = True

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
        entries = _submit_ordered(
            self._ensure_pool(), _invoke, tasks, on_failure=self._mark_broken
        )
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
    start_method: Optional[str] = None,
) -> ExecutorBackend:
    """Build an :class:`ExecutorBackend` by name.

    ``name=None`` resolves through :func:`resolve_backend_name` (environment
    override, then ``"thread"``).  ``initializer``/``initargs``/
    ``start_method`` only apply to the process backend and are ignored —
    the state is already shared in-process — everywhere else.
    """
    resolved = resolve_backend_name(name)
    if resolved == "serial":
        return SerialBackend()
    if resolved == "thread":
        return ThreadBackend(max_workers)
    return ProcessBackend(
        max_workers,
        initializer=initializer,
        initargs=initargs,
        start_method=start_method,
    )
