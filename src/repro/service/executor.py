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

Every backend is also awaitable: :meth:`ExecutorBackend.run_async`
offloads tasks to a pool and awaits them, keeping the event loop
responsive while batches execute.

:func:`run_tasks` keeps the original thread-pool convenience API (and is
now a thin wrapper over a transient backend); :func:`run_tasks_async` is
its awaitable twin.
"""

from __future__ import annotations

import asyncio
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
    "run_tasks",
    "run_tasks_async",
]

#: Recognised backend names, in "least to most machinery" order.
EXECUTOR_BACKENDS = ("serial", "thread", "process")

#: Environment variable consulted by :func:`resolve_backend_name` when no
#: backend is named (engine construction, ``EngineConfig``, the CLI); lets
#: CI exercise the whole service test suite on e.g. the process backend.
#: The bare :func:`run_tasks`/:func:`run_tasks_async` helpers deliberately
#: ignore it: their legacy callers pass closures, which would break under
#: an environment-forced process backend.
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
    wrap: Optional[Callable[[Any], Any]] = None,
    on_failure: Optional[Callable[[BaseException], None]] = None,
) -> List[Any]:
    """Submit every task, degrading submit-time failures per task.

    ``submit`` raising ``RuntimeError`` (pool shut down concurrently, or —
    its :class:`BrokenExecutor` subclass — a dead worker) becomes a
    pre-resolved :class:`TaskError` placeholder in the returned list, so
    batches keep their ordering and isolation guarantees instead of
    escaping with an exception.  ``wrap`` optionally transforms each live
    future (e.g. :func:`asyncio.wrap_future`); ``on_failure`` observes the
    raw submit exception (e.g. to mark a process pool broken).
    """
    entries: List[Any] = []
    for task in tasks:
        try:
            future = pool.submit(fn, task)
        except RuntimeError as exc:
            if on_failure is not None:
                on_failure(exc)
            entries.append(TaskError(exc))
        else:
            entries.append(wrap(future) if wrap is not None else future)
    return entries


async def _gather_ordered(futures: Sequence[Any], on_exception=None) -> List[Any]:
    """Await wrapped futures interleaved with :class:`TaskError` placeholders.

    ``futures`` holds :func:`asyncio.wrap_future` awaitables and/or
    pre-resolved :class:`TaskError` entries (submit-time failures); results
    come back in the same order.  A future that fails at the pool level
    becomes a :class:`TaskError` too — ``on_exception`` (if given) sees the
    raw exception first, e.g. to mark a process pool broken.  Awaiting each
    future with try/except (rather than ``gather(return_exceptions=True)``)
    keeps a task that *returns* an exception instance distinguishable from
    a pool-level failure, matching the sync paths exactly; collection order
    does not serialise execution — the pool already runs everything
    concurrently.
    """
    results: List[Any] = []
    for entry in futures:
        if isinstance(entry, TaskError):
            results.append(entry)
            continue
        try:
            results.append(await entry)
        except Exception as exc:  # noqa: BLE001 - pool-level failure
            if on_exception is not None:
                on_exception(exc)
            results.append(TaskError(exc))
    return results


class ExecutorBackend:
    """Common interface of every execution backend.

    Subclasses implement :meth:`run` (and may override :meth:`run_async`);
    both return one entry per task, in task order, with per-task exceptions
    captured as :class:`TaskError`.  Backends that own pools keep them warm
    across calls; :meth:`close` releases them (idempotent, also invoked by
    the context-manager protocol).
    """

    name: str = "base"
    #: True when tasks must survive pickling (process boundary).
    requires_picklable_tasks: bool = False

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        raise NotImplementedError

    async def run_async(self, tasks: Sequence[Task]) -> List[Any]:
        """Awaitable :meth:`run`; offloads to a thread so the loop stays free."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.run, list(tasks))

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    async def aclose(self) -> None:
        """Awaitable :meth:`close`: the (possibly blocking) pool shutdown is
        offloaded to a thread so an event loop tearing down a transient
        backend stays responsive."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close)

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

    With ``max_workers <= 1`` (or a single task) everything runs inline on
    the calling thread — same semantics, no pool overhead.
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
        if self._workers <= 1 or len(tasks) <= 1:
            return [_invoke(task) for task in tasks]
        # _invoke never raises, so result() only propagates pool-level failures.
        return [
            entry if isinstance(entry, TaskError) else entry.result()
            for entry in _submit_ordered(self._ensure_pool(), _invoke, tasks)
        ]

    async def run_async(self, tasks: Sequence[Task]) -> List[Any]:
        if not tasks:
            return []
        return await _gather_ordered(
            _submit_ordered(
                self._ensure_pool(), _invoke, tasks, wrap=asyncio.wrap_future
            )
        )

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


def _noop() -> None:
    return None


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
        self._warmed = False

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
                self._warmed = False
            return self._pool

    def warm(self) -> None:
        """Spawn the worker pool now instead of at the first real submit.

        Worker start-up (forkserver round trip plus per-worker initargs
        pickling — the graph) otherwise happens inside ``submit`` on the
        caller's thread; the engine's async paths call this from a helper
        thread so a cold pool never stalls the event loop.  O(1) once warm;
        best effort — a failing pool surfaces on the real batch, with the
        usual degradation.
        """
        try:
            pool = self._ensure_pool()
            if self._warmed:
                return
            futures = [
                pool.submit(_invoke, Call(_noop)) for _ in range(self._workers)
            ]
            for future in futures:
                future.result()
            self._warmed = True
        except Exception:  # noqa: BLE001 - diagnosis belongs to the real batch
            pass

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

    def _note_failure(self, exc: BaseException) -> None:
        if isinstance(exc, BrokenExecutor):
            self._broken = True

    async def run_async(self, tasks: Sequence[Task]) -> List[Any]:
        if not tasks:
            return []
        futures = _submit_ordered(
            self._ensure_pool(),
            _invoke,
            tasks,
            wrap=asyncio.wrap_future,
            on_failure=self._mark_broken,
        )
        return await _gather_ordered(futures, self._note_failure)

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


def run_tasks(
    tasks: Sequence[Task],
    max_workers: Optional[int] = None,
    backend: Union[None, str, ExecutorBackend] = None,
) -> List[Any]:
    """Run ``tasks`` and return one entry per task, in task order.

    Each entry is the task's return value, or a :class:`TaskError` wrapping
    the exception it raised.  ``backend`` may be a backend *name* (a
    transient backend is created and closed around the call) or an existing
    :class:`ExecutorBackend` (reused, left open — it runs at its *own*
    width, so ``max_workers`` is ignored).  The default is the
    original thread-pool behaviour: ``max_workers=None`` uses
    :func:`default_worker_count` and the pool never exceeds the task count.
    Unlike the engine-level resolution, ``backend=None`` here means
    ``"thread"`` unconditionally — :data:`BACKEND_ENV_VAR` is *not*
    consulted, so closure-based callers keep working whatever the
    environment forces on the serving layer.
    """
    if isinstance(backend, ExecutorBackend):
        return backend.run(tasks)
    name = "thread" if backend is None else resolve_backend_name(backend)
    workers = default_worker_count() if max_workers is None else max_workers
    with create_backend(name, min(workers, max(1, len(tasks)))) as transient:
        return transient.run(tasks)


async def run_tasks_async(
    tasks: Sequence[Task],
    max_workers: Optional[int] = None,
    backend: Union[None, str, ExecutorBackend] = None,
) -> List[Any]:
    """Awaitable :func:`run_tasks`: same ordering and isolation guarantees.

    Tasks are offloaded to the chosen backend's pool and awaited, so a
    running event loop stays responsive while the batch executes.
    """
    if isinstance(backend, ExecutorBackend):
        return await backend.run_async(list(tasks))
    name = "thread" if backend is None else resolve_backend_name(backend)
    workers = default_worker_count() if max_workers is None else max_workers
    transient = create_backend(name, min(workers, max(1, len(tasks))))
    try:
        return await transient.run_async(list(tasks))
    finally:
        await transient.aclose()
