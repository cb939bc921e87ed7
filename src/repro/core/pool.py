"""Fork fan-out: one process pool for every parallel phase.

SP profiling chunks, Error Lifting endpoint pairs and campaign device
shards are independent units of work.
:func:`fork_map` runs ``fn(state, task)`` over them:

* ``state`` reaches each worker once, inherited at ``fork`` time, and
  is never pickled; only tasks and results cross the process boundary;
* results come back in submission order, so any worker count gives
  byte-identical output;
* each worker runs under a fresh :class:`~repro.core.telemetry.Telemetry`
  and ships its counter deltas back with every result; the parent folds
  them in submission order, so counters match a serial run;
* one effective worker, a platform without ``fork``, or a pool that
  fails to start runs ``fn`` in-process under the caller's telemetry.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from . import telemetry

T = TypeVar("T")
R = TypeVar("R")

#: ``(fn, state)`` of the fan-out this forked worker serves.
_JOB: Optional[Tuple[Callable[[Any, Any], Any], Any]] = None


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def resolve_workers(workers: int, tasks: int) -> int:
    """Effective process count: ``<= 0`` means one per CPU; at most
    one per task, and never below one."""
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def _start_job(name: str, fn: Callable[[Any, Any], Any], state: Any) -> None:
    global _JOB
    telemetry.install(telemetry.Telemetry(run_id=f"{name}-worker"))
    _JOB = (fn, state)


def _run_task(task: Any) -> Tuple[Any, float, Dict[str, float]]:
    assert _JOB is not None
    fn, state = _JOB
    tele = telemetry.active()
    assert tele is not None
    base = tele.snapshot()
    t0 = time.perf_counter()
    result = fn(state, task)
    wall = time.perf_counter() - t0
    return result, wall, tele.counter_deltas(base)


def fork_map(
    name: str,
    fn: Callable[[Any, T], R],
    state: Any,
    tasks: Sequence[T],
    workers: int,
) -> Iterator[Tuple[R, float]]:
    """Yield ``(fn(state, task), wall_s)`` for every task, in order.

    ``name`` labels the worker telemetry (``<name>-worker``) and the
    ``<name>.pool`` utilization event a pooled run emits at the end.
    Only pool start-up is guarded: an exception raised by ``fn``
    propagates to the caller from either path.  Drive the generator to
    its end: the pool closes and the event fires only then.
    """
    tasks = list(tasks)
    workers = resolve_workers(workers, len(tasks))
    pool = None
    if workers > 1 and fork_available():
        t_pool = time.perf_counter()
        try:
            pool = multiprocessing.get_context("fork").Pool(
                processes=workers,
                initializer=_start_job,
                initargs=(name, fn, state),
            )
        except (OSError, ValueError):  # pool could not start: degrade
            pool = None
    if pool is None:
        for task in tasks:
            t0 = time.perf_counter()
            result = fn(state, task)
            yield result, time.perf_counter() - t0
        return
    tele = telemetry.active()
    busy = 0.0
    with pool:
        # imap keeps submission order and hands each result over as
        # soon as it and its predecessors are done.
        for result, wall, deltas in pool.imap(_run_task, tasks):
            if tele is not None:
                tele.merge_counters(deltas)
            busy += wall
            yield result, wall
    elapsed = time.perf_counter() - t_pool
    if elapsed > 0:
        telemetry.event(
            f"{name}.pool",
            workers=workers,
            tasks=len(tasks),
            elapsed_s=round(elapsed, 6),
            busy_s=round(busy, 6),
            utilization=round(busy / (elapsed * workers), 4),
        )
