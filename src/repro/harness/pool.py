"""Warm worker pool: long-lived spawn-context processes, job after job.

Starting a fresh interpreter and importing the simulator costs about
half a second, against milliseconds for a small simulation, so both
isolated callers — :class:`repro.harness.supervisor.Supervisor` and the
service daemon — keep a pool of workers that import once and then run
one job at a time until they are told to stop::

    pool = WorkerPool(2, name="harness")
    worker = pool.acquire()            # an idle worker, spawned if need be
    worker.send(job)                   # run_job()'s arguments, pickled
    verdict = worker.poll()            # None while running; never blocks
    pool.release(worker)               # DONE: back to the idle list
    pool.recycle(worker, "timeout")    # anything else: kill, replace
    pool.close()                       # kill every worker

The pipe carries only the job and its one-word verdict; the artifact or
the ``.error`` traceback is on disk first (:func:`~repro.harness.worker.
run_job`).  Crash containment is kept by recycling: the caller kills and
replaces a worker after a crash, a timeout, a deadline kill, or a job
that raised, so no job ever runs in a process a failed job has touched.
A worker whose parent dies sees end-of-file on its pipe and exits once
its current job (if any) ends.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import signal
from typing import Any, Callable

from repro.errors import HarnessError
from repro.harness.worker import run_job

#: Spawn reason of the workers a pool starts before any recycling.
START = "start"


class WorkerDied(Exception):
    """The worker process died, or its pipe broke, before replying."""


def _serve(conn: Any, preload: tuple[str, ...]) -> None:
    """Worker main loop: import once, then run jobs until the pipe closes."""
    # The parent decides when a worker stops (a terminal's Ctrl-C reaches
    # the whole process group); it kills busy workers on interruption.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for module in preload:
        importlib.import_module(module)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return  # the parent closed the pool or died
        verdict = run_job(*job)
        try:
            conn.send(verdict)
        except OSError:
            return


class Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    def __init__(self, ctx: Any, name: str, preload: tuple[str, ...]) -> None:
        self._conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child, preload),
                                name=name)
        # When the parent was launched as ``python -m repro.experiments.
        # suite``, the spawn bootstrap re-runs that module as the child's
        # main and runpy warns that it is already imported (the package
        # __init__ imports it).  Benign, but one line of stderr per
        # worker; silence exactly that warning in the child.
        prev = os.environ.get("PYTHONWARNINGS")
        squelch = "ignore::RuntimeWarning:runpy"
        os.environ["PYTHONWARNINGS"] = f"{prev},{squelch}" if prev else squelch
        try:
            self.proc.start()
        finally:
            if prev is None:
                del os.environ["PYTHONWARNINGS"]
            else:
                os.environ["PYTHONWARNINGS"] = prev
        child.close()
        self._broken: str | None = None

    def send(self, job: tuple) -> None:
        """Hand the worker one job (``run_job``'s positional arguments).

        A worker that died while idle makes the send fail; that failure
        surfaces from the next :meth:`poll` as :class:`WorkerDied`.
        """
        try:
            self._conn.send(job)
        except OSError as exc:
            self._broken = f"worker pipe broken: {exc}"

    def poll(self) -> str | None:
        """The job's verdict once it ends, ``None`` while it runs.

        Raises :class:`WorkerDied` if the process is gone without a
        reply.  Reading a dead worker's pipe may raise
        ``ConnectionResetError`` as well as ``EOFError``; both count.
        """
        if self._broken is None:
            try:
                if self._conn.poll():
                    return self._conn.recv()
                if self.proc.exitcode is None:
                    return None
                if self._conn.poll():  # replied just before exiting
                    return self._conn.recv()
            except (EOFError, OSError):
                pass
        self.kill()
        code = self.proc.exitcode
        if self._broken is not None:
            raise WorkerDied(self._broken)
        if code is not None and code < 0:
            raise WorkerDied(f"killed by signal {-code}")
        raise WorkerDied(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.exitcode is None:
            self.proc.kill()
        self.proc.join()
        self._conn.close()


class WorkerPool:
    """Up to ``size`` warm workers; see the module docstring.

    ``preload`` names modules each worker imports before its first job.
    ``on_spawn(reason)`` is called for every worker started: ``"start"``
    for the pool's first workers, else the recycle reason of the worker
    it replaces.
    """

    def __init__(self, size: int, *, name: str,
                 preload: tuple[str, ...] = (),
                 on_spawn: Callable[[str], None] | None = None) -> None:
        if size < 1:
            raise HarnessError("a worker pool needs at least one worker")
        self.size = size
        self.name = name
        self.preload = tuple(preload)
        self.on_spawn = on_spawn
        self._ctx = multiprocessing.get_context("spawn")
        self._idle: list[Worker] = []
        self._busy: list[Worker] = []
        self._seq = 0
        self._closed = False
        # Idle workers block on their pipe, so multiprocessing's own exit
        # hook, which joins live children, would wait on them forever.
        atexit.register(self.close)

    @property
    def workers(self) -> list[Worker]:
        return self._idle + self._busy

    def _spawn(self, reason: str) -> Worker:
        self._seq += 1
        worker = Worker(self._ctx, f"{self.name}-worker-{self._seq}",
                        self.preload)
        if self.on_spawn is not None:
            self.on_spawn(reason)
        return worker

    def fill(self) -> None:
        """Start workers until ``size`` are alive (does not wait for them
        to finish importing: jobs sent early queue in the pipe)."""
        while not self._closed and len(self.workers) < self.size:
            self._idle.append(self._spawn(START))

    def acquire(self) -> Worker:
        """An idle worker, spawning one while the pool is below ``size``."""
        if self._closed:
            raise HarnessError(f"{self.name} worker pool is closed")
        if self._idle:
            worker = self._idle.pop(0)
        elif len(self._busy) < self.size:
            worker = self._spawn(START)
        else:
            raise HarnessError(f"all {self.size} {self.name} workers are busy")
        self._busy.append(worker)
        return worker

    def release(self, worker: Worker) -> None:
        """Return a worker whose job ended cleanly to the idle list."""
        if self._closed:
            worker.kill()
            return
        self._busy.remove(worker)
        self._idle.append(worker)

    def recycle(self, worker: Worker, reason: str) -> None:
        """Kill a busy worker and start its replacement (unless closed)."""
        worker.kill()
        if self._closed:
            return
        self._busy.remove(worker)
        self._idle.append(self._spawn(reason))

    def close(self) -> None:
        """Kill every worker, idle or busy.  Idempotent."""
        self._closed = True
        for worker in self.workers:
            worker.kill()
        self._idle.clear()
        self._busy.clear()
        atexit.unregister(self.close)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
