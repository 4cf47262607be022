"""Warm workers under the supervisor: reuse, recycling, no leaked child.

Jobs report the pid they ran in (``_testjobs.pid``), and a job that
misbehaves on its first attempt records the pid it misbehaved in
(``_testjobs.misbehave_once``), so worker identity is read from
payloads, not raced out of process tables.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import HarnessError
from repro.faults.retry import RetryPolicy
from repro.harness.job import JobSpec, JobState
from repro.harness.pool import WorkerDied, WorkerPool
from repro.harness.supervisor import run_jobs
from repro.harness.worker import DONE

TESTJOBS = "repro.harness._testjobs"

retry_once = RetryPolicy(max_attempts=2, base_backoff_s=0.01,
                         max_backoff_s=0.02)


def pid_spec(name, **kw):
    return JobSpec(name=name, target=f"{TESTJOBS}:pid", **kw)


def assert_dead(pids):
    assert not multiprocessing.active_children()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestSupervisorPool:
    def test_jobs_reuse_one_warm_worker(self, tmp_path):
        specs = [pid_spec(f"job{i}") for i in range(3)]
        result = run_jobs(specs, tmp_path, isolate=True, parallel=1)
        pids = {payload["pid"] for payload in result.payloads.values()}
        assert len(pids) == 1
        assert pids != {os.getpid()}
        assert_dead(pids)

    def test_parallel_pool_never_exceeds_its_size(self, tmp_path):
        specs = [pid_spec(f"job{i}") for i in range(6)]
        result = run_jobs(specs, tmp_path, isolate=True, parallel=2)
        assert result.report.succeeded == 6
        pids = {payload["pid"] for payload in result.payloads.values()}
        assert 1 <= len(pids) <= 2
        assert_dead(pids)

    @pytest.mark.parametrize("how,timeout_s", [
        ("crash", None), ("hang", 2.0), ("raise", None),
    ])
    def test_failed_attempt_recycles_its_worker(self, tmp_path, how,
                                                timeout_s):
        specs = [
            JobSpec(name="odd", target=f"{TESTJOBS}:misbehave_once",
                    kwargs={"state_path": str(tmp_path / "state"),
                            "how": how},
                    timeout_s=timeout_s, retry=retry_once),
            pid_spec("next", depends_on=("odd",)),
        ]
        result = run_jobs(specs, tmp_path, isolate=True, parallel=1)
        assert result.report.retries == 1
        assert result.report.timeouts == (1 if how == "hang" else 0)
        odd = result.outcomes["odd"]
        assert odd.state is JobState.SUCCEEDED and odd.attempts == 2
        # The retry ran in a new process, and that replacement went on
        # to serve the next job.
        assert odd.payload["pid"] != odd.payload["first_pid"]
        assert result.payloads["next"]["pid"] == odd.payload["pid"]
        assert_dead([odd.payload["first_pid"], odd.payload["pid"]])

    def test_sigterm_kills_the_busy_worker(self, tmp_path):
        state = tmp_path / "state"
        spec = JobSpec(name="stuck", target=f"{TESTJOBS}:misbehave_once",
                       kwargs={"state_path": str(state), "how": "hang"})

        def interrupt_once_running():
            end = time.monotonic() + 60.0
            while not state.exists() and time.monotonic() < end:
                time.sleep(0.005)
            os.kill(os.getpid(), signal.SIGTERM)  # the supervisor's handler

        thread = threading.Thread(target=interrupt_once_running)
        thread.start()
        result = run_jobs([spec], tmp_path, isolate=True)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result.report.interrupted
        assert "interrupted" in result.outcomes["stuck"].error
        assert_dead([int(state.read_text())])


class TestWorkerPool:
    def job(self, tmp_path, name):
        return (name, f"{TESTJOBS}:pid", {},
                str(tmp_path / f"{name}.json"),
                str(tmp_path / f"{name}.error"), None)

    def wait(self, worker):
        end = time.monotonic() + 60.0
        while time.monotonic() < end:
            verdict = worker.poll()
            if verdict is not None:
                return verdict
            time.sleep(0.005)
        raise AssertionError("no verdict")

    def test_acquire_release_recycle_close(self, tmp_path):
        seen = []
        with WorkerPool(1, name="test", on_spawn=seen.append) as pool:
            worker = pool.acquire()
            with pytest.raises(HarnessError, match="busy"):
                pool.acquire()
            worker.send(self.job(tmp_path, "a"))
            assert self.wait(worker) == DONE
            pool.release(worker)
            assert pool.acquire() is worker
            pool.recycle(worker, "timeout")
            replacement = pool.acquire()
            assert replacement is not worker
            assert not worker.proc.is_alive()
        assert seen == ["start", "timeout"]
        assert_dead([worker.proc.pid, replacement.proc.pid])
        with pytest.raises(HarnessError, match="closed"):
            pool.acquire()

    def test_dead_worker_raises_on_poll(self, tmp_path):
        with WorkerPool(1, name="test") as pool:
            pool.fill()
            worker = pool.acquire()
            os.kill(worker.proc.pid, signal.SIGKILL)
            worker.send(self.job(tmp_path, "a"))
            with pytest.raises(WorkerDied, match="signal 9|broken"):
                self.wait(worker)
