"""The daemon on warm workers: reuse, recycling, and result identity.

Every isolated test here runs the gated target (``conftest.py``), whose
``<gate>.started`` log names the pid that ran each job, so "which
worker ran it" is read off a file instead of raced out of
``running_procs``.
"""

import dataclasses
import json
import multiprocessing
import os
import signal

import pytest

from repro.cache import ResultCache
from repro.harness.journal import read_journal
from repro.service.config import ServiceConfig
from repro.service.testing import ServiceThread

JOB = dict(workload="kmeans", iterations=1, time_scale=0.01)


def make_config(**overrides):
    defaults = dict(port=0, workers=1, isolate=True, job_timeout_s=60.0,
                    retry_max_attempts=1, breaker_cache_only_after=10,
                    breaker_hard_open_after=20, drain_timeout_s=5.0,
                    rate_per_tenant=1000.0, burst_per_tenant=1000.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_one(client, **job):
    status, body, _ = client.submit(**{**JOB, **job})
    assert status == 202, body
    return client.wait(body["job_id"], timeout_s=60)


def spawns(svc):
    """``service_worker_spawns_total`` by reason."""
    return {dict(c.labels)["reason"]: c.value
            for c in svc.service.telemetry.registry.counters()
            if c.name == "service_worker_spawns_total"}


def first_worker(svc):
    """Pid of the one worker the pool started with."""
    (worker,) = svc.service._pool.workers
    return worker.proc.pid


def assert_dead(pids):
    assert not multiprocessing.active_children()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestWarmWorkers:
    def test_two_jobs_reuse_one_worker(self, tmp_path, gate):
        gate.open()
        with ServiceThread(make_config(), str(tmp_path / "run")) as svc:
            client = svc.client()
            assert run_one(client, iterations=1)["phase"] == "done"
            assert run_one(client, iterations=2)["phase"] == "done"
            first, second = gate.started()
            assert first == second
            assert spawns(svc) == {"start": 1}
            metrics = client.metrics_text()
            assert 'service_worker_spawns_total{reason="start"} 1' in metrics
            client.close()
        assert_dead([first])

    def test_crash_recycles_the_worker(self, tmp_path, gate):
        with ServiceThread(make_config(), str(tmp_path / "run")) as svc:
            client = svc.client()
            status, body, _ = client.submit(**JOB)
            killed = gate.wait_started(1)[0]
            os.kill(killed, signal.SIGKILL)
            failed = client.wait(body["job_id"], timeout_s=60)
            assert failed["phase"] == "failed"
            assert "killed by signal" in failed["error"]
            gate.open()
            assert run_one(client, iterations=2)["phase"] == "done"
            assert gate.started()[1] != killed
            assert spawns(svc) == {"start": 1, "crash": 1}
            client.close()
        assert_dead(gate.started())

    def test_timeout_recycles_the_worker(self, tmp_path, gate):
        with ServiceThread(make_config(job_timeout_s=0.2),
                           str(tmp_path / "run")) as svc:
            client = svc.client()
            first = first_worker(svc)
            failed = run_one(client)
            assert failed["phase"] == "failed"
            assert "timeout" in failed["error"]
            # The replacement may still be importing: lift the timeout so
            # the next job is decided by the gate alone.
            svc.call(lambda s: setattr(s, "config", dataclasses.replace(
                s.config, job_timeout_s=60.0)))
            gate.open()
            assert run_one(client, iterations=2)["phase"] == "done"
            assert gate.started()[-1] != first
            assert spawns(svc) == {"start": 1, "timeout": 1}
            client.close()
        assert_dead([first, *gate.started()])

    def test_deadline_kill_recycles_the_worker(self, tmp_path, gate):
        with ServiceThread(make_config(), str(tmp_path / "run")) as svc:
            client = svc.client()
            first = first_worker(svc)
            assert run_one(client, deadline_s=0.2)["phase"] == "expired"
            gate.open()
            assert run_one(client, iterations=2)["phase"] == "done"
            assert gate.started()[-1] != first
            assert spawns(svc) == {"start": 1, "deadline": 1}
            client.close()
        assert_dead([first, *gate.started()])

    def test_raising_job_recycles_the_worker(self, tmp_path, gate):
        gate.open("raise")
        with ServiceThread(make_config(), str(tmp_path / "run")) as svc:
            client = svc.client()
            failed = run_one(client)
            assert failed["phase"] == "failed"
            assert "gate says raise" in failed["error"]
            gate.open()
            assert run_one(client, iterations=2)["phase"] == "done"
            first, second = gate.started()
            assert first != second
            assert spawns(svc) == {"start": 1, "job_error": 1}
            client.close()
        assert_dead(gate.started())

    def test_shutdown_kills_busy_and_idle_workers(self, tmp_path, gate):
        svc = ServiceThread(make_config(workers=2, drain_timeout_s=0.1),
                            str(tmp_path / "run")).start()
        client = svc.client()
        status, body, _ = client.submit(**JOB)
        busy = gate.wait_started(1)[0]
        pids = [w.proc.pid for w in svc.service._pool.workers]
        assert busy in pids and len(pids) == 2
        client.close()
        svc.stop()
        assert_dead(pids)
        # Still in flight at shutdown: journaled as unfinished, to resume.
        events = [r["event"] for r in read_journal(
            os.path.join(str(tmp_path / "run"), "journal.jsonl"))
            if r.get("job") == body["job_id"]]
        assert events == ["job_submitted", "job_start"]


class FlakyPutCache(ResultCache):
    """A result store whose first ``put`` fails like a full disk."""

    def __init__(self, root):
        super().__init__(root)
        self.failures_left = 1

    def put(self, key, payload):
        if self.failures_left:
            self.failures_left -= 1
            raise OSError(28, "No space left on device")
        super().put(key, payload)


class TestInternalErrors:
    def test_raising_cache_put_fails_the_job_and_keeps_serving(self, tmp_path):
        config = make_config(isolate=False)
        run_dir = str(tmp_path / "run")
        cache = FlakyPutCache(str(tmp_path / "cache"))
        with ServiceThread(config, run_dir, cache=cache) as svc:
            client = svc.client()
            status, body, _ = client.submit(**JOB)
            failed = client.wait(body["job_id"], timeout_s=60)
            assert failed["phase"] == "failed"
            assert "OSError" in failed["error"]
            # The single worker loop survived to serve the next job.
            assert run_one(client, iterations=2)["phase"] == "done"
            client.close()
        records = read_journal(os.path.join(run_dir, "journal.jsonl"))
        events = [r["event"] for r in records if r.get("job") == body["job_id"]]
        assert events == ["job_submitted", "job_start", "job_failed"]


def canonical(payload):
    return json.dumps(payload, sort_keys=True).encode()


class TestDifferential:
    def test_four_paths_give_identical_payload_bytes(self, tmp_path):
        """Warm worker, fresh worker, inline thread and cache hit."""
        request = dict(workload="hotspot", policy="greengpu", iterations=2,
                       time_scale=0.02)
        payloads = {}

        cache = ResultCache(str(tmp_path / "cache"))
        with ServiceThread(make_config(), str(tmp_path / "warm"),
                           cache=cache) as svc:
            client = svc.client()
            run_one(client, workload="srad", iterations=3)
            run_one(client, workload="kmeans", iterations=2)
            payloads["warm"] = run_one(client, **request)["result"]
            assert spawns(svc) == {"start": 1}  # one worker ran all three
            status, body, _ = client.submit(**request)
            assert status == 200 and body["served_from_cache"] is True
            payloads["cache"] = body["result"]
            client.close()

        with ServiceThread(make_config(), str(tmp_path / "fresh")) as svc:
            client = svc.client()
            payloads["fresh"] = run_one(client, **request)["result"]
            client.close()

        with ServiceThread(make_config(isolate=False),
                           str(tmp_path / "inline")) as svc:
            client = svc.client()
            payloads["inline"] = run_one(client, **request)["result"]
            client.close()

        blobs = {path: canonical(p) for path, p in payloads.items()}
        assert len(set(blobs.values())) == 1, blobs
        assert payloads["warm"]["total_energy_j"] > 0.0
