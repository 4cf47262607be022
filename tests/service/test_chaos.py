"""Chaos suite: the daemon under deliberately hostile conditions.

The acceptance contract (ISSUE 6): under worker SIGKILL, queue
overflow, slow clients, and deadline storms the daemon never loses or
duplicates a job result (journal-verified), sheds with 429 +
Retry-After instead of crashing, serves cache hits in cache-only
breaker mode, and a drain-restart cycle resumes journaled in-flight
jobs byte-identically.

These tests use spawn-isolated workers where process-level violence is
the point, and threaded workers where only scheduling behavior matters.
Where a job must be mid-flight when it is killed, timed out or expired,
it runs the gated target (the ``gate`` fixture, ``conftest.py``): the
race is decided by the test opening the gate, not by how long a worker
takes to import or simulate.
"""

import hashlib
import os
import signal
import time

import pytest

from repro.cache import ResultCache
from repro.harness.journal import read_journal
from repro.service.breaker import BreakerState
from repro.service.config import ServiceConfig
from repro.service.models import parse_request
from repro.service.testing import ServiceThread


def journal_events(run_dir):
    return read_journal(os.path.join(run_dir, "journal.jsonl"))


def assert_no_lost_or_duplicated(records):
    """Every submitted job has at most one success-type event, and every
    success-type event belongs to a submitted job."""
    submitted = [r["job"] for r in records if r["event"] == "job_submitted"]
    assert len(submitted) == len(set(submitted)), "duplicate submission ids"
    completions = {}
    for r in records:
        if r["event"] in ("job_success", "job_cached"):
            completions[r["job"]] = completions.get(r["job"], 0) + 1
    for job, count in completions.items():
        assert count == 1, f"{job} completed {count} times"
        assert job in submitted, f"{job} completed but never submitted"


class TestWorkerSigkill:
    def test_sigkill_mid_job_retries_without_losing_the_result(self, tmp_path,
                                                               gate):
        config = ServiceConfig(
            port=0, workers=1, isolate=True, job_timeout_s=120.0,
            retry_max_attempts=3, retry_base_backoff_s=0.01,
            retry_max_backoff_s=0.05, retry_jitter_seed=7,
            breaker_cache_only_after=5, breaker_hard_open_after=10,
        )
        run_dir = str(tmp_path / "run")
        with ServiceThread(config, run_dir) as svc:
            client = svc.client()
            status, body, _ = client.submit(workload="hotspot", iterations=1,
                                            time_scale=0.02)
            assert status == 202
            job_id = body["job_id"]
            # The job is blocked on the shut gate: kill its worker there,
            # squarely mid-job, then let the retry through.
            pid = gate.wait_started(1)[0]
            assert svc.service.running_procs[job_id].pid == pid
            os.kill(pid, signal.SIGKILL)
            gate.open()

            done = client.wait(job_id, timeout_s=120)
            assert done["phase"] == "done"
            assert done["attempts"] >= 2  # the kill cost one attempt
            assert done["result"]["total_energy_j"] > 0.0
            client.close()
        records = journal_events(run_dir)
        assert_no_lost_or_duplicated(records)
        starts = [r for r in records if r["event"] == "job_start"
                  and r["job"] == job_id]
        assert len(starts) >= 2


class TestBreakerLadder:
    def test_cache_only_serves_hits_then_open_rejects_all(self, tmp_path,
                                                          gate):
        # The gate stays shut past job_timeout: every execution is a
        # deterministic worker-level failure (timeout kill).
        config = ServiceConfig(
            port=0, workers=1, isolate=True, job_timeout_s=0.05,
            retry_max_attempts=1,
            breaker_cache_only_after=2, breaker_hard_open_after=3,
            breaker_cooldown_s=300.0,  # no probes during the test
            rate_per_tenant=1000.0, burst_per_tenant=1000.0,
        )
        cache = ResultCache(str(tmp_path / "cache"))
        warm = parse_request({"workload": "kmeans", "iterations": 1,
                              "time_scale": 0.01}, config)
        cache.put(warm.cache_key, {"payload": {"workload": "kmeans",
                                               "total_energy_j": 42.0}})
        run_dir = str(tmp_path / "run")
        with ServiceThread(config, run_dir, cache=cache) as svc:
            client = svc.client()
            # Two distinct submissions -> two worker failures -> CACHE_ONLY.
            for i in (2, 3):
                status, body, _ = client.submit(workload="hotspot",
                                                iterations=i, time_scale=0.01)
                assert status == 202
                failed = client.wait(body["job_id"], timeout_s=60)
                assert failed["phase"] == "failed"
                assert "timeout" in failed["error"]
            assert svc.service.breaker.state is BreakerState.CACHE_ONLY

            # Degraded, not down: identical warm submission still served.
            status, body, _ = client.submit(workload="kmeans", iterations=1,
                                            time_scale=0.01)
            assert status == 200
            assert body["served_from_cache"] is True
            assert body["result"]["total_energy_j"] == 42.0
            # A cache miss is refused with Retry-After, not queued to rot.
            status, body, headers = client.submit(workload="srad",
                                                  iterations=5,
                                                  time_scale=0.01)
            assert status == 503
            assert body["error"] == "cache_only_miss"
            assert "retry-after" in headers
            # Not ready, but alive.
            assert client.readyz()[0] == 503
            assert client.healthz()[0] == 200

            # One more failure: the ladder bottoms out at OPEN, where
            # even cache hits are refused.
            svc.call(lambda s: s.breaker.record_failure())
            assert svc.service.breaker.state is BreakerState.OPEN
            status, body, _ = client.submit(workload="kmeans", iterations=1,
                                            time_scale=0.01)
            assert status == 503
            assert body["error"] == "breaker_open"
            client.close()
        assert_no_lost_or_duplicated(journal_events(run_dir))

    def test_recovery_probe_closes_breaker_after_success(self, tmp_path):
        config = ServiceConfig(
            port=0, workers=1, isolate=False, job_timeout_s=60.0,
            breaker_cache_only_after=1, breaker_hard_open_after=10,
            breaker_cooldown_s=0.1,
        )
        with ServiceThread(config, str(tmp_path / "run")) as svc:
            client = svc.client()
            svc.call(lambda s: s.breaker.record_failure())
            assert svc.service.breaker.state is BreakerState.CACHE_ONLY
            time.sleep(0.15)  # cooldown elapses -> next job is the canary
            status, body, _ = client.submit(workload="kmeans", iterations=1,
                                            time_scale=0.01)
            assert status in (200, 202)
            if status == 202:
                done = client.wait(body["job_id"], timeout_s=60)
                assert done["phase"] == "done"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if svc.service.breaker.state is BreakerState.CLOSED:
                    break
                time.sleep(0.01)
            assert svc.service.breaker.state is BreakerState.CLOSED
            client.close()


class TestDeadlineStorm:
    def test_queued_jobs_expire_without_poisoning_the_service(self, tmp_path,
                                                              gate):
        config = ServiceConfig(
            port=0, workers=1, isolate=False, job_timeout_s=60.0,
            rate_per_tenant=10_000.0, burst_per_tenant=10_000.0,
            tenant_queue_limit=64,
        )
        run_dir = str(tmp_path / "run")
        with ServiceThread(config, run_dir) as svc:
            client = svc.client()
            # Pin the single worker on a gated job...
            status, pinned, _ = client.submit(workload="hotspot",
                                              iterations=4, time_scale=0.05)
            assert status == 202
            gate.wait_started(1)
            # ... then storm it with jobs that cannot possibly make it.
            storm = []
            for i in range(10):
                status, body, _ = client.submit(
                    workload="kmeans", iterations=10 + i, time_scale=0.01,
                    deadline_s=0.15)
                assert status == 202
                storm.append(body["job_id"])
            phases = [client.wait(job_id, timeout_s=30)["phase"]
                      for job_id in storm]
            assert phases.count("expired") >= 8, phases
            # The pinned job and the service itself are unharmed.
            gate.open()
            assert client.wait(pinned["job_id"], timeout_s=60)["phase"] == "done"
            status, body, _ = client.submit(workload="kmeans", iterations=2,
                                            time_scale=0.01)
            assert status in (200, 202)
            client.close()
        records = journal_events(run_dir)
        assert_no_lost_or_duplicated(records)
        expired = [r for r in records if r["event"] == "job_expired"]
        assert len(expired) >= 8
        assert all(r["where"] in ("queued", "running") for r in expired)

    def test_deadline_kills_in_flight_job(self, tmp_path, gate):
        config = ServiceConfig(
            port=0, workers=1, isolate=True, job_timeout_s=120.0,
            breaker_cache_only_after=10, breaker_hard_open_after=20,
        )
        run_dir = str(tmp_path / "run")
        with ServiceThread(config, run_dir) as svc:
            client = svc.client()
            # The gate stays shut: the job is mid-flight (its worker
            # alive) when the deadline expires it.
            status, body, _ = client.submit(workload="hotspot", iterations=4,
                                            time_scale=0.05, deadline_s=0.4)
            assert status == 202
            done = client.wait(body["job_id"], timeout_s=60)
            assert done["phase"] == "expired"
            assert "result" not in done
            client.close()
        records = journal_events(run_dir)
        expired = [r for r in records if r["event"] == "job_expired"]
        assert len(expired) == 1
        # The breaker must not count a deadline kill as backend illness.
        assert not any(r["event"] == "job_failed" for r in records)


class TestDrainRestartResume:
    def test_unfinished_jobs_resume_byte_identically(self, tmp_path, gate):
        config = ServiceConfig(
            port=0, workers=1, isolate=True, job_timeout_s=120.0,
            drain_timeout_s=0.1,  # abandon quickly: that's the point
            rate_per_tenant=1000.0, burst_per_tenant=1000.0,
        )
        run_dir = str(tmp_path / "run")
        cache = ResultCache(str(tmp_path / "cache"))

        svc = ServiceThread(config, run_dir, cache=cache).start()
        client = svc.client()
        jobs = []
        for i in range(3):
            status, body, _ = client.submit(workload="kmeans",
                                            iterations=1 + i,
                                            time_scale=0.02)
            assert status == 202
            jobs.append(body["job_id"])
        # Let exactly one job finish, then drain with work outstanding.
        gate.open("once")
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            records = journal_events(run_dir)
            if any(r["event"] == "job_success" for r in records):
                break
            time.sleep(0.02)
        client.close()
        svc.stop()

        records = journal_events(run_dir)
        done_first = {r["job"]: r for r in records
                      if r["event"] == "job_success"}
        assert done_first, "first incarnation finished nothing"
        assert len(done_first) < 3, "nothing left to resume"
        first_bytes = {
            job: open(os.path.join(run_dir, "artifacts", f"{job}.json"),
                      "rb").read()
            for job in done_first
        }

        # Restart on the same run directory: journaled unfinished jobs
        # must resume and finish; finished ones must not re-run.
        gate.open()
        svc2 = ServiceThread(config, run_dir, cache=cache).start()
        client2 = svc2.client()
        for job_id in jobs:
            final = client2.wait(job_id, timeout_s=120)
            assert final["phase"] == "done", (job_id, final)
        client2.close()
        svc2.stop()

        records = journal_events(run_dir)
        assert_no_lost_or_duplicated(records)
        assert any(r["event"] == "service_resumed" for r in records)
        for job, blob in first_bytes.items():
            path = os.path.join(run_dir, "artifacts", f"{job}.json")
            assert open(path, "rb").read() == blob, \
                f"{job} was re-run after restart (bytes changed)"
            assert done_first[job]["sha256"] == \
                hashlib.sha256(blob).hexdigest()

    def test_restart_with_corrupt_artifact_reruns_the_job(self, tmp_path):
        config = ServiceConfig(port=0, workers=1, isolate=True,
                               job_timeout_s=120.0, drain_timeout_s=5.0)
        run_dir = str(tmp_path / "run")
        svc = ServiceThread(config, run_dir).start()
        client = svc.client()
        status, body, _ = client.submit(workload="kmeans", iterations=1,
                                        time_scale=0.02)
        job_id = body["job_id"]
        assert client.wait(job_id, timeout_s=120)["phase"] == "done"
        client.close()
        svc.stop()

        # Bit-rot the artifact: recovery's hash check must catch it.
        artifact = os.path.join(run_dir, "artifacts", f"{job_id}.json")
        with open(artifact, "ab") as handle:
            handle.write(b" \n")

        svc2 = ServiceThread(config, run_dir).start()
        client2 = svc2.client()
        final = client2.wait(job_id, timeout_s=120)
        assert final["phase"] == "done"
        client2.close()
        svc2.stop()
        # The re-run produced a verifiable artifact again.
        records = journal_events(run_dir)
        successes = [r for r in records if r["event"] == "job_success"
                     and r["job"] == job_id]
        assert len(successes) == 2  # original + legitimate re-run
        with open(artifact, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == \
                successes[-1]["sha256"]
