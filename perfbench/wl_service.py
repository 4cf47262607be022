"""``service_open``: ``greengpu serve`` as a subprocess at its defaults
(spawn-isolated workers, two of them) driven open-loop over HTTP.

Only the port (0), run directory and cache directory are set.  One client
process with two threads and two connections sends seeded Poisson
arrivals at a fixed rate: about one in ten is a fresh job (a cold miss
with a unique time scale), the rest repeat jobs completed before timing
starts (cache hits).  Each request is timed from its due time to its
terminal status, so a stalled generator charges the wait to the requests
behind it.  The only path through HTTP, admission, the journal and
per-job spawn; here cache reads dominate.

Correctness: every hit payload equals its key's first completed miss, a
seeded sample of misses equals an in-process run, and any non-2xx
response or failed/expired job fails that request.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

from measure import (
    HIT_LIMIT_MS,
    MISS_LIMIT_S,
    PER_LAYER,
    Outcome,
    Workspace,
    fresh_import_s,
    median,
    percentile,
    proc_peak_rss_mb,
    timed,
)

BOOTS = 5
POLL_S = 0.025
DRAIN_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "expired", "cancelled")


class Daemon:
    """One ``greengpu serve`` subprocess, booted until ``/readyz`` is 200."""

    def __init__(self, ws: Workspace) -> None:
        from repro.service.client import ServiceClient

        cache_dir = ws.fresh_dir("cache")
        self.run_dir = ws.fresh_dir("service-run")
        self._log_path = os.path.join(self.run_dir, "daemon.log")
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--run-dir", self.run_dir, "--cache-dir", cache_dir],
            env=ws.child_env(cache_dir), stdout=subprocess.DEVNULL,
            stderr=self._log)
        try:
            self.port = self._wait_for_port(time.perf_counter() + 60.0)
            client = ServiceClient(port=self.port)
            while client.readyz()[0] != 200:
                time.sleep(0.005)
            client.close()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, deadline: float) -> int:
        pattern = re.compile(rb"http://127\.0\.0\.1:(\d+)")
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self._log_path, "rb") as handle:
                match = pattern.search(handle.read())
            if match:
                return int(match.group(1))
            time.sleep(0.005)
        raise RuntimeError(f"daemon did not come up (exit {self.proc.poll()})")

    def journal_records(self) -> int:
        count = 0
        for dirpath, _, files in os.walk(self.run_dir):
            for name in files:
                if name.endswith(".jsonl"):
                    with open(os.path.join(dirpath, name), "rb") as handle:
                        count += sum(1 for _ in handle)
        return count

    def stop(self) -> None:
        """SIGTERM (drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _key(job: dict) -> str:
    return json.dumps(job, sort_keys=True)


def _warm_up(port: int, warm: list[dict], out: Outcome) -> dict[str, object]:
    """Complete the warm keys (untimed); their payloads are the reference
    every later hit must equal."""
    from repro.service.client import ServiceClient

    client = ServiceClient(port=port)
    ids = []
    for job in warm:
        code, body, _ = client.submit(**job)
        out.attempted += 1
        out.check(code in (200, 202), f"warm-up submit returned {code}")
        ids.append(body.get("job_id") if isinstance(body, dict) else None)
    payloads = {}
    for job, job_id in zip(warm, ids):
        if job_id is None:
            continue
        status = client.wait(job_id, timeout_s=DRAIN_TIMEOUT_S)
        out.check(status.get("phase") == "done",
                  f"warm-up job ended {status.get('phase')}")
        payloads[_key(job)] = status.get("result")
    client.close()
    return payloads


def _open_loop(port: int, arrivals: list[dict], seconds: float) -> dict:
    """Send every arrival at its due time; poll misses to completion."""
    from repro.service.client import ServiceClient

    records = [{"kind": a["kind"], "job": a["job"], "code": None,
                "phase": None, "latency_s": None, "result": None,
                "lag_s": None, "rtt_s": None} for a in arrivals]
    pending: queue.Queue = queue.Queue()
    backlog: list[tuple[float, int]] = []
    polls = [0]
    t0 = time.monotonic()
    t0_unix = time.time()

    def send() -> None:
        client = ServiceClient(port=port)
        try:
            for index, arrival in enumerate(arrivals):
                due = t0 + arrival["due_s"]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                record = records[index]
                sent = time.monotonic()
                code, body, _ = client.submit(**arrival["job"])
                received = time.monotonic()
                record.update(code=code, lag_s=sent - due,
                              rtt_s=received - sent)
                if code == 200 and isinstance(body, dict):
                    record.update(phase=body.get("phase"),
                                  result=body.get("result"),
                                  latency_s=received - due)
                elif code == 202 and isinstance(body, dict):
                    pending.put((index, body["job_id"]))
        finally:
            pending.put(None)
            client.close()

    def poll() -> None:
        client = ServiceClient(port=port)
        active: dict[int, str] = {}
        sending = True
        give_up = t0 + seconds + DRAIN_TIMEOUT_S
        try:
            while (sending or active) and time.monotonic() < give_up:
                while True:
                    try:
                        item = pending.get_nowait()
                    except queue.Empty:
                        break
                    if item is None:
                        sending = False
                    else:
                        active[item[0]] = item[1]
                for index, job_id in list(active.items()):
                    code, body, _ = client.status(job_id)
                    polls[0] += 1
                    if code == 200 and body.get("phase") in TERMINAL:
                        due_unix = t0_unix + arrivals[index]["due_s"]
                        records[index].update(
                            phase=body["phase"], result=body.get("result"),
                            latency_s=body["finished_unix"] - due_unix)
                        del active[index]
                backlog.append((time.monotonic() - t0, len(active)))
                time.sleep(POLL_S)
        finally:
            client.close()

    threads = [threading.Thread(target=send), threading.Thread(target=poll)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "backlog": backlog, "polls": polls[0]}


def _backlog_growing(backlog: list[tuple[float, int]], seconds: float) -> bool:
    """Outstanding misses in the window's last quarter exceed its second
    quarter by more than one job on average."""
    def mean_in(lo: float, hi: float) -> float:
        values = [n for t, n in backlog if lo * seconds <= t < hi * seconds]
        return sum(values) / len(values) if values else 0.0

    return mean_in(0.75, 1.0) > mean_in(0.25, 0.5) + 1.0


def _daemon_metrics(port: int) -> dict[str, float]:
    """Sum each Prometheus series of ``/metrics`` by name (+quantile)."""
    from repro.service.client import ServiceClient

    client = ServiceClient(port=port)
    text = client.metrics_text()
    client.close()
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name = series.split("{", 1)[0]
        quantile = re.search(r'quantile="([^"]+)"', series)
        if quantile:
            name = f"{name}@{quantile.group(1)}"
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def run(inputs: dict, seconds: float, trace: bool, ws: Workspace) -> Outcome:
    out = Outcome()
    daemons: list[Daemon] = []
    try:
        boots = []
        for _ in range(BOOTS):
            if daemons:
                daemons.pop().stop()
            wall, daemon = timed(Daemon, ws)
            daemons.append(daemon)
            boots.append(wall)
        reference = _warm_up(daemon.port, inputs["warm"], out)
        loop = _open_loop(daemon.port, inputs["arrivals"], seconds)
        totals = _daemon_metrics(daemon.port)
        peak_rss = proc_peak_rss_mb(daemon.proc.pid)
        daemon.stop()
        journal_records = daemon.journal_records()
    finally:
        for daemon in daemons:
            daemon.stop()

    records = loop["records"]
    _check(out, inputs, records, reference)
    hits = [1000.0 * r["latency_s"] for r in records
            if r["kind"] == "hit" and r["latency_s"] is not None]
    misses = [r["latency_s"] for r in records
              if r["kind"] == "miss" and r["latency_s"] is not None]
    lags = [1000.0 * r["lag_s"] for r in records if r["lag_s"] is not None]
    rtts = [1000.0 * r["rtt_s"] for r in records if r["rtt_s"] is not None]
    growing = _backlog_growing(loop["backlog"], seconds)
    if growing:
        out.lines.append("  WARNING: backlog still growing at the end of "
                         "the window")

    if trace:
        # Every miss pays this in its spawned worker.
        numpy_s, import_s = fresh_import_s(ws, ["repro.service.jobs"])
        submissions = totals.get("service_submissions_total", 0.0)
        cache_hits = totals.get("service_cache_hits_total", 0.0)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "cli.import_s": import_s,
            "cli.import_numpy_s": numpy_s,
            "harness.journal_records": journal_records,
            "cache.gets": submissions,
            "cache.hit_ratio": cache_hits / submissions if submissions else 0.0,
            "cache.puts": totals.get("service_jobs_done_total", 0.0),
            "service.submit_rtt_p50_ms": median(rtts),
            "service.submit_rtt_p99_ms": percentile(rtts, 99),
            "service.admission_p99_ms":
                1000.0 * totals.get("service_admission_latency_s@0.99", 0.0),
            "service.job_wall_p50_s": totals.get("service_job_wall_s@0.5",
                                                 0.0),
            "service.miss_p90_s": percentile(misses, 90),
            "service.hit_p99_ms": percentile(hits, 99),
            "service.shed": totals.get("service_shed_total", 0.0),
            "service.retries": totals.get("service_retries_total", 0.0),
            "service.worker_failures":
                totals.get("service_worker_failures_total", 0.0),
            "service.polls": loop["polls"],
            "service.gen_lag_p99_ms": percentile(lags, 99),
            "service.backlog_growing": float(growing),
        })
        # Time a miss spends queued: its daemon residency less the
        # worker wall, both medians (status carries no start time).
        metrics["service.queue_wait_p50_s"] = max(
            0.0, median(misses) - metrics["service.job_wall_p50_s"])
        out.lines.append("  ledger: read from outside the daemon (/metrics, "
                         "job status, journal); in-worker layers are not "
                         "traced, so tracing adds no overhead here")
        for name, unit in PER_LAYER.items():
            if metrics[name]:
                out.note(name, metrics[name], unit)
    else:
        metrics = {
            "setup_s": median(boots),
            "peak_rss_mb": peak_rss,
            "primary_s": median(misses),
            "secondary_ms": median(hits),
        }
        out.note("setup_s", median(boots), "s", len(boots),
                 "daemon boot to /readyz")
        out.note("svc_miss_p50_s", median(misses), "s", len(misses))
        out.note("svc_miss_p90_s", percentile(misses, 90), "s", len(misses))
        out.note("svc_hit_p50_ms", median(hits), "ms", len(hits))
        out.note("svc_hit_p99_ms", percentile(hits, 99), "ms", len(hits))
        out.note("miss_over_limit", sum(m > MISS_LIMIT_S for m in misses),
                 "count", len(misses), f"limit {MISS_LIMIT_S} s")
        out.note("hit_over_limit", sum(h > HIT_LIMIT_MS for h in hits),
                 "count", len(hits), f"limit {HIT_LIMIT_MS} ms")
        out.note("gen_lag_p99_ms", percentile(lags, 99), "ms", len(lags))
        out.note("offered_rate", len(records) / seconds, "1/s",
                 base=f"target {inputs['rate_per_s']}/s")
        out.note("peak_rss_mb", peak_rss, "MB", base="daemon process")
    out.metrics = metrics
    return out


def _check(out: Outcome, inputs: dict, records: list[dict],
           reference: dict[str, object]) -> None:
    """Outside the timed window: statuses, hit payloads, sampled misses."""
    from repro.service.jobs import run_simulation

    for index, record in enumerate(records):
        out.attempted += 1
        if record["code"] not in (200, 202) or record["phase"] != "done":
            out.check(False, f"request {index} ({record['kind']}): HTTP "
                             f"{record['code']}, phase {record['phase']}")
        elif record["kind"] == "hit":
            out.check(record["result"] == reference.get(_key(record["job"])),
                      f"hit {index} payload differs from its first miss")
    for index in inputs["check_misses"]:
        record = records[index]
        job = record["job"]
        expected = json.loads(json.dumps(run_simulation(
            job["workload"], job["policy"], job["iterations"],
            job["time_scale"])))
        out.check(record["result"] == expected,
                  f"miss {index} payload differs from an in-process run")
