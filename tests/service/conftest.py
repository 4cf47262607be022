"""Service test fixtures: the gated job target.

Warm workers start a miss in milliseconds, so a test that needs a job
to be mid-flight when it kills, times out or expires it, or that queues
work behind it, cannot rely on the job being slow.  The ``gate`` fixture points the daemon at
:func:`repro.harness._testjobs.gated_simulation`: every job blocks until
the test opens the gate, and logs the pid of the process running it.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.harness._testjobs import GATE_ENV

GATED_TARGET = "repro.harness._testjobs:gated_simulation"


class Gate:
    def __init__(self, path: str) -> None:
        self.path = path

    def open(self, content: str = "") -> None:
        """Let blocked and future jobs through; ``"once"`` lets one job
        through and shuts again, ``"raise"`` fails every job."""
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, self.path)

    def started(self) -> list[int]:
        """Pids that started a gated job, in order (one line per job)."""
        try:
            with open(self.path + ".started", encoding="utf-8") as handle:
                return [int(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []

    def wait_started(self, count: int, timeout_s: float = 60.0) -> list[int]:
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            pids = self.started()
            if len(pids) >= count:
                return pids
            time.sleep(0.005)
        raise AssertionError(f"fewer than {count} gated jobs started")


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """A shut gate in front of every service job (set before boot)."""
    gate = Gate(str(tmp_path / "gate"))
    monkeypatch.setenv(GATE_ENV, gate.path)
    monkeypatch.setattr("repro.service.daemon.JOB_TARGET", GATED_TARGET)
    yield gate
    gate.open()  # never leave an inline job's thread blocked
