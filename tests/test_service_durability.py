"""Crash-durability of the benchmark service.

The contract under test: a SIGKILLed server loses nothing it journaled.
Completed cells are fsynced to the per-campaign journal *before* they are
streamed to any client, so after a restart with ``--resume`` every cell a
client saw (and possibly more) is archived, indexed, and served as a
cache hit — re-submitting the interrupted campaign re-executes only the
genuinely unfinished cells.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient

pytestmark = [pytest.mark.tier2, pytest.mark.slow]

SRC = str(Path(__file__).resolve().parent.parent / "src")
SHM = Path("/dev/shm")

#: Slow enough per cell (tc with boosted trials) that SIGKILL reliably
#: lands mid-campaign, fast enough to keep the test under a minute.
CAMPAIGN = {
    "graphs": ["urand"],
    "kernels": ["tc"],
    "frameworks": ["gap", "suitesparse"],
    "modes": ["baseline", "optimized"],
    "scale": 14,
    "trials": {"tc": 9},
}
TOTAL_CELLS = 4


def _start_server(tmp_path: Path, resume: bool = False) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` in its own session; returns (proc, port).

    ``start_new_session=True`` puts the server and its pool workers in one
    process group, so the test's SIGKILL takes down the workers too — the
    hard-crash scenario, not a graceful anything.
    """
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--archive-dir", str(tmp_path / "archive"),
        "--cache-dir", str(tmp_path / "graphs"),
        "--journal-dir", str(tmp_path / "journals"),
    ]
    if resume:
        argv.append("--resume")
    env = dict(os.environ, PYTHONPATH=SRC)
    shm_before = _shm_segments()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        start_new_session=True,
    )
    proc.shm_before = shm_before
    deadline = time.time() + 60.0
    port = None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(f"server exited early (code {proc.poll()})")
        if "listening on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port is not None, "server never reported its port"
    return proc, port


def _shm_segments() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def _sigkill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the server's whole group, then remove what it left in shm.

    A killed group cannot unlink its shared-memory corpus (its resource
    tracker dies with it), so the test, which simulated the crash, cleans
    up the segments that appeared while the server ran.
    """
    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    proc.wait(timeout=30.0)
    proc.stdout.close()
    for name in _shm_segments() - proc.shm_before:
        if name.startswith("psm_"):
            (SHM / name).unlink(missing_ok=True)


class TestCrashRecovery:
    def test_sigkill_mid_campaign_then_resume_serves_journaled_cells(
        self, tmp_path
    ):
        proc, port = _start_server(tmp_path)
        seen_before_kill: list[tuple[str, ...]] = []
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            try:
                for event in client.submit(CAMPAIGN):
                    if event["event"] == "cell":
                        seen_before_kill.append(tuple(event["cell"]))
                        if len(seen_before_kill) >= 2:
                            break
                else:  # pragma: no cover - campaign finished too fast
                    pytest.skip("campaign completed before the kill window")
            finally:
                _sigkill_group(proc)
                proc = None
                client.close()
        finally:
            if proc is not None:
                _sigkill_group(proc)

        # The crash left the journal behind: nothing archived it yet.
        journals = list((tmp_path / "journals").glob("*.jsonl"))
        assert journals, "crashed server should leave its campaign journal"

        proc, port = _start_server(tmp_path, resume=True)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            status = client.status()
            assert status["recovery"], "resume must report the recovered journal"
            recovered = sum(
                int(entry.get("recovered_cells", 0))
                for entry in status["recovery"]
                if isinstance(entry, dict)
            )
            assert recovered >= len(seen_before_kill)
            assert not list((tmp_path / "journals").glob("*.jsonl"))

            events = client.submit_and_collect(CAMPAIGN)
            assert events[-1]["event"] == "done"
            cells = [e for e in events if e["event"] == "cell"]
            assert len(cells) == TOTAL_CELLS
            by_key = {tuple(c["cell"]): c for c in cells}
            # Every cell the first client saw is a zero-recompute hit
            # backed by a real archived run.
            for key in seen_before_kill:
                assert by_key[key]["cached"] is True
                assert by_key[key]["run_id"]
            # Only the genuinely unfinished cells re-executed.
            assert events[-1]["executed"] == TOTAL_CELLS - events[0]["hits"]
            assert events[0]["hits"] >= len(seen_before_kill)
            client.close()
        finally:
            _sigkill_group(proc)

    def test_resume_on_clean_archive_is_a_no_op(self, tmp_path):
        (tmp_path / "archive").mkdir()
        proc, port = _start_server(tmp_path, resume=True)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=60.0)
            assert client.status()["recovery"] == []
            client.close()
        finally:
            _sigkill_group(proc)
