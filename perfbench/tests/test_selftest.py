"""Self-test of the benchmark harness at a tiny size.

Proves that every exit path leaves no process behind and that the output
checks really fail on a wrong answer.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fleet  # noqa: E402
from harness import (  # noqa: E402
    CheckFailed,
    Conn,
    Daemon,
    Reaper,
    _pgid_members,
    cli,
    python_env,
)

N_MACHINES, N_DAYS = 24, 14


@pytest.fixture()
def tiny(tmp_path):
    small = fleet.make_fleet(5, N_MACHINES, N_DAYS)
    fleet.write_store(small, tmp_path / "fleet", 2)
    return small, tmp_path


def _daemon(reaper, root: Path, *extra: str) -> Daemon:
    argv = cli("serve", str(root / "fleet"), "--port", "0", *extra)
    return Daemon(reaper, argv, root / "daemon.log", env=python_env(ROOT, root))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_stop_leaves_no_process(tiny, workers):
    _, root = tiny
    reaper = Reaper(root)
    daemon = _daemon(reaper, root, "--workers", workers)
    daemon.start()
    pids = daemon.pids()
    assert len(pids) >= int(workers)
    daemon.stop()
    assert not _pgid_members(daemon.proc.pid)
    assert daemon.proc.returncode is not None
    assert not reaper.survivors()


def test_failed_check_path_kills_daemon(tiny):
    _, root = tiny
    reaper = Reaper(root)
    daemon = _daemon(reaper, root, "--workers", "2")
    with pytest.raises(CheckFailed):
        try:
            daemon.start()
            raise CheckFailed("simulated failure mid-run")
        finally:
            reaper.close()
    assert not _pgid_members(daemon.proc.pid)


def test_wrong_expected_answer_fails_the_check(tiny):
    small, root = tiny
    predictor, _ = fleet.fit_reference(small, [])
    reaper = Reaper(root)
    daemon = _daemon(reaper, root)
    try:
        daemon.start()
        conn = Conn(daemon.url)
        machines = list(range(N_MACHINES))
        assert fleet.check_points(conn, predictor, machines, [N_DAYS]) == N_MACHINES
        fleet.check_fleet(conn, predictor, N_MACHINES, N_DAYS, router=False)

        class OffByOne:
            def predict_survival(self, query):
                return predictor.predict_survival(query) + 1e-12

            def predict_count(self, query):
                return predictor.predict_count(query)

        with pytest.raises(CheckFailed):
            fleet.check_points(conn, OffByOne(), machines, [N_DAYS])
        with pytest.raises(CheckFailed):
            fleet.check_fleet(conn, OffByOne(), N_MACHINES, N_DAYS, router=False)
        conn.close()
    finally:
        reaper.close()
    assert not reaper.survivors()


def test_without_program_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0
    assert run.stdout.strip() == ""


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                status = Path(f"/proc/{entry}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("PPid:") and int(line.split()[1]) == pid:
                    out.append(int(entry))
    return out


def test_sigint_mid_run_reaps_every_child():
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve-fleet-ingest", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        deadline = time.monotonic() + 120
        groups: list[int] = []
        while not groups and time.monotonic() < deadline:
            groups = _children(run.pid)
            time.sleep(0.2)
        assert groups, "benchmark started no child process"
        run.send_signal(signal.SIGINT)
        out, _ = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert run.returncode == 130
    assert not out.strip()
    for pgid in groups:
        assert not _pgid_members(pgid)
    leftovers = [p for p in (ROOT / ".perfbench").glob(f"run-{run.pid}")]
    assert not leftovers
