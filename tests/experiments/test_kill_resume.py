"""End-to-end crash/interrupt recovery through the real CLI.

These tests drive ``python -m repro.experiments`` as a genuine subprocess:
SIGKILL models a machine-level failure (OOM killer, power loss), SIGINT a
user's Ctrl-C.  The acceptance criterion is byte-identical output files
after a re-run with the killed campaign's own ``--cache-dir``.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import time

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run(args, cwd, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        **kwargs,
    )


def _popen(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )


def _entries(cache_dir):
    """How many result entries ``cache_dir`` holds."""
    return len(list(cache_dir.glob("*.json")))


def _wait_for_entries(cache_dir, min_entries, process, timeout_s=120.0):
    """Block until the cache holds ``min_entries`` entries."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"campaign exited (rc={process.returncode}) before the "
                f"cache reached {min_entries} entries")
        if _entries(cache_dir) >= min_entries:
            return
        time.sleep(0.05)
    raise AssertionError(f"cache never reached {min_entries} entries")


def _kill_group(process):
    """SIGKILL the process group ``process`` leads, then reap the leader.

    Killing the leader alone would orphan its pool workers.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)


def _session_alive(session):
    """Pids of the live (not zombie) processes of ``session``, from /proc."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # After "pid (comm) ": state, ppid, pgrp, session, ...
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == session and fields[0] not in ("Z", "X"):
            alive.append(int(entry))
    return alive


CAMPAIGN = ["fig3", "--preset", "quick", "--jobs", "2"]


class TestKillResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = _run(
            CAMPAIGN + ["--output", "ref", "--cache-dir", "refcache"],
            cwd=tmp_path)
        assert reference.returncode == 0, reference.stderr
        ref_text = (tmp_path / "ref" / "fig3.txt").read_bytes()

        cache = tmp_path / "cache"
        process = _popen(
            CAMPAIGN + ["--output", "out", "--cache-dir", "cache"],
            cwd=tmp_path)
        try:
            # Wait for a few stored cells, then pull the plug on the CLI
            # and its pool workers together (the CLI leads its own session,
            # so its process group holds every worker).
            _wait_for_entries(cache, 3, process)
        finally:
            _kill_group(process)
        stored = _entries(cache)

        resumed = _run(
            CAMPAIGN + ["--output", "out", "--cache-dir", "cache"],
            cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        served = re.search(r"(\d+) from cache", resumed.stdout)
        assert served is not None, resumed.stdout
        assert int(served.group(1)) == stored >= 3
        assert (tmp_path / "out" / "fig3.txt").read_bytes() == ref_text

    def test_sigkill_of_the_campaign_ends_its_pool_workers(self, tmp_path):
        """Workers notice that their campaign died: nothing of the killed
        campaign's session is alive 10 s after the SIGKILL."""
        process = _popen(
            CAMPAIGN + ["--output", "out", "--cache-dir", "cache"],
            cwd=tmp_path)
        try:
            _wait_for_entries(tmp_path / "cache", 1, process)
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while _session_alive(process.pid) and time.monotonic() < deadline:
                time.sleep(0.2)
            assert _session_alive(process.pid) == []
        finally:
            _kill_group(process)

    def test_sigint_exits_130_without_traceback(self, tmp_path):
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments",
             *CAMPAIGN, "--output", "out", "--cache-dir", "cache"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if _entries(cache) >= 2:
                    break
                time.sleep(0.05)
            assert process.poll() is None, "campaign finished before SIGINT"
            os.killpg(process.pid, signal.SIGINT)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                _kill_group(process)
        assert process.returncode == 130, (stdout, stderr)
        assert "interrupted" in stderr
        assert "Traceback" not in stderr
