"""End-to-end crash/interrupt recovery through the real CLI.

These tests drive ``python -m repro.experiments`` as a genuine subprocess:
SIGKILL models a machine-level failure (OOM killer, power loss), SIGINT a
user's Ctrl-C.  The acceptance criterion is byte-identical output files
after resuming from the journal.
"""

import os
import pathlib
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


def _wait_for_journal(path, min_lines, process, timeout_s=120.0):
    """Block until the journal holds ``min_lines`` complete lines."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"campaign exited (rc={process.returncode}) before the "
                f"journal reached {min_lines} lines")
        try:
            lines = path.read_bytes().count(b"\n")
        except OSError:
            lines = 0
        if lines >= min_lines:
            return
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {min_lines} lines")


def _kill_group(process):
    """SIGKILL the process group ``process`` leads, then reap the leader.

    Killing the leader alone would orphan its pool workers.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)


CAMPAIGN = ["fig3", "--preset", "quick", "--jobs", "2"]


class TestKillResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = _run(
            CAMPAIGN + ["--output", "ref", "--cache-dir", "refcache",
                        "--journal", "ref.jsonl"],
            cwd=tmp_path)
        assert reference.returncode == 0, reference.stderr
        ref_text = (tmp_path / "ref" / "fig3.txt").read_bytes()

        journal = tmp_path / "run.jsonl"
        process = _popen(
            CAMPAIGN + ["--output", "out", "--cache-dir", "cache",
                        "--journal", "run.jsonl"],
            cwd=tmp_path)
        try:
            # Wait for meta + a few completed cells, then pull the plug on
            # the CLI and its pool workers together (the CLI leads its own
            # session, so its process group holds every worker).
            _wait_for_journal(journal, 4, process)
        finally:
            _kill_group(process)

        resumed = _run(
            CAMPAIGN + ["--output", "out", "--cache-dir", "cache2",
                        "--journal", "run.jsonl", "--resume"],
            cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert "from journal" in resumed.stdout
        assert (tmp_path / "out" / "fig3.txt").read_bytes() == ref_text

    def test_sigint_exits_130_without_traceback(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments",
             *CAMPAIGN, "--output", "out", "--cache-dir", "cache",
             "--journal", "run.jsonl"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                try:
                    if journal.read_bytes().count(b"\n") >= 3:
                        break
                except OSError:
                    pass
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

    def test_resume_flag_requires_journal(self, tmp_path):
        result = _run(["fig3", "--resume"], cwd=tmp_path)
        assert result.returncode == 2
        assert "--journal" in result.stderr
