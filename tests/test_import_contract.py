"""The import contract: the static-analysis gate needs only the stdlib.

``repro --version``, ``repro --help`` and ``repro check`` build the
parser and run the stdlib-``ast`` checker without loading numpy or
scipy, so the CI gate can run before any ``pip install``.  Each check
runs in a fresh interpreter: this test process has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_check_runs_without_site_packages():
    # -S skips site-packages: numpy and scipy are not importable at all.
    done = _run("-S", "-m", "repro", "check", "--root", str(REPO_ROOT))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 new violation(s)" in done.stdout


def test_version_help_and_check_leave_numpy_and_scipy_unloaded():
    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        f"for argv in (['--version'], ['--help'], ['check', '--root', {str(REPO_ROOT)!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exit:\n"
        "            code = exit.code\n"
        "    assert code == 0, (argv, code)\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        "import numpy, scipy  # both installed: the check above is not vacuous\n"
    )
    done = _run("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
