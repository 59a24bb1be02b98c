"""The import contract: each entry point loads only what it runs.

``repro --version``, ``repro --help`` and ``repro check`` build the
parser and run the stdlib-``ast`` checker without loading numpy or
scipy, so the CI gate can run before any ``pip install``.  The paper
pipeline (``repro.pipeline.graphs`` and ``repro pipeline run``) never
loads ``scipy.stats``, ``networkx`` or ``repro.epidemic``: together they
cost one to two seconds of every run, cold or warm.  Each check runs in
a fresh interpreter: this test process has those modules loaded already.
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


#: Modules the paper pipeline must not load.
_HEAVY = ("scipy.stats", "networkx", "repro.epidemic")

#: Script tail printing which of them (or their submodules) are loaded.
_LOADED_HEAVY = (
    f"heavy = {_HEAVY!r}\n"
    "print(sorted({h for h in heavy for m in sys.modules\n"
    "              if m == h or m.startswith(h + '.')}))\n"
)


def test_pipeline_graphs_import_leaves_heavy_modules_unloaded():
    script = "import sys\nimport repro.pipeline.graphs\n" + _LOADED_HEAVY
    script += "import scipy.stats, networkx, repro.epidemic  # the check is not vacuous\n"
    done = _run("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cold_and_warm_pipeline_runs_leave_heavy_modules_unloaded(tmp_path):
    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['pipeline', 'run', '--users', '800', '--seed', '9',\n"
        f"                 '--cache-dir', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
    ) + _LOADED_HEAVY
    for run in ("cold", "warm"):
        done = _run("-c", script)
        assert done.returncode == 0, (run, done.stderr)
        assert done.stdout.strip() == "[]", run
