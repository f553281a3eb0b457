"""The reference backend must work with numpy uninstalled.

The default CI job runs without numpy on purpose; this test enforces
the same property locally even when numpy *is* installed, by blocking
the import in a subprocess (``sys.modules["numpy"] = None`` makes any
``import numpy`` raise ImportError).  Without numpy the default backend
is the reference path, which must import, simulate and digest cleanly;
asking for the bitmap kernel must fail with a clear error instead of an
ImportError traceback.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]

_BLOCKED_PROLOGUE = "import sys; sys.modules['numpy'] = None\n"


def _run_blocked(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _BLOCKED_PROLOGUE + code],
        capture_output=True,
        text=True,
        cwd=_REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def test_reference_backend_runs_without_numpy():
    completed = _run_blocked(
        "from repro.heap.kernel import numpy_available, make_kernel\n"
        "assert not numpy_available()\n"
        "assert make_kernel('reference') is None\n"
        "from repro.adversary.driver import run_execution\n"
        "from repro.adversary.catalog import make_program\n"
        "from repro.mm.registry import create_manager\n"
        "from repro.core.params import BoundParams\n"
        "params = BoundParams(512, 16, 20.0)\n"
        "result = run_execution(params, make_program('pf', params),\n"
        "                       create_manager('window-compactor', params),\n"
        "                       kernel='reference')\n"
        "assert result.heap_size > 0\n"
        "print('ok')\n"
    )
    assert completed.returncode == 0, completed.stderr
    assert "ok" in completed.stdout


def test_default_is_reference_without_numpy():
    completed = _run_blocked(
        "from repro.heap.kernel import resolve_kernel\n"
        "assert resolve_kernel(None) == 'reference'\n"
        "from repro.adversary.driver import ExecutionDriver\n"
        "from repro.adversary.catalog import make_program\n"
        "from repro.mm.registry import create_manager\n"
        "from repro.core.params import BoundParams\n"
        "params = BoundParams(512, 16, 20.0)\n"
        "for name in ('window-compactor', 'theorem2', 'semispace'):\n"
        "    driver = ExecutionDriver(params, create_manager(name, params))\n"
        "    assert driver.kernel_name == 'reference'\n"
        "    assert driver.heap.kernel is None\n"
        "    result = driver.run(make_program('pf', params))\n"
        "    assert result.heap_size > 0\n"
        "print('ok')\n"
    )
    assert completed.returncode == 0, completed.stderr
    assert "ok" in completed.stdout


def test_bitmap_request_fails_cleanly_without_numpy():
    completed = _run_blocked(
        "from repro.heap.kernel import make_kernel\n"
        "try:\n"
        "    make_kernel('bitmap')\n"
        "except RuntimeError as error:\n"
        "    assert 'numpy' in str(error).lower(), error\n"
        "    print('ok')\n"
        "else:\n"
        "    raise SystemExit('bitmap kernel built without numpy')\n"
    )
    assert completed.returncode == 0, completed.stderr
    assert "ok" in completed.stdout
