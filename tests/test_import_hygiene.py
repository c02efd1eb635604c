"""Import hygiene: each command imports only what it runs.

``scipy.signal`` costs about a second to import and only trace synthesis
uses it, so ``serve``, ``query``, ``analyze`` and every spawn-started
router worker must never load scipy; ``query`` sends one HTTP request
and must not load numpy either.  Each check runs in a fresh
interpreter and counts modules, not seconds, so none of them can flake.

Generation, the one path that does load the filter, must load it in the
parent *before* it builds a worker pool: fork-started workers then share
the parent's scipy pages instead of each importing and dirtying its own
copy (which showed up as a 10 % rise in the paper pipeline's peak RSS).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.config import FgcsConfig, TestbedConfig
from repro.traces.shards import generate_shards
from repro.units import DAY

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with this checkout on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _scipy_after(statements: str, *argv: str) -> list[str]:
    """The scipy modules loaded after ``statements`` ran in a fresh process."""
    proc = _fresh(
        statements
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules "
        + "if m.split('.')[0] == 'scipy')))\n",
        *argv,
    )
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("hygiene") / "store"
    config = FgcsConfig(testbed=TestbedConfig(n_machines=2, duration=2 * DAY))
    generate_shards(config, root, 2, format="binary")
    return root


def _closed_port() -> int:
    """A loopback port nothing listens on (bound, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestNoScipy:
    @pytest.mark.parametrize(
        "statement",
        [
            "import repro.serve",
            "import repro.cli",
            "from repro.serve.router import worker_main",
        ],
    )
    def test_import(self, statement):
        assert _scipy_after(statement) == []

    def test_streaming_analyze(self, tiny_store):
        code = """
        import sys
        from repro.cli import main
        assert main(["analyze", "--trace", sys.argv[1], "--streaming"]) == 0
        """
        assert _scipy_after(textwrap.dedent(code), str(tiny_store)) == []

    def test_query_error_path(self):
        code = """
        import sys
        from repro.cli import main
        url = "http://127.0.0.1:" + sys.argv[1]
        assert main(["query", "--url", url, "health"]) == 2
        assert "numpy" not in sys.modules, "query loaded numpy"
        """
        assert _scipy_after(textwrap.dedent(code), str(_closed_port())) == []


class TestLazyPackage:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            namespace: dict = {}
            exec(f"from repro import {name}", namespace)
            assert namespace[name] is getattr(repro, name)
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018


class TestFilterLoadsBeforeFork:
    """Every generation path holds scipy.signal when it builds its backend."""

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--shards", "2", "--format", "binary"],
            ["--scenario", "semester-break"],
            ["--scenario", "semester-break", "--shards", "2"],
        ],
        ids=["monolithic", "shards", "scenario", "scenario-shards"],
    )
    def test_generate(self, tmp_path, extra):
        code = """
        import json, sys
        import repro.parallel.backend as backend

        seen = []
        real = backend.get_backend

        def recording(*args, **kwargs):
            seen.append("scipy.signal" in sys.modules)
            return real(*args, **kwargs)

        backend.get_backend = recording
        assert "scipy.signal" not in sys.modules
        from repro.cli import main

        rc = main(["generate", sys.argv[1], "--machines", "2", "--days", "2",
                   "--jobs", "2", *sys.argv[2:]])
        print(json.dumps({"rc": rc, "seen": seen}))
        """
        proc = _fresh(code, str(tmp_path / "out"), *extra)
        assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["rc"] == 0
        assert result["seen"] and all(result["seen"]), result
