"""The examples are part of the public contract: each must run clean.

Each runs as a user would run it — ``python examples/<name>.py`` in a
fresh interpreter, from an empty working directory — and must exit 0
and print the lines its narrative promises.  The streaming example is
pointed at a tiny XMark factor (its default generates a document large
enough to show the memory bound, which takes tens of seconds).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Example file → (command-line arguments, lines its output must hold).
EXPECTED = {
    "hypothetical_queries.py": ([], ["bidders remain", "schema migration preview"]),
    "quickstart.py": ([], ["never modified"]),
    "security_views.py": ([], ["views were virtual", "emea-analysts"]),
    "service_client.py": ([], [
        "8 concurrent clients, identical query",
        "typed error over the wire",
        "server shut down gracefully",
    ]),
    "streaming_large_documents.py": (["0.002"], ["twoPassSAX", "memory ratio"]),
    "view_server.py": ([], ["result cache", "committed catalog v2", "staged preview"]),
    # The Q3 composed query shows the topDown call.
    "virtual_view_updates.py": ([], ["compile-time", "topDown"]),
}


def test_every_example_is_run():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_runs_clean(name, tmp_path):
    argv, promised = EXPECTED[name]
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for line in promised:
        assert line in done.stdout, (line, done.stdout)
