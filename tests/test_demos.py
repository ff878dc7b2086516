"""The demos print pinned bytes.

Each script under ``demos/`` runs in a fresh interpreter with ``src`` on the
path and without writing bytecode, so the run leaves the tree as it was.
The SHA-256 of its stdout must match the digest below; a change to the
printed bytes is a deliberate change of this table.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "cohomology_and_indicial.py":
        "e4ec341992e29e13137f709d33f298e8d08d8060deedb7cb3e77f21588bf4545",
    "degeneracy_certificate.py":
        "8d47714fdf5d59eb519fb921f4acdeb1c361601f1e8561060c05a32f46ce9c61",
    "periods_and_oracle.py":
        "2103bee473f6bb6b168ebc0556517f3407eb203f6b6e6ec9f2c49fad6fd5672a",
    "triangulations_and_groebner.py":
        "766dfa00606723d32afc6c33fee294b7b7ba5f23191d587059213af5ac3afd21",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_prints_pinned_bytes(demo):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-B", str(ROOT / "demos" / demo)],
                            capture_output=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[demo]
