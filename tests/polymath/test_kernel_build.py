"""The kernels' build at first import.

Two interpreters importing :mod:`repro.polymath.kernels` at once into an
empty cache, or one holding a stale build of another source, both load
a working library and leave exactly one in it, with no partial file; an
interpreter without ``gcc`` on its ``PATH`` gets an :class:`ImportError`
that says so.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from repro.polymath import kernels

SRC = str(Path(kernels.__file__).resolve().parents[2])

#: Prints the hex digest of a seeded (4, 7, 64) stack's forward and
#: inverse transforms.
SCRIPT = """
import hashlib, numpy as np
from repro.polymath.engine import BatchedRnsEngine
from repro.polymath.rns import RnsBasis, plan_towers
engine = BatchedRnsEngine(RnsBasis(plan_towers(210, 30, 64)), 64)
stack = np.random.default_rng(7).integers(0, engine._mods.q, (4, 7, 64))
out = np.stack([engine.forward(stack), engine.inverse(stack)])
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def _start(cache: Path, **env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(cache),
             **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _expected() -> str:
    """:data:`SCRIPT`'s digest in this interpreter."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(SCRIPT, {})
    return out.getvalue().strip()


def _race(cache: Path) -> list[str]:
    """Two first imports at once into ``cache``: both print the expected
    digest; returns the files they leave."""
    procs = [_start(cache) for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    assert {out.strip() for out, _ in outputs} == {_expected()}
    return sorted(p.name for p in (cache / "repro").iterdir())


def test_concurrent_first_imports_share_one_library(tmp_path):
    files = _race(tmp_path)
    assert len(files) == 1 and files[0].startswith("ntt-"), files
    assert files[0].endswith(".so")


def test_first_imports_prune_a_stale_library(tmp_path):
    """A build of another source (``ntt-<otherhash>.so``) is deleted by
    the build that replaces it."""
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "ntt-0123456789abcdef.so").write_bytes(b"old")
    files = _race(tmp_path)
    assert len(files) == 1 and files[0].startswith("ntt-"), files
    assert files[0].endswith(".so") and "0123456789abcdef" not in files[0]


def test_no_compiler_is_a_clear_import_error(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = _start(tmp_path / "cache", PATH=str(empty))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert "ImportError" in err
    assert "compiles its NTT kernel with gcc" in err
