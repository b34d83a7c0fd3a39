"""The kernels' build at first import.

Two interpreters importing :mod:`repro.polymath.kernels` at once into an
empty cache both load a working library and leave exactly one in it,
with no partial file; into a full cache, they drop only the build loaded
longest ago. Builds of two sources both stay, each touched when loaded.
An interpreter without ``gcc`` on its ``PATH`` gets an
:class:`ImportError` that says so.
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
    """A cache already holding :data:`~repro.polymath.kernels.KEEP_BUILDS`
    builds of other sources loses the one loaded longest ago to the new
    build, and keeps the rest."""
    (tmp_path / "repro").mkdir()
    stale = [f"ntt-{i:016x}.so" for i in range(kernels.KEEP_BUILDS)]
    for age, name in enumerate(stale):  # stale[0] was loaded last
        path = tmp_path / "repro" / name
        path.write_bytes(b"old")
        os.utime(path, (1e9 - age, 1e9 - age))
    files = _race(tmp_path)
    assert len(files) == kernels.KEEP_BUILDS, files
    assert set(stale[:-1]) < set(files), files


def test_builds_of_two_sources_both_stay(tmp_path, monkeypatch):
    """Two checkouts of different sources sharing a cache (a parent and
    a change benchmarked in turn) each build once: both builds stay, and
    loading one again touches it rather than building it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = [tmp_path / "a.c", tmp_path / "b.c"]
    for value, source in enumerate(sources):
        source.write_text(f"int version(void) {{ return {value}; }}\n")
    libraries = [kernels._library(s) for s in sources]
    assert libraries[0] != libraries[1]
    os.utime(libraries[0], (1e9, 1e9))
    assert kernels._library(sources[0]) == libraries[0]
    assert os.stat(libraries[0]).st_mtime > 1e9
    assert sorted(p.name for p in (tmp_path / "repro").iterdir()) == sorted(
        Path(lib).name for lib in libraries)


def test_no_compiler_is_a_clear_import_error(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = _start(tmp_path / "cache", PATH=str(empty))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert "ImportError" in err
    assert "compiles its NTT kernel with gcc" in err
