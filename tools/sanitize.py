"""Run the C kernels' test batteries against an ASan+UBSan build of ntt.c.

    python tools/sanitize.py

Builds ``src/repro/polymath/ntt.c`` with ``kernels.CFLAGS``, ``-O3``
swapped for ``-O1 -g -fno-omit-frame-pointer
-fsanitize=address,undefined -fno-sanitize-recover=all``, into a
temporary directory, then runs the kernel, RNS-kernel, warm-replay,
warm-tower, warm-fault and served-EvalMult batteries in a child
interpreter with gcc's ``libasan`` preloaded. In the child a pytest
fixture puts the sanitized build in place of ``kernels._lib`` for every
test, as the fallback fixture of ``test_property_kernels.py`` loads its
x86-64-v3 build. Any report fails the run. Exits with pytest's status.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The batteries that drive every kernel, the replay with its host rows,
#: and the served path.
BATTERIES = (
    "tests/property/test_property_kernels.py",
    "tests/property/test_property_rns_kernels.py",
    "tests/property/test_property_warm_replay.py",
    "tests/service/test_warm_tower.py",
    "tests/service/test_warm_fault.py",
    "tests/bfv/test_served_evalmult.py",
)

SANITIZE = ("-O1", "-g", "-fno-omit-frame-pointer",
            "-fsanitize=address,undefined", "-fno-sanitize-recover=all")


class SanitizedKernels:
    """A pytest plugin: every test runs on the library at ``path``."""

    def __init__(self, path: str):
        self.path = path

    @pytest.fixture(autouse=True, scope="session")
    def sanitized_kernels(self):
        from repro.polymath import kernels

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_lib", kernels._ffi.dlopen(self.path))
            yield


def build(directory: str) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.polymath import kernels

    flags = [f for f in kernels.CFLAGS if f != "-O3"]
    library = os.path.join(directory, "ntt-sanitized.so")
    subprocess.run(("gcc", *SANITIZE, *flags, "-o", library,
                    str(Path(kernels.__file__).with_name("ntt.c"))),
                   check=True)
    return library


def child(library: str) -> int:
    # A sanitizer report is written to file descriptor 2 as the process
    # aborts: capture only sys.stderr, so the report reaches the terminal.
    return pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys",
                        *BATTERIES],
                       plugins=[SanitizedKernels(library)])


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        return child(sys.argv[2])
    libasan = subprocess.run(("gcc", "-print-file-name=libasan.so"),
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as directory:
        library = build(directory)
        env = {**os.environ, "LD_PRELOAD": libasan,
               "ASAN_OPTIONS": "detect_leaks=0",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH"))))}
        return subprocess.run((sys.executable, __file__, "--child", library),
                              cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
