"""Package metadata for the CoFHEE reproduction.

Metadata lives here (rather than a ``[project]`` table) so that
``pip install -e . --no-use-pep517`` still works in offline environments
whose setuptools cannot build PEP 660 editable wheels; pyproject.toml
carries only the build-system pin and tool configuration.
"""

from pathlib import Path

from setuptools import find_packages, setup

_readme = Path(__file__).with_name("README.md")

setup(
    name="repro-cofhee",
    version="0.2.0",
    description=(
        "Reproduction of CoFHEE (an FHE co-processor, DATE'23): BFV scheme, "
        "cycle-calibrated chip model, physical-design flow, and a "
        "multi-tenant FHE serving layer over a simulated chip pool"
    ),
    long_description=_readme.read_text(encoding="utf-8") if _readme.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    package_data={"repro.polymath": ["*.c"]},
    install_requires=[
        "numpy>=1.22",
        "cffi>=1.15",
    ],
    extras_require={
        "dev": ["pytest>=7", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-serve = repro.service.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Security :: Cryptography",
    ],
)
