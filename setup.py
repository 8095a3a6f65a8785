"""Legacy setup shim.

The offline build environment lacks the ``wheel`` package, so editable
installs must go through ``setup.py develop``; all real metadata lives
in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Fair and secure bandwidth sharing over asymmetric channels "
        "(reproduction of Agarwal et al., ICDCS 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native kernels are compiled from these at first use.
    package_data={
        "repro.sim": ["_fastalloc.c"],
        "repro.gf": ["_gfmul.c"],
        "repro.security": ["_modexp.c", "_md5.c", "_sha256.c"],
    },
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
