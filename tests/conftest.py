import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from opvec import simulator

# OPVEC_HYPOTHESIS=deep runs every property test on 1000 examples with no
# deadline, as the CI step that deepens the lowering and executor properties
# does; by default hypothesis keeps its own settings.
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("OPVEC_HYPOTHESIS", "default"))


def _openblas_core() -> str:
    """The core OpenBLAS chose at load, read from the library numpy ships in
    numpy.libs; "unknown" where there is none or it does not say."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    # The bit-for-bit kernel tests hold for the BLAS kernels they ran on.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"OpenBLAS core {_openblas_core()}")


@pytest.fixture(autouse=True)
def _empty_kept_preparation():
    """Each test starts with no doubled evolution's preparation kept, so a
    test that counts lowering or planning work sees its own."""
    simulator._KEPT = None


@pytest.fixture
def gen() -> np.random.Generator:
    return np.random.default_rng(20240817)
