import sys
from pathlib import Path

import pytest

# make sibling helper modules (gradcheck, reference_rows) importable
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def set_blas_threads():
    """The setter of the process's OpenBLAS thread count; the count a test
    started with is restored after it. Skips where no OpenBLAS is found."""
    from mstkd import training
    found = training._openblas_threads()
    if found is None:
        pytest.skip("no OpenBLAS thread-count functions in this process")
    get, set_ = found
    before = get()
    yield set_
    set_(before)
