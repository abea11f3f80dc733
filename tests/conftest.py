import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diraclab.algebra import Multivector, VectorFactorList


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_multivector(rng, dim, batch=(), scale=1.0):
    return Multivector(dim, scale * rng.standard_normal(tuple(batch) + (1 << dim,)))


def random_vector(rng, dim, unit=False):
    v = rng.standard_normal(dim)
    while np.linalg.norm(v) < 1e-3:
        v = rng.standard_normal(dim)
    if unit:
        v = v / np.linalg.norm(v)
    return Multivector.from_vector(dim, v)


def random_factor_list(rng, dim, count, unit=False):
    return VectorFactorList([random_vector(rng, dim, unit=unit) for _ in range(count)])


def blas_child(statement, threads=1):
    """The stdout of `python -c statement` in a child interpreter with
    `threads` BLAS threads, one by default, as every pinned digest was
    recorded: a dense product sums in an order that follows the BLAS thread
    count."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
               **{name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")})
    return subprocess.run([sys.executable, "-c", statement], env=env, capture_output=True,
                          text=True, check=True).stdout
