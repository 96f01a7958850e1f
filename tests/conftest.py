import numpy as np
import pytest

from skewheat import MediumParams, PointAccumulator
from skewheat.solver import ExactLinearSampler

# One fixed seed for every Monte Carlo test: margins are bit-reproducible.
MC_SEED = 20250601
M14 = MediumParams(1, 4, 1, 1)


def exact_paths(sampler, seed, replicates):
    """The (replicates, n+1) paths of path_blocks, each block copied before its buffer is reused."""
    return np.concatenate([rows.copy() for _, rows in sampler.path_blocks(seed, replicates)])


def point_stats(paths, x, T, sigma, medium):
    """The PointStats of (R, n+1) paths, fed to a PointAccumulator as one block."""
    acc = PointAccumulator(len(paths), paths.shape[-1] - 1, x, T, sigma, medium)
    acc.add(0, paths)
    return acc.result()


@pytest.fixture(scope="session")
def exact_sampler_64():
    return ExactLinearSampler(M14, 0.5, 1.0, 64)


@pytest.fixture(scope="session")
def exact_sampler_256():
    return ExactLinearSampler(M14, 0.5, 1.0, 256)


@pytest.fixture(scope="session")
def exact_sampler_1024():
    return ExactLinearSampler(M14, 0.5, 1.0, 1024)
