import numpy as np
import pytest

from cavimd import build_pta_surrogate
from cavimd.model import HarmonicBond, ModelSystem, Particle


@pytest.fixture(scope="session")
def surrogate():
    return build_pta_surrogate()


@pytest.fixture()
def diatomic():
    """Two equal charges +-0.5 on one harmonic bond along x."""
    particles = (Particle("A", 2.0, 0.5), Particle("B", 2.0, -0.5))
    bonds = (HarmonicBond(0, 1, 0.1, 2.0),)
    ref = np.array([0.0, 0.0, 0.0, -2.0, 0.0, 0.0])
    return ModelSystem(
        particles=particles,
        bonds=bonds,
        couplings=(),
        reference_positions=ref,
    )


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q
