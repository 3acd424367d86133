import pytest
from hypothesis import settings

from flrlab import DesignSpec, ThetaClass, parallel, sample_basis_design, sample_design
from flrlab.covariance import empirical_covariance

# Property tests draw the same examples on every run and leave no example
# database behind, so the suite stays deterministic.
settings.register_profile("flrlab", derandomize=True, database=None, deadline=None)
settings.load_profile("flrlab")

# Thread controls of the OpenBLAS builds loaded at collection (numpy's).
CONTROLS = parallel._blas_controls()
needs_openblas = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS thread setter is loaded")


def blas_counts():
    return [c.get() for c in CONTROLS]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at 2 threads, so a count of 1 inside a loop or a
    subcommand is the cap's doing; the counts are restored afterwards."""
    saved = blas_counts()
    for c in CONTROLS:
        c.set(2)
    yield
    for c, count in zip(CONTROLS, saved):
        c.set(count)


@pytest.fixture(scope="session")
def small_spec():
    """Coarse grid keeps bulk Monte Carlo tests fast; quadrature is still exact
    for every Fourier mode used (J <= 128 on 256 nodes)."""
    return DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)


@pytest.fixture(scope="session")
def default_spec():
    return DesignSpec(kind="basis-expansion", alpha=2.0)


@pytest.fixture(scope="session")
def sample25(default_spec):
    return sample_basis_design(default_spec, 25, 7)


@pytest.fixture(scope="session")
def cov25(sample25):
    return empirical_covariance(sample25)


@pytest.fixture(scope="session")
def theta_class22():
    return ThetaClass(beta=2.0, c_theta=1.0)


@pytest.fixture(scope="session", params=[
    ("basis-expansion", 300),      # n > J = 128: the J x J eigenproblem
    ("basis-expansion", 20),       # rank 20 < J = 40: rank deficient
    ("integrated-gaussian", 64),   # n < J = 128 sine terms: the dual n x n route
], ids=lambda p: f"{p[0]}-n{p[1]}")
def route_sample(request):
    """One design sample for each route of ``empirical_covariance``, on 256 nodes."""
    kind, n = request.param
    return sample_design(DesignSpec(kind=kind, alpha=2.0, grid_size=256), n, 11)
