import numpy as np
import pytest

from tthjb.models import MODELS, fokker_planck_unshifted


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# small instances of every registered model; a model added to MODELS fails
# the tests that use small_model until it has an entry here
SMALL_MODEL_ARGS = {
    "allen_cahn_1d": {"d": 4},
    "fokker_planck": {"D": 8},
    "lq": {"d": 3},
}


@pytest.fixture(params=sorted(MODELS) + ["fokker_planck_unshifted"])
def small_model(request):
    """Each registered model at a small size, and the unshifted Fokker-Planck."""
    if request.param == "fokker_planck_unshifted":
        return fokker_planck_unshifted(MODELS["fokker_planck"](**SMALL_MODEL_ARGS["fokker_planck"]))
    return MODELS[request.param](**SMALL_MODEL_ARGS[request.param])
