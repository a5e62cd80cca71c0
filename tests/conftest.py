import hypothesis
import pytest

from logsine import Accuracy

hypothesis.settings.register_profile(
    "ci", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def starved(monkeypatch):
    """An Accuracy too tight to converge, with the refinement budget cut to three for the test.

    Three is the fewest refinements the engine takes, and levels 2 and 3 do
    not meet 1e-300, so every quadrature runs out of budget after 101 samples,
    yet the smooth remainders leave its best estimate accurate. The budget is
    a class constant, so DEFAULT_ACCURACY is starved too: compute any
    converged reference before requesting this fixture.
    """
    monkeypatch.setattr(Accuracy, "max_quad_refinements", 3)
    return Accuracy(quad_rel_tol=1e-300)
