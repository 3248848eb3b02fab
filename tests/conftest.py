import pytest

from filterstab import model


@pytest.fixture
def cold_invariant_memo():
    """Empty the `invariant_density` memo before and after the test, so each
    call in it runs the power loop instead of returning a stored result."""
    model._INVARIANT_MEMO.clear()
    yield
    model._INVARIANT_MEMO.clear()


@pytest.fixture
def loop_calls(monkeypatch, cold_invariant_memo):
    """The kernels the power loop ran on, in call order, starting from an empty memo."""
    calls = []
    loop = model._power_iteration

    def counted(matrix, weights):
        calls.append(matrix)
        return loop(matrix, weights)

    monkeypatch.setattr(model, "_power_iteration", counted)
    return calls
