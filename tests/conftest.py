import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, this process has no child: none running, none unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def step_returns(monkeypatch):
    """What each training step's closure gave `net.backward`, in step order: the rows
    of the stacked forward it read and the total it returned. A step line logs neither,
    so the tests replay both from the line and the config and compare."""
    import skipalign.net as net_mod

    real_backward, returns = net_mod.backward, []

    def backward(params, x, closure):
        def recorded(out):
            total, grads = closure(out)
            returns.append((len(out.cc_logits), total))
            return total, grads
        return real_backward(params, x, recorded)

    monkeypatch.setattr(net_mod, "backward", backward)
    return returns
