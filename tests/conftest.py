"""Exactness checks that ride along on every interpreter run in the suite.

The interpreter reclaims incrementally and recounts an activation's live
counters only when it exits.  Under test it also recounts every frame after
every statement, and compares the heap after every sweep with a full mark
from the roots, so any drift shows at the statement that caused it.
"""

import pytest

from helpers import forward_mark
from mclcheck.oracle import Interp


@pytest.fixture(autouse=True)
def exact_oracle(monkeypatch):
    post_stmt = Interp._post_stmt
    sweep = Interp._sweep

    def post_stmt_recounted(self):
        post_stmt(self)
        self._assert_accounting()

    def sweep_marked(self):
        sweep(self)
        live = forward_mark(self)
        assert set(self.heap) == live, (
            f"sweep kept {sorted(set(self.heap) - live)} and lost"
            f" {sorted(live - set(self.heap))}")

    monkeypatch.setattr(Interp, "_post_stmt", post_stmt_recounted)
    monkeypatch.setattr(Interp, "_sweep", sweep_marked)
