"""Exactness checks that ride along on every interpreter run in the suite.

The interpreter reclaims incrementally, recounts an activation's live
counters only when it exits, and measures its escapes by a search back from
the objects it made.  Under test it also recounts every frame after every
statement, compares the heap after every sweep with a full mark from the
roots, and compares each exit's escapes with a full mark from each escape
root, so any drift shows at the statement that caused it.
"""

import pytest

from helpers import exit_measurement, forward_mark
from mclcheck.oracle import Interp


@pytest.fixture(autouse=True)
def exact_oracle(monkeypatch):
    post_stmt = Interp._post_stmt
    sweep = Interp._sweep
    finish = Interp._finish

    def post_stmt_recounted(self):
        post_stmt(self)
        self._assert_accounting()

    def sweep_marked(self):
        sweep(self)
        live = forward_mark(self)
        assert set(self.heap) == live, (
            f"sweep kept {sorted(set(self.heap) - live)} and lost"
            f" {sorted(live - set(self.heap))}")

    def finish_marked(self, act, ret):
        finish(self, act, ret)
        obs = self.observations[-1]
        assert (obs.esc, obs.double_counted) == exit_measurement(self, act, ret), \
            f"the exit of {act.instance} measured {obs.esc}, {obs.double_counted}"

    monkeypatch.setattr(Interp, "_post_stmt", post_stmt_recounted)
    monkeypatch.setattr(Interp, "_sweep", sweep_marked)
    monkeypatch.setattr(Interp, "_finish", finish_marked)
