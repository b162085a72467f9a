"""Panel-rule ladders: coarsening undoes refining, so one missed group can
move rows that started on two levels up together."""

import numpy as np
import pytest

from lifshitz_plates import engine
from lifshitz_plates._quad import DEFAULT_RULE


@pytest.mark.parametrize("rule", [DEFAULT_RULE, engine._T0_U_RULE, engine._T0_T_RULE],
                         ids=["default", "t0-u", "t0-t"])
def test_coarse_undoes_refined(rule):
    assert np.array_equal(rule.refined().coarse().edges, rule.edges)


def test_coarse_default_rule_keeps_every_other_edge():
    coarse = DEFAULT_RULE.coarse()
    assert coarse.edges.tolist() == [0.0, 1.5, 7.5, 31.5, 60.0]
    assert len(coarse.nodes) == 60 and len(DEFAULT_RULE.nodes) == 105
