"""Panel-rule ladders: coarsening undoes refining, so one missed group can
move rows that started on two levels up together."""

import numpy as np
import pytest

from lifshitz_plates import engine
from lifshitz_plates._quad import COARSE_RULE, DEFAULT_RULE


@pytest.mark.parametrize("rule", [DEFAULT_RULE, engine._T0_U_RULE, engine._T0_T_RULE],
                         ids=["default", "t0-u", "t0-t"])
def test_coarse_undoes_refined(rule):
    """Every other edge of the refined rule, the last kept, is the rule's own."""
    edges = rule.refined().edges
    assert np.array_equal(np.append(edges[:-1:2], edges[-1]), rule.edges)


def test_coarse_default_rule_keeps_every_other_edge():
    assert COARSE_RULE.edges.tolist() == [0.0, 1.5, 7.5, 31.5, 60.0]
    assert len(COARSE_RULE.nodes) == 60 and len(DEFAULT_RULE.nodes) == 105
