"""Panel-rule ladders: coarsening undoes refining, so one missed group can
move rows that started on two levels up together; and the start rules below
the default rule nest, each inside the next."""

import numpy as np
import pytest

from lifshitz_plates import engine
from lifshitz_plates._quad import DEFAULT_RULE


@pytest.mark.parametrize("rule", [DEFAULT_RULE, engine._T0_U_RULE, engine._T0_T_RULE],
                         ids=["default", "t0-u", "t0-t"])
def test_coarse_undoes_refined(rule):
    """Every other edge of the refined rule, the last kept, is the rule's own."""
    edges = rule.refined().edges
    assert np.array_equal(np.append(edges[:-1:2], edges[-1]), rule.edges)


def test_start_rules_nest_below_the_default_rule():
    """Levels -3, -2, -1 and 0 take 30, 75, 90 and 105 nodes, and each start
    rule's edges lie among the next rule's edges, so among DEFAULT_EDGES."""
    rules = [engine._rule(level) for level in (-3, -2, -1, 0)]
    assert [len(rule.nodes) for rule in rules] == [30, 75, 90, 105]
    assert rules[-1] is DEFAULT_RULE
    for coarse, fine in zip(rules, rules[1:]):
        assert set(coarse.edges.tolist()) < set(fine.edges.tolist())
