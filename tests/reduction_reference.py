"""The Monte Carlo reduction as it was before the step loop took it over:
one block's sums taken after the loop from its whole stacked path.

A reference for test_simulation.py, which asserts that monte_carlo, whose
step loop keeps two state rows and sums them as it goes, gives combine
over these sums of the stored route's blocks bit for bit.  The body is
kept as it was.
"""
import numpy as np

from lfns.model import CostSpec
from lfns.simulation import BlockSums, _pathwise_costs


# finite paths can still overflow these sums; combine raises on what overflowed
@np.errstate(over="ignore", invalid="ignore")
def block_sums(states: np.ndarray, stage: np.ndarray, cost: CostSpec,
               discounted: bool) -> BlockSums:
    """Per-trial path costs, state sums and the stage-cost tail mean of one
    block, from its stacked states and its stage costs."""
    window = max(1, stage.shape[0] // 10)
    return BlockSums(
        costs=_pathwise_costs(stage, states[-1], cost, discounted),
        sum_state=states.sum(axis=2),
        sum_sq=np.einsum("kib,kib->k", states, states),
        stage_tail=float(stage[-window:].mean(axis=1).max()))
