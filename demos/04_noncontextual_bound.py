"""
The noncontextual bound M <= 0, two ways
========================================

A noncontextual model assigns one definite +/-1 value to every
observable, possibly at random.  For any such model the entropic
witness M is at most zero.  This script checks the bound by direct
enumeration and random mixing, then shows the complementary oracle: a
linear program that searches for a joint distribution reproducing a
given set of pair statistics, and certifies infeasibility when none
exists.
"""

import itertools

import numpy as np

from entroctx import (
    NCModel,
    lp_feasibility,
    m_of_model,
    m_of_models_batch,
    model_marginals,
)

# Deterministic assignments are the extreme points.  Every entropy in M
# is then exactly zero, so M = 0 on the nose -- the bound is tight.
assignments = list(itertools.product((1, -1), repeat=5))
values = [m_of_model(NCModel.point(a)) for a in assignments]
print(f"{len(assignments)} deterministic assignments, all M == 0.0: "
      f"{all(v == 0.0 for v in values)}")

# Mixtures push M strictly negative.  The uniform mixture over all 32
# assignments makes every observable an independent fair coin:
# M = 2 - 4*2 + 3*1 = -3.
print(f"uniform mixture: M = {m_of_model(NCModel.uniform(5)):+.6f}")

# Random mixtures stay below zero (up to roundoff) -- here 20000 draws
# from a flat Dirichlet prior over the 32 weights.
rng = np.random.default_rng(4)
ms = m_of_models_batch(rng.dirichlet(np.ones(32), size=20_000), 5)
print(f"20000 random mixtures: max M = {ms.max():.6f}, mean M = {ms.mean():.4f}")

# The LP oracle answers the converse question: given only the five pair
# distributions, does ANY noncontextual joint reproduce them?  For
# marginals that came from a model it recovers a witness model.
model = NCModel(rng.dirichlet(np.ones(32)))
marginals = model_marginals(model)
result = lp_feasibility(marginals.pairs, 5, 1e-9)
print(f"\nmodel marginals:   feasible = {result.feasible}, "
      f"max violation = {result.max_constraint_violation:.2e}")

# Now build pair statistics no model can produce.  Walking the chain
# X1 -> X2 -> ... -> X5 with perfect correlation forces X5 = X1, but the
# closing pair below says X5 and X1 are independent fair coins --
# a contradiction, and the LP proves it.
correlated = {((1, 1)): 0.5, ((1, -1)): 0.0, ((-1, 1)): 0.0, ((-1, -1)): 0.5}
independent = {k: 0.25 for k in correlated}
pairs = {(i, i + 1): dict(correlated) for i in range(1, 5)}
pairs[(5, 1)] = independent
result = lp_feasibility(pairs, 5, 1e-9)
print(f"contradictory set: feasible = {result.feasible}, "
      f"LP optimum (total violation) = {result.total_violation:.4f}")

# Consistent singles can still be read off any pair set, feasible or not:
# each observable's single is its marginal in the pair where it comes first.
singles = {i: {(a,): sum(p for (x, _), p in pair.items() if x == a) for a in (1, -1)}
           for (i, _), pair in pairs.items()}
print("singles implied by the pairs:", singles)
