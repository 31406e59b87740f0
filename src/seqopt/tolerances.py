"""Numerical tolerances shared by every module.

One place, one value each. All are absolute but TIE_RTOL: the stop/continue
comparison of stopping_policy scales it by the larger of the stop loss and
the continuation value. Those are density-scale and shrink with the stage,
so an absolute margin would call a state a tie, and let a tie policy move
the rule's risk off the optimum, once its density fell below the margin.
"""

# Probability vectors (pmf rows, priors) must sum to 1 within this.
NORM_ATOL = 1e-9

# Stop loss and continuation value closer than this, relative to the larger,
# are a tie.
TIE_RTOL = 1e-12

# A rule's stopping mass under pi2 must be within this of 1 for the combined
# risk to be reported finite at the evaluation cap.
STOP_MASS_ATOL = 1e-9

# Forward-recursion mass below this is pruned (denormal guard).
PRUNE_EPS = 1e-300
