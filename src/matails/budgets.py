"""The work budgets of a simulation.

This module imports nothing, so a layer that checks against a budget
loads no other layer for it: ``hill --sample`` reads the replicate bound
without the simulator.  A request over a budget raises
:class:`~matails.errors.UnsupportedError` before anything is allocated.
"""

# Most innovations one simulation draws (replicates times lag rows): hours of work.
MAX_DRAWS = 10**10

# Most nonzero lag terms one simulation sums (replicates times window columns
# times nonzero lag coefficients): minutes of work.
MAX_LAG_TERMS = 10**11
