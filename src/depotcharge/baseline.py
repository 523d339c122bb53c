"""Uncontrolled charging baseline.

Every bus starts charging the moment it arrives and draws its maximum
rate until the energy need is met, with one final partial interval
carrying the remainder.  This is what a depot without coordination does
and is the reference point for all reduction percentages.
"""

from __future__ import annotations

import numpy as np

from .model import Instance, Schedule, fill_windows


def solve_uncontrolled(instance: Instance) -> Schedule:
    """Greedy arrival-time charging, no coordination: the window fill in
    time order.

    Note that aggregate caps are deliberately ignored: an uncontrolled
    depot has no mechanism to enforce them.  The result is feasible for
    the cap-free relaxation of the instance.
    """
    return fill_windows(instance, np.arange(instance.interval_count))
