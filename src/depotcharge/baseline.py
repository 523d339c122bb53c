"""Uncontrolled charging baseline.

Every bus starts charging the moment it arrives and draws its maximum
rate until the energy need is met, with one final partial interval
carrying the remainder.  This is what a depot without coordination does
and is the reference point for all reduction percentages.
"""

from __future__ import annotations

import numpy as np

from .model import Instance, Schedule, window_intervals


def solve_uncontrolled(instance: Instance) -> Schedule:
    """Greedy arrival-time charging, no coordination.

    Note that aggregate caps are deliberately ignored: an uncontrolled
    depot has no mechanism to enforce them.  The result is feasible for
    the cap-free relaxation of the instance.
    """
    jobs = instance.jobs
    rates = np.array([job.max_rate_kwh for job in jobs])
    energies = np.array([job.energy_kwh for job in jobs])
    widths = np.array([job.departure - job.arrival for job in jobs], dtype=np.int64)
    full = np.minimum(energies // rates, widths)
    offset = window_intervals(np.zeros_like(widths), widths)  # index within the window
    at = np.repeat(full, widths)
    rest = np.where(offset == at, np.repeat(energies - full * rates, widths), 0.0)
    return Schedule.of(instance, np.where(offset < at, np.repeat(rates, widths), rest))
