"""Helpers shared by the test modules."""
from __future__ import annotations

import numpy as np

from pushsim import CoalitionView


def views_allclose(a: CoalitionView, b: CoalitionView, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    """Elementwise comparison of two coalition views."""
    if a.coalition != b.coalition or a.n_rounds != b.n_rounds:
        return False
    for member in a.coalition:
        if not np.allclose(a.substates[member], b.substates[member], rtol=rtol, atol=atol):
            return False
        if not np.allclose(a.weight_columns[member], b.weight_columns[member], rtol=rtol, atol=atol):
            return False
        if not np.allclose(a.retention[member], b.retention[member], rtol=rtol, atol=atol):
            return False
        if a.received[member].keys() != b.received[member].keys():
            return False
        for p in a.received[member]:
            if not np.allclose(a.received[member][p], b.received[member][p], rtol=rtol, atol=atol):
                return False
    return True
