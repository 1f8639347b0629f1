"""Helpers shared by the test modules."""

import numpy as np

from sweeploc.experiments import _grid_chunk_errors
from sweeploc.scenario import Scenario


def grid_cell_errors(scn: Scenario, n_ant: int, ratio: float, r_key,
                     chunk_idx: int, n: int) -> np.ndarray:
    """Signed bearing errors (degrees) for one grid cell chunk."""
    return _grid_chunk_errors(scn, (n_ant,), ratio, r_key, chunk_idx, n)[0]
