"""The four IMDPP factors (Sec. V-A) as pure kernels + model state."""
from repro.dynamics.kernels import (
    normalize_rows,
    preference,
    influence_strength,
    relevance_row,
    weight_gains,
    update_weights,
)
from repro.dynamics.state import ModelData, WorldState, init_state, initial_weights

__all__ = [
    "normalize_rows",
    "preference",
    "influence_strength",
    "relevance_row",
    "weight_gains",
    "update_weights",
    "ModelData",
    "WorldState",
    "init_state",
    "initial_weights",
]
