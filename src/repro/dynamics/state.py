"""Static model data and mutable world state for the IMDPP simulator.

``ModelData`` holds everything that does not change during diffusion:
the social graph (CSR by source), the meta-graph relevance tensors, the
base preference/influence values, item importance, and seed costs.
``WorldState`` holds what diffusion mutates: adoption indicators and
personal meta-graph weightings, with a leading Monte-Carlo sample axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dynamics import kernels
from repro.params import Params
from repro.rng import u01

# Tags namespace the hash keys of the two initial-weighting streams.
TAG_WEIGHT_INIT_C = 11
TAG_WEIGHT_INIT_S = 12


@dataclass
class ModelData:
    """Immutable-by-convention inputs of one IMDPP instance.

    ``src``/``dst``/``base_inf`` are parallel edge arrays sorted by
    ``(src, dst)``; ``out_start`` is the CSR row index over ``src`` so
    a frontier user's out-edges are a contiguous slice. ``orig_users``
    maps local user ids back to the parent instance after
    :meth:`subgraph` (identity for a full instance).
    """

    n_users: int
    n_items: int
    src: np.ndarray
    dst: np.ndarray
    base_inf: np.ndarray
    s_c: np.ndarray
    s_s: np.ndarray
    base_pref: np.ndarray
    importance: np.ndarray
    cost: np.ndarray
    params: Params
    seed: int = 0
    orig_users: np.ndarray = field(default=None)  # type: ignore[assignment]
    out_start: np.ndarray = field(init=False)
    out_deg: np.ndarray = field(init=False)
    in_deg: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        order = np.lexsort((self.dst, self.src))
        if not np.array_equal(order, np.arange(len(self.src))):
            self.src = self.src[order]
            self.dst = self.dst[order]
            self.base_inf = np.asarray(self.base_inf, dtype=np.float64)[order]
        self.base_inf = np.asarray(self.base_inf, dtype=np.float64)
        counts = np.bincount(self.src, minlength=self.n_users)
        self.out_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.out_deg = counts.astype(np.int64)
        self.in_deg = np.bincount(self.dst, minlength=self.n_users).astype(np.int64)
        if self.orig_users is None:
            self.orig_users = np.arange(self.n_users, dtype=np.int64)

    @property
    def n_comp(self) -> int:
        return self.s_c.shape[0]

    @property
    def n_subs(self) -> int:
        return self.s_s.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def out_edges(self, u: int) -> slice:
        """Slice of the edge arrays holding ``u``'s out-edges."""
        return slice(self.out_start[u], self.out_start[u + 1])

    def subgraph(self, users: np.ndarray) -> "ModelData":
        """Instance restricted to ``users`` (a target market).

        Users are relabeled contiguously (sorted by original id);
        ``orig_users`` keeps the mapping. Edges with either endpoint
        outside the set are dropped — diffusion inside a target market
        only flows through its members, matching the paper's
        per-market ``σ^τ`` estimates.
        """
        users = np.unique(np.asarray(users, dtype=np.int64))
        local = -np.ones(self.n_users, dtype=np.int64)
        local[users] = np.arange(len(users))
        keep = (local[self.src] >= 0) & (local[self.dst] >= 0)
        return ModelData(
            n_users=len(users),
            n_items=self.n_items,
            src=local[self.src[keep]],
            dst=local[self.dst[keep]],
            base_inf=self.base_inf[keep],
            s_c=self.s_c,
            s_s=self.s_s,
            base_pref=self.base_pref[users],
            importance=self.importance,
            cost=self.cost[users],
            params=self.params,
            seed=self.seed,
            orig_users=self.orig_users[users],
        )


@dataclass
class WorldState:
    """Mutable diffusion state with a leading sample axis.

    ``adopted [M, U, I]`` bool; ``wc [M, U, nC]``, ``ws [M, U, nS]``
    simplex-normalized personal weightings.
    """

    adopted: np.ndarray
    wc: np.ndarray
    ws: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.adopted.shape[0]

    def copy(self) -> "WorldState":
        return WorldState(self.adopted.copy(), self.wc.copy(), self.ws.copy())


def initial_weights(model: ModelData, users) -> tuple[np.ndarray, np.ndarray]:
    """Initial ``(wc, ws)`` rows of the given local user ids: uniform + jitter.

    Deterministic in ``(seed, tag, original user id, meta)`` via the
    stateless hash, so a subgraph instance starts from exactly the same
    perceptions its users have in the full instance.
    """
    u = model.orig_users[np.asarray(users, dtype=np.int64)][:, None]
    wc = kernels.normalize_rows(
        1.0 + 0.2 * u01(model.seed, TAG_WEIGHT_INIT_C, u, np.arange(model.n_comp)[None, :])
    )
    ws = kernels.normalize_rows(
        1.0 + 0.2 * u01(model.seed, TAG_WEIGHT_INIT_S, u, np.arange(model.n_subs)[None, :])
    )
    return wc, ws


def init_state(model: ModelData, n_samples: int) -> WorldState:
    """Fresh world state: nothing adopted, :func:`initial_weights` for all users."""
    wc0, ws0 = initial_weights(model, np.arange(model.n_users))
    adopted = np.zeros((n_samples, model.n_users, model.n_items), dtype=bool)
    wc = np.broadcast_to(wc0, (n_samples, *wc0.shape)).copy()
    ws = np.broadcast_to(ws0, (n_samples, *ws0.shape)).copy()
    return WorldState(adopted, wc, ws)
