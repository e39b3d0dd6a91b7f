"""CR-Greedy [5] promotion-timing scheduler for the one-shot baselines.

Multi-round IM greedily assigns each chosen seed pair the round with
the highest marginal influence given the assignments made so far. The
paper uses this to lift BundleGRD/HAG/PS (which pick only pairs) into
the multi-promotion setting.

The marginal evaluations run on a submodel restricted to the union of
the seeds' MIOA influence regions (capped), with the shared dynamic
engine and common random numbers — mirroring how Dysim's own planning
estimates are restricted to target markets. When ``T`` is large the
candidate timings are a stride grid of at most ``max_timings`` values;
this is the documented tractability deviation (the paper's observation
that baselines "suffer from larger T" in run time is preserved — the
grid still grows work linearly in its size).
"""
from __future__ import annotations

import numpy as np

from repro.core.tdsi import MarketEvaluator
from repro.dynamics.state import ModelData
from repro.graph.local import mioa_reach


def _scope_submodel(model: ModelData, users: list[int]) -> ModelData:
    """Submodel induced by the seeds' joint MIOA influence region."""
    p = model.params
    act0 = np.clip(model.base_inf, p.act_floor, p.act_cap)
    reach = mioa_reach(
        model.src, model.dst, act0, model.n_users, sorted(set(users)), p.theta_mioa
    )
    members = np.flatnonzero(reach > 0)
    if len(members) > p.market_cap:
        members = np.sort(
            members[np.argsort(-reach[members], kind="stable")[: p.market_cap]]
        )
    members = np.union1d(members, np.asarray(sorted(set(users)), dtype=np.int64))
    return model.subgraph(members)


def cr_greedy_timings(
    model: ModelData,
    pairs: list[tuple[int, int]],
    T: int,
    *,
    groups: list[list[tuple[int, int]]] | None = None,
    max_timings: int = 8,
) -> list[tuple[int, int, int]]:
    """Assign a promotion round to every pair (or group of pairs).

    ``groups`` lets BundleGRD schedule one user's whole bundle at one
    round; default is one group per pair. Returns ``(u, x, t)`` seeds.
    """
    if groups is None:
        groups = [[pr] for pr in pairs]
    if not groups:
        return []
    sub = _scope_submodel(model, [u for g in groups for u, _ in g])
    ev = MarketEvaluator(sub, T, model.params.mc_plan)
    stride = max(1, -(-T // max_timings))  # ceil(T / max_timings)
    grid = list(range(1, T + 1, stride))

    assigned: list[tuple[int, int, int]] = []
    for g in groups:
        base = ev.sigma(assigned)
        best = None
        for t in grid:
            cand = assigned + [(u, x, t) for u, x in g]
            sig = ev.sigma(cand)
            score = (sig - base, -t)
            if best is None or score > best[0]:
                best = (score, t)
        t_star = best[1]
        assigned.extend((u, x, t_star) for u, x in g)
    return assigned
