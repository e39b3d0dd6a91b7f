"""Dysim — Algorithm 1: TMI → (DRE → TDSI) per target market.

The planner works in three phases over each group 𝒢 of target markets
(ordered by antagonistic extent):

* DRE picks the not-yet-promoted item with the highest dynamic
  reachability, recomputed from the market's *current* average
  perception (i.e., after simulating the seed group chosen so far);
* TDSI assigns each of that item's nominees the promotional timing in
  the Algorithm-1 window that maximizes substantial influence.

All planning estimates run on market submodels with the shared local
Monte-Carlo engine (common random numbers); the returned seed group is
evaluated on the full model by the caller.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.clustering import (
    TargetMarket,
    group_and_order,
    identify_target_markets,
    initial_average_relevance,
)
from repro.core.dre import dr_all_items
from repro.core.nominees import select_nominees
from repro.core.tdsi import MarketEvaluator, substantial_influence, timing_window
from repro.diffusion.local import simulate
from repro.dynamics.state import ModelData
from repro.kg.relevance import average_relevance


@dataclass
class DysimResult:
    """Seed group plus the planning artifacts (for tests / case studies)."""

    seeds: list[tuple[int, int, int]]
    nominees: list[tuple[int, int]]
    markets: list[TargetMarket]
    groups: list[list[int]]


def dysim(
    model: ModelData,
    budget: float,
    T: int,
    *,
    max_pairs: int = 150,
) -> DysimResult:
    """Run Dysim and return the seed group ``{(u, x, t)}``."""
    p = model.params

    # ---- TMI ---------------------------------------------------------
    nominees = select_nominees(model, budget, max_pairs=max_pairs)
    if not nominees:
        return DysimResult([], [], [], [])
    r_bar_c0, r_bar_s0 = initial_average_relevance(model)
    markets = identify_target_markets(model, nominees, r_bar_c0, r_bar_s0)
    groups = group_and_order(markets, p.theta, r_bar_s0)

    seeds: list[tuple[int, int, int]] = []  # global S
    for group in groups:
        group_seeds: list[tuple[int, int, int]] = []  # S^G
        total_nominees = sum(len(markets[i].nominees) for i in group)
        prev_last_t = 0
        for k in group:
            tau = markets[k]
            submodel = model.subgraph(tau.users)
            ev = MarketEvaluator(submodel, T, p.mc_plan)
            T_market = max(1, round(len(tau.nominees) * T / max(1, total_nominees)))

            remaining = list(tau.nominees)
            items_left = sorted({x for _, x in remaining})
            market_seeds: list[tuple[int, int, int]] = []
            rbar_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

            while items_left:
                # ---- DRE: current average perception in τ ------------
                key = ev._localize(group_seeds)
                if key not in rbar_cache:
                    res = simulate(submodel, list(key), T, p.mc_plan)
                    rbar_cache[key] = (
                        average_relevance(res.wc, model.s_c),
                        average_relevance(res.ws, model.s_s),
                    )
                rc_tau, rs_tau = rbar_cache[key]
                dr = dr_all_items(rc_tau, rs_tau, model.importance, tau.diameter)
                x_p = max(items_left, key=lambda x: (dr[x], -x))
                items_left.remove(x_p)
                n_p = [(u, x) for (u, x) in remaining if x == x_p]

                # ---- TDSI: timing per nominee of x_p -----------------
                # Lazy (CELF-style) extraction: SI marginals shrink as
                # the seed group grows, so a candidate whose cached SI
                # was computed against the current group can be taken
                # without re-scanning the rest.
                def _best_si(u: int, x: int):
                    window = timing_window(
                        seeds + group_seeds, T, T_market, prev_last_t
                    )
                    si_t = [
                        (substantial_influence(ev, group_seeds, (u, x, t), T), -t)
                        for t in window
                    ]
                    si, neg_t = max(si_t)
                    return si, -neg_t

                heap: list[tuple[float, int, int, int, int]] = []
                for u, x in n_p:
                    si, t = _best_si(u, x)
                    heapq.heappush(heap, (-si, u, x, t, len(group_seeds)))
                while heap:
                    neg_si, u, x, t, at = heapq.heappop(heap)
                    if at < len(group_seeds):
                        si, t = _best_si(u, x)
                        heapq.heappush(heap, (-si, u, x, t, len(group_seeds)))
                        continue
                    chosen = (u, x, t)
                    remaining.remove((u, x))
                    group_seeds.append(chosen)
                    market_seeds.append(chosen)
            prev_last_t = max((t for _, _, t in market_seeds), default=prev_last_t)
        seeds.extend(group_seeds)
    return DysimResult(seeds, nominees, markets, groups)
