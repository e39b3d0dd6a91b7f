"""Local (single-process) Monte-Carlo simulator of the IMDPP diffusion.

This is the *reference semantics* of the diffusion process of Sec. III:

* a campaign is ``T`` promotions; promotion ``t`` starts with its seeds
  adopting their items at step ``ζ_t = 0``;
* at each step ``ζ_t ≥ 1``, every user who newly adopted an item ``x``
  at ``ζ_t − 1`` promotes ``x`` to each out-neighbor ``u`` that has not
  adopted ``x``; ``u`` adopts with ``P_act(u',u) · P_pref(u,x)`` and may
  extra-adopt any relevant ``y`` with ``P_ext = P_act · P_pref(u,x) ·
  r^C(u,x,y)`` (item association, footnote 8: independent of the
  adoption of ``x`` itself);
* at the end of a step, users with new adoptions update their
  meta-graph weightings (hence relevance, preferences and influence
  strength — the ripple of Fig. 3);
* a promotion ends when a step produces no new adoption.

All randomness is keyed through :mod:`repro.rng`, so two runs (or the
local and Spark engines) that see the same ``(model.seed, sample, t,
ζ, u', u, x, y)`` tuples draw the same uniforms — marginal-gain
estimates get common random numbers for free.

``frozen=True`` freezes ``P_pref``/``P_act``/``r^C`` at their initial
(nothing-adopted) values and skips weight updates — this is the static
evaluation Sec. IV-B prescribes for the MCP nominee score ``f`` and
what the one-shot baselines use internally.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamics import kernels
from repro.dynamics.state import ModelData, WorldState, init_state

TAG_TRIAL = 21  # namespaces adoption/ext trials in the hash keys


@dataclass
class SimResult:
    """Outcome of one simulation.

    ``adopt_t [M, U, I]`` is the promotion index (1-based) at which
    each (user, item) adoption happened, or 0 if never. ``sigma`` is
    the importance-aware influence (Def. 1) averaged over samples;
    ``sigma_by_t [T+1]`` splits it by promotion (index 0 unused).
    """

    state: WorldState
    adopt_t: np.ndarray
    sigma: float
    sigma_by_t: np.ndarray


def _group_seeds(model: ModelData, seeds, T: int) -> dict[int, list[tuple[int, int]]]:
    """Seeds ``(user, item, t)`` grouped by promotion, each group sorted.

    Rejects ids outside ``[0, n_users) × [0, n_items)`` and timings
    outside ``[1, T]``.
    """
    by_t: dict[int, list[tuple[int, int]]] = {}
    for u, x, t in seeds:
        if not (0 <= u < model.n_users and 0 <= x < model.n_items):
            raise ValueError(
                f"seed ({u}, {x}, {t}) outside [0, {model.n_users}) × [0, {model.n_items})"
            )
        if not 1 <= t <= T:
            raise ValueError(f"seed timing {t} outside [1, {T}]")
        by_t.setdefault(int(t), []).append((int(u), int(x)))
    for t in by_t:
        by_t[t].sort()
    return by_t


def simulate(
    model: ModelData,
    seeds,
    T: int,
    n_samples: int,
    *,
    frozen: bool = False,
    trial_salt: int = 0,
) -> SimResult:
    """Run the full campaign from a fresh state.

    ``seeds`` is an iterable of ``(user, item, t)``. ``trial_salt``
    shifts the random stream (for independent replications); leaving it
    fixed gives common random numbers across seed groups.
    """
    by_t = _group_seeds(model, seeds, T)
    state, adopt_t = _run_samples(model, by_t, T, range(n_samples), frozen, trial_salt)

    per_item = adopt_t > 0  # [M, U, I]
    sigma_by_t = np.zeros(T + 1)
    for t in range(1, T + 1):
        cnt = (adopt_t == t).sum(axis=1)  # [M, I] adopters of each item at t
        sigma_by_t[t] = float((cnt.mean(axis=0) * model.importance).sum())
    sigma = float((per_item.sum(axis=1).mean(axis=0) * model.importance).sum())
    return SimResult(state, adopt_t, sigma, sigma_by_t)


def _run_samples(
    model: ModelData,
    by_t: dict[int, list[tuple[int, int]]],
    T: int,
    samples,
    frozen: bool,
    salt: int,
) -> tuple[WorldState, np.ndarray]:
    """Run the campaign for the given global sample ids from a fresh state.

    Returns the final state and ``adopt_t`` with one row per id, in the
    order given. A sample's draws depend only on its id, so any block of
    ids (the Spark evaluator's shards) reproduces those rows exactly.
    """
    state = init_state(model, len(samples))
    adopt_t = np.zeros((len(samples), model.n_users, model.n_items), dtype=np.int16)

    pref0 = act0 = None
    if frozen:
        p = model.params
        pref0 = np.clip(model.base_pref, p.pref_floor, 1.0)
        act0 = np.clip(model.base_inf, p.act_floor, p.act_cap)

    for i, s in enumerate(samples):
        _run_sample(
            model,
            state.adopted[i],
            state.wc[i],
            state.ws[i],
            adopt_t[i],
            by_t,
            T,
            int(s),
            frozen,
            pref0,
            act0,
            salt,
        )
    return state, adopt_t


def _run_sample(
    model: ModelData,
    adopted: np.ndarray,
    wc: np.ndarray,
    ws: np.ndarray,
    adopt_t: np.ndarray,
    by_t: dict[int, list[tuple[int, int]]],
    T: int,
    sample: int,
    frozen: bool,
    pref0,
    act0,
    salt: int,
) -> None:
    p = model.params
    ad_count = adopted.sum(axis=1).astype(np.int64)
    # Per-user preference rows, invalidated when a user's state changes
    # (their own adoption or weight update) — recomputed in batches.
    pref_cache: dict[int, np.ndarray] = {}

    for t in range(1, T + 1):
        # --- step 0: seeds adopt their items outright -----------------
        new_u, new_x = [], []
        for u, x in by_t.get(t, ()):
            if not adopted[u, x]:
                new_u.append(u)
                new_x.append(x)
        f_u = np.asarray(new_u, dtype=np.int64)
        f_x = np.asarray(new_x, dtype=np.int64)
        _apply_adoptions(
            model, adopted, wc, ws, ad_count, adopt_t, f_u, f_x, t, frozen, pref_cache
        )

        for zeta in range(1, p.max_steps + 1):
            if len(f_u) == 0:
                break
            f_u, f_x = _step(
                model, adopted, wc, ws, ad_count, f_u, f_x,
                sample, t, zeta, frozen, pref0, act0, salt, pref_cache,
            )
            _apply_adoptions(
                model, adopted, wc, ws, ad_count, adopt_t, f_u, f_x, t, frozen,
                pref_cache,
            )


def _apply_adoptions(
    model, adopted, wc, ws, ad_count, adopt_t, f_u, f_x, t, frozen, pref_cache
):
    """Record new adoptions, then run the end-of-step weight updates."""
    if len(f_u) == 0:
        return
    adopted[f_u, f_x] = True
    adopt_t[f_u, f_x] = t
    np.add.at(ad_count, f_u, 1)
    for u in np.unique(f_u):
        pref_cache.pop(int(u), None)
        if frozen:
            continue
        items = np.sort(f_x[f_u == u])
        wc[u], ws[u] = kernels.update_weights(
            wc[u], ws[u], adopted[u], items, model.s_c, model.s_s, model.params.eta
        )


def _step(
    model, adopted, wc, ws, ad_count, f_u, f_x,
    sample, t, zeta, frozen, pref0, act0, salt, pref_cache,
):
    """One propagation step; returns the new-adoption frontier pairs."""
    from repro.rng import u01

    p = model.params
    # Expand frontier pairs over out-edges of the frontier users.
    counts = model.out_deg[f_u]
    if counts.sum() == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = model.out_start[f_u]
    e_idx = np.concatenate(
        [np.arange(s0, s0 + c, dtype=np.int64) for s0, c in zip(starts, counts)]
    )
    ev_src = model.src[e_idx]
    ev_dst = model.dst[e_idx]
    ev_x = np.repeat(f_x, counts)
    ev_binf = model.base_inf[e_idx] if not frozen else act0[e_idx]

    live = ~adopted[ev_dst, ev_x]
    if not live.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ev_src, ev_dst, ev_x, ev_binf = (
        ev_src[live], ev_dst[live], ev_x[live], ev_binf[live],
    )

    # P_act per event (frozen: the precomputed clipped base influence).
    if frozen:
        act = ev_binf
    else:
        inter = (adopted[ev_src] & adopted[ev_dst]).sum(axis=1)
        union = ad_count[ev_src] + ad_count[ev_dst] - inter
        act = kernels.influence_strength(
            ev_binf, inter, union, p.gamma, p.act_floor, p.act_cap
        )

    # P_pref(dst, ·) per unique destination user (cached, batched).
    uniq_dst = np.unique(ev_dst)
    if frozen:
        pref_mat = pref0[ev_dst]
    else:
        missing = np.asarray(
            [u for u in uniq_dst if int(u) not in pref_cache], dtype=np.int64
        )
        if len(missing):
            rows = kernels.preference_batch(
                model.base_pref[missing], adopted[missing], wc[missing], ws[missing],
                model.s_c, model.s_s, p.beta_c, p.beta_s, p.pref_floor,
            )
            for i, u in enumerate(missing):
                pref_cache[int(u)] = rows[i]
        pref_mat = np.stack([pref_cache[int(u)] for u in ev_dst])  # [n_ev, I]
    pref_x = pref_mat[np.arange(len(ev_x)), ev_x]

    p_promo = act * pref_x

    # Direct adoption trials, keyed (salt, sample, t, ζ, u', u, x, y=x).
    hit = u01(
        model.seed, TAG_TRIAL, salt, sample, t, zeta, ev_src, ev_dst, ev_x, ev_x
    ) < p_promo

    # Item-association (extra adoption) trials over every other item y:
    # P_ext = ext_scale · P_act(u',u) · P_pref(u,x) · r^C(u,x,y). In
    # frozen mode wc is never updated, so this reads the initial
    # perception as required. Batched: r_rows[e] = wc[dst_e] @ s_c[:, x_e, :].
    r_rows = np.einsum("em,emi->ei", wc[ev_dst], model.s_c[:, ev_x, :].transpose(1, 0, 2))
    p_ext = p.ext_scale * p_promo[:, None] * r_rows
    p_ext[adopted[ev_dst]] = 0.0
    p_ext[np.arange(len(ev_x)), ev_x] = 0.0
    ys = np.arange(model.n_items, dtype=np.int64)[None, :]
    ext_hit = (
        u01(
            model.seed, TAG_TRIAL, salt, sample, t, zeta,
            ev_src[:, None], ev_dst[:, None], ev_x[:, None], ys,
        )
        < p_ext
    )

    new_pairs = set(zip(ev_dst[hit].tolist(), ev_x[hit].tolist()))
    er, ec = np.nonzero(ext_hit)
    new_pairs.update(zip(ev_dst[er].tolist(), ec.tolist()))
    if not new_pairs:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    arr = np.asarray(sorted(new_pairs), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def likelihood_pi(model: ModelData, state: WorldState, users=None) -> float:
    """``π`` of Eq. (7): likelihood of future adoptions given the state.

    ``AIS(v, y) = 1 − Π_{v'∈N_in(v), y∈A(v')} (1 − P_act(v', v))`` (the
    IC form of footnote 22), aggregated over the not-yet-adopted items
    of the given ``users`` (default: all), weighted by preference, and
    averaged over samples.
    """
    p = model.params
    if users is None:
        users = np.arange(model.n_users)
    users = np.asarray(users, dtype=np.int64)
    total = 0.0
    for s in range(state.n_samples):
        adopted = state.adopted[s]
        ad_count = adopted.sum(axis=1).astype(np.int64)
        inter = (adopted[model.src] & adopted[model.dst]).sum(axis=1)
        union = ad_count[model.src] + ad_count[model.dst] - inter
        act = kernels.influence_strength(
            model.base_inf, inter, union, p.gamma, p.act_floor, p.act_cap
        )
        # Accumulate -log(1 - act) from in-neighbors holding each item.
        neglog = np.zeros((model.n_users, model.n_items))
        contrib = adopted[model.src] * (-np.log1p(-np.minimum(act, 1 - 1e-12)))[:, None]
        np.add.at(neglog, model.dst, contrib)
        ais = 1.0 - np.exp(-neglog)
        pref_rows = kernels.preference_batch(
            model.base_pref[users], adopted[users], state.wc[s][users],
            state.ws[s][users], model.s_c, model.s_s,
            p.beta_c, p.beta_s, p.pref_floor,
        )
        open_items = ~adopted[users]
        total += float((ais[users] * pref_rows * open_items).sum())
    return total / state.n_samples
