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
from repro.dynamics.state import ModelData, WorldState, initial_weights

TAG_TRIAL = 21  # namespaces adoption/ext trials in the hash keys
ADOPT_T_DTYPE = np.uint8  # promotion indices in adopt_t, so T ≤ 255
MAX_T = int(np.iinfo(ADOPT_T_DTYPE).max)
# Working-set bounds, independent of the number of samples: a block of
# samples holds at most BLOCK_ROWS (sample, user) state rows, and the
# [n, I] arrays of the item-association trials and of the stale
# preference rows are built CHUNK events (rows) at a time.
BLOCK_ROWS = 1 << 14
CHUNK = 1 << 10


@dataclass
class SimResult:
    """Outcome of one simulation.

    ``adopt_t [M, U, I]`` is the promotion index (1-based) at which
    each (user, item) adoption happened, or 0 if never. ``sigma`` is
    the importance-aware influence (Def. 1) averaged over samples;
    ``sigma_by_t [T+1]`` splits it by promotion (index 0 unused).
    ``truncated`` counts the (sample, promotion) pairs that ended at
    ``params.max_steps`` with a non-empty frontier.

    The final weightings ``wc [M, U, nC]``/``ws [M, U, nS]`` and
    ``state`` are built on access. A user's weights move only when they
    adopt, so the result keeps the initial rows ``w0`` once and, in
    ``w_moved``, the final rows of the (sample, user) pairs with an
    adoption, in row-major order: a caller holding many results holds
    little more than their ``adopt_t``.
    """

    adopt_t: np.ndarray
    sigma: float
    sigma_by_t: np.ndarray
    truncated: int
    w0: tuple[np.ndarray, np.ndarray]
    w_moved: tuple[np.ndarray, np.ndarray]

    def _final(self, k: int) -> np.ndarray:
        w = np.broadcast_to(self.w0[k], (len(self.adopt_t), *self.w0[k].shape)).copy()
        w[self.adopt_t.any(axis=2)] = self.w_moved[k]
        return w

    @property
    def wc(self) -> np.ndarray:
        return self._final(0)

    @property
    def ws(self) -> np.ndarray:
        return self._final(1)

    @property
    def state(self) -> WorldState:
        """The final world state (adoptions from ``adopt_t``)."""
        return WorldState(self.adopt_t > 0, self.wc, self.ws)


def _group_seeds(model: ModelData, seeds, T: int) -> dict[int, list[tuple[int, int]]]:
    """Seeds ``(user, item, t)`` grouped by promotion, each group sorted and deduplicated.

    Rejects ``T`` above :data:`MAX_T`, ids outside ``[0, n_users) ×
    [0, n_items)`` and timings outside ``[1, T]``.
    """
    if T > MAX_T:
        raise ValueError(f"T={T} above {MAX_T}, the largest promotion index adopt_t stores")
    by_t: dict[int, set[tuple[int, int]]] = {}
    for u, x, t in seeds:
        if not (0 <= u < model.n_users and 0 <= x < model.n_items):
            raise ValueError(
                f"seed ({u}, {x}, {t}) outside [0, {model.n_users}) × [0, {model.n_items})"
            )
        if not 1 <= t <= T:
            raise ValueError(f"seed timing {t} outside [1, {T}]")
        by_t.setdefault(int(t), set()).add((int(u), int(x)))
    return {t: sorted(group) for t, group in by_t.items()}


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
    adopt_t, w0, w_moved, truncated = _run_samples(
        model, by_t, T, range(n_samples), frozen, trial_salt
    )

    per_item = adopt_t > 0  # [M, U, I]
    sigma_by_t = np.zeros(T + 1)
    for t in range(1, T + 1):
        cnt = (adopt_t == t).sum(axis=1)  # [M, I] adopters of each item at t
        sigma_by_t[t] = float((cnt.mean(axis=0) * model.importance).sum())
    sigma = float((per_item.sum(axis=1).mean(axis=0) * model.importance).sum())
    return SimResult(adopt_t, sigma, sigma_by_t, truncated, w0, w_moved)


def _run_samples(
    model: ModelData,
    by_t: dict[int, list[tuple[int, int]]],
    T: int,
    samples,
    frozen: bool,
    salt: int,
) -> tuple[np.ndarray, tuple, tuple, int]:
    """Run the campaign for the given global sample ids from a fresh state.

    Returns ``adopt_t`` with one row per id, in the order given, the
    initial and the moved final weight rows, and the number of truncated
    promotions (see :class:`SimResult`). The ids run in blocks of
    ``max(1, BLOCK_ROWS // U)``, all samples of a block moving through
    each promotion and ζ-step together. A sample's draws depend only on
    its id, so any split of ids into blocks (this one, or the Spark
    evaluator's shards) reproduces those rows exactly.
    """
    n_users, n_items = model.n_users, model.n_items
    samples = np.asarray(samples, dtype=np.int64)
    wc0, ws0 = initial_weights(model, np.arange(n_users))
    adopt_t = np.zeros((len(samples), n_users, n_items), dtype=ADOPT_T_DTYPE)
    seeds = {t: np.asarray(g, dtype=np.int64).reshape(-1, 2) for t, g in by_t.items()}

    pref0 = act0 = None
    if frozen:
        p = model.params
        pref0 = np.clip(model.base_pref, p.pref_floor, 1.0)
        act0 = np.clip(model.base_inf, p.act_floor, p.act_cap)

    truncated = 0
    moved_c, moved_s = [wc0[:0]], [ws0[:0]]  # 0-row seeds: concatenable with no samples
    per_block = max(1, BLOCK_ROWS // max(n_users, 1))
    for lo in range(0, len(samples), per_block):
        ids = samples[lo:lo + per_block]
        rows_t = adopt_t[lo:lo + len(ids)].reshape(-1, n_items)  # a view: row i·U + u
        wc, ws, n_trunc = _run_block(
            model, wc0, ws0, rows_t, seeds, T, ids, frozen, pref0, act0, salt
        )
        truncated += n_trunc
        moved = rows_t.any(axis=1)
        moved_c.append(wc[moved])
        moved_s.append(ws[moved])
    w_moved = (np.concatenate(moved_c), np.concatenate(moved_s))
    return adopt_t, (wc0, ws0), w_moved, truncated


def _run_block(
    model: ModelData,
    wc0: np.ndarray,
    ws0: np.ndarray,
    adopt_t: np.ndarray,
    seeds: dict[int, np.ndarray],
    T: int,
    ids: np.ndarray,
    frozen: bool,
    pref0,
    act0,
    salt: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the campaign of the samples ``ids`` together from nothing adopted.

    State rows are (sample, user) pairs, row ``i·U + u`` for user ``u``
    of the i-th id, and the frontier is a list of (row, item) pairs.
    Fills ``adopt_t [len(ids)·U, I]``; returns the final weight rows and
    the number of truncated (sample, promotion) pairs.
    """
    p = model.params
    n_users, n_items = model.n_users, model.n_items
    n_rows = len(ids) * n_users
    adopted = np.zeros((n_rows, n_items), dtype=bool)
    ad_count = np.zeros(n_rows, dtype=np.int64)
    wc, ws = np.tile(wc0, (len(ids), 1)), np.tile(ws0, (len(ids), 1))
    # Per-row P_pref, valid where ``fresh``; a row's adoption (and so
    # weight update) makes it stale, and each step recomputes the stale
    # rows it reads.
    pref_rows = np.empty((n_rows, n_items))
    fresh = np.zeros(n_rows, dtype=bool)
    first_row = np.arange(len(ids)) * n_users
    no_seeds = np.empty((0, 2), dtype=np.int64)
    truncated = 0

    for t in range(1, T + 1):
        # --- step 0: seeds adopt their items outright, in every sample --
        group = seeds.get(t, no_seeds)
        f_r = (first_row[:, None] + group[:, 0]).ravel()
        f_x = np.tile(group[:, 1], len(ids))
        new = ~adopted[f_r, f_x]
        f_r, f_x = f_r[new], f_x[new]
        _apply_adoptions(model, adopted, wc, ws, ad_count, adopt_t, fresh, f_r, f_x, t, frozen)

        for zeta in range(1, p.max_steps + 1):
            if len(f_r) == 0:
                break
            f_r, f_x = _step(
                model, adopted, wc, ws, ad_count, pref_rows, fresh, f_r, f_x,
                ids, t, zeta, frozen, pref0, act0, salt,
            )
            _apply_adoptions(
                model, adopted, wc, ws, ad_count, adopt_t, fresh, f_r, f_x, t, frozen
            )
        truncated += len(np.unique(f_r // n_users))
    return wc, ws, truncated


def _apply_adoptions(model, adopted, wc, ws, ad_count, adopt_t, fresh, f_r, f_x, t, frozen):
    """Record new (row, item) adoptions, then run the end-of-step weight updates in one batch."""
    if len(f_r) == 0:
        return
    adopted[f_r, f_x] = True
    adopt_t[f_r, f_x] = t
    np.add.at(ad_count, f_r, 1)
    fresh[f_r] = False
    if frozen:
        return
    rows, inv = np.unique(f_r, return_inverse=True)
    new_items = np.zeros((len(rows), model.n_items), dtype=bool)
    new_items[inv, f_x] = True
    wc[rows], ws[rows] = kernels.update_weights(
        wc[rows], ws[rows], adopted[rows], new_items,
        model.s_c, model.s_s, model.params.eta,
    )


def _step(
    model, adopted, wc, ws, ad_count, pref_rows, fresh, f_r, f_x,
    ids, t, zeta, frozen, pref0, act0, salt,
):
    """One propagation step of every sample of a block; returns the new
    (row, item) frontier pairs, sorted."""
    from repro.rng import fold, u01

    p = model.params
    n_users, n_items = model.n_users, model.n_items
    none = np.empty(0, np.int64), np.empty(0, np.int64)
    # Expand frontier pairs over out-edges of the frontier users: each
    # user's CSR slice, concatenated in frontier order.
    f_u = f_r % n_users
    counts = model.out_deg[f_u]
    n_ev = int(counts.sum())
    if n_ev == 0:
        return none
    first = np.cumsum(counts) - counts  # event index of each pair's first edge
    e_idx = np.arange(n_ev) + np.repeat(model.out_start[f_u] - first, counts)
    ev_base = np.repeat(f_r - f_u, counts)  # first row of each event's sample
    ev_dst = ev_base + model.dst[e_idx]
    ev_x = np.repeat(f_x, counts)

    live = ~adopted[ev_dst, ev_x]
    if not live.any():
        return none
    e_idx, ev_base, ev_dst, ev_x = e_idx[live], ev_base[live], ev_dst[live], ev_x[live]
    src_u, dst_u = model.src[e_idx], ev_dst - ev_base
    ev_src = ev_base + src_u

    if frozen:
        # The precomputed clipped base influence and base preference.
        act = act0[e_idx]
        pref_x = pref0[dst_u, ev_x]
    else:
        inter = (adopted[ev_src] & adopted[ev_dst]).sum(axis=1)
        union = ad_count[ev_src] + ad_count[ev_dst] - inter
        act = kernels.influence_strength(
            model.base_inf[e_idx], inter, union, p.gamma, p.act_floor, p.act_cap
        )
        uniq_dst = np.unique(ev_dst)
        stale = uniq_dst[~fresh[uniq_dst]]
        for lo in range(0, len(stale), CHUNK):
            rows = stale[lo:lo + CHUNK]
            pref_rows[rows] = kernels.preference_batch(
                model.base_pref[rows % n_users], adopted[rows], wc[rows], ws[rows],
                model.s_c, model.s_s, p.beta_c, p.beta_s, p.pref_floor,
            )
        fresh[stale] = True
        pref_x = pref_rows[ev_dst, ev_x]

    p_promo = act * pref_x

    # Every trial of an event is keyed (salt, sample, t, ζ, u', u, x, y);
    # the prefix up to ζ is folded once per sample and the prefix up to
    # x once per event.
    acc = fold(ids, t, zeta, acc=fold(model.seed, TAG_TRIAL, salt))
    key = fold(src_u, dst_u, ev_x, acc=acc[ev_base // n_users])
    hit = u01(ev_x, acc=key) < p_promo  # direct adoption: y = x
    pairs = [ev_dst[hit] * n_items + ev_x[hit]]

    # Item-association (extra adoption) trials over every other item y:
    # P_ext = ext_scale · P_act(u',u) · P_pref(u,x) · r^C(u,x,y). In
    # frozen mode wc is never updated, so this reads the initial
    # perception as required. Batched over CHUNK events at a time:
    # r_rows[e] = wc[dst_e] @ s_c[:, x_e, :].
    for lo in range(0, len(ev_x), CHUNK):
        dst, x = ev_dst[lo:lo + CHUNK], ev_x[lo:lo + CHUNK]
        r_rows = np.einsum("em,emi->ei", wc[dst], model.s_c[:, x, :].transpose(1, 0, 2))
        p_ext = p.ext_scale * p_promo[lo:lo + CHUNK, None] * r_rows
        p_ext[adopted[dst]] = 0.0
        p_ext[np.arange(len(x)), x] = 0.0
        # A uniform draw never falls below P_ext = 0, so only the other
        # entries are drawn; the result is the same as drawing them all.
        er, ey = np.nonzero(p_ext)
        ext_hit = u01(ey, acc=key[lo + er]) < p_ext[er, ey]
        pairs.append(dst[er[ext_hit]] * n_items + ey[ext_hit])

    pairs = np.unique(np.concatenate(pairs))
    return pairs // n_items, pairs % n_items


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
