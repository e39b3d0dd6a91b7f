"""Pure numpy kernels for the four IMDPP factors (DESIGN.md §3).

These are the *single source of truth* for the dynamics math. The
local Monte-Carlo engine calls them; the Spark evaluator runs that same
engine on blocks of samples, so both paths give identical results: they
run the same code on the same inputs. The batched kernels use BLAS
matrix products, whose summation order is not numpy's, so they match
the scalar reference (:func:`preference`, and one row at a time for
the weight update) to within ``allclose``, not bit for bit.

Shapes: ``s_c [nC, I, I]``, ``s_s [nS, I, I]`` are the symmetric
meta-graph relevance tensors; per-user weight vectors ``wc [nC]``,
``ws [nS]`` live on the probability simplex of their class (batched
kernels take one row per user: ``[B, nC]``, ``[B, I]``).
"""
from __future__ import annotations

import numpy as np


def normalize_rows(w: np.ndarray) -> np.ndarray:
    """Project rows onto the simplex: clip at 0 and rescale to sum 1.

    A degenerate all-zero row becomes uniform (cannot happen from the
    update rule, which only adds non-negative gains, but keeps the
    kernel total).
    """
    w = np.maximum(np.asarray(w, dtype=np.float64), 0.0)
    tot = w.sum(axis=-1, keepdims=True)
    uniform = np.full_like(w, 1.0 / w.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(tot > 0, w / tot, uniform)
    return out


def preference(
    base_pref_u: np.ndarray,
    adopted_u: np.ndarray,
    wc_u: np.ndarray,
    ws_u: np.ndarray,
    s_c: np.ndarray,
    s_s: np.ndarray,
    beta_c: float,
    beta_s: float,
    pref_floor: float,
) -> np.ndarray:
    """``P_pref(u, ·)`` over all items (factor 2, cross elasticity).

    ``base + beta_c * Σ_{a∈A(u)} r^C(u,a,y) − beta_s * Σ_{a∈A(u)} r^S(u,a,y)``
    clipped into ``[pref_floor, 1]``. Entries for already-adopted items
    are computed but never used by callers.
    """
    ad = np.asarray(adopted_u, dtype=np.float64)
    comp = wc_u @ np.einsum("a,may->my", ad, s_c)
    subs = ws_u @ np.einsum("a,may->my", ad, s_s)
    return np.clip(base_pref_u + beta_c * comp - beta_s * subs, pref_floor, 1.0)


def preference_batch(
    base_pref_rows: np.ndarray,
    adopted_rows: np.ndarray,
    wc_rows: np.ndarray,
    ws_rows: np.ndarray,
    s_c: np.ndarray,
    s_s: np.ndarray,
    beta_c: float,
    beta_s: float,
    pref_floor: float,
) -> np.ndarray:
    """Vectorized :func:`preference` for a batch of users ``[B, I]``.

    Same math, one matrix product per class (``ad @ s`` sums each
    meta-graph's relevance over the adopted items) — used by the
    engine's hot loop; the scalar kernel stays as the readable
    reference (tests assert they agree to within ``allclose``).
    """
    ad = np.asarray(adopted_rows, dtype=np.float64)
    comp = np.einsum("um,muy->uy", wc_rows, ad @ s_c)
    subs = np.einsum("um,muy->uy", ws_rows, ad @ s_s)
    return np.clip(base_pref_rows + beta_c * comp - beta_s * subs, pref_floor, 1.0)


def influence_strength(
    base_inf: np.ndarray,
    inter: np.ndarray,
    union: np.ndarray,
    gamma: float,
    act_floor: float,
    act_cap: float,
) -> np.ndarray:
    """``P_act`` per edge (factor 3): base + γ · Jaccard of adoption sets.

    ``inter``/``union`` are integer co-adoption counts; Jaccard is 0
    when the union is empty.
    """
    union = np.asarray(union, dtype=np.float64)
    jac = np.divide(inter, union, out=np.zeros_like(union), where=union > 0)
    return np.clip(base_inf + gamma * jac, act_floor, act_cap)


def relevance_row(w_u: np.ndarray, s: np.ndarray, x: int) -> np.ndarray:
    """Personal relevance of item ``x`` to every item: ``w_u @ s[:, x, :]``."""
    return w_u @ s[:, x, :]


def weight_gains(
    adopted_after: np.ndarray, new_items: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Unnormalized weight reinforcement for one class (factor 1 update).

    Rows are users: ``adopted_after [B, I]`` is each user's adoption set
    after the step and ``new_items [B, I]`` marks the items adopted in
    it. ``gain[b, m] = Σ_{y ∈ new(b)} Σ_{a ∈ A_after(b)\\{y}} s(a, y | m)``
    — each meta-graph is reinforced by the relevance its instances
    assign between the newly adopted items and everything the user now
    owns (the diagonal of ``s`` is zero, so ``a ≠ y`` is automatic;
    pairs of two new items are counted symmetrically, order-free).
    """
    ad = np.asarray(adopted_after, dtype=np.float64)
    new = np.asarray(new_items, dtype=np.float64)
    return np.einsum("mby,by->bm", ad @ s, new)


def update_weights(
    wc_rows: np.ndarray,
    ws_rows: np.ndarray,
    adopted_after: np.ndarray,
    new_items: np.ndarray,
    s_c: np.ndarray,
    s_s: np.ndarray,
    eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Reinforce and renormalize a batch of users' weightings after adoptions.

    ``wc_rows [B, nC]``, ``ws_rows [B, nS]``; ``adopted_after`` and
    ``new_items`` are ``[B, I]`` as in :func:`weight_gains`.
    """
    wc = normalize_rows(wc_rows + eta * weight_gains(adopted_after, new_items, s_c))
    ws = normalize_rows(ws_rows + eta * weight_gains(adopted_after, new_items, s_s))
    return wc, ws
