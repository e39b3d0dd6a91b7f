"""TDSI — Timing Determination by Substantial Influence (Sec. IV-B3).

For a candidate seed ``(u, x_p, t)`` in target market τ_k:

  SI = MA(S^G, (u,x_p,t)) + (T − t + 1)/T · ML(S^G, (u,x_p,t))   (Eq. 2)
  MA = σ^τ(S^G ∪ {(u,x_p,t)}) − σ^τ(S^G)                         (Eq. 5)
  ML = π^τ(S^G ∪ {(u,x_p,t)}) − π^τ(S^G)                         (Eq. 6)

σ^τ and π^τ are estimated by Monte-Carlo on the *market submodel*
(diffusion restricted to τ's members — this is what keeps Dysim's
timing search cheap, Fig. 6(g)); the stateless RNG gives common random
numbers to the with/without runs, so the marginals are low-variance.

"""
from __future__ import annotations

from repro.diffusion.local import likelihood_pi, simulate
from repro.dynamics.state import ModelData


class MarketEvaluator:
    """Caches σ^τ / π^τ of the current seed group on one market submodel.

    ``submodel`` is ``model.subgraph(market.users)``; seeds are given in
    *global* user ids and silently dropped if their user lies outside
    the market (they cannot contribute adoptions inside it when the
    diffusion is restricted to the market, by construction).
    """

    def __init__(self, submodel: ModelData, T: int, n_samples: int) -> None:
        self.submodel = submodel
        self.T = T
        self.n_samples = n_samples
        self._local = {int(g): i for i, g in enumerate(submodel.orig_users)}
        # σ, and π once a caller asked for it (None until then).
        self._cache: dict[tuple, tuple[float, float | None]] = {}

    def _localize(self, seeds) -> tuple:
        out = []
        for u, x, t in seeds:
            lu = self._local.get(int(u))
            if lu is not None:
                out.append((lu, int(x), int(t)))
        return tuple(sorted(out))

    def sigma(self, seeds) -> float:
        """σ^τ of a seed group, memoized in the cache :meth:`sigma_pi` shares."""
        key = self._localize(seeds)
        if key not in self._cache:
            res = simulate(self.submodel, list(key), self.T, self.n_samples)
            self._cache[key] = (res.sigma, None)
        return self._cache[key][0]

    def sigma_pi(self, seeds) -> tuple[float, float]:
        """(σ^τ, π^τ) of a seed group, memoized on the localized seeds."""
        key = self._localize(seeds)
        if self._cache.get(key, (None, None))[1] is None:
            res = simulate(self.submodel, list(key), self.T, self.n_samples)
            self._cache[key] = (res.sigma, likelihood_pi(self.submodel, res.state))
        return self._cache[key]


def substantial_influence(
    ev: MarketEvaluator, seed_group, candidate: tuple[int, int, int], T: int
) -> float:
    """``SI^τ(S^G, (u, x_p, t), T)`` of Eq. (2)."""
    u, x, t = candidate
    sigma0, pi0 = ev.sigma_pi(seed_group)
    sigma1, pi1 = ev.sigma_pi(list(seed_group) + [candidate])
    ma = sigma1 - sigma0
    ml = pi1 - pi0
    return ma + (T - t + 1) / T * ml


def timing_window(
    seed_group, T: int, T_market: int, prev_market_last_t: int
) -> list[int]:
    """Candidate timings per Algorithm 1 line 17.

    ``t ∈ [t̂, min{t̂ + 1, T^{τ_k} + max{t' ∈ S^{τ_{k−1}}}}]`` clamped
    into ``[1, T]``, where ``t̂`` is the latest timing in the seed
    group so far (1 when empty) and ``prev_market_last_t`` is 0 for the
    first market of a 𝒢. Markets of one 𝒢 are promoted in
    *consecutive* promotions (Sec. IV: the prioritized market is
    "promoted earlier"), so a market's window additionally starts after
    the previous market's last promotion.
    """
    t_hat = max((t for _, _, t in seed_group), default=1)
    lo = max(1, min(max(t_hat, prev_market_last_t + 1), T))
    hi = min(max(t_hat, lo) + 1, T_market + prev_market_last_t, T)
    hi = max(lo, hi)
    return list(range(lo, hi + 1))
