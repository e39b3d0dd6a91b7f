"""IMDPP diffusion engines: local numpy reference + Spark sample-sharded evaluator."""
from repro.diffusion.local import SimResult, simulate, likelihood_pi
from repro.diffusion.sigma import sigma_from_adopt_t

__all__ = ["SimResult", "simulate", "likelihood_pi", "sigma_from_adopt_t"]
