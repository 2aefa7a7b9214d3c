"""Metropolis-within-Gibbs sampler for kriging with variable selection.

Correlation parameters enter through theta_k = phi_k^2 with phi unconstrained.
Each phi_k gets a two-component normal-mixture prior: a narrow N(0, tau_k^2)
"spike" when the latent indicator gamma_k is 0 and a wide N(0, (c_k tau_k)^2)
"slab" when gamma_k is 1, so the posterior over gamma ranks variables by how
much the data push phi_k away from zero.  mu carries a flat prior and sigma2
the scale-invariant 1/sigma2 prior, so both have closed-form conditionals;
phi is updated by a single-block random-walk Metropolis step and gamma by
componentwise Bernoulli draws.  Both steps read the mixture prior from one
table that Hyperparams computes once; log det R, 1'R^-1 1, the GLS mean
and the quadratic form are read off the linalg.CorrFactor of the current
phi.  The scan carries that factor, phi's prior rows (made per proposal) and
its inclusion probabilities (per accepted proposal); the steps only read them.

A chain owns its scratch memory (_Slots), allocated once when it starts:
two slots, each an n x n buffer that R is built and factored in and a pair
of prior rows.  One slot holds the current phi's factor and rows; each
proposal is built in the other, and an accepted proposal swaps their roles.
So a proposal never writes over the factor the scan carries, whether it is
accepted, rejected or fails to factor.
"""

import hashlib
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import IllConditionedError, NotPositiveDefiniteError, OptimizerFailedError, SamplerError
from .gp import Dataset, FitOptions, GpParams, mle_fit

# Jitter used for every correlation factorization inside the sampler.  It is
# fixed: a state-dependent escalation would change the MH target mid-chain,
# so a proposal that does not factor at exactly this nugget is rejected.  It
# is deliberately coarser than the linalg default: deterministic responses
# drive the exact-interpolation likelihood onto a numerically singular ridge
# where phi summaries and selection frequencies are artifacts of
# floating-point conditioning.  Flooring the correlation spectrum at 1e-5
# keeps the target well defined; prediction paths keep the sharp default.
SAMPLER_NUGGET = 1e-5

# The Hyperparams fields a caller may set for a chain: per-input vectors, then run lengths.
_VECTOR_FIELDS = ("tau", "c", "p", "prop_sd")
CHAIN_FIELDS = _VECTOR_FIELDS + ("iters", "burnin", "thin")


@dataclass(frozen=True)
class Hyperparams:
    """Prior and run settings for one chain.

    tau, c, p and prop_sd are per-dimension vectors of finite numbers;
    scalars broadcast.
    tau_k is the spike scale, c_k the slab multiplier (c_k >> 1 expected),
    p_k the prior inclusion probability P(gamma_k = 1), and prop_sd the
    per-coordinate standard deviation of the random-walk proposal.
    """

    tau: np.ndarray
    c: np.ndarray = field(default_factory=lambda: np.array(25.0))
    p: np.ndarray = field(default_factory=lambda: np.array(0.5))
    prop_sd: np.ndarray = field(default_factory=lambda: np.array(0.03))
    iters: int = 6000
    burnin: int = 2000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        vecs = {}
        for name in _VECTOR_FIELDS:
            try:
                v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a number or a list of numbers") from None
            if v.ndim != 1:
                raise ValueError(f"{name} must be a scalar or 1-D vector")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} entries must be finite")
            vecs[name] = v
        d = next((v.size for v in vecs.values() if v.size > 1), 1)
        for name, v in vecs.items():
            if v.size == 1:
                v = np.full(d, v[0])
            elif v.size != d:
                raise ValueError(f"{name} has length {v.size}, expected {d}")
            object.__setattr__(self, name, v)
        if np.any(self.tau <= 0):
            raise ValueError("tau entries must be positive")
        if np.any(self.prop_sd <= 0):
            raise ValueError("prop_sd entries must be positive")
        if np.any(self.c <= 1):
            raise ValueError("c entries must exceed 1")
        if np.any(self.c <= 2):
            warnings.warn("slab multiplier c <= 2 barely separates the mixture components", RuntimeWarning, stacklevel=3)
        if np.any(self.p <= 0) or np.any(self.p > 1):
            raise ValueError("p entries must lie in (0, 1]")
        if self.iters < 1:
            raise ValueError("iters must be positive")
        if not 0 <= self.burnin < self.iters:
            raise ValueError(f"burnin must lie in [0, iters), got {self.burnin} with iters {self.iters}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def dim(self) -> int:
        return len(self.tau)

    @cached_property
    def _prior_table(self):
        # The mixture prior of phi, computed once per Hyperparams instead of
        # once per scan; row g of each (2, d) array is for gamma_k = g.  The
        # variances tau^2 and (c tau)^2, their log(2 pi var) terms, and
        # log P(gamma_k = g): log(1 - p) (-inf at p = 1) and log p.
        var = np.stack([self.tau**2, (self.c * self.tau) ** 2])
        with np.errstate(divide="ignore"):
            log_weight = np.stack([np.log1p(-self.p), np.log(self.p)])
        return var, np.log(2.0 * np.pi * var), log_weight

    def _prior_logpdf(self, phi) -> np.ndarray:
        # log N(phi_k; 0, var[g, k]) for both components, shape (2, d).
        var, log_norm, _ = self._prior_table
        return -0.5 * (log_norm + phi * phi / var)

    @classmethod
    def for_dim(cls, d: int, tau=0.3, **settings) -> "Hyperparams":
        """Hyperparams of dimension d, a scalar tau broadcast to d entries.

        `settings` are the other fields (c, p, prop_sd as scalars or
        d-vectors; iters, burnin, thin, seed); omitted ones keep their
        defaults.
        """
        hyper = cls(np.full(d, tau) if np.ndim(tau) == 0 else tau, **settings)
        if hyper.dim != d:
            raise ValueError(f"tau has length {hyper.dim}, expected {d}")
        return hyper


def default_hyperparams(data: Dataset, seed: int = 0, **overrides) -> Hyperparams:
    """The prior and run settings for `data`: the one place defaults are derived.

    tau_k = 1/(3 dx_k) with dx_k the observed range of scaled coordinate k
    (1/3 when the data span the unit cube), unless `tau` is given.  Every
    other setting in CHAIN_FIELDS keeps its Hyperparams field default unless
    given; an override of None keeps the default too.  Raises ValueError
    when a coordinate has zero observed range.
    """
    deltas = np.ptp(data.points, axis=0)
    if np.any(deltas <= 0):
        bad = int(np.argmax(deltas <= 0)) + 1
        raise ValueError(f"dimension {bad} has zero observed range")
    settings = {"tau": 1.0 / (3.0 * deltas)}
    settings.update((k, v) for k, v in overrides.items() if v is not None)
    return Hyperparams.for_dim(data.dim, seed=seed, **settings)


@dataclass
class SamplerState:
    """Mutable state of one chain: current draws plus the owned generator."""

    mu: float
    sigma2: float
    phi: np.ndarray
    gamma: np.ndarray
    rng: np.random.Generator


@dataclass(frozen=True)
class Chain:
    """Stored post-burn-in draws, columnar, plus acceptance bookkeeping."""

    mu: np.ndarray
    sigma2: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    scans: np.ndarray
    accept_rate: float
    meta: dict

    @property
    def size(self) -> int:
        return len(self.mu)

    @property
    def dim(self) -> int:
        return self.phi.shape[1]


class _Slots:
    """Scratch memory of one chain: two slots, `current` and the other.

    Slot k is the linalg._Scratch scratch[k], in which R(phi) is built and
    factored, and the prior rows priors[k] of that phi (row g for
    gamma_k = g).  The two scratches share one GEMV output.  Without a
    PairTable, scratch[k] is None and each proposal is built in a new buffer.
    """

    def __init__(self, d: int, pairs: linalg.PairTable | None = None):
        if pairs is None:
            self.scratch = (None, None)
        else:
            gemv = np.empty(len(pairs.rows))
            self.scratch = (linalg._scratch(pairs, gemv), linalg._scratch(pairs, gemv))
        self.priors = np.empty((2, 2, d))
        self.current = 0


def _factor(phi, data, out=None) -> linalg.CorrFactor:
    # R(phi) at exactly SAMPLER_NUGGET, built and factored in `out` (a
    # linalg._Scratch, new when omitted); raises NotPositiveDefiniteError.
    # Unchecked: phi is finite, so theta = phi^2 passes (see linalg).
    return linalg._corr_factor(data.pair_table, phi * phi, SAMPLER_NUGGET, data.responses, out)


def _log_priors(priors, gamma) -> np.ndarray:
    # sum_k log N(phi_k; 0, (tau_k c_k^{gamma_k})^2) of each phi whose prior
    # rows (hyper._prior_logpdf) are stacked in `priors`, shape (m, 2, d).
    return np.where(gamma, priors[:, 1], priors[:, 0]).sum(axis=1)


def _kernel_value(factor, log_prior, mu, sigma2) -> float:
    # Log full-conditional kernel of phi, up to an additive constant:
    # -1/2 log det R(phi) - (y-mu)'R^-1(y-mu)/(2 sigma2) + log_prior, with
    # R(phi) from `factor` and log_prior from _log_priors.
    return -0.5 * factor.log_det - factor.quad(mu) / (2.0 * sigma2) + log_prior


def update_mu(state: SamplerState, factor: linalg.CorrFactor) -> float:
    """Draw mu from N(GLS mean, sigma2 / (1' R^-1 1)).

    `factor` is the CorrFactor of the current phi; both moments are read
    from it, without a solve.
    """
    sd = np.sqrt(state.sigma2 / factor.one_rinv_one)
    return float(state.rng.normal(factor.gls_mean, sd))


def update_sigma2(state: SamplerState, factor: linalg.CorrFactor) -> float:
    """Draw sigma2 from InverseGamma(n/2, (y-mu)'R^-1(y-mu)/2).

    Sampled as the reciprocal of a Gamma(n/2, rate=quad/2) draw.  The
    quadratic form comes from `factor`, the CorrFactor of the current phi,
    which keeps it for the phi step of the same scan.
    """
    quad = factor.quad(state.mu)
    if quad <= 0:
        raise ValueError("non-positive quadratic form in sigma2 update (degenerate residual)")
    return float(1.0 / state.rng.gamma(len(factor.y) / 2.0, 2.0 / quad))


PhiUpdate = namedtuple("PhiUpdate", ["phi", "accepted", "factor", "prior", "inclusion", "proposal_failed"])


def update_phi(state: SamplerState, data: Dataset, hyper: Hyperparams, factor: linalg.CorrFactor, prior,
               inclusion, slots: _Slots | None = None) -> PhiUpdate:
    """One block random-walk Metropolis step on phi.

    Proposes phi~ ~ N(phi, diag(prop_sd^2)) and accepts with probability
    min(1, g(phi~)/g(phi)).  The proposal is the scan's one factorization
    and prior evaluation; `factor`, `prior` (hyper._prior_logpdf(phi)) and
    `inclusion` (P(gamma_k = 1 | phi_k)) are the current state's, and the
    result carries all three for its phi, the last computed only when the
    proposal is accepted.  A proposal that does not factor at exactly
    SAMPLER_NUGGET is rejected and flagged instead of aborting the chain.
    `slots` is the chain's scratch memory, whose current slot holds
    `factor` and `prior`; the proposal is built in the other slot, and an
    accepted proposal makes it current.  Without it, the step makes its own.
    """
    rng = state.rng
    phi = state.phi
    if slots is None:
        slots = _Slots(len(phi))
        slots.priors[0] = prior
    cur = slots.current
    new = 1 - cur
    # Proposal first, acceptance uniform second: the stream stays aligned
    # whether or not the proposal factors.
    prop = phi + rng.normal(size=phi.shape) * hyper.prop_sd
    log_u = float(np.log(rng.uniform()))
    try:
        prop_factor = _factor(prop, data, slots.scratch[new])
    except NotPositiveDefiniteError:
        return PhiUpdate(phi, False, factor, prior, inclusion, True)
    priors = slots.priors
    priors[new] = hyper._prior_logpdf(prop)
    log_prior = _log_priors(priors, state.gamma).tolist()
    logp_cur = _kernel_value(factor, log_prior[cur], state.mu, state.sigma2)
    logp_prop = _kernel_value(prop_factor, log_prior[new], state.mu, state.sigma2)
    if log_u < logp_prop - logp_cur:
        slots.current = new
        return PhiUpdate(prop, True, prop_factor, priors[new], _inclusion(priors[new], hyper), False)
    return PhiUpdate(phi, False, factor, prior, inclusion, False)


def _inclusion(prior, hyper: Hyperparams) -> np.ndarray:
    # P(gamma_k = 1 | phi_k) from phi's prior rows.
    _, _, log_weight = hyper._prior_table
    log_b, log_a = prior + log_weight
    return np.exp(log_a - np.logaddexp(log_a, log_b))


def inclusion_probabilities(phi, hyper: Hyperparams) -> np.ndarray:
    """P(gamma_k = 1 | phi_k) = a / (a + b) with a the slab density times p_k
    and b the spike density times 1 - p_k, evaluated through log densities.
    """
    return _inclusion(hyper._prior_logpdf(np.asarray(phi, dtype=float)), hyper)


def update_gamma(state: SamplerState, probs) -> np.ndarray:
    """Componentwise Bernoulli draws of gamma, P(gamma_k = 1) = probs[k]."""
    return (state.rng.uniform(size=len(probs)) < probs).astype(np.int64)


def _float_list(v):
    return [float(x) for x in np.asarray(v).ravel()]


def derive_seed(master: int, *path) -> int:
    """Child seed for a labelled sub-stream of a master seed.

    The path labels are hashed into a spawn key, so distinct labels give
    independent streams and the same labels always reproduce the same child.
    """
    digest = hashlib.sha256("/".join(str(p) for p in path).encode("utf-8")).digest()
    key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    ss = np.random.SeedSequence(master, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def run_chain(data: Dataset, hyper: Hyperparams | None = None, init: GpParams | None = None) -> Chain:
    """Run the full Metropolis-within-Gibbs sampler.

    Initializes at `init`, or when it is omitted at the kriging MLEs of a
    multi-start mle_fit at SAMPLER_NUGGET seeded by
    derive_seed(hyper.seed, "mle-init").  Either way phi_k starts at
    min(|phi_k|, c_k tau_k), i.e. +sqrt(theta_hat_k) capped at one slab sd,
    with gamma all ones.  It then iterates mu -> sigma2 -> phi -> gamma for
    `iters` scans, storing draws after `burnin`.  Deterministic given (data,
    hyper, init): the chain owns a generator seeded by hyper.seed.
    """
    if hyper is None:
        hyper = default_hyperparams(data)
    d = data.dim
    if hyper.dim != d:
        raise ValueError(f"hyperparameters are for dimension {hyper.dim}, data has {d}")

    if init is not None and init.phi.shape != (d,):
        raise ValueError(f"init has {init.phi.size} phi entries, data has dimension {d}")
    try:
        if init is not None:
            params = init
        else:
            # Fit the init at the sampler's own jitter so the chain starts
            # near the mode of the distribution it actually targets.
            opts = FitOptions(nugget=SAMPLER_NUGGET, seed=derive_seed(hyper.seed, "mle-init"))
            params = mle_fit(data, opts)
    except (OptimizerFailedError, IllConditionedError) as exc:
        raise SamplerError(0, f"initialization failed: {exc}") from exc
    # The profile likelihood can be flat in a decorrelation direction (small
    # designs), letting the MLE wander arbitrarily far up theta_k with no
    # density left under the prior; a random walk cannot recover from there
    # in any realistic number of scans.  Start within one slab sd instead.
    phi0 = np.minimum(np.abs(params.phi), hyper.c * hyper.tau)
    state = SamplerState(
        mu=params.mu,
        sigma2=params.sigma2,
        phi=phi0,
        gamma=np.ones(d, dtype=np.int64),
        rng=np.random.default_rng(hyper.seed),
    )
    slots = _Slots(d, data.pair_table)
    try:
        factor = _factor(state.phi, data, slots.scratch[slots.current])
    except NotPositiveDefiniteError as exc:
        raise SamplerError(0, f"initial correlation matrix at nugget {SAMPLER_NUGGET:g}: {exc}") from exc
    prior = slots.priors[slots.current]
    prior[:] = hyper._prior_logpdf(state.phi)
    inclusion = _inclusion(prior, hyper)

    kept = range(hyper.burnin + 1, hyper.iters + 1, hyper.thin)
    mu_draws = np.empty(len(kept))
    sigma2_draws = np.empty(len(kept))
    phi_draws = np.empty((len(kept), d))
    gamma_draws = np.empty((len(kept), d), dtype=np.int64)

    accepted = 0
    failures = 0
    for scan in range(1, hyper.iters + 1):
        try:
            state.mu = update_mu(state, factor)
            state.sigma2 = update_sigma2(state, factor)
            step = update_phi(state, data, hyper, factor, prior, inclusion, slots)
            state.phi, factor, prior, inclusion = step.phi, step.factor, step.prior, step.inclusion
            accepted += step.accepted
            failures += step.proposal_failed
            state.gamma = update_gamma(state, inclusion)
        except ValueError as exc:
            raise SamplerError(scan, str(exc)) from exc
        if scan in kept:
            row = kept.index(scan)
            mu_draws[row] = state.mu
            sigma2_draws[row] = state.sigma2
            phi_draws[row] = state.phi
            gamma_draws[row] = state.gamma

    rate = accepted / hyper.iters
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"MH acceptance rate {rate:.3f} outside [0.1, 0.6]; consider retuning prop_sd",
            RuntimeWarning,
            stacklevel=2,
        )
    meta = {
        "hyperparams": {k: _float_list(getattr(hyper, k)) if k in _VECTOR_FIELDS else getattr(hyper, k)
                        for k in CHAIN_FIELDS},
        "seed": hyper.seed,
        "sampler_nugget": SAMPLER_NUGGET,
        "dataset_fingerprint": data.fingerprint(),
        "init": {"mu": params.mu, "sigma2": params.sigma2, "phi": _float_list(phi0)},
        "mh_proposal_failures": failures,
    }
    return Chain(mu_draws, sigma2_draws, phi_draws, gamma_draws, np.array(kept, dtype=np.int64), rate, meta)


def posterior_params(chain: Chain) -> GpParams:
    """Posterior means of mu, sigma2 and phi as a plug-in parameter set."""
    if chain.size == 0:
        raise ValueError("empty chain")
    return GpParams(
        mu=float(chain.mu.mean()),
        sigma2=float(chain.sigma2.mean()),
        phi=chain.phi.mean(axis=0),
    )
