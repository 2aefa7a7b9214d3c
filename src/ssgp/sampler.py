"""Metropolis-within-Gibbs sampler for kriging with variable selection.

Correlation parameters enter through theta_k = phi_k^2 with phi unconstrained.
Each phi_k gets a two-component normal-mixture prior: a narrow N(0, tau_k^2)
"spike" when the latent indicator gamma_k is 0 and a wide N(0, (c_k tau_k)^2)
"slab" when gamma_k is 1, so the posterior over gamma ranks variables by how
much the data push phi_k away from zero.  mu carries a flat prior and sigma2
the scale-invariant 1/sigma2 prior, so both have closed-form conditionals;
phi is updated by a single-block random-walk Metropolis step and gamma by
componentwise Bernoulli draws.

A chain has one state, SamplerState, and the four steps only read and
mutate it.  It holds the draws and the generator; what the steps read of
the data and the settings (the design's PairTable, the responses and
their [1, y] table, prop_sd and the mixture prior's table: the spike and
slab variances, their log(2 pi var) terms and log P(gamma_k = g)); the
factor of the current phi (log det R, 1'R^-1 1 and the GLS mean are read
off this linalg.CorrFactor) with its inclusion probabilities; the residual
y - mu and the quadratic form (y - mu)'R^-1(y - mu) of the current phi,
plain fields that the sigma2 step sets once per scan and the phi step
reads; and the accepted and failed proposal counts.

The state also owns the chain's scratch memory, allocated once: two slots,
each a linalg._Scratch (R's buffer and its own GEMV output) and a pair of
prior rows.  The slot `current` holds the current phi's factor, R0 values
and rows; each proposal is built in the other, and an accepted proposal
swaps their roles.  So a proposal never writes over what the current slot
holds, whether it is accepted, rejected or fails to factor.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import IllConditionedError, NotPositiveDefiniteError, OptimizerFailedError, SamplerError, integer
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
# The integer fields and the least value of each.
_INT_FIELDS = (("iters", 1), ("burnin", 0), ("thin", 1), ("seed", 0))


@dataclass(frozen=True)
class Hyperparams:
    """Prior and run settings for one chain.

    tau, c, p and prop_sd are per-dimension vectors of finite numbers;
    scalars broadcast.
    tau_k is the spike scale, c_k the slab multiplier (c_k >> 1 expected),
    p_k the prior inclusion probability P(gamma_k = 1), and prop_sd the
    per-coordinate standard deviation of the random-walk proposal.  iters,
    burnin, thin and seed are integers, by errors.integer's rule, with
    burnin < iters.
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
        for name, minimum in _INT_FIELDS:
            object.__setattr__(self, name, integer(name, getattr(self, name), minimum))
        if self.burnin >= self.iters:
            raise ValueError(f"burnin must lie in [0, iters), got {self.burnin} with iters {self.iters}")

    @property
    def dim(self) -> int:
        return len(self.tau)

    @classmethod
    def for_dim(cls, d: int, tau=0.3, **settings) -> "Hyperparams":
        """Hyperparams of dimension d, a scalar tau broadcast to d entries.

        `settings` are the other fields (c, p, prop_sd as scalars or
        d-vectors; iters, burnin, thin, seed); omitted ones keep their
        defaults.
        """
        d = integer("d", d, 1)
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


@dataclass(frozen=True)
class Chain:
    """Stored post-burn-in draws, columnar, plus acceptance bookkeeping:
    accept_rate is the MH acceptance over every scan, and meta holds the
    rate per phase (run_chain's, or the one chain.json brought back)."""

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


class SamplerState:
    """The one mutable state of a chain; the four steps read and mutate it.

    SamplerState(data, hyper, mu, sigma2, phi, gamma, rng) holds:
    - the draws mu, sigma2, phi and gamma, and the generator rng;
    - of `data`, the design's PairTable (pairs), the responses (y) and
      their [1, y] table (rhs), which every factor of the chain reads;
    - of `hyper`, prop_sd and the mixture prior's table (var, log_norm and
      log_weight, each (2, d) with row g for gamma_k = g);
    - resid = y - mu and quad = resid'R^-1 resid at the current phi, set
      here and by update_sigma2 after each mu draw, and quad again by an
      accepted update_phi;
    - two slots: slot k is scratch[k], a linalg._Scratch that R is built
      and factored in, and priors[k], the prior rows of its phi;
    - `current`, the slot of the current phi, whose factor and inclusion
      probabilities are `factor` and `inclusion`;
    - `accepted` and `failures`, the counts of accepted proposals and of
      proposals that did not factor.

    The start phi is factored in slot 0; NotPositiveDefiniteError is raised
    when it does not factor at exactly SAMPLER_NUGGET.
    """

    def __init__(self, data: Dataset, hyper: Hyperparams, mu, sigma2, phi, gamma, rng: np.random.Generator):
        self.mu, self.sigma2, self.phi, self.gamma, self.rng = mu, sigma2, phi, gamma, rng
        self.pairs, self.rhs, self.y, self.prop_sd = data.pair_table, data.gls_rhs, data.responses, hyper.prop_sd
        # The variances tau^2 and (c tau)^2, their log(2 pi var) terms, and
        # log P(gamma_k = g): log(1 - p) (-inf at p = 1) and log p.
        self.var = np.stack([hyper.tau**2, (hyper.c * hyper.tau) ** 2])
        self.log_norm = np.log(2.0 * np.pi * self.var)
        with np.errstate(divide="ignore"):
            self.log_weight = np.stack([np.log1p(-hyper.p), np.log(hyper.p)])
        self.scratch = (linalg._scratch(self.pairs), linalg._scratch(self.pairs))
        self.priors = np.zeros((2, 2, len(phi)))
        self.resid = self.y - mu
        self.current = 0
        self.factor, self.quad = _factor(self, phi, 0)
        self.inclusion = self.inclusion_of(self.priors[0])
        self.accepted = self.failures = 0

    def prior_rows(self, theta, slot: int) -> np.ndarray:
        """log N(phi_k; 0, var[g, k]) for both components, shape (2, d), of
        the phi with phi^2 = theta, written into priors[slot] and returned."""
        rows = self.priors[slot]
        np.divide(theta, self.var, out=rows)
        np.add(self.log_norm, rows, out=rows)
        np.multiply(-0.5, rows, out=rows)
        return rows

    def inclusion_of(self, rows) -> np.ndarray:
        """P(gamma_k = 1 | phi_k) = a / (a + b) from phi's prior rows: a the
        slab density times p_k, b the spike density times 1 - p_k."""
        log_b, log_a = rows + self.log_weight
        return np.exp(log_a - np.logaddexp(log_a, log_b))


def _factor(state: SamplerState, phi, slot: int):
    # (factor, quad): R(phi) at exactly SAMPLER_NUGGET, built and factored
    # in the state's scratch[slot], and its quadratic form of the state's
    # residual; phi's prior rows go in priors[slot], from the same theta =
    # phi^2.  Raises NotPositiveDefiniteError.  Unchecked: phi is finite,
    # so theta passes (see linalg).
    theta = phi * phi
    factor = linalg._corr_factor(state.pairs, theta, SAMPLER_NUGGET, state.rhs, state.scratch[slot])
    state.prior_rows(theta, slot)
    return factor, factor.quad(state.resid)


def _log_priors(priors, gamma) -> np.ndarray:
    # sum_k log N(phi_k; 0, (tau_k c_k^{gamma_k})^2) of each phi whose prior
    # rows (SamplerState.prior_rows) are stacked in `priors`, shape (m, 2, d).
    return np.where(gamma, priors[:, 1], priors[:, 0]).sum(axis=1)


def _kernel_value(factor, quad, log_prior, sigma2) -> float:
    # Log full-conditional kernel of phi, up to an additive constant:
    # -1/2 log det R(phi) - quad/(2 sigma2) + log_prior, with R(phi) from
    # `factor`, quad = (y-mu)'R(phi)^-1(y-mu) and log_prior from _log_priors.
    return -0.5 * factor.log_det - quad / (2.0 * sigma2) + log_prior


def update_mu(state: SamplerState) -> None:
    """Draw mu from N(GLS mean, sigma2 / (1' R^-1 1)).

    Both moments are read from the state's factor, without a solve.
    """
    sd = math.sqrt(state.sigma2 / state.factor.one_rinv_one)
    state.mu = float(state.rng.normal(state.factor.gls_mean, sd))


def update_sigma2(state: SamplerState) -> None:
    """Draw sigma2 from InverseGamma(n/2, (y-mu)'R^-1(y-mu)/2).

    Sampled as the reciprocal of a Gamma(n/2, rate=quad/2) draw.  Sets
    state.resid = y - mu at the mu just drawn and state.quad from it and
    the state's factor; the phi step of the same scan reads both.
    """
    state.resid = state.y - state.mu
    state.quad = quad = state.factor.quad(state.resid)
    if quad <= 0:
        raise ValueError("non-positive quadratic form in sigma2 update (degenerate residual)")
    state.sigma2 = float(1.0 / state.rng.gamma(len(state.y) / 2.0, 2.0 / quad))


def update_phi(state: SamplerState) -> None:
    """One block random-walk Metropolis step on phi.

    Proposes phi~ ~ N(phi, diag(prop_sd^2)) and accepts with probability
    min(1, g(phi~)/g(phi)).  The proposal is the scan's one factorization
    and prior evaluation (_factor), both in the slot that is not current,
    with its quadratic form of state.resid; an accepted proposal makes that
    slot current, with its factor, quadratic form and (computed only then)
    its inclusion probabilities, and is counted.  A proposal that does not
    factor at exactly SAMPLER_NUGGET is rejected and counted as failed
    instead of aborting the chain.
    """
    rng = state.rng
    cur = state.current
    new = 1 - cur
    # Proposal first, acceptance uniform second: the stream stays aligned
    # whether or not the proposal factors.
    prop = state.phi + rng.standard_normal(len(state.phi)) * state.prop_sd
    log_u = float(np.log(rng.random()))
    try:
        prop_factor, prop_quad = _factor(state, prop, new)
    except NotPositiveDefiniteError:
        state.failures += 1
        return
    log_prior = _log_priors(state.priors, state.gamma).tolist()
    logp_cur = _kernel_value(state.factor, state.quad, log_prior[cur], state.sigma2)
    logp_prop = _kernel_value(prop_factor, prop_quad, log_prior[new], state.sigma2)
    if log_u < logp_prop - logp_cur:
        state.phi, state.factor, state.quad, state.current = prop, prop_factor, prop_quad, new
        state.inclusion = state.inclusion_of(state.priors[new])
        state.accepted += 1


def update_gamma(state: SamplerState) -> None:
    """Componentwise Bernoulli draws of gamma, P(gamma_k = 1) = state.inclusion[k]."""
    probs = state.inclusion
    state.gamma = state.rng.random(len(probs)) < probs


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
    hyper, init): the chain owns a generator seeded by hyper.seed.  Warns
    when meta["accept_rate_kept"] lies outside [0.1, 0.6].
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
    try:
        state = SamplerState(data, hyper, params.mu, params.sigma2, phi0, np.ones(d, dtype=bool),
                             np.random.default_rng(hyper.seed))
    except NotPositiveDefiniteError as exc:
        raise SamplerError(0, f"initial correlation matrix at nugget {SAMPLER_NUGGET:g}: {exc}") from exc

    kept = range(hyper.burnin + 1, hyper.iters + 1, hyper.thin)
    mu_draws = np.empty(len(kept))
    sigma2_draws = np.empty(len(kept))
    phi_draws = np.empty((len(kept), d))
    gamma_draws = np.empty((len(kept), d), dtype=np.int64)

    accepted_burnin = 0
    for scan in range(1, hyper.iters + 1):
        if scan == hyper.burnin + 1:
            accepted_burnin = state.accepted
        try:
            update_mu(state)
            update_sigma2(state)
            update_phi(state)
            update_gamma(state)
        except ValueError as exc:
            raise SamplerError(scan, str(exc)) from exc
        row, skip = divmod(scan - kept.start, hyper.thin)
        if row >= 0 and not skip:
            mu_draws[row] = state.mu
            sigma2_draws[row] = state.sigma2
            phi_draws[row] = state.phi
            gamma_draws[row] = state.gamma

    kept_rate = (state.accepted - accepted_burnin) / (hyper.iters - hyper.burnin)
    if not 0.1 <= kept_rate <= 0.6:
        warnings.warn(f"MH acceptance rate {kept_rate:.3f} after burn-in outside [0.1, 0.6]; consider retuning prop_sd",
                      RuntimeWarning, stacklevel=2)
    meta = {
        "hyperparams": {k: _float_list(getattr(hyper, k)) if k in _VECTOR_FIELDS else getattr(hyper, k)
                        for k in CHAIN_FIELDS},
        "seed": hyper.seed,
        "sampler_nugget": SAMPLER_NUGGET,
        "dataset_fingerprint": data.fingerprint(),
        "init": {"mu": params.mu, "sigma2": params.sigma2, "phi": _float_list(phi0)},
        "mh_proposal_failures": state.failures,
        "accept_rate_burnin": accepted_burnin / hyper.burnin if hyper.burnin else None,
        "accept_rate_kept": kept_rate,
    }
    return Chain(mu_draws, sigma2_draws, phi_draws, gamma_draws, np.array(kept, dtype=np.int64),
                 state.accepted / hyper.iters, meta)
