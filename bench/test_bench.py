"""Tests of the benchmark's own code: the ESS estimator, the tracer and the
speedometer.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ssgp  # noqa: E402

from ess import ess_geyer  # noqa: E402
from speedometer import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402


def ar1(rho, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5, 0.9])
def test_ess_matches_ar1_theory(rho):
    n = 200_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert ess_geyer(ar1(rho, n, seed=7)) == pytest.approx(expected, rel=0.1)


def test_ess_of_constant_series_is_one():
    assert ess_geyer(np.full(100, 0.25)) == 1.0


def small_problem():
    design = ssgp.designs.maximin_lhd(15, 3, 0)
    y = np.sin(3.0 * design.points[:, 0]) + design.points[:, 1]
    data = ssgp.gp.Dataset(design.points, y, np.tile([0.0, 1.0], (3, 1)))
    hyper = ssgp.sampler.Hyperparams.for_dim(3, iters=300, burnin=100, seed=11)
    return data, hyper


@pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
def test_traced_chain_is_bit_identical_to_untraced():
    data, hyper = small_problem()
    plain = ssgp.sampler.run_chain(data, hyper)
    tracer = Tracer()
    with Speedometer() as speed, tracer.installed():
        traced = ssgp.sampler.run_chain(data, hyper)
    assert speed.took  # the timer fired while the chain ran
    for field in ("mu", "sigma2", "phi", "gamma", "scans"):
        assert np.array_equal(getattr(plain, field), getattr(traced, field)), field
    assert traced.accept_rate == plain.accept_rate

    # The wrappers are gone again, and the spans add up.
    assert ssgp.sampler.run_chain is ssgp.testbed.run_chain
    assert not hasattr(ssgp.sampler.run_chain, "__wrapped__")
    names, parent, dur, self_time, raised = tracer.table()
    assert np.sum(names == tracer.ids("sampler.update_phi")) == hyper.iters
    assert np.sum(names == tracer.ids("gp.mle_fit")) == 1  # the init fit, under run_chain
    assert np.isfinite(dur).all() and not raised.any()
    root = names == tracer.ids("sampler.run_chain")
    assert self_time.sum() == pytest.approx(dur[root].sum())
