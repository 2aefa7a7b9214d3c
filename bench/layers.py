"""Per-layer metrics from a traced run.

Counts and self times are per traced operation (one replicate, one chain or
one predict call), so runs that fit different numbers of operations into
their time stay comparable.  A layer the workload does not reach reads 0.
"""

import numpy as np

import ssgp

from ess import ess_geyer

# Chains accepting fewer than this share of phi proposals are counted as stuck.
LOW_ACCEPT = 0.01


def layer_metrics(tracer, n_ops, traced_warnings, overhead_frac, rmspe_ratios):
    names, parent, dur, self_time, raised = tracer.table()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def mask(span):
        return names == tracer.ids(span)

    def median(values, scale=1.0):
        return float(np.median(values)) * scale if len(values) else 0.0

    def calls(span):
        return mask(span).sum() / n_ops

    def self_s(span):
        return self_time[mask(span)].sum() / n_ops

    lhd, fit, nll = mask("designs.maximin_lhd"), mask("gp.mle_fit"), mask("gp.nll")
    chol, chain = mask("linalg.corr_cholesky"), mask("sampler.run_chain")
    # An mle_fit directly under run_chain is the chain's init fit; any other
    # is the plain-MLE comparator.
    init_fit = fit & (parent >= 0) & (names[np.maximum(parent, 0)] == tracer.ids("sampler.run_chain"))
    init_in_chain = np.bincount(parent[init_fit], weights=dur[init_fit], minlength=len(dur))

    put("designs.maximin_lhd.calls", calls("designs.maximin_lhd"), "count")
    put("designs.maximin_lhd.s_p50", median(dur[lhd]), "s")
    put("testbed.stage.design_s", dur[lhd].sum() / n_ops, "s")

    put("gp.mle_fit.calls", calls("gp.mle_fit"), "count")
    put("gp.mle_fit.s_p50", median(dur[fit]), "s")
    put("gp.mle_fit.final_nll", _comparator_nll(tracer, init_fit), "1")
    put("gp.nll.evals_per_fit", nll.sum() / fit.sum() if fit.any() else 0.0, "count")
    put("gp.nll.us_p50", median(dur[nll], 1e6), "us")
    put("gp.nll.fail_frac", raised[nll].mean() if nll.any() else 0.0, "1")
    put("testbed.stage.mle_cmp_s", dur[fit & ~init_fit].sum() / n_ops, "s")
    put("testbed.stage.mle_init_s", dur[init_fit].sum() / n_ops, "s")

    requested = np.asarray(tracer.chol_requested)
    used = np.asarray(tracer.chol_used)
    order = np.asarray(tracer.chol_order, dtype=float)
    put("linalg.corr_cholesky.calls", calls("linalg.corr_cholesky"), "count")
    put("linalg.corr_cholesky.us_p50", median(dur[chol], 1e6), "us")
    put("linalg.corr_cholesky.self_s", self_s("linalg.corr_cholesky"), "s")
    put("linalg.solve_with_chol.calls", calls("linalg.solve_with_chol"), "count")
    put("linalg.solve_with_chol.self_s", self_s("linalg.solve_with_chol"), "s")
    put("linalg.nugget_escalations", np.sum(used > requested) / n_ops, "count")
    put("linalg.chol_flop_computed", np.sum(order**3 / 3.0) / n_ops, "flop")

    chains = [(idx, result) for idx, _, _, result in tracer.calls["sampler.run_chain"]]
    scan_us = [(dur[idx] - init_in_chain[idx]) / ch.meta["hyperparams"]["iters"] * 1e6 for idx, ch in chains]
    accept = np.array([ch.accept_rate for _, ch in chains])
    ess = [min(ess_geyer(ch.phi[:, k]) for k in range(ch.dim)) for _, ch in chains]
    put("sampler.scan_us", median(scan_us), "us")
    for step in ("update_phi", "update_mu", "update_sigma2", "update_gamma"):
        put(f"sampler.{step}.self_s", self_s(f"sampler.{step}"), "s")
    put("sampler.accept_rate", accept.mean() if len(accept) else 0.0, "1")
    put("sampler.proposal_failures",
        sum(ch.meta.get("mh_proposal_failures", 0) for _, ch in chains) / n_ops, "count")
    put("sampler.ess_min", median(ess), "draws")
    put("sampler.low_accept_chains", np.sum(accept < LOW_ACCEPT) / n_ops, "count")
    put("sampler.accept_warnings",
        sum("acceptance rate" in str(w.message) for w in traced_warnings) / n_ops, "count")
    put("testbed.stage.chain_s", (dur[chain].sum() - dur[init_fit].sum()) / n_ops, "s")

    put("gp.predict_batch.calls", calls("gp.predict_batch"), "count")
    put("gp.predict_batch.self_s", self_s("gp.predict_batch"), "s")
    put("testbed.stage.predict_s", dur[mask("gp.predict_batch")].sum() / n_ops, "s")
    put("testbed.rmspe_ratio", np.mean(rmspe_ratios) if rmspe_ratios else 0.0, "1")

    put("report.select_variables.self_s", self_s("report.select_variables"), "s")
    put("io.save_json.self_s", self_s("io.save_json"), "s")
    put("io.bytes_written", sum(tracer.saved_bytes) / n_ops, "B")

    put("trace.overhead_frac", overhead_frac, "1")
    put("trace.ops", n_ops, "count")
    return out


def _comparator_nll(tracer, init_fit):
    # Final objective of each comparator fit, re-evaluated untraced at the
    # fitted theta and the fit's own nugget; mean over fits.
    values = []
    for idx, args, kwargs, params in tracer.calls["gp.mle_fit"]:
        if init_fit[idx]:
            continue
        data = args[0] if args else kwargs["data"]
        opts = args[1] if len(args) > 1 else kwargs.get("opts")
        nugget = (opts or ssgp.gp.FitOptions()).nugget
        values.append(ssgp.gp.neg_log_profile_likelihood(params.theta, data, nugget=nugget))
    return float(np.mean(values)) if values else 0.0
