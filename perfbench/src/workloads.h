// The three workloads of the repository benchmark. Each builds its inputs
// from the seed, repeats a fixed job list until its time is up, checks
// every output, and fills the report: end-to-end metrics from untraced
// passes, per-layer metrics (with --trace 1) from a traced pass.
#pragma once

#include "ledger.h"

namespace perfbench {

/// The paper's pipeline: BERT and ViT (smoke scale) each trained from
/// its initial parameters by a fresh Xrlflow, then optimised with the
/// trained policy.
void run_xrlflow_transformers(const Options& options, Report& report);

/// The greedy baselines of Figs 4/6: TASO, PET and Tensat through
/// Optimization_service (memo cache off) over the seven evaluation models.
void run_search_zoo(const Options& options, Report& report);

/// Time-to-result through an in-process Daemon: two closed-loop Clients
/// sending small-budget searches, about half of them repeats.
void run_serve_mixed(const Options& options, Report& report);

} // namespace perfbench
