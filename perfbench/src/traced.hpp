#pragma once

// The traced in-process replay: the same seeded requests the daemon was
// sent, pushed through each serving layer's public functions in the order
// CachingSolver::solve and the daemon's frame handler call them —
//
//   load_instance + to_instance -> canonicalize -> canonical_hash ->
//   SolveCache::get_or_compute { portfolio members | solve54 ;
//                                persist append } ->
//   restore_item_order -> frame::encode_solve_ok
//
// with a span around every call, recorded by this file (the program itself
// is not instrumented for it).  A layer's self time is its span minus its
// child spans; what the request span keeps for itself is unattributed.
// The replay runs twice — untraced, then traced — so the difference is the
// tracing overhead.

#include <cstdint>
#include <string>
#include <vector>

#include "requests.hpp"
#include "service/cache.hpp"

namespace perfbench {

struct ReplayOptions {
  dsp::service::ServeParams serve;
  dsp::service::CacheOptions cache;
  /// State directory prefix for the persistent store each pass boots from
  /// and appends to, like a daemon with --persist (empty = none), and its
  /// compaction period (the daemon's --snapshot-every).
  std::string persist_dir;
  std::size_t snapshot_every = 256;
  /// A filled state directory each pass's store starts as a copy of (a
  /// warm boot); empty = start from an empty store.
  std::string warm_from;
};

struct ReplayResult {
  /// The per-layer metrics, one row each.
  std::vector<Row> rows;
  /// Encoded solve_ok payload per replayed request, in replay order.
  std::vector<std::string> payloads;
  /// Per-request service time of the traced pass, microseconds.
  std::vector<double> service_us;
  double service_p50_us = 0.0;
  /// Share of the request spans' time no layer span covers.
  double unattributed_frac = 0.0;
};

/// Replays requests first, first+1, ..., first+count-1 untraced and then
/// traced, and returns the traced pass's layer breakdown.
[[nodiscard]] ReplayResult traced_replay(const RequestSource& source,
                                         const ReplayOptions& options,
                                         std::size_t first, std::size_t count);

}  // namespace perfbench
