#ifndef RAFIKI_NET_LOADGEN_H_
#define RAFIKI_NET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace rafiki::net {

/// Load-generator configuration. Two modes, both run on one reactor on the
/// calling thread:
///   * open-loop (default): arrivals are scheduled by the paper's sine
///     process (Equations 8-9 around `target_rate`, period `sine_period`)
///     or at a constant `target_rate` when `sine_period` == 0, regardless
///     of how fast the server answers — latency includes client-side
///     queueing, so there is no coordinated omission;
///   * closed-loop: each connection issues its next request as soon as the
///     previous answer returns (throughput-bound, classic benchmark mode).
struct LoadGenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string method = "GET";
  std::string target = "/";
  std::string body;

  bool open_loop = true;
  double duration_seconds = 5.0;
  /// Open loop: the calibration rate r* of Equations 8-9 (requests/s).
  double target_rate = 500.0;
  /// Sine period T in seconds; 0 disables the sine (constant rate).
  double sine_period = 60.0;
  double noise_stddev = 0.1;
  /// Concurrent keep-alive connections, all multiplexed on the one
  /// reactor.
  int connections = 4;
  /// Requests a connection may carry at once (HTTP pipelining). Closed
  /// loop keeps every connection full; open loop sends a due arrival to
  /// any connection carrying fewer. 1 is the classic client — next request
  /// only after the previous answer. Depths > 1 let both sides coalesce
  /// several requests per syscall and per TCP segment, which is what it
  /// takes to push the transport past the per-round-trip floor of
  /// loopback.
  int pipeline = 1;
  /// Client-observed latency SLO; completions slower than this count as
  /// overdue (measured from the scheduled arrival in open loop).
  double tau = 0.1;
  double window_seconds = 1.0;
  uint64_t seed = 1;
  /// Open loop: a due arrival that finds every connection full waits in a
  /// backlog; past this many waiting, it is dropped (the client-side
  /// analogue of a full queue).
  size_t max_backlog = 100000;
  /// How long one dial may take (a loop timer per dial), and how long past
  /// `duration_seconds` the run waits for outstanding answers; those still
  /// missing then count as errors. So a run lasts at most
  /// `duration_seconds + timeout_seconds` (5 s past the duration when this
  /// is not positive, and then a dial has no timer of its own).
  double timeout_seconds = 10.0;
};

/// One aggregation window, keyed by arrival time.
struct LoadGenWindow {
  double t_begin = 0.0;
  int64_t arrived = 0;
  int64_t completed = 0;  // any HTTP response, including 503/504
  int64_t overdue = 0;    // completed with latency > tau
  int64_t rejected = 0;   // completed with status 503 (overload shedding)
  int64_t deadline = 0;   // completed with status 504 (queue SLO expiry)
  int64_t errors = 0;     // transport failures / unexpected statuses
  int64_t dropped = 0;    // never sent (backlog cap)
};

/// Whole-run report. Conservation (asserted in tests):
///   arrived == completed + errors + dropped, and the window sums match
///   the totals. `rejected`, `deadline` and `overdue` are subsets of
///   `completed`.
struct LoadGenReport {
  std::vector<LoadGenWindow> windows;
  int64_t arrived = 0;
  int64_t completed = 0;
  int64_t overdue = 0;
  int64_t rejected = 0;
  int64_t deadline = 0;
  int64_t errors = 0;
  int64_t dropped = 0;
  LatencyHistogram latency;
  double duration_seconds = 0.0;
  double achieved_rps = 0.0;  // completed / duration

  std::string ToString() const;
};

/// Replays the configured arrival process against a live server — the live
/// analogue of ServingSimulator::Run. Runs on the calling thread and starts
/// none; blocks for the duration plus the time outstanding answers take,
/// and returns the report.
LoadGenReport RunLoadGen(const LoadGenOptions& options);

}  // namespace rafiki::net

#endif  // RAFIKI_NET_LOADGEN_H_
