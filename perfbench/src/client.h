#ifndef RAFIKI_PERFBENCH_CLIENT_H_
#define RAFIKI_PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace perfbench {

/// One query the client can send, with what a correct answer looks like.
///
/// `mask_label[mask]` is the ensemble label the service must answer when the
/// models in bit-mask `mask` voted (index 0 unused); `model_labels[m]` is
/// model m's own label. Both are computed in-process from the deployed
/// checkpoints. `truth` is the dataset's ground-truth label.
struct QueryRow {
  std::string body;  // "v1,v2,...", the /query feature body
  int64_t truth = -1;
  std::vector<int64_t> model_labels;
  std::vector<int64_t> mask_label;
};

/// Which answers verify: the full ensemble only (greedy policies), or any
/// non-empty model subset (a scheduler that selects models per batch).
struct AnswerRule {
  int num_models = 1;
  bool any_subset = false;
};

/// One load phase of the single-thread pipelined HTTP client.
struct LoadSpec {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string path;  // e.g. /jobs/infer0/query
  int connections = 4;
  /// Closed loop: requests kept in flight per connection. Ignored in open
  /// loop, where `send_offsets_ns` (from the window start, ascending) is the
  /// schedule.
  bool open_loop = false;
  int depth = 1;
  std::vector<int64_t> send_offsets_ns;
  double window_s = 1.0;
  /// After the window no request is sent; replies are awaited this long,
  /// and anything still unanswered then counts as failed.
  double drain_s = 2.0;
  double tau_s = 0.05;
  /// The window is also cut into slots of this length (by scheduled send
  /// time), so a run can report medians over slots; 0 = one slot.
  double slot_s = 0.0;
  /// When > 0: send at most this many requests (closed loop).
  int64_t max_requests = 0;
  /// When > 0: end the phase as soon as this many 200 answers arrived.
  int64_t stop_after_answers = 0;
  /// Request ids start here (so phases of one run never share an id).
  uint64_t first_rid = 1;
  /// Row order seed.
  uint64_t seed = 1;
  /// Record a client span for every request whose id is a multiple of
  /// this (0 records none; the tracer must also be enabled).
  uint64_t trace_every = 0;
};

/// The client's latency histogram, in seconds: 0.8%-wide buckets from
/// 100 ns to about 100 s. Its size does not grow with the request count, so
/// the client's memory does not move `rss_mb` with throughput.
inline rafiki::LatencyHistogram LatencySeconds() {
  return rafiki::LatencyHistogram(1e-7, 1.008, 2600);
}

/// Outcome of one phase. Conservation:
///   sent == correct + wrong + status_503 + status_504 + other_status +
///           transport_errors + unanswered.
struct LoadResult {
  int64_t sent = 0;
  int64_t correct = 0;
  int64_t wrong = 0;
  int64_t status_503 = 0;
  int64_t status_504 = 0;
  int64_t other_status = 0;
  int64_t transport_errors = 0;
  int64_t unanswered = 0;
  /// Correct answers whose latency was within tau.
  int64_t correct_in_tau = 0;
  /// 200 answers equal to the ground-truth label.
  int64_t truth_hits = 0;
  int64_t answered_200 = 0;
  uint64_t next_rid = 0;
  double window_s = 0.0;
  /// Latency of the 200 answers: from the scheduled send in open loop,
  /// from the actual send in closed loop. Whole window and per slot (see
  /// LoadSpec::slot_s).
  rafiki::LatencyHistogram latency = LatencySeconds();
  std::vector<rafiki::LatencyHistogram> slot_latency;
  /// Per slot: requests sent, correct answers, correct answers within tau.
  std::vector<int64_t> slot_sent;
  std::vector<int64_t> slot_correct;
  std::vector<int64_t> slot_in_tau;
  double slot_s = 0.0;
  /// Open loop: how late each request left against its schedule.
  rafiki::LatencyHistogram lag = LatencySeconds();
  /// Blank lines sent to quiet connections during the drain (see client.cc),
  /// and replies read on a connection after it was nudged. The nudge delay
  /// is well past tau, so each such reply had been stranded by the server's
  /// lost wakeup.
  int64_t drain_nudges = 0;
  int64_t answers_after_nudge = 0;

  bool Balanced() const {
    return sent == correct + wrong + status_503 + status_504 + other_status +
                       transport_errors + unanswered;
  }
};

/// Runs one phase over `spec.connections` keep-alive connections from the
/// calling thread. Requests cycle through `rows` in a seeded order.
/// Returns false (with `error` set) when a connection cannot be opened.
bool RunLoad(const LoadSpec& spec, const std::vector<QueryRow>& rows,
             const AnswerRule& rule, LoadResult* result, std::string* error);

/// Open-loop schedule: the paper's sine arrivals (Equations 8-9) around
/// `target_rate` with period `period_s`, over `window_s`, seeded. Returns
/// send offsets in nanoseconds.
std::vector<int64_t> SineSchedule(double target_rate, double period_s,
                                  double window_s, uint64_t seed);

}  // namespace perfbench

#endif  // RAFIKI_PERFBENCH_CLIENT_H_
