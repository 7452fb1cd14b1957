#ifndef RAFIKI_PERFBENCH_TRACE_H_
#define RAFIKI_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds; every timestamp in the benchmark uses this clock
/// so client, handler and dispatcher stamps compare directly.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer-boundary span names. Request spans carry the request id; the
/// other spans carry 0.
enum class SpanName : uint8_t {
  kClientRequest,   // client: scheduled (open) or actual (closed) send -> reply;
                    // id = request id, value = actual send - start (ns)
  kHandler,         // rafiki: async gateway handler entry -> return; parent =
                    // the client request span
  kDecide,          // serving: SchedulerPolicy::Decide
  kBatch,           // serving: Decide return -> Feedback entry
  kFeedback,        // serving: SchedulerPolicy::Feedback
  kStudy,           // tuning: one RunStudy call
  kAdvisorNext,     // tuning: TrialAdvisor::Next
  kAdvisorCollect,  // tuning: TrialAdvisor::Collect
  kEpoch,           // trainer: Trainable::TrainEpoch
  kInitCkpt,        // trainer: Trainable::InitFromCheckpoint
  kCheckpoint,      // trainer: Trainable::Checkpoint
  kPsPut,           // ps: ParameterStore::PutModel
  kPsGet,           // ps: ParameterStore::GetModel
  kBusSend,         // cluster: Bus::Send
  kBusWait,         // cluster: a worker blocked in Bus::Receive/ReceiveFor
};

const char* SpanNameString(SpanName name);

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for a root); `rid` links the spans of one request.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t rid = 0;
  double value = 0.0;  // payload: bytes moved, batch size, ...
  SpanName name = SpanName::kClientRequest;
};

/// In-memory span recorder. Each thread appends to its own buffer (no
/// locking on the hot path); buffers are read only after every recording
/// thread has been joined. Disabled tracers record nothing, so the
/// decorators cost one branch in untraced runs.
class Tracer {
 public:
  explicit Tracer(size_t max_spans) : max_spans_(max_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records one span if enabled and under the cap.
  void Record(SpanName name, int64_t start_ns, int64_t end_ns,
              uint64_t rid = 0, uint64_t parent = 0, double value = 0.0,
              uint64_t id = 0);

  /// Every recorded span (call after recording threads are joined).
  std::vector<Span> Collect() const;
  /// Drops every recorded span (call while no thread records).
  void Clear();
  uint64_t dropped() const { return dropped_.load(); }

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const size_t max_spans_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{uint64_t{1} << 62};  // above request ids
  std::atomic<size_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The process-wide tracer the decorators and the client record into.
Tracer& GlobalTracer();

/// Writes spans as JSON lines (name, start, end, id, parent, rid, value),
/// at most `limit` of them, evenly strided. Returns false on I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path,
                size_t limit);

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (matched by parent id). Result is indexed like
/// `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // RAFIKI_PERFBENCH_TRACE_H_
