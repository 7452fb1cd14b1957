#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientRequest: return "client.request";
    case SpanName::kHandler: return "rafiki.dispatch";
    case SpanName::kDecide: return "serving.decide";
    case SpanName::kBatch: return "serving.batch";
    case SpanName::kFeedback: return "serving.feedback";
    case SpanName::kStudy: return "tuning.study";
    case SpanName::kAdvisorNext: return "tuning.next";
    case SpanName::kAdvisorCollect: return "tuning.collect";
    case SpanName::kEpoch: return "trainer.epoch";
    case SpanName::kInitCkpt: return "trainer.init_ckpt";
    case SpanName::kCheckpoint: return "trainer.checkpoint";
    case SpanName::kPsPut: return "ps.put";
    case SpanName::kPsGet: return "ps.get";
    case SpanName::kBusSend: return "cluster.send";
    case SpanName::kBusWait: return "cluster.wait";
  }
  return "unknown";
}

Tracer::Buffer* Tracer::LocalBuffer() {
  // One tracer per process (GlobalTracer), so a plain thread_local cache is
  // enough; buffers are never freed while the process runs.
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(4096);
    local = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return local;
}

void Tracer::Record(SpanName name, int64_t start_ns, int64_t end_ns,
                    uint64_t rid, uint64_t parent, double value, uint64_t id) {
  if (!enabled()) return;
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = id;
  span.parent = parent;
  span.rid = rid;
  span.value = value;
  span.name = name;
  LocalBuffer()->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) buffer->spans.clear();
  recorded_.store(0);
  dropped_.store(0);
}

Tracer& GlobalTracer() {
  static Tracer tracer(/*max_spans=*/3'000'000);
  return tracer;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path,
                size_t limit) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t stride = limit == 0 ? 1 : std::max<size_t>(1, spans.size() / limit);
  for (size_t i = 0; i < spans.size(); i += stride) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"rid\":%llu,\"value\":%.6g}\n",
                 SpanNameString(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.rid), s.value);
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id != 0) by_id[spans[i].id] = i;
  }
  // Children's intervals, clipped to the parent, grouped per parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = spans[it->second];
    int64_t b = std::max(s.start_ns, p.start_ns);
    int64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) children[it->second].emplace_back(b, e);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t covered = 0;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t cur_b = 0;
    int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
