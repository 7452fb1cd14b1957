#include "ps/parameter_server.h"

#include <algorithm>

#include "common/string_util.h"
#include "storage/serialize.h"

namespace rafiki::ps {

Status ParameterServer::Put(const std::string& scope, const std::string& name,
                            const Tensor& value, const ParamMeta& meta) {
  if (scope.empty() || name.empty()) {
    return Status::InvalidArgument("empty scope or name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = FullKey(scope, name);
  Entry& e = entries_[key];
  int64_t prev_version = e.meta.version;
  e.value = value;
  e.meta = meta;
  e.meta.version = prev_version + 1;  // auto-increment across overwrites
  e.in_cold_store = false;
  ++e.revision;
  return Status::OK();
}

Result<Tensor> ParameterServer::Get(const std::string& scope,
                                    const std::string& name) {
  std::string key = FullKey(scope, name);
  int64_t revision = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound(StrFormat("no parameter '%s'", key.c_str()));
    }
    Entry& e = it->second;
    ++e.accesses;
    if (!e.in_cold_store) return e.value;
    RAFIKI_CHECK(cold_store_ != nullptr);
    revision = e.revision;
  }
  // Cold path: blob fetch + deserialization run unlocked so concurrent
  // hot-tier traffic is never blocked on storage I/O.
  auto bytes = cold_store_->Get("ps/" + key);
  if (!bytes.ok()) return bytes.status();
  auto tensor = storage::DeserializeTensor(bytes.value());
  if (!tensor.ok()) return tensor.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("no parameter '%s'", key.c_str()));
  }
  Entry& e = it->second;
  if (e.revision == revision && e.in_cold_store) {
    e.value = std::move(tensor).value();  // promote back to hot
    e.in_cold_store = false;
  }
  // Else a concurrent Put overwrote the key (or another reader already
  // promoted it) while we were reading the blob; the entry's newer
  // in-memory value supersedes the bytes we fetched.
  return e.value;
}

Result<Tensor> ParameterServer::FetchShapeMatched(
    const std::string& name_suffix, const Shape& shape,
    const std::string& owner) {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* best = nullptr;
  std::string best_key;
  for (auto& [key, e] : entries_) {
    if (e.in_cold_store) continue;  // shape match only scans hot tier
    if (key.size() < name_suffix.size() ||
        key.compare(key.size() - name_suffix.size(), name_suffix.size(),
                    name_suffix) != 0) {
      continue;
    }
    if (e.value.shape() != shape) continue;
    bool visible = e.meta.visibility == Visibility::kPublic ||
                   e.meta.owner == owner;
    if (!visible) continue;
    if (best == nullptr || e.meta.accuracy > best->meta.accuracy) {
      best = &e;
      best_key = key;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        StrFormat("no shape-matched parameter for suffix '%s' shape %s",
                  name_suffix.c_str(), ShapeToString(shape).c_str()));
  }
  ++const_cast<Entry*>(best)->accesses;
  return best->value;
}

Status ParameterServer::PutModel(const std::string& scope,
                                 const ModelCheckpoint& ckpt) {
  if (scope.empty()) return Status::InvalidArgument("empty scope");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, value] : ckpt.params) {
    std::string key = FullKey(scope, name);
    Entry& e = entries_[key];
    e.value = value;
    e.meta = ckpt.meta;
    e.in_cold_store = false;
    ++e.revision;
    names.push_back(name);
  }
  checkpoints_[scope] = std::move(names);
  return Status::OK();
}

Result<ModelCheckpoint> ParameterServer::GetModel(const std::string& scope) {
  struct ColdParam {
    size_t index;        // position in out.params to fill
    std::string key;
    int64_t revision;
    Tensor loaded{};     // filled by the cold-store read
  };
  ModelCheckpoint out;
  std::vector<ColdParam> cold;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = checkpoints_.find(scope);
    if (it == checkpoints_.end()) {
      return Status::NotFound(StrFormat("no checkpoint '%s'", scope.c_str()));
    }
    for (const std::string& name : it->second) {
      auto eit = entries_.find(FullKey(scope, name));
      RAFIKI_CHECK(eit != entries_.end()) << "checkpoint index out of sync";
      Entry& e = eit->second;
      ++e.accesses;
      if (e.in_cold_store) {
        RAFIKI_CHECK(cold_store_ != nullptr);
        cold.push_back({out.params.size(), eit->first, e.revision});
        out.params.emplace_back(name, Tensor());  // filled after the I/O
      } else {
        out.params.emplace_back(name, e.value);
      }
      out.meta = e.meta;
    }
  }
  if (cold.empty()) return out;  // all-hot fast path: atomic snapshot

  // Fetch + deserialize every cold parameter without holding the lock.
  for (ColdParam& c : cold) {
    auto bytes = cold_store_->Get("ps/" + c.key);
    if (!bytes.ok()) return bytes.status();
    auto tensor = storage::DeserializeTensor(bytes.value());
    if (!tensor.ok()) return tensor.status();
    c.loaded = std::move(tensor).value();
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (ColdParam& c : cold) {
    auto eit = entries_.find(c.key);
    if (eit == entries_.end()) {
      return Status::NotFound(StrFormat("no parameter '%s'", c.key.c_str()));
    }
    Entry& e = eit->second;
    if (e.revision == c.revision && e.in_cold_store) {
      e.value = std::move(c.loaded);  // promote back to hot
      e.in_cold_store = false;
    }
    // On a revision change the checkpoint was overwritten mid-read; return
    // the fresher in-memory value for this parameter (per-parameter
    // consistency — see the class comment on snapshot atomicity).
    out.params[c.index].second = e.value;
    out.meta = e.meta;
  }
  return out;
}

Result<ModelCheckpoint> ParameterServer::BestModel(
    const std::string& scope_prefix) {
  std::vector<std::string> scopes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [scope, names] : checkpoints_) {
      if (StartsWith(scope, scope_prefix)) scopes.push_back(scope);
    }
  }
  const double kNone = -1.0;
  double best_acc = kNone;
  std::string best_scope;
  for (const std::string& scope : scopes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = checkpoints_.find(scope);
    if (it == checkpoints_.end() || it->second.empty()) continue;
    auto eit = entries_.find(FullKey(scope, it->second.front()));
    if (eit == entries_.end()) continue;
    if (eit->second.meta.accuracy > best_acc) {
      best_acc = eit->second.meta.accuracy;
      best_scope = scope;
    }
  }
  if (best_acc == kNone) {
    return Status::NotFound(
        StrFormat("no checkpoint with prefix '%s'", scope_prefix.c_str()));
  }
  return GetModel(best_scope);
}

size_t ParameterServer::SpillCold(size_t min_accesses) {
  if (cold_store_ == nullptr) return 0;
  struct Candidate {
    std::string key;
    int64_t revision;
    Tensor value;
    bool stored = false;
  };
  // Pass 1 (locked): snapshot the cold candidates. Copying the tensor here
  // costs one extra buffer per candidate but lets the serialization and
  // blob writes below proceed with the server unlocked.
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, e] : entries_) {
      if (e.in_cold_store || e.accesses >= min_accesses) continue;
      candidates.push_back({key, e.revision, e.value});
    }
  }
  if (candidates.empty()) return 0;

  // Pass 2 (unlocked): serialize + write. BlobStore is itself thread-safe.
  for (Candidate& c : candidates) {
    Status s =
        cold_store_->Put("ps/" + c.key, storage::SerializeTensor(c.value));
    c.stored = s.ok();  // store full -> keep hot
  }

  // Pass 3 (locked): demote entries whose value is still the one we wrote.
  // A revision bump means a concurrent Put made our blob stale; the entry
  // stays hot and the stale blob is dead weight that is never read (only
  // in_cold_store entries consult the store) and is overwritten by the
  // next successful spill of that key.
  size_t spilled = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Candidate& c : candidates) {
    if (!c.stored) continue;
    auto it = entries_.find(c.key);
    if (it == entries_.end()) continue;
    Entry& e = it->second;
    if (e.revision != c.revision || e.in_cold_store ||
        e.accesses >= min_accesses) {
      continue;
    }
    e.value = Tensor();
    e.in_cold_store = true;
    ++spilled;
  }
  return spilled;
}

size_t ParameterServer::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t ParameterServer::num_hot_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, e] : entries_) {
    if (!e.in_cold_store) ++n;
  }
  return n;
}

std::vector<std::string> ParameterServer::ListScopes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [scope, names] : checkpoints_) out.push_back(scope);
  return out;
}

}  // namespace rafiki::ps
