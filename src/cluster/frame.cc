#include "cluster/frame.h"

#include <cstring>

#include "common/string_util.h"

namespace rafiki::cluster {
namespace {

// Little-endian primitive writers. memcpy keeps them alignment-safe; the
// build targets are little-endian (x86/ARM64), so no byte swapping.
void PutU16(uint16_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutDouble(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

/// Bounds-checked little-endian reader over a payload slice.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadDouble(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadString(std::string* v) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (remaining() < len) return false;
    v->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

constexpr uint8_t kMaxMessageType =
    static_cast<uint8_t>(MessageType::kContinue);
constexpr uint8_t kMaxFrameType = static_cast<uint8_t>(FrameType::kMessage);
constexpr uint8_t kMinFrameType = static_cast<uint8_t>(FrameType::kAnnounce);

Status Truncated(const char* what) {
  return Status::InvalidArgument(
      StrFormat("truncated %s payload", what));
}

}  // namespace

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  RAFIKI_CHECK_LE(payload.size(), kMaxFramePayload);
  PutU32(kFrameMagic, out);
  out->push_back(static_cast<char>(kFrameVersion));
  out->push_back(static_cast<char>(type));
  PutU16(0, out);  // reserved
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
}

void FrameDecoder::Feed(const char* data, size_t len) {
  if (failed_) return;  // poisoned stream: drop bytes, keep the error
  buf_.append(data, len);
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its buffer with every frame.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (failed_) return error_;
  if (buffered() < kFrameHeaderBytes) return std::optional<Frame>();

  const char* head = buf_.data() + pos_;
  uint32_t magic;
  std::memcpy(&magic, head, sizeof(magic));
  if (magic != kFrameMagic) {
    failed_ = true;
    error_ = Status::InvalidArgument(
        StrFormat("bad frame magic 0x%08x", magic));
    return error_;
  }
  uint8_t version = static_cast<uint8_t>(head[4]);
  if (version != kFrameVersion) {
    failed_ = true;
    error_ = Status::Unimplemented(
        StrFormat("unsupported frame version %u", version));
    return error_;
  }
  uint8_t type = static_cast<uint8_t>(head[5]);
  if (type < kMinFrameType || type > kMaxFrameType) {
    failed_ = true;
    error_ = Status::InvalidArgument(
        StrFormat("unknown frame type %u", type));
    return error_;
  }
  uint16_t reserved;
  std::memcpy(&reserved, head + 6, sizeof(reserved));
  if (reserved != 0) {
    failed_ = true;
    error_ = Status::InvalidArgument(
        StrFormat("nonzero reserved field 0x%04x", reserved));
    return error_;
  }
  uint32_t payload_len;
  std::memcpy(&payload_len, head + 8, sizeof(payload_len));
  if (payload_len > kMaxFramePayload) {
    failed_ = true;
    error_ = Status::OutOfRange(
        StrFormat("frame payload of %u bytes exceeds cap %zu", payload_len,
                  kMaxFramePayload));
    return error_;
  }
  if (buffered() < kFrameHeaderBytes + payload_len) {
    return std::optional<Frame>();  // torn frame: wait for the rest
  }

  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(head + kFrameHeaderBytes, payload_len);
  pos_ += kFrameHeaderBytes + payload_len;
  return std::optional<Frame>(std::move(frame));
}

std::string EncodeEnvelope(const std::string& to, const Message& message) {
  std::string out;
  PutString(to, &out);
  out.push_back(static_cast<char>(message.type));
  PutString(message.from, &out);
  PutU64(static_cast<uint64_t>(message.trial_id), &out);
  PutDouble(message.performance, &out);
  PutU32(static_cast<uint32_t>(message.num_fields.size()), &out);
  for (const auto& [key, value] : message.num_fields) {
    PutString(key, &out);
    PutDouble(value, &out);
  }
  PutU32(static_cast<uint32_t>(message.str_fields.size()), &out);
  for (const auto& [key, value] : message.str_fields) {
    PutString(key, &out);
    PutString(value, &out);
  }
  return out;
}

Result<std::pair<std::string, Message>> DecodeEnvelope(
    std::string_view payload) {
  Reader reader(payload);
  std::string to;
  if (!reader.ReadString(&to)) return Truncated("envelope destination");
  Message message;
  uint8_t type;
  if (!reader.ReadU8(&type)) return Truncated("message type");
  if (type > kMaxMessageType) {
    return Status::InvalidArgument(
        StrFormat("message type %u out of range", type));
  }
  message.type = static_cast<MessageType>(type);
  if (!reader.ReadString(&message.from)) return Truncated("message from");
  if (!reader.ReadI64(&message.trial_id)) return Truncated("trial id");
  if (!reader.ReadDouble(&message.performance)) {
    return Truncated("performance");
  }
  uint32_t num_count;
  if (!reader.ReadU32(&num_count)) return Truncated("num_fields count");
  for (uint32_t i = 0; i < num_count; ++i) {
    std::string key;
    double value;
    if (!reader.ReadString(&key) || !reader.ReadDouble(&value)) {
      return Truncated("num_fields entry");
    }
    message.num_fields[std::move(key)] = value;
  }
  uint32_t str_count;
  if (!reader.ReadU32(&str_count)) return Truncated("str_fields count");
  for (uint32_t i = 0; i < str_count; ++i) {
    std::string key;
    std::string value;
    if (!reader.ReadString(&key) || !reader.ReadString(&value)) {
      return Truncated("str_fields entry");
    }
    message.str_fields[std::move(key)] = std::move(value);
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("%zu trailing bytes after envelope", reader.remaining()));
  }
  return std::make_pair(std::move(to), std::move(message));
}

std::string EncodeEndpointList(const std::vector<std::string>& endpoints) {
  std::string out;
  PutU32(static_cast<uint32_t>(endpoints.size()), &out);
  for (const std::string& endpoint : endpoints) PutString(endpoint, &out);
  return out;
}

Result<std::vector<std::string>> DecodeEndpointList(
    std::string_view payload) {
  Reader reader(payload);
  uint32_t count;
  if (!reader.ReadU32(&count)) return Truncated("endpoint-list count");
  // An endpoint entry costs at least 4 bytes (its length prefix); anything
  // claiming more entries than the payload could hold is hostile.
  if (count > reader.remaining() / 4) {
    return Status::InvalidArgument(
        StrFormat("endpoint-list count %u exceeds payload", count));
  }
  std::vector<std::string> endpoints;
  endpoints.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string endpoint;
    if (!reader.ReadString(&endpoint)) return Truncated("endpoint entry");
    endpoints.push_back(std::move(endpoint));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing bytes after endpoint list", reader.remaining()));
  }
  return endpoints;
}

}  // namespace rafiki::cluster
