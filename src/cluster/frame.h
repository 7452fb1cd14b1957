#ifndef RAFIKI_CLUSTER_FRAME_H_
#define RAFIKI_CLUSTER_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "common/result.h"

namespace rafiki::cluster {

/// Wire format of the TCP tuning bus: length-prefixed binary frames.
///
///   offset  size  field
///   0       4     magic 0x52464B42 ("RFKB", little-endian u32)
///   4       1     version (currently 1)
///   5       1     frame type (FrameType)
///   6       2     reserved, must be zero
///   8       4     payload length (little-endian u32, <= kMaxFramePayload)
///   12      N     payload
///
/// Every multi-byte integer on the wire is little-endian. Violations map to
/// explicit statuses so a corrupt or hostile peer can never crash the
/// process: bad magic / nonzero reserved / unknown type -> InvalidArgument,
/// unsupported version -> Unimplemented, oversized payload -> OutOfRange.

enum class FrameType : uint8_t {
  kAnnounce = 1,  // payload: endpoint list the sender can receive for
  kWithdraw = 2,  // payload: endpoint list no longer routable via sender
  kMessage = 3,   // payload: envelope (destination endpoint + Message)
};

constexpr uint32_t kFrameMagic = 0x52464B42u;  // "RFKB"
constexpr uint8_t kFrameVersion = 1;
constexpr size_t kFrameHeaderBytes = 12;
/// Payload cap: a PS checkpoint (a few MB of fp32 tensors) fits with a wide
/// margin; anything larger is a protocol violation, not a bigger buffer.
constexpr size_t kMaxFramePayload = 64u << 20;

struct Frame {
  FrameType type = FrameType::kMessage;
  std::string payload;
};

/// Appends one encoded frame to `out`.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

/// Incremental frame decoder, fed arbitrary byte slices (possibly one byte
/// at a time — torn frames are reassembled). Once a protocol violation is
/// seen the stream is poisoned: every later Next() repeats the error, since
/// resynchronizing inside a length-prefixed stream is not possible.
class FrameDecoder {
 public:
  /// Buffers `len` bytes from the wire.
  void Feed(const char* data, size_t len);

  /// Returns the next complete frame, nullopt when more bytes are needed,
  /// or the protocol error that poisoned the stream.
  Result<std::optional<Frame>> Next();

  bool failed() const { return failed_; }
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool failed_ = false;
  Status error_;
};

/// Message payload codecs -----------------------------------------------

/// Serializes a `Message` (the master-worker protocol unit) addressed to
/// endpoint `to` — the payload of a kMessage frame.
std::string EncodeEnvelope(const std::string& to, const Message& message);

/// Inverse of EncodeEnvelope. InvalidArgument on truncation, trailing
/// garbage, or an out-of-range message type.
Result<std::pair<std::string, Message>> DecodeEnvelope(
    std::string_view payload);

/// Endpoint-list payloads of kAnnounce / kWithdraw frames.
std::string EncodeEndpointList(const std::vector<std::string>& endpoints);
Result<std::vector<std::string>> DecodeEndpointList(std::string_view payload);

}  // namespace rafiki::cluster

#endif  // RAFIKI_CLUSTER_FRAME_H_
