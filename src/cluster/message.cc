#include "cluster/message.h"

#include "common/string_util.h"

namespace rafiki::cluster {

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kRequest:
      return "kRequest";
    case MessageType::kTrial:
      return "kTrial";
    case MessageType::kNoMoreTrials:
      return "kNoMoreTrials";
    case MessageType::kReport:
      return "kReport";
    case MessageType::kFinish:
      return "kFinish";
    case MessageType::kPut:
      return "kPut";
    case MessageType::kStop:
      return "kStop";
    case MessageType::kShutdown:
      return "kShutdown";
    case MessageType::kPsPut:
      return "kPsPut";
    case MessageType::kPsGet:
      return "kPsGet";
    case MessageType::kPsValue:
      return "kPsValue";
    case MessageType::kPsAck:
      return "kPsAck";
    case MessageType::kContinue:
      return "kContinue";
  }
  return "unknown";
}

std::string Message::DebugString() const {
  return StrFormat("Message{%s from=%s trial=%lld p=%.4f}",
                   MessageTypeToString(type), from.c_str(),
                   static_cast<long long>(trial_id), performance);
}

}  // namespace rafiki::cluster
