#ifndef RAFIKI_CLUSTER_MESSAGE_H_
#define RAFIKI_CLUSTER_MESSAGE_H_

#include <cstdint>
#include <map>
#include <string>

namespace rafiki::cluster {

/// Message kinds exchanged between a study master and its workers —
/// exactly the protocol of Algorithms 1 and 2 in the paper, plus the
/// transport-level kinds needed to run it over real queues. The master
/// answers every kReport, and under Algorithm 1 every kFinish, with exactly
/// one verdict: kPut, kStop or kContinue. The value is the wire byte
/// (frame.cc), so new kinds go at the end.
enum class MessageType {
  kRequest,       // worker -> master: give me a trial
  kTrial,         // master -> worker: here is a trial to evaluate
  kNoMoreTrials,  // master -> worker: advisor exhausted; stop asking
  kReport,        // worker -> master: intermediate performance p for trial
  kFinish,        // worker -> master: trial completed
  kPut,           // master -> worker: publish your parameters to the PS
  kStop,          // master -> worker: early-stop the current trial
  kShutdown,      // manager -> anyone: terminate event loop
  // Parameter-server access for out-of-process workers (§6.2): the PS
  // lives in the master process; worker processes reach it through these.
  kPsPut,    // worker -> ps service: store a checkpoint blob under a scope
  kPsGet,    // worker -> ps service: fetch the checkpoint of a scope
  kPsValue,  // ps service -> worker: kPsGet reply (ok flag + blob)
  kPsAck,    // ps service -> worker: kPsPut reply (ok flag)
  kContinue,  // master -> worker: train on (neither kPut nor kStop)
};

const char* MessageTypeToString(MessageType type);

/// A schemaless message. Trials, performances and checkpoints are encoded
/// into the typed field maps, keeping this transport independent of the
/// tuning layer (the paper's masters/workers exchange JSON over RPC; this
/// struct plays that role in-process).
struct Message {
  MessageType type = MessageType::kShutdown;
  std::string from;      // sender endpoint
  int64_t trial_id = -1;
  double performance = 0.0;
  std::map<std::string, double> num_fields;
  std::map<std::string, std::string> str_fields;

  std::string DebugString() const;
};

}  // namespace rafiki::cluster

#endif  // RAFIKI_CLUSTER_MESSAGE_H_
