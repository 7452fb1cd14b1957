#ifndef RAFIKI_PERFBENCH_PROBES_H_
#define RAFIKI_PERFBENCH_PROBES_H_

// Timing decorators over the library's public interfaces. Each forwards
// every call to the wrapped object and records a span around the calls
// that cross a layer boundary. They are installed only in traced runs, so
// untraced runs execute the library exactly as a user would.

#include <memory>
#include <string>

#include "cluster/bus.h"
#include "ps/parameter_store.h"
#include "serving/policy.h"
#include "trainer/trainable.h"
#include "tuning/trial_advisor.h"

namespace perfbench {

/// Wraps the policy `inner` would build (or, when `inner` is null, the
/// runtime's default: greedy Algorithm 3 for one model, sync-ensemble
/// greedy for several) in a decorator that records Decide, batch execution
/// (Decide return -> Feedback entry) and Feedback spans.
rafiki::serving::PolicyFactory TimedPolicyFactory(
    rafiki::serving::PolicyFactory inner);

/// Parent span id for the tuning decorators' spans (the running study).
void SetTuningParent(uint64_t span_id);

class TimedAdvisor : public rafiki::tuning::TrialAdvisor {
 public:
  explicit TimedAdvisor(rafiki::tuning::TrialAdvisor* inner) : inner_(inner) {}

  std::optional<rafiki::tuning::Trial> Next(const std::string& worker) override;
  void Collect(const std::string& worker, double performance,
               const rafiki::tuning::Trial& trial) override;
  bool IsBest(const std::string& worker) const override {
    return inner_->IsBest(worker);
  }
  std::optional<rafiki::tuning::TrialResult> BestTrial() const override {
    return inner_->BestTrial();
  }
  std::vector<rafiki::tuning::TrialResult> Results() const override {
    return inner_->Results();
  }
  std::string name() const override { return inner_->name(); }

 private:
  rafiki::tuning::TrialAdvisor* inner_;
};

class TimedTrainerFactory : public rafiki::trainer::TrainerFactory {
 public:
  explicit TimedTrainerFactory(rafiki::trainer::TrainerFactory* inner)
      : inner_(inner) {}
  std::unique_ptr<rafiki::trainer::Trainable> Create(
      const rafiki::tuning::Trial& trial) override;

 private:
  rafiki::trainer::TrainerFactory* inner_;
};

class TimedStore : public rafiki::ps::ParameterStore {
 public:
  explicit TimedStore(rafiki::ps::ParameterStore* inner) : inner_(inner) {}
  rafiki::Status PutModel(const std::string& scope,
                          const rafiki::ps::ModelCheckpoint& ckpt) override;
  rafiki::Result<rafiki::ps::ModelCheckpoint> GetModel(
      const std::string& scope) override;

 private:
  rafiki::ps::ParameterStore* inner_;
};

/// Records every Send, and the time worker endpoints spend blocked in
/// Receive/ReceiveFor.
class TimedBus : public rafiki::cluster::Bus {
 public:
  explicit TimedBus(rafiki::cluster::Bus* inner) : inner_(inner) {}

  rafiki::Status RegisterEndpoint(const std::string& name) override {
    return inner_->RegisterEndpoint(name);
  }
  rafiki::Status RemoveEndpoint(const std::string& name) override {
    return inner_->RemoveEndpoint(name);
  }
  rafiki::Status Send(const std::string& to,
                      rafiki::cluster::Message message) override;
  std::optional<rafiki::cluster::Message> Receive(
      const std::string& name) override;
  std::optional<rafiki::cluster::Message> ReceiveFor(
      const std::string& name, std::chrono::milliseconds timeout) override;
  std::optional<rafiki::cluster::Message> TryReceive(
      const std::string& name) override {
    return inner_->TryReceive(name);
  }
  void CloseAll() override { inner_->CloseAll(); }
  bool HasEndpoint(const std::string& name) const override {
    return inner_->HasEndpoint(name);
  }
  bool EndpointClosed(const std::string& name) const override {
    return inner_->EndpointClosed(name);
  }
  size_t QueueDepth(const std::string& name) const override {
    return inner_->QueueDepth(name);
  }
  rafiki::cluster::BusStats Stats() const override { return inner_->Stats(); }

 private:
  rafiki::cluster::Bus* inner_;
};

}  // namespace perfbench

#endif  // RAFIKI_PERFBENCH_PROBES_H_
