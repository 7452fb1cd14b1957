// A trainer decorator for the failure tests: one epoch parks until the test
// releases it, so a test kills a worker or its master while a trial is
// provably in flight instead of after a guessed sleep.

#ifndef RAFIKI_TESTS_PARKING_TRAINER_H_
#define RAFIKI_TESTS_PARKING_TRAINER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "trainer/trainable.h"

namespace rafiki::trainer {

/// Wraps a TrainerFactory. The `park_at`-th TrainEpoch call across all of
/// its trainables (1-based; 0 never parks) blocks until Release().
class ParkingFactory : public TrainerFactory {
 public:
  ParkingFactory(TrainerFactory* inner, int park_at)
      : inner_(inner), park_at_(park_at) {}

  std::unique_ptr<Trainable> Create(const tuning::Trial& trial) override {
    return std::make_unique<Parking>(inner_->Create(trial), this);
  }

  /// Blocks until an epoch has parked (true) or WorkerDone() ran first
  /// (false: the worker retired without reaching the parking epoch).
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ || done_; });
    return parked_;
  }

  /// Lets the parked epoch, and every later one, run.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  /// Call once the worker's Run has returned.
  void WorkerDone() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

 private:
  class Parking : public Trainable {
   public:
    Parking(std::unique_ptr<Trainable> inner, ParkingFactory* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Status InitRandom(const tuning::Trial& trial) override {
      return inner_->InitRandom(trial);
    }
    Status InitFromCheckpoint(const tuning::Trial& trial,
                              const ps::ModelCheckpoint& ckpt) override {
      return inner_->InitFromCheckpoint(trial, ckpt);
    }
    Result<double> TrainEpoch() override {
      owner_->Pass();
      return inner_->TrainEpoch();
    }
    ps::ModelCheckpoint Checkpoint() const override {
      return inner_->Checkpoint();
    }
    double EpochCostSeconds() const override {
      return inner_->EpochCostSeconds();
    }
    std::string name() const override { return inner_->name(); }

   private:
    std::unique_ptr<Trainable> inner_;
    ParkingFactory* owner_;
  };

  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++epochs_ != park_at_) return;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  TrainerFactory* inner_;
  const int park_at_;
  std::mutex mu_;
  std::condition_variable cv_;
  int epochs_ = 0;
  bool parked_ = false;
  bool released_ = false;
  bool done_ = false;
};

}  // namespace rafiki::trainer

#endif  // RAFIKI_TESTS_PARKING_TRAINER_H_
