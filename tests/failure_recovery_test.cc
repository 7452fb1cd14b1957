// Failure-injection coverage for §6.3: workers are stateless and can be
// killed/restarted at will; masters checkpoint their (small) state and
// recover from it.

#include <thread>

#include "cluster/message_bus.h"
#include "cluster/node_manager.h"
#include "gtest/gtest.h"
#include "parking_trainer.h"
#include "ps/parameter_server.h"
#include "storage/blob_store.h"
#include "trainer/surrogate.h"
#include "tuning/study.h"
#include "tuning/trial_advisor.h"

namespace rafiki::tuning {
namespace {

HyperSpace MakeSpace() {
  HyperSpace space;
  EXPECT_TRUE(space.AddRangeKnob("learning_rate", KnobDtype::kFloat, 1e-4,
                                 1.0, /*log_scale=*/true)
                  .ok());
  EXPECT_TRUE(
      space.AddRangeKnob("momentum", KnobDtype::kFloat, 0.0, 0.99).ok());
  return space;
}

TEST(FailureRecoveryTest, WorkerKilledMidStudyIsRecoverable) {
  // Kill a worker while it is training, then start a replacement with the
  // same endpoint name. The master treats the replacement's kRequest as
  // recovery (the in-flight trial is lost) and the study still terminates
  // with every advisor-issued trial accounted for.
  HyperSpace space = MakeSpace();
  RandomSearchAdvisor advisor(&space, 10, 1);
  trainer::SurrogateOptions surrogate_options;
  surrogate_options.epoch_cost_seconds = 1.0;
  trainer::SurrogateFactory factory(surrogate_options);
  // w1 parks in the 3rd epoch of its first trial: every trial runs at least
  // patience + 1 epochs, so the kill lands mid-trial.
  trainer::ParkingFactory parking(&factory, /*park_at=*/3);
  cluster::MessageBus bus;
  ps::ParameterServer ps;

  StudyConfig config;
  config.max_trials = 10;
  config.max_epochs_per_trial = 30;
  config.num_workers = 2;
  config.early_stop_patience = 5;

  StudyMaster master("fr", config, &advisor, &bus, nullptr);
  StudyWorker worker0("fr", "w0", config, &factory, &bus, &ps, 11);
  StudyWorker worker1("fr", "w1", config, &parking, &bus, &ps, 12);
  // The replacement worker reuses w1's endpoint name (same pod identity).
  StudyWorker worker1b("fr", "w1", config, &factory, &bus, &ps, 13);

  cluster::NodeManager manager;
  ASSERT_TRUE(manager
                  .StartContainer("master", [&](cluster::CancelToken& t) {
                    master.Run(t);
                  })
                  .ok());
  ASSERT_TRUE(manager
                  .StartContainer("w0", [&](cluster::CancelToken& t) {
                    worker0.Run(t);
                  })
                  .ok());
  // w1 runs on its own thread so the kill can cancel it before its parked
  // epoch returns.
  cluster::CancelToken w1_token;
  std::thread w1([&] {
    worker1.Run(w1_token);
    parking.WorkerDone();
  });

  ASSERT_TRUE(parking.WaitParked());
  TrialLedger at_kill = master.ledger();
  EXPECT_GE(at_kill.active, 1);
  EXPECT_LT(at_kill.completed, config.max_trials);
  w1_token.Cancel();
  parking.Release();
  w1.join();
  // Its endpoint may be left registered; the replacement tolerates that.
  ASSERT_TRUE(manager
                  .StartContainer("w1b", [&](cluster::CancelToken& t) {
                    worker1b.Run(t);
                  })
                  .ok());

  ASSERT_TRUE(manager.WaitContainer("w0").ok());
  ASSERT_TRUE(manager.WaitContainer("w1b").ok());
  ASSERT_TRUE(manager.WaitContainer("master").ok());

  // The killed trial is lost exactly once; the other nine finished.
  TrialLedger ledger = master.ledger();
  EXPECT_EQ(ledger.proposed, 10);
  EXPECT_EQ(ledger.lost, 1);
  EXPECT_EQ(ledger.active, 0);
  EXPECT_EQ(ledger.completed, 9);
  EXPECT_EQ(master.stats().trials.size(), 9u);
  EXPECT_GT(master.stats().best_performance, 0.0);
}

TEST(FailureRecoveryTest, MasterRestartResumesFromCheckpoint) {
  // Kill the master mid-study, then bring up a NEW master that restores
  // from the checkpoint store and finishes the remaining budget.
  HyperSpace space = MakeSpace();
  RandomSearchAdvisor advisor(&space, 8, 2);
  trainer::SurrogateOptions surrogate_options;
  trainer::SurrogateFactory factory(surrogate_options);
  // Every trial runs at least patience + 1 = 6 epochs, so the 12th epoch
  // is in the second trial at the latest: at most one trial has finished.
  trainer::ParkingFactory parking(&factory, /*park_at=*/12);
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  storage::BlobStore store;

  StudyConfig config;
  config.max_trials = 8;
  config.max_epochs_per_trial = 10;
  config.num_workers = 1;
  config.checkpoint_every_events = 1;

  StudyMaster master1("mr", config, &advisor, &bus, &store);
  StudyWorker worker("mr", "w0", config, &parking, &bus, &ps, 21);

  cluster::NodeManager manager;
  ASSERT_TRUE(manager
                  .StartContainer("master", [&](cluster::CancelToken& t) {
                    master1.Run(t);
                  })
                  .ok());
  ASSERT_TRUE(manager
                  .StartContainer("w0", [&](cluster::CancelToken& t) {
                    worker.Run(t);
                    parking.WorkerDone();
                  })
                  .ok());
  // Kill the master while the worker is mid-trial.
  ASSERT_TRUE(parking.WaitParked());
  ASSERT_TRUE(manager.KillContainer("master").ok());
  TrialLedger at_kill = master1.ledger();
  EXPECT_EQ(at_kill.active, 1);
  EXPECT_LT(at_kill.completed, config.max_trials);
  ASSERT_TRUE(store.Exists("study/mr/master_ckpt"));

  // Recovered master: restores state (the in-flight trial is written off)
  // and finishes the budget the first master left.
  StudyMaster master2("mr", config, &advisor, &bus, &store);
  ASSERT_TRUE(master2.RestoreFromCheckpoint().ok());
  TrialLedger restored = master2.ledger();
  EXPECT_EQ(restored.proposed, at_kill.proposed);
  EXPECT_EQ(restored.completed, at_kill.completed);
  EXPECT_EQ(restored.lost, at_kill.lost + 1);
  ASSERT_TRUE(manager
                  .StartContainer("master2", [&](cluster::CancelToken& t) {
                    master2.Run(t);
                  })
                  .ok());
  // The parked epoch's report reaches the new master (or fails while it
  // registers); either way the worker abandons that trial and re-requests.
  parking.Release();
  ASSERT_TRUE(manager.WaitContainer("w0").ok());
  ASSERT_TRUE(manager.WaitContainer("master2").ok());

  // The recovered master remembers the best performance from before the
  // crash (its stats carry over via the checkpoint), ran the rest of the
  // advisor's budget, and its ledger balances.
  EXPECT_GT(master2.stats().best_performance, 0.0);
  TrialLedger ledger = master2.ledger();
  EXPECT_EQ(ledger.proposed, 8);
  EXPECT_EQ(ledger.active, 0);
  EXPECT_EQ(ledger.proposed, ledger.completed + ledger.lost);
  EXPECT_EQ(static_cast<int64_t>(master2.stats().trials.size()),
            8 - at_kill.proposed);
}

TEST(FailureRecoveryTest, StudySurvivesWorkerThatNeverStarts) {
  // One of the declared workers never comes up: the master still finishes
  // (the live worker eventually drains the trial budget and the master
  // exits when every ACTIVE worker retired).
  HyperSpace space = MakeSpace();
  RandomSearchAdvisor advisor(&space, 4, 3);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;

  StudyConfig config;
  config.max_trials = 4;
  config.max_epochs_per_trial = 6;
  config.num_workers = 1;  // declare only the live one

  StudyStats stats = RunStudy("solo", config, &advisor, &factory, &bus, &ps,
                              nullptr, 1, 31);
  EXPECT_EQ(stats.trials.size(), 4u);
}

}  // namespace
}  // namespace rafiki::tuning
