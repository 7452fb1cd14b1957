// rafiki_tune_master: the distributed tuning plane's master process.
// Listens on a TCP message bus, serves the shared parameter server over
// the wire, runs the Algorithm 1/2 study master, and spawns + supervises
// rafiki_tune_worker processes — restarting any worker the environment
// (or a failure-injection script) kills mid-trial.
//
//   ./build/examples/rafiki_tune_master --study=demo --workers=2
//       --trials=12 --checkpoint-dir=/tmp/rafiki_ckpt
//
// With --bus=local everything runs in-process on the loopback MessageBus
// instead (same study code path), which the parity test uses to check the
// TCP plane reproduces the in-process best trial bit for bit.
//
// Output is machine-parseable (smoke_tune.sh greps it):
//   port=7070
//   spawned worker=w0 pid=1234
//   progress proposed=2 completed=0 lost=0 active=2   (on each change)
//   restarted worker=w0 pid=1301 restarts=1
//   worker=w0 restarts=1
//   ledger proposed=12 completed=11 lost=1 active=0 balanced=1
//   trials=11 best=0.91324 best_trial=lr:...
// Exit status is nonzero if the ledger does not balance.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cluster/message_bus.h"
#include "cluster/node_manager.h"
#include "cluster/process_runner.h"
#include "cluster/ps_service.h"
#include "cluster/rpc_bus.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "ps/parameter_server.h"
#include "storage/blob_store.h"
#include "trainer/surrogate.h"
#include "tuning/hyperspace.h"
#include "tuning/study.h"
#include "tuning/trial_advisor.h"

namespace {

using rafiki::StrFormat;

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (rafiki::StartsWith(argv[i], prefix)) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* name,
                       const char* fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (rafiki::StartsWith(argv[i], prefix)) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

rafiki::tuning::HyperSpace MakeOptimizerSpace() {
  // The SGD-hyperparameter space the surrogate trainer models (§7.1).
  rafiki::tuning::HyperSpace space;
  using rafiki::tuning::KnobDtype;
  RAFIKI_CHECK_OK(space.AddRangeKnob("learning_rate", KnobDtype::kFloat, 1e-4,
                                     1.0, /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space.AddRangeKnob("momentum", KnobDtype::kFloat, 0.0, 0.999));
  RAFIKI_CHECK_OK(space.AddRangeKnob("weight_decay", KnobDtype::kFloat, 1e-6,
                                     1e-1, /*log_scale=*/true));
  RAFIKI_CHECK_OK(space.AddRangeKnob("dropout", KnobDtype::kFloat, 0.0, 0.7));
  RAFIKI_CHECK_OK(space.AddRangeKnob("init_std", KnobDtype::kFloat, 1e-3, 1.0,
                                     /*log_scale=*/true));
  return space;
}

std::string DefaultWorkerBinary(const char* argv0) {
  std::string self = argv0;
  size_t slash = self.rfind('/');
  std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/rafiki_tune_worker";
}

// Prints the study outcome and returns the process exit status.
int Report(const rafiki::tuning::StudyMaster& master,
           const rafiki::tuning::StudyStats& stats) {
  rafiki::tuning::TrialLedger ledger = master.ledger();
  bool balanced = ledger.active == 0 &&
                  ledger.proposed == ledger.completed + ledger.lost;
  std::printf("ledger proposed=%lld completed=%lld lost=%lld active=%lld "
              "balanced=%d\n",
              static_cast<long long>(ledger.proposed),
              static_cast<long long>(ledger.completed),
              static_cast<long long>(ledger.lost),
              static_cast<long long>(ledger.active), balanced ? 1 : 0);
  std::printf("trials=%zu best=%.17g best_trial=%s\n", stats.trials.size(),
              stats.best_performance, stats.best_trial.Encode().c_str());
  std::fflush(stdout);
  return balanced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string study = FlagString(argc, argv, "study", "demo");
  std::string bus_kind = FlagString(argc, argv, "bus", "tcp");
  std::string checkpoint_dir = FlagString(argc, argv, "checkpoint-dir", "");
  std::string worker_bin = FlagString(argc, argv, "worker-bin",
                                      DefaultWorkerBinary(argv[0]).c_str());
  auto port = static_cast<uint16_t>(FlagInt(argc, argv, "port", 0));
  int workers = static_cast<int>(FlagInt(argc, argv, "workers", 2));
  bool resume = FlagInt(argc, argv, "resume", 0) != 0;
  auto seed = static_cast<uint64_t>(FlagInt(argc, argv, "seed", 7));
  auto surrogate_seed =
      static_cast<uint64_t>(FlagInt(argc, argv, "surrogate-seed", 99));

  rafiki::tuning::StudyConfig config;
  config.max_trials = FlagInt(argc, argv, "trials", 12);
  config.max_epochs_per_trial =
      static_cast<int>(FlagInt(argc, argv, "max-epochs", 40));
  config.collaborative = FlagInt(argc, argv, "collaborative", 0) != 0;
  config.early_stop_patience =
      static_cast<int>(FlagInt(argc, argv, "patience", 5));
  config.checkpoint_every_events =
      static_cast<int>(FlagInt(argc, argv, "checkpoint-every", 32));
  config.num_workers = workers;

  rafiki::tuning::HyperSpace space = MakeOptimizerSpace();
  rafiki::tuning::RandomSearchAdvisor advisor(&space, config.max_trials,
                                              seed);
  rafiki::storage::BlobStore checkpoints(0, checkpoint_dir);
  rafiki::storage::BlobStore* ckpt_store =
      checkpoint_dir.empty() ? nullptr : &checkpoints;
  rafiki::ps::ParameterServer ps;

  if (bus_kind == "local") {
    // In-process parity path: same study code over the loopback bus.
    rafiki::cluster::MessageBus bus;
    rafiki::trainer::SurrogateOptions surrogate;
    surrogate.seed = surrogate_seed;
    rafiki::trainer::SurrogateFactory factory(surrogate);
    rafiki::tuning::StudyMaster master(study, config, &advisor, &bus,
                                       ckpt_store);
    if (resume) {
      rafiki::Status s = master.RestoreFromCheckpoint();
      if (!s.ok()) {
        std::fprintf(stderr, "resume: %s\n", s.ToString().c_str());
      }
    }
    rafiki::cluster::NodeManager manager;
    RAFIKI_CHECK_OK(manager.StartContainer(
        "master", [&master](rafiki::cluster::CancelToken& token) {
          master.Run(token);
        }));
    rafiki::Rng seeds(seed);
    std::vector<std::unique_ptr<rafiki::tuning::StudyWorker>> bodies;
    for (int i = 0; i < workers; ++i) {
      bodies.push_back(std::make_unique<rafiki::tuning::StudyWorker>(
          study, StrFormat("w%d", i), config, &factory, &bus, &ps,
          seeds.Fork().Next64()));
      rafiki::tuning::StudyWorker* w = bodies.back().get();
      RAFIKI_CHECK_OK(manager.StartContainer(
          StrFormat("worker/%d", i),
          [w](rafiki::cluster::CancelToken& token) { w->Run(token); }));
    }
    for (int i = 0; i < workers; ++i) {
      manager.WaitContainer(StrFormat("worker/%d", i));
    }
    manager.WaitContainer("master");
    return Report(master, master.stats());
  }

  if (bus_kind != "tcp") {
    std::fprintf(stderr, "unknown --bus=%s (want tcp or local)\n",
                 bus_kind.c_str());
    return 2;
  }

  rafiki::cluster::RpcBusOptions options;
  options.port = port;
  auto bus = rafiki::cluster::RpcBus::Listen(options);
  if (!bus.ok()) {
    std::fprintf(stderr, "cannot start bus: %s\n",
                 bus.status().ToString().c_str());
    return 1;
  }
  std::printf("port=%u\n", bus.value()->port());
  std::fflush(stdout);

  rafiki::cluster::PsService ps_service(bus.value().get(), &ps);
  RAFIKI_CHECK_OK(ps_service.Start());

  rafiki::tuning::StudyMaster master(study, config, &advisor,
                                     bus.value().get(), ckpt_store);
  if (resume) {
    rafiki::Status s = master.RestoreFromCheckpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "resume: %s\n", s.ToString().c_str());
    }
  }

  rafiki::cluster::CancelToken token;
  std::atomic<bool> master_done{false};
  std::thread master_thread([&] {
    master.Run(token);
    master_done.store(true, std::memory_order_release);
  });

  // Spawn the worker fleet as real processes, each dialing our bus port.
  rafiki::cluster::ProcessRunner runner;
  rafiki::Rng seeds(seed);
  std::vector<std::string> names;
  for (int i = 0; i < workers; ++i) {
    std::string name = StrFormat("w%d", i);
    rafiki::cluster::ProcessSpec spec;
    spec.binary = worker_bin;
    spec.args = {
        "--study=" + study,
        "--worker=" + name,
        StrFormat("--port=%u", bus.value()->port()),
        StrFormat("--seed=%llu",
                  static_cast<unsigned long long>(seeds.Fork().Next64())),
        StrFormat("--collaborative=%d", config.collaborative ? 1 : 0),
        StrFormat("--max-epochs=%d", config.max_epochs_per_trial),
        StrFormat("--surrogate-seed=%llu",
                  static_cast<unsigned long long>(surrogate_seed)),
    };
    rafiki::Status spawned = runner.Spawn(name, spec);
    if (!spawned.ok()) {
      std::fprintf(stderr, "cannot spawn %s: %s\n", name.c_str(),
                   spawned.ToString().c_str());
      token.Cancel();
      master_thread.join();
      runner.Shutdown();
      return 1;
    }
    auto pid = runner.Pid(name);
    std::printf("spawned worker=%s pid=%d\n", name.c_str(),
                pid.ok() ? static_cast<int>(pid.value()) : -1);
    std::fflush(stdout);
    names.push_back(name);
  }

  // Supervisor loop (§6.3): while the study runs, reap worker exits and
  // restart any that died by signal — clean exits mean the worker was
  // retired by the master and is done for good. Each ledger change is
  // printed, so a script can act on the study's progress.
  rafiki::tuning::TrialLedger printed;
  while (!master_done.load(std::memory_order_acquire)) {
    rafiki::tuning::TrialLedger ledger = master.ledger();
    if (ledger != printed) {
      std::printf("progress proposed=%lld completed=%lld lost=%lld "
                  "active=%lld\n",
                  static_cast<long long>(ledger.proposed),
                  static_cast<long long>(ledger.completed),
                  static_cast<long long>(ledger.lost),
                  static_cast<long long>(ledger.active));
      std::fflush(stdout);
      printed = ledger;
    }
    for (const auto& exit : runner.Poll()) {
      if (!exit.signaled) continue;
      rafiki::Status restarted = runner.Restart(exit.name);
      if (restarted.ok()) {
        auto pid = runner.Pid(exit.name);
        std::printf("restarted worker=%s pid=%d restarts=%d\n",
                    exit.name.c_str(),
                    pid.ok() ? static_cast<int>(pid.value()) : -1,
                    runner.RestartCount(exit.name));
        std::fflush(stdout);
      } else {
        std::fprintf(stderr, "cannot restart %s: %s\n", exit.name.c_str(),
                     restarted.ToString().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  master_thread.join();

  // The master retired every worker before finishing, so the remaining
  // processes are draining their kNoMoreTrials and will exit cleanly.
  for (const auto& name : names) {
    if (runner.IsRunning(name)) {
      auto exit = runner.Wait(name);
      if (exit.ok() && exit.value().signaled) {
        std::fprintf(stderr, "worker %s died at shutdown (signal %d)\n",
                     name.c_str(), exit.value().signal);
      }
    }
    std::printf("worker=%s restarts=%d\n", name.c_str(),
                runner.RestartCount(name));
  }
  std::fflush(stdout);

  ps_service.Stop();
  int status = Report(master, master.stats());
  bus.value()->Shutdown();
  return status;
}
