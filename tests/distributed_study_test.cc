// End-to-end tests of the distributed tuning plane: the PS-over-bus
// protocol, the checkpoint codec, cross-process blob persistence, exact
// TCP-vs-loopback study parity, and the kill-a-worker-mid-trial recovery
// storm with a balanced trial ledger.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/message_bus.h"
#include "cluster/ps_service.h"
#include "cluster/rpc_bus.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "parking_trainer.h"
#include "ps/checkpoint_codec.h"
#include "ps/parameter_server.h"
#include "storage/blob_store.h"
#include "trainer/surrogate.h"
#include "tuning/study.h"
#include "tuning/trial_advisor.h"

namespace rafiki::tuning {
namespace {

HyperSpace MakeOptimizerSpace() {
  HyperSpace space;
  EXPECT_TRUE(space.AddRangeKnob("learning_rate", KnobDtype::kFloat, 1e-4,
                                 1.0, /*log_scale=*/true)
                  .ok());
  EXPECT_TRUE(
      space.AddRangeKnob("momentum", KnobDtype::kFloat, 0.0, 0.999).ok());
  EXPECT_TRUE(space.AddRangeKnob("init_std", KnobDtype::kFloat, 1e-3, 1.0,
                                 /*log_scale=*/true)
                  .ok());
  return space;
}

ps::ModelCheckpoint MakeCheckpoint(double accuracy) {
  ps::ModelCheckpoint ckpt;
  ckpt.params.emplace_back("fc0/weight",
                           Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  ckpt.params.emplace_back("fc0/bias", Tensor({3}, {0.5f, -0.5f, 0.25f}));
  ckpt.meta.version = 3;
  ckpt.meta.accuracy = accuracy;
  ckpt.meta.visibility = ps::Visibility::kPublic;
  ckpt.meta.owner = "study/test";
  return ckpt;
}

void ExpectSameCheckpoint(const ps::ModelCheckpoint& a,
                          const ps::ModelCheckpoint& b) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i].first, b.params[i].first);
    ASSERT_EQ(a.params[i].second.shape(), b.params[i].second.shape());
    for (int64_t j = 0; j < a.params[i].second.numel(); ++j) {
      EXPECT_EQ(a.params[i].second.data()[j], b.params[i].second.data()[j]);
    }
  }
  EXPECT_EQ(a.meta.version, b.meta.version);
  EXPECT_DOUBLE_EQ(a.meta.accuracy, b.meta.accuracy);
  EXPECT_EQ(a.meta.visibility, b.meta.visibility);
  EXPECT_EQ(a.meta.owner, b.meta.owner);
}

std::string TempDir(const char* tag) {
  std::string dir = StrFormat("/tmp/rafiki_test_%s_%d", tag, getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CheckpointCodecTest, RoundTripsTensorsAndMeta) {
  ps::ModelCheckpoint ckpt = MakeCheckpoint(0.91);
  std::string bytes = ps::SerializeCheckpoint(ckpt);
  auto decoded = ps::DeserializeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameCheckpoint(ckpt, decoded.value());
}

TEST(CheckpointCodecTest, RejectsTruncationAndTrailingGarbage) {
  std::string bytes = ps::SerializeCheckpoint(MakeCheckpoint(0.5));
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    EXPECT_FALSE(
        ps::DeserializeCheckpoint(std::string_view(bytes.data(), cut)).ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(ps::DeserializeCheckpoint(bytes + "z").ok());
}

TEST(CheckpointCodecTest, FuzzedBytesNeverCrash) {
  Rng rng(123);
  std::string bytes = ps::SerializeCheckpoint(MakeCheckpoint(0.5));
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = bytes;
    for (int f = 0; f < 3; ++f) {
      mutated[rng.Next64() % mutated.size()] ^=
          static_cast<char>(1 + rng.Next64() % 255);
    }
    (void)ps::DeserializeCheckpoint(mutated);
  }
}

TEST(PsServiceTest, RemoteStoreRoundTripsOverLoopback) {
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  cluster::PsService service(&bus, &ps);
  ASSERT_TRUE(service.Start().ok());

  cluster::RemoteParameterStore remote(&bus, "w0");
  ps::ModelCheckpoint ckpt = MakeCheckpoint(0.7);
  ASSERT_TRUE(remote.PutModel("scope/a", ckpt).ok());
  auto got = remote.GetModel("scope/a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameCheckpoint(ckpt, got.value());

  // Misses surface as NotFound (the warm-start probe path), not a timeout.
  auto miss = remote.GetModel("scope/none");
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(miss.status().IsNotFound());
  EXPECT_GE(service.requests_served(), 3u);
  service.Stop();
}

TEST(PsServiceTest, RemoteStoreRoundTripsOverTcp) {
  auto hub = cluster::RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  ps::ParameterServer ps;
  cluster::PsService service(hub.value().get(), &ps);
  ASSERT_TRUE(service.Start().ok());

  cluster::RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = cluster::RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());

  cluster::RemoteParameterStore remote(leaf.value().get(), "w0");
  ps::ModelCheckpoint ckpt = MakeCheckpoint(0.66);
  ASSERT_TRUE(remote.PutModel("scope/tcp", ckpt).ok());
  auto got = remote.GetModel("scope/tcp");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameCheckpoint(ckpt, got.value());
  // The same scope is visible to the master-side in-process PS: one store.
  EXPECT_TRUE(ps.GetModel("scope/tcp").ok());
  service.Stop();
}

TEST(BlobStoreTest, PersistsAcrossInstances) {
  // Two BlobStore instances on one directory model a master process dying
  // and its successor reading the checkpoints back from disk.
  std::string dir = TempDir("blob");
  std::vector<uint8_t> value{1, 2, 3, 250, 0, 9};
  {
    storage::BlobStore writer(0, dir);
    ASSERT_TRUE(writer.Put("study/s/master_ckpt", value).ok());
  }
  storage::BlobStore reader(0, dir);
  EXPECT_FALSE(reader.Exists("study/s/master_ckpt"));  // memory is empty
  auto got = reader.Get("study/s/master_ckpt");        // disk is not
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), value);
  // Keys with separators escape to flat filenames; no subdirs appear.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_regular_file());
  }
  std::filesystem::remove_all(dir);
}

StudyConfig ParityConfig() {
  StudyConfig config;
  config.max_trials = 6;
  config.max_epochs_per_trial = 20;
  config.collaborative = false;
  // The worker waits for the verdict on each report, so a kStop lands on
  // the epoch that earned it over either transport. With these settings
  // some trials stop early and some run all 20 epochs.
  config.early_stop_patience = 2;
  return config;
}

StudyStats RunOverTcp(StudyConfig config, uint64_t seed) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, config.max_trials, /*seed=*/3);
  auto hub = cluster::RpcBus::Listen({});
  EXPECT_TRUE(hub.ok());
  ps::ParameterServer ps;
  cluster::PsService service(hub.value().get(), &ps);
  EXPECT_TRUE(service.Start().ok());

  config.num_workers = 1;
  StudyMaster master("parity", config, &advisor, hub.value().get(), nullptr);
  std::thread master_thread([&] {
    cluster::CancelToken token;
    master.Run(token);
  });

  cluster::RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = cluster::RpcBus::Connect(opts);
  EXPECT_TRUE(leaf.ok());
  cluster::RemoteParameterStore remote(leaf.value().get(), "w0");
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  Rng seeds(seed);
  StudyWorker worker("parity", "w0", config, &factory, leaf.value().get(),
                     &remote, seeds.Fork().Next64());
  cluster::CancelToken token;
  worker.Run(token);
  master_thread.join();
  service.Stop();
  return master.stats();
}

StudyStats RunOverLoopback(StudyConfig config, uint64_t seed) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, config.max_trials, /*seed=*/3);
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  return RunStudy("parity", config, &advisor, &factory, &bus, &ps, nullptr,
                  /*num_workers=*/1, seed);
}

TEST(DistributedStudyTest, TcpStudyMatchesLoopbackBitForBit) {
  StudyConfig config = ParityConfig();
  StudyStats tcp = RunOverTcp(config, /*seed=*/11);
  StudyStats local = RunOverLoopback(config, /*seed=*/11);
  ASSERT_EQ(tcp.trials.size(), local.trials.size());
  EXPECT_EQ(tcp.best_performance, local.best_performance);  // exact
  EXPECT_EQ(tcp.best_trial.Encode(), local.best_trial.Encode());
  EXPECT_EQ(tcp.total_epochs, local.total_epochs);
  int early_stopped = 0;
  for (size_t i = 0; i < tcp.trials.size(); ++i) {
    EXPECT_EQ(tcp.trials[i].trial_id, local.trials[i].trial_id);
    EXPECT_EQ(tcp.trials[i].performance, local.trials[i].performance);
    EXPECT_EQ(tcp.trials[i].epochs, local.trials[i].epochs);
    if (tcp.trials[i].epochs < config.max_epochs_per_trial) ++early_stopped;
  }
  EXPECT_GT(early_stopped, 0) << "the parity input must exercise kStop";
}

TEST(DistributedStudyTest, CollaborativeTcpStudySharesCheckpoints) {
  StudyConfig config;
  config.max_trials = 5;
  config.max_epochs_per_trial = 8;
  config.collaborative = true;
  config.delta = 0.0;
  config.num_workers = 1;

  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, config.max_trials, /*seed=*/5);
  auto hub = cluster::RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  ps::ParameterServer ps;
  cluster::PsService service(hub.value().get(), &ps);
  ASSERT_TRUE(service.Start().ok());
  StudyMaster master("co", config, &advisor, hub.value().get(), nullptr);
  std::thread master_thread([&] {
    cluster::CancelToken token;
    master.Run(token);
  });

  cluster::RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = cluster::RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());
  cluster::RemoteParameterStore remote(leaf.value().get(), "w0");
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  StudyWorker worker("co", "w0", config, &factory, leaf.value().get(),
                     &remote, /*seed=*/21);
  cluster::CancelToken token;
  worker.Run(token);
  master_thread.join();
  service.Stop();

  // kPut-gated publication flowed across the wire into the master's PS.
  auto best = ps.GetModel(master.best_scope());
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_GT(best.value().meta.accuracy, 0.0);
  EXPECT_EQ(master.stats().trials.size(), 5u);
}

TEST(DistributedStudyTest, KillStormBalancesLedger) {
  // The recovery storm: workers over real TCP leaves are repeatedly
  // "killed" mid-trial (their bus torn down, thread cancelled) and
  // replaced, exactly what the process supervisor does with SIGKILL. At
  // the end the ledger must balance: proposed == completed + lost, with one
  // lost trial per kill.
  StudyConfig config;
  config.max_trials = 12;
  config.max_epochs_per_trial = 12;
  config.collaborative = true;
  config.delta = 0.0;
  config.num_workers = 2;

  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, config.max_trials, /*seed=*/17);
  auto hub = cluster::RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  ps::ParameterServer ps;
  cluster::PsService service(hub.value().get(), &ps);
  ASSERT_TRUE(service.Start().ok());
  StudyMaster master("storm", config, &advisor, hub.value().get(), nullptr);
  std::thread master_thread([&] {
    cluster::CancelToken token;
    master.Run(token);
  });

  struct WorkerProc {
    std::unique_ptr<cluster::RpcBus> bus;
    std::unique_ptr<cluster::RemoteParameterStore> store;
    std::unique_ptr<trainer::SurrogateFactory> factory;
    std::unique_ptr<trainer::ParkingFactory> parking;
    std::unique_ptr<StudyWorker> body;
    std::unique_ptr<cluster::CancelToken> token;
    std::thread thread;
  };
  // A worker that parks in epoch `park_at` (0: never), so a kill lands
  // mid-trial.
  auto start_worker = [&](const std::string& name, uint64_t seed,
                          int park_at) -> WorkerProc {
    WorkerProc p;
    cluster::RpcBusOptions opts;
    opts.port = hub.value()->port();
    auto leaf = cluster::RpcBus::Connect(opts);
    EXPECT_TRUE(leaf.ok());
    p.bus = std::move(leaf.value());
    p.store = std::make_unique<cluster::RemoteParameterStore>(p.bus.get(),
                                                              name);
    p.factory = std::make_unique<trainer::SurrogateFactory>(
        trainer::SurrogateOptions{});
    p.parking =
        std::make_unique<trainer::ParkingFactory>(p.factory.get(), park_at);
    p.body = std::make_unique<StudyWorker>("storm", name, config,
                                           p.parking.get(), p.bus.get(),
                                           p.store.get(), seed);
    p.token = std::make_unique<cluster::CancelToken>();
    StudyWorker* body = p.body.get();
    cluster::CancelToken* token = p.token.get();
    trainer::ParkingFactory* parking = p.parking.get();
    p.thread = std::thread([body, token, parking] {
      body->Run(*token);
      parking->WorkerDone();
    });
    return p;
  };
  auto kill_worker = [](WorkerProc& p) {
    // Mirror SIGKILL as closely as threads allow: sever the TCP link
    // first so in-flight sends fail, then cancel, let the parked epoch
    // return into the cancelled body, and join it.
    p.bus->Shutdown();
    p.token->Cancel();
    p.parking->Release();
    p.thread.join();
    // Destroy in dependency order before the slot is reassigned: the
    // store's destructor talks to the bus, so it must go first (plain
    // move-assignment would free the bus before the store).
    p.body.reset();
    p.store.reset();
    p.bus.reset();
  };

  // Every trial runs at least patience + 1 epochs, so each w1 parks in the
  // middle of its first trial.
  constexpr int kParkAt = 2;
  constexpr int kMaxKills = 3;
  WorkerProc w0 = start_worker("w0", 1001, /*park_at=*/0);
  WorkerProc w1 = start_worker("w1", 1002, kParkAt);

  // Storm: kill w1 each time it is mid-trial and replace it, until the
  // budget runs out under w1 (it retires without parking). The last
  // replacement never parks.
  int kills = 0;
  while (kills < kMaxKills && w1.parking->WaitParked()) {
    kill_worker(w1);
    ++kills;
    w1 = start_worker("w1", 2000 + kills,
                      kills < kMaxKills ? kParkAt : 0);
  }

  w0.thread.join();
  w1.thread.join();
  master_thread.join();
  service.Stop();

  TrialLedger ledger = master.ledger();
  EXPECT_GE(kills, 1);
  EXPECT_EQ(ledger.lost, kills);
  EXPECT_EQ(ledger.active, 0);
  EXPECT_EQ(ledger.proposed, ledger.completed + ledger.lost);
  EXPECT_EQ(ledger.completed,
            static_cast<int64_t>(master.stats().trials.size()));
  // Every proposal the advisor issued is accounted for.
  EXPECT_EQ(ledger.proposed, config.max_trials);
}

TEST(DistributedStudyTest, MasterCheckpointSurvivesProcessBoundary) {
  // A full study checkpoints into a persisted BlobStore; a second store on
  // the same directory (the restarted master process) restores the ledger
  // and best-trial state.
  std::string dir = TempDir("master_ckpt");
  StudyConfig config = ParityConfig();
  config.checkpoint_every_events = 1;
  config.num_workers = 1;

  HyperSpace space = MakeOptimizerSpace();
  double best = 0.0;
  int64_t proposed = 0;
  {
    RandomSearchAdvisor advisor(&space, config.max_trials, /*seed=*/3);
    cluster::MessageBus bus;
    ps::ParameterServer ps;
    storage::BlobStore store(0, dir);
    trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
    StudyStats stats = RunStudy("rec", config, &advisor, &factory, &bus, &ps,
                                &store, 1, /*seed=*/13);
    best = stats.best_performance;
    proposed = static_cast<int64_t>(stats.trials.size());
    ASSERT_GT(proposed, 0);
  }
  // "New process": fresh store object, fresh master, same directory.
  RandomSearchAdvisor advisor(&space, config.max_trials, /*seed=*/3);
  cluster::MessageBus bus;
  storage::BlobStore store(0, dir);
  StudyMaster restored("rec", config, &advisor, &bus, &store);
  ASSERT_TRUE(restored.RestoreFromCheckpoint().ok());
  EXPECT_EQ(restored.stats().best_performance, best);
  TrialLedger ledger = restored.ledger();
  EXPECT_EQ(ledger.proposed, proposed);
  EXPECT_EQ(ledger.completed + ledger.lost, proposed);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rafiki::tuning
