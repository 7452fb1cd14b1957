// The tuning workload: collaborative BayesOpt studies (Algorithm 2) over the
// real SGD trainer, with the in-process bus and parameter server that
// Rafiki::Train uses, each with a fixed trial budget.

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "cluster/message_bus.h"
#include "data/dataset.h"
#include "nn/net.h"
#include "probes.h"
#include "ps/parameter_server.h"
#include "storage/blob_store.h"
#include "trace.h"
#include "trainer/real_trainer.h"
#include "tuning/bayes_opt.h"
#include "tuning/study.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace tuning = rafiki::tuning;

constexpr int64_t kTrialBudget = 16;
/// Every trial trains exactly this many epochs: early stopping is off
/// (patience = budget) and the width is fixed, so each study does the same
/// work. With Rafiki::Train's defaults (40 epochs, patience 5, widths
/// 32/64/128) the work per study moved +-20% between identical runs with
/// thread timing alone, which no 10-run comparison could resolve.
constexpr int kEpochsPerTrial = 10;
constexpr int kWorkers = 2;
/// Set-ups per untraced run (about 5 ms each); setup_s is their median.
constexpr int kSetups = 50;

/// Set-up product: the training/validation splits and the search space.
struct TuneInputs {
  rafiki::data::Dataset train;
  rafiki::data::Dataset validation;
  tuning::HyperSpace space;
};

/// The search space Rafiki::Train gives its built-in MLP trainer (the
/// paper's group-3 optimization knobs), with the hidden width fixed.
void AddDefaultKnobs(tuning::HyperSpace* space) {
  RAFIKI_CHECK_OK(space->AddRangeKnob("learning_rate", tuning::KnobDtype::kFloat,
                                      1e-3, 0.5, /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space->AddRangeKnob("momentum", tuning::KnobDtype::kFloat, 0.0, 0.99));
  RAFIKI_CHECK_OK(space->AddRangeKnob("weight_decay", tuning::KnobDtype::kFloat,
                                      1e-6, 1e-2, /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space->AddRangeKnob("dropout", tuning::KnobDtype::kFloat, 0.0, 0.5));
  RAFIKI_CHECK_OK(space->AddRangeKnob("init_std", tuning::KnobDtype::kFloat,
                                      1e-2, 0.5, /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space->AddNumericCategoricalKnob("hidden_units", {64}));
}

/// A synthetic task the tuned MLPs do not saturate, so the search has
/// somewhere to go. Task and split are fixed: another split moved the best
/// accuracy by several percent between runs.
std::unique_ptr<TuneInputs> MakeInputs() {
  auto in = std::make_unique<TuneInputs>();
  rafiki::data::SyntheticTaskOptions task;
  task.num_classes = 10;
  task.samples_per_class = 250;
  task.input_dim = 32;
  task.separation = 2.0;
  task.seed = 2018;
  rafiki::Rng rng(2018);
  rafiki::data::DataSplits splits = rafiki::data::SplitDataset(
      rafiki::data::MakeSyntheticTask(task), 0.7, 0.15, rng);
  in->train = std::move(splits.train);
  in->validation = std::move(splits.validation);
  AddDefaultKnobs(&in->space);
  return in;
}

/// Notes every trial the master is handed, independently of the study's
/// trial records, so the ledger can be checked against them, and the time
/// between consecutive results of each trial (the first from its
/// proposal). Installed in every run (an uncontended lock per call); the
/// timing decorator wraps it in traced runs.
class ProposalLog : public tuning::TrialAdvisor {
 public:
  struct Entry {
    int64_t id = 0;
    int64_t last_ns = 0;  // proposal, then the latest result
  };

  explicit ProposalLog(tuning::TrialAdvisor* inner) : inner_(inner) {}

  std::optional<tuning::Trial> Next(const std::string& worker) override {
    std::optional<tuning::Trial> trial = inner_->Next(worker);
    if (trial.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.push_back({trial->id(), NowNs()});
    }
    return trial;
  }
  /// Called for every epoch report and once when the trial finishes.
  void Collect(const std::string& worker, double performance,
               const tuning::Trial& trial) override {
    inner_->Collect(worker, performance, trial);
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& e : entries_) {
      if (e.id != trial.id()) continue;
      intervals_s_.push_back(static_cast<double>(now - e.last_ns) / 1e9);
      e.last_ns = now;
    }
  }
  bool IsBest(const std::string& worker) const override {
    return inner_->IsBest(worker);
  }
  std::optional<tuning::TrialResult> BestTrial() const override {
    return inner_->BestTrial();
  }
  std::vector<tuning::TrialResult> Results() const override {
    return inner_->Results();
  }
  std::string name() const override { return inner_->name(); }

  /// The proposed trials, in proposal order.
  std::vector<Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }
  std::vector<double> result_intervals_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return intervals_s_;
  }

 private:
  tuning::TrialAdvisor* inner_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<double> intervals_s_;
};

struct StudyRun {
  double wall_s = 0.0;
  tuning::StudyStats stats;
  int64_t proposed = 0;
  int64_t lost = 0;
  /// Seconds between consecutive results of a trial (see ProposalLog).
  std::vector<double> result_intervals_s;
};

StudyRun RunOne(const TuneInputs& in, uint64_t seed, int index,
                bool decorated, Outcome* out) {
  tuning::BayesOptOptions bo;
  bo.max_trials = kTrialBudget;
  bo.seed = seed;
  tuning::BayesOptAdvisor bayes_opt(&in.space, bo);
  ProposalLog advisor(&bayes_opt);
  rafiki::trainer::RealTrainerOptions trainer_options;
  trainer_options.seed = seed;
  rafiki::trainer::RealTrainerFactory factory(&in.train, &in.validation,
                                              trainer_options);
  rafiki::cluster::MessageBus bus;
  rafiki::ps::ParameterServer ps;
  rafiki::storage::BlobStore store;
  TimedAdvisor timed_advisor(&advisor);
  TimedTrainerFactory timed_factory(&factory);
  TimedBus timed_bus(&bus);
  TimedStore timed_store(&ps);

  tuning::StudyConfig config;
  config.max_trials = kTrialBudget;
  config.max_epochs_per_trial = kEpochsPerTrial;
  config.early_stop_patience = kEpochsPerTrial;
  config.collaborative = true;
  Tracer& tracer = GlobalTracer();
  uint64_t span = tracer.NextId();
  SetTuningParent(span);
  StudyRun run;
  int64_t t0 = NowNs();
  run.stats = tuning::RunStudy(
      "bench" + std::to_string(index), config,
      decorated ? static_cast<tuning::TrialAdvisor*>(&timed_advisor)
                : &advisor,
      decorated ? static_cast<rafiki::trainer::TrainerFactory*>(&timed_factory)
                : &factory,
      decorated ? static_cast<rafiki::cluster::Bus*>(&timed_bus) : &bus,
      decorated ? static_cast<rafiki::ps::ParameterStore*>(&timed_store) : &ps,
      &store, kWorkers, seed);
  int64_t t1 = NowNs();
  tracer.Record(SpanName::kStudy, t0, t1, 0, 0, 0.0, span);
  run.wall_s = static_cast<double>(t1 - t0) / 1e9;

  // Trial ledger: proposals are counted at the advisor, completions are the
  // study's trial records, and a proposed trial without a record was lost.
  // The identity fails if a trial is recorded twice, a record has no
  // proposal, or one id is proposed twice.
  std::set<int64_t> recorded;
  for (const tuning::TrialRecord& t : run.stats.trials) {
    recorded.insert(t.trial_id);
  }
  std::set<int64_t> proposed;
  for (const ProposalLog::Entry& e : advisor.entries()) {
    ++run.proposed;
    if (proposed.insert(e.id).second && recorded.count(e.id) == 0) ++run.lost;
  }
  run.result_intervals_s = advisor.result_intervals_s();
  int64_t completed = static_cast<int64_t>(run.stats.trials.size());
  out->Check(run.proposed == completed + run.lost,
             "ledger proposed " + std::to_string(run.proposed) +
                 " != completed " + std::to_string(completed) + " + lost " +
                 std::to_string(run.lost));
  out->Check(completed == kTrialBudget,
             "study finished " + std::to_string(completed) + " of " +
                 std::to_string(kTrialBudget) + " trials");
  out->Check(static_cast<int64_t>(bayes_opt.Results().size()) == completed,
             "advisor results disagree with the study's trial records");
  out->Check(run.stats.best_performance > 0.0 &&
                 run.stats.best_performance <= 1.0,
             "best accuracy out of range");
  return run;
}

struct Phase {
  std::vector<StudyRun> studies;
  ProcUsage usage_before;
  ProcUsage usage_after;

  double wall() const {
    double s = 0.0;
    for (const StudyRun& r : studies) s += r.wall_s;
    return s;
  }
  int64_t epochs() const {
    int64_t e = 0;
    for (const StudyRun& r : studies) e += r.stats.total_epochs;
    return e;
  }
};

/// Runs whole studies back to back until `seconds` have elapsed or
/// `max_studies` have run (at least one). Study i is configured with job
/// seed i + 1 (TrainConfig's `seed`: advisor and trainer randomness), so
/// every run does the same work; seeding it from the run seed widened the
/// run-to-run spread of study wall time from 4% to 8%.
Phase RunStudies(const TuneInputs& in, double seconds, size_t max_studies,
                 bool decorated, Outcome* out) {
  Phase p;
  p.usage_before = ReadProcUsage();
  int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    int index = static_cast<int>(p.studies.size());
    auto study_seed = static_cast<uint64_t>(index + 1);
    p.studies.push_back(RunOne(in, study_seed, index, decorated, out));
  } while (NowNs() < end && p.studies.size() < max_studies);
  p.usage_after = ReadProcUsage();
  return p;
}

void PerLayer(const Phase& p, Outcome* out) {
  std::vector<Span> spans = GlobalTracer().Collect();
  std::vector<int64_t> next, collect, epoch, init_ckpt, checkpoint, put, get,
      send;
  double epoch_busy = 0.0;
  double wait = 0.0;
  double put_bytes = 0.0;
  for (const Span& s : spans) {
    int64_t d = s.end_ns - s.start_ns;
    switch (s.name) {
      case SpanName::kAdvisorNext: next.push_back(d); break;
      case SpanName::kAdvisorCollect: collect.push_back(d); break;
      case SpanName::kEpoch:
        epoch.push_back(d);
        epoch_busy += static_cast<double>(d);
        break;
      case SpanName::kInitCkpt: init_ckpt.push_back(d); break;
      case SpanName::kCheckpoint: checkpoint.push_back(d); break;
      case SpanName::kPsPut:
        put.push_back(d);
        put_bytes += s.value;
        break;
      case SpanName::kPsGet: get.push_back(d); break;
      case SpanName::kBusSend: send.push_back(d); break;
      case SpanName::kBusWait: wait += static_cast<double>(d); break;
      default: break;
    }
  }
  std::vector<int64_t> self = SelfTimesNs(spans);
  double study_total = 0.0;
  double study_self = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != SpanName::kStudy) continue;
    study_total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    study_self += static_cast<double>(self[i]);
  }
  int64_t trials = 0;
  int64_t early = 0;
  int64_t warm = 0;
  for (const StudyRun& r : p.studies) {
    for (const tuning::TrialRecord& t : r.stats.trials) {
      ++trials;
      if (t.epochs < kEpochsPerTrial) ++early;
      if (t.warm_started) ++warm;
    }
  }
  double worker_ns = p.wall() * 1e9 * kWorkers;
  double ops = std::max<double>(1.0, static_cast<double>(p.epochs()));
  auto share = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  auto add = [&](const char* name, double v, const char* unit) {
    out->per_layer.push_back({name, v, unit});
  };
  add("tuning.next_p50_us", Quantile(ToMicros(next), 0.5), "us");
  add("tuning.next_max_us", Quantile(ToMicros(next), 1.0), "us");
  add("tuning.collect_us", Mean(ToMicros(collect)), "us");
  add("tuning.trials", static_cast<double>(trials), "count");
  add("tuning.early_stopped_share", share(early, trials), "share");
  add("tuning.warm_start_share", share(warm, trials), "share");
  add("trainer.epoch_p50_ms", Quantile(ToMicros(epoch), 0.5) / 1e3, "ms");
  add("trainer.epochs", static_cast<double>(epoch.size()), "count");
  add("trainer.busy_share", epoch_busy / worker_ns, "share");
  add("trainer.init_ckpt_p50_us", Quantile(ToMicros(init_ckpt), 0.5), "us");
  add("trainer.checkpoint_p50_us", Quantile(ToMicros(checkpoint), 0.5), "us");
  add("ps.put_p50_us", Quantile(ToMicros(put), 0.5), "us");
  add("ps.get_p50_us", Quantile(ToMicros(get), 0.5), "us");
  add("ps.puts", static_cast<double>(put.size()), "count");
  add("ps.gets", static_cast<double>(get.size()), "count");
  add("ps.put_mb", put_bytes / 1e6, "MB");
  add("cluster.send_p50_us", Quantile(ToMicros(send), 0.5), "us");
  add("cluster.messages", static_cast<double>(send.size()), "count");
  add("cluster.worker_wait_share", wait / worker_ns, "share");
  // The tuned model's shape: 32 -> 64 -> 10.
  rafiki::Rng rng(1);
  std::vector<rafiki::nn::Net> nets;
  nets.push_back(rafiki::nn::MakeMlp({32, 64, 10}, 0.05f, 0.0f, rng));
  add("nn.forward_b1_us", ForwardMicros(nets, 32, 1), "us");
  add("nn.forward_b32_us", ForwardMicros(nets, 32, 32), "us");
  add("proc.cpu_us_per_op",
      (p.usage_after.cpu_us - p.usage_before.cpu_us) / ops, "us/op");
  add("proc.ctx_switches_per_op",
      (p.usage_after.ctx_switches - p.usage_before.ctx_switches) / ops,
      "count/op");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  add("trace.study_self_share",
      study_total > 0 ? study_self / study_total : 0.0, "share");
}

void Ledger(const Phase& p, Outcome* out) {
  for (const StudyRun& r : p.studies) {
    out->attempted += r.proposed;
    out->failed += r.lost;
  }
}

}  // namespace

bool IsTuneWorkload(const std::string& name) { return name == "tune_costudy"; }

void RunTune(const RunOptions& o, Outcome* out) {
  if (!o.trace) {
    // Set-up: generate and split the dataset, build the search space.
    std::vector<double> setups;
    std::unique_ptr<TuneInputs> in;
    for (int i = 0; i < kSetups; ++i) {
      int64_t t0 = NowNs();
      in = MakeInputs();
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    Phase p = RunStudies(*in, o.seconds, SIZE_MAX, false, out);
    Ledger(p, out);
    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<double> best;
    std::vector<double> intervals;
    for (const StudyRun& r : p.studies) {
      walls.push_back(r.wall_s);
      rates.push_back(static_cast<double>(r.stats.total_epochs) / r.wall_s);
      best.push_back(r.stats.best_performance);
      intervals.insert(intervals.end(), r.result_intervals_s.begin(),
                       r.result_intervals_s.end());
    }
    double setup_s = Quantile(setups, 0.5);
    double epochs_per_s = Quantile(rates, 0.5);
    double wall_p50 = Quantile(walls, 0.5);
    double interval_p99 = Quantile(intervals, 0.99);
    double completed = static_cast<double>(out->attempted - out->failed) /
                       std::max<double>(1.0, static_cast<double>(out->attempted));
    double best_acc = Quantile(best, 0.5);
    double rss = ReadProcUsage().max_rss_mb;
    out->end_to_end = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s", epochs_per_s, "1/s"},
        {"latency_p50_ms", wall_p50 * 1e3, "ms"},
        {"latency_p99_ms", interval_p99 * 1e3, "ms"},
        {"slo_attainment", completed, "share"},
        {"accuracy", best_acc, "share"},
        {"rss_mb", rss, "MB"},
    };
    out->detail = {
        {"setup_s", setup_s, "s"},
        {"tune_wall_s", wall_p50, "s"},
        {"tune_wall_max_s", Quantile(walls, 1.0), "s"},
        {"result_interval_p50_ms", Quantile(intervals, 0.5) * 1e3, "ms"},
        {"result_interval_p99_ms", interval_p99 * 1e3, "ms"},
        {"result_intervals", static_cast<double>(intervals.size()), "count"},
        {"tune_epochs_per_s", epochs_per_s, "1/s"},
        {"tune_best_acc", best_acc, "share"},
        {"failed_share", 1.0 - completed, "share"},
        {"rss_mb", rss, "MB"},
        {"studies", static_cast<double>(p.studies.size()), "count"},
        {"trial_budget", static_cast<double>(kTrialBudget), "count"},
        {"trials_proposed", static_cast<double>(out->attempted), "count"},
        {"trials_lost", static_cast<double>(out->failed), "count"},
    };
    return;
  }

  // Traced run: studies for half the window on the plain objects, then the
  // same studies (same seeds) decorated; the wall-time ratio of the two
  // passes over the same work is the tracing overhead.
  std::unique_ptr<TuneInputs> in = MakeInputs();
  Phase plain = RunStudies(*in, o.seconds / 2, SIZE_MAX, false, out);
  Tracer& tracer = GlobalTracer();
  tracer.Clear();
  tracer.set_enabled(true);
  Phase traced =
      RunStudies(*in, o.seconds, plain.studies.size(), true, out);
  tracer.set_enabled(false);
  out->Check(tracer.dropped() == 0, "span buffer full");
  Ledger(plain, out);
  Ledger(traced, out);
  PerLayer(traced, out);
  out->per_layer.push_back(
      {"trace.overhead_share", traced.wall() / plain.wall() - 1.0, "share"});
  if (!o.trace_out.empty()) {
    out->Check(WriteSpans(tracer.Collect(), o.trace_out, 200000),
               "could not write " + o.trace_out);
  }
}

}  // namespace perfbench
