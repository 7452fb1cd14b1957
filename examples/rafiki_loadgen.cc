// rafiki_loadgen: replay the paper's sine request process (Equations 8-9)
// against a live rafiki_serve over real TCP, open- or closed-loop, and
// report windowed arrived/completed/overdue/rejected/dropped plus latency
// percentiles.
//
//   ./build/examples/rafiki_loadgen --port=8080 --rate=500 --duration=10
//       --period=60 --target=/jobs/i0/metrics     (one command line)
//   ./build/examples/rafiki_loadgen --port=8080 --closed --connections=8
//
// --fail-on-error makes a non-zero exit when any request failed with a
// transport error or an unexpected status (CI smoke uses this). 503
// (overload shed) and 504 (queue deadline) are load outcomes, not errors;
// they are reported as rejected= and deadline=.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "net/loadgen.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (rafiki::StartsWith(argv[i], prefix)) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

bool FlagSet(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

double FlagDouble(int argc, char** argv, const char* name, double fallback) {
  const char* v = FlagValue(argc, argv, name);
  return v != nullptr ? std::atof(v) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  rafiki::net::LoadGenOptions opts;
  const char* host = FlagValue(argc, argv, "host");
  if (host != nullptr) opts.host = host;
  opts.port = static_cast<uint16_t>(FlagDouble(argc, argv, "port", 0));
  if (opts.port == 0) {
    std::fprintf(stderr,
                 "usage: rafiki_loadgen --port=N [--host=H] [--target=/path]\n"
                 "  [--method=GET|POST] [--body=...] [--rate=R] [--period=T]\n"
                 "  [--duration=S] [--connections=C] [--tau=S] [--window=S]\n"
                 "  [--noise=SD] [--seed=N] [--closed] [--pipeline=D]\n"
                 "  [--fail-on-error]\n");
    return 2;
  }
  const char* target = FlagValue(argc, argv, "target");
  if (target != nullptr) opts.target = target;
  const char* method = FlagValue(argc, argv, "method");
  if (method != nullptr) opts.method = method;
  const char* body = FlagValue(argc, argv, "body");
  if (body != nullptr) opts.body = body;
  opts.open_loop = !FlagSet(argc, argv, "closed");
  opts.duration_seconds = FlagDouble(argc, argv, "duration", 5.0);
  opts.target_rate = FlagDouble(argc, argv, "rate", 500.0);
  opts.sine_period = FlagDouble(argc, argv, "period", 60.0);
  opts.noise_stddev = FlagDouble(argc, argv, "noise", 0.1);
  opts.connections =
      static_cast<int>(FlagDouble(argc, argv, "connections", 4));
  opts.pipeline = static_cast<int>(FlagDouble(argc, argv, "pipeline", 1));
  opts.tau = FlagDouble(argc, argv, "tau", 0.1);
  opts.window_seconds = FlagDouble(argc, argv, "window", 1.0);
  opts.seed = static_cast<uint64_t>(FlagDouble(argc, argv, "seed", 1));

  rafiki::net::LoadGenReport report = rafiki::net::RunLoadGen(opts);
  std::printf("%s", report.ToString().c_str());

  if (report.arrived != report.completed + report.errors + report.dropped) {
    std::fprintf(stderr, "conservation violated: arrived != completed + "
                         "errors + dropped\n");
    return 1;
  }
  if (FlagSet(argc, argv, "fail-on-error") && report.errors > 0) {
    std::fprintf(stderr, "%lld requests failed\n",
                 static_cast<long long>(report.errors));
    return 1;
  }
  return 0;
}
