// The swapgame benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH --out DIR
//
// Untraced runs measure the end-to-end metrics, traced runs the per-layer
// metrics of the layers the workload exercises.  Every metric is printed
// for people first (with the workload's own names), then the last stdout
// line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// run.py completes it against BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep_service|mc_validation|population --seed N --seconds S "
               "--trace 0|1 --daemon PATH --out DIR\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opts;
  opts.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--daemon") {
      opts.daemon_path = value;
    } else if (key == "--out") {
      opts.out_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1) usage("options come in pairs");
  if (!(opts.seconds > 0.0)) usage("--seconds must be > 0");
  if (opts.out_dir.empty()) usage("--out is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  Outcome out;
  try {
    if (opts.workload == "sweep_service") {
      perfbench::run_sweep_service(opts, out);
    } else if (opts.workload == "mc_validation") {
      perfbench::run_mc_validation(opts, out);
    } else if (opts.workload == "population") {
      perfbench::run_population(opts, out);
    } else {
      usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("host: %s\n", perfbench::host_fingerprint().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  for (const auto& [name, m] : out.reported()) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %14.6g %s\n", "failed_share",
              static_cast<double>(out.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(out.attempted(), 1)),
              "ratio");

  for (const auto& [name, m] : out.metrics()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    if (opts.trace) {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()));
  const char* sep = "";
  for (const auto& [name, m] : out.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
