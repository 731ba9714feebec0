// acic_e2ebench — the end-to-end ACIC benchmark binary.
//
//   acic_e2ebench --workload cold_start|app_grid --seed N --seconds S
//                 --trace 0|1 --workdir DIR
//
// Prints human-readable detail on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1 (spans are then written to DIR/../traces/).  Exits 1 when an
// output check failed, 2 on a usage error.  Normally driven by
// e2ebench/run.py, which builds this binary first.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "acic_e2ebench: %s\n"
               "usage: acic_e2ebench --workload cold_start|app_grid "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2e;
  // A cold run must be cold: PB screening always goes through
  // Executor::global(), which arms ACIC_CACHE_DIR on first use and
  // ignores any later arm_store to another directory.
  unsetenv("ACIC_CACHE_DIR");

  Context ctx;
  ctx.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  ctx.self_exe = std::filesystem::canonical("/proc/self/exe").string();
  std::string workload;
  std::string warm_store;
  std::string setup_store;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") workload = value;
      else if (key == "--seed") ctx.seed = std::stoull(value);
      else if (key == "--seconds") ctx.seconds = std::stod(value);
      else if (key == "--trace") ctx.trace = value == "1";
      else if (key == "--workdir") ctx.workdir = value;
      else if (key == "--threads") ctx.threads = std::stoul(value);
      else if (key == "--warm-child") warm_store = value;
      else if (key == "--setup-child") setup_store = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");

  Tracer tracer(ctx.trace);
  ctx.tracer = &tracer;
  if (!warm_store.empty()) return warm_child_main(ctx, warm_store);
  if (!setup_store.empty()) return setup_child_main(ctx, setup_store);
  if (ctx.workdir.empty()) return usage("--workdir is required");
  std::filesystem::create_directories(ctx.workdir);

  Result result;
  Values values;
  try {
    if (workload == "cold_start") run_cold_start(ctx, result, values);
    else if (workload == "app_grid") run_app_grid(ctx, result, values);
    else return usage(("unknown workload '" + workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acic_e2ebench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  if (ctx.trace) {
    for (const char* slot : {"result_s", "rate_per_s", "p50_ms", "tail_ms"}) {
      values[std::string("trace.") + slot] = values[slot];
    }
    values["trace.spans"] = static_cast<double>(tracer.size());
    const auto dir =
        std::filesystem::path(ctx.workdir).parent_path() / "traces";
    std::filesystem::create_directories(dir);
    const auto path =
        dir / (workload + "-seed" + std::to_string(ctx.seed) + ".json");
    tracer.write_chrome_trace(path.string());
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.size(),
                 path.c_str());
    for (const auto& def : kPerLayer) {
      const auto it = values.find(std::string(def.name));
      result.add(std::string(def.name), it == values.end() ? 0.0 : it->second,
                 std::string(def.unit));
    }
  } else {
    for (const auto& def : kEndToEnd) {
      const auto it = values.find(std::string(def.name));
      result.check(it != values.end(),
                   "workload did not measure " + std::string(def.name));
      result.add(std::string(def.name), it == values.end() ? 0.0 : it->second,
                 std::string(def.unit));
    }
  }

  for (const auto& failure : result.check_failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", result.to_json().c_str());
  return result.correct() ? 0 : 1;
}
