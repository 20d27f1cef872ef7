#pragma once

// Shared plumbing for the bench binaries. Every paper-reproduction binary
// prints the same rows/series the corresponding paper table or figure
// reports, on the simulated workloads described in docs/REPRODUCING.md
// ("Notes on fidelity"). The contract benches write their JSON through
// JsonObject / WriteBenchJson below, to a fixed BENCH_*.json name in the
// working directory.
//
// No bench reads the environment: every size it runs is a constant in the
// code. What several benches share is defined once below — the DS/AB
// contract presets, the trial count and the base seed. A size only one
// bench uses is a constexpr row at the top of that bench, next to the
// baseline it must match; changing one means editing the row and
// re-recording that bench's BENCH_*.json. The one size choice left is
// kSanitized, read from the build: ASan and TSan builds run each bench's
// smaller sanitizer rows.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "humo.h"

namespace humo::bench {

/// True in an AddressSanitizer or ThreadSanitizer build (GCC's
/// __SANITIZE_*__ macros, clang's __has_feature). Such builds are an order
/// of magnitude slower and check memory and races, not throughput, so the
/// contract benches run smaller rows there and relax their speed floors.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// Randomized trials per cell for SAMP/HYBR (the paper averaged 100).
inline constexpr size_t kTrials = 20;
/// Base seed of every bench's sampling.
inline constexpr uint64_t kBaseSeed = 1000;

/// The contract workloads of the streaming, risk, crowd and serving
/// benches: the Fig. 6 DS simulator at 20k pairs, and AB at 60k pairs
/// (serving also runs AB at other sizes).
inline data::PairSimulatorConfig ContractDs() {
  return data::DsConfigSmall(555, 20000);
}
inline data::PairSimulatorConfig ContractAb(size_t pairs = 60000) {
  return data::AbConfigSmall(1234, pairs);
}

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// getrusage high-water mark of the process, in MB.
inline double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One JSON object whose fields print in insertion order. Doubles print
/// with `decimals` fixed digits, or (decimals < 0) in the shortest %g form
/// that reads back to the same double; NaN and infinities print as null,
/// which tools/check_bench_regression.py reports as a missing field.
class JsonObject {
 public:
  void Set(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    Raw(key, quoted + "\"");
  }
  void Set(const std::string& key, const char* value) {
    Set(key, std::string(value));
  }
  void Set(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  void Set(const std::string& key, T value) {
    Raw(key, std::to_string(value));
  }
  void Set(const std::string& key, double value, int decimals = -1) {
    if (!std::isfinite(value)) {
      Raw(key, "null");
      return;
    }
    char buf[64];
    if (decimals >= 0) {
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    } else {
      for (int digits = 15; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
        if (std::strtod(buf, nullptr) == value) break;
      }
    }
    Raw(key, buf);
  }
  /// A nested object, printed on one line.
  void Set(const std::string& key, const JsonObject& value) {
    consistent_ = consistent_ && value.consistent_;
    Raw(key, value.Inline());
  }
  /// An array of rows, one per line. Every row must carry the same keys in
  /// the same order; WriteBenchJson refuses a document where one does not.
  void Set(const std::string& key, const std::vector<JsonObject>& rows) {
    std::string out = "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      consistent_ = consistent_ && rows[i].consistent_ &&
                    rows[i].Keys() == rows.front().Keys();
      out += (i == 0 ? "\n    " : ",\n    ") + rows[i].Inline();
    }
    Raw(key, out + "\n  ]");
  }

  std::string Inline() const { return Join(", ", "{", "}"); }
  /// One field per line: the layout of the committed BENCH_*.json files.
  std::string Document() const { return Join(",\n  ", "{\n  ", "\n}\n"); }
  bool consistent() const { return consistent_; }

 private:
  void Raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
  }
  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    for (const auto& field : fields_) keys.push_back(field.first);
    return keys;
  }
  std::string Join(const char* sep, const char* open,
                   const char* close) const {
    std::string out = open;
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += sep;
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + close;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
  bool consistent_ = true;
};

/// Writes `doc` to `path` (a fixed BENCH_*.json name in the working
/// directory) and reports it on stdout. False, with a message on stderr,
/// when the rows disagree on their keys or the file cannot be written.
inline bool WriteBenchJson(const std::string& path, const JsonObject& doc) {
  if (!doc.consistent()) {
    std::fprintf(stderr, "%s: rows disagree on their keys\n", path.c_str());
    return false;
  }
  std::ofstream out(path);
  out << doc.Document();
  if (!out.flush()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

/// Optimizer factories wired the way §VIII runs them.
inline eval::OptimizerFn MakeBase() {
  return [](const core::SubsetPartition& p, const core::QualityRequirement& r,
            core::Oracle* o) {
    return core::BaselineOptimizer().Optimize(p, r, o);
  };
}

inline eval::OptimizerFn MakeSamp(uint64_t seed) {
  return [seed](const core::SubsetPartition& p,
                const core::QualityRequirement& r, core::Oracle* o) {
    core::PartialSamplingOptions opts;
    opts.seed = seed;
    return core::PartialSamplingOptimizer(opts).Optimize(p, r, o);
  };
}

inline eval::OptimizerFn MakeHybr(uint64_t seed) {
  return [seed](const core::SubsetPartition& p,
                const core::QualityRequirement& r, core::Oracle* o) {
    core::HybridOptions opts;
    opts.sampling.seed = seed;
    return core::HybridOptimizer(opts).Optimize(p, r, o);
  };
}

inline eval::ExperimentSummary RunBase(const core::SubsetPartition& p,
                                       const core::QualityRequirement& req) {
  // BASE is deterministic; a single trial suffices.
  return eval::RunExperiment(
      p, req, [](uint64_t) { return MakeBase(); }, 1, kBaseSeed);
}

inline eval::ExperimentSummary RunSamp(const core::SubsetPartition& p,
                                       const core::QualityRequirement& req) {
  return eval::RunExperiment(
      p, req, [](uint64_t seed) { return MakeSamp(seed); }, kTrials,
      kBaseSeed);
}

inline eval::ExperimentSummary RunHybr(const core::SubsetPartition& p,
                                       const core::QualityRequirement& req) {
  return eval::RunExperiment(
      p, req, [](uint64_t seed) { return MakeHybr(seed); }, kTrials,
      kBaseSeed);
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  std::printf("============================================================\n\n");
}

}  // namespace humo::bench
