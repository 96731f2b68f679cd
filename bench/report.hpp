// Small fixed-width table printer shared by the reproduction benches.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aead/ghash.hpp"
#include "aes/aes128.hpp"
#include "bigint/mont.hpp"
#include "bigint/mont52.hpp"
#include "hash/sha256.hpp"

namespace ecqv::bench {

/// CPU provenance for committed snapshots: the machine the numbers came
/// from — logical core count, the ISA extensions the throughput engine keys
/// its dispatch on, and which tiers are actually active (raw flag minus the
/// ECQV_DISABLE_* kill switches). Without this, a BENCH_*.json from a
/// portable-only box is indistinguishable from an ADX+IFMA run. Key/value
/// form so the google-benchmark suites can feed AddCustomContext.
inline std::vector<std::pair<std::string, std::string>> cpu_context_pairs() {
#if defined(__x86_64__) || defined(_M_X64)
  const bool bmi2 = __builtin_cpu_supports("bmi2") != 0;
  const bool adx = __builtin_cpu_supports("adx") != 0;
  const bool ifma =
      __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512ifma") != 0;
  const bool aesni = __builtin_cpu_supports("aes") != 0;
  const bool clmul = __builtin_cpu_supports("pclmul") != 0;
  const bool sha_ni = __builtin_cpu_supports("sha") != 0;
#else
  const bool bmi2 = false, adx = false, ifma = false, aesni = false, clmul = false,
             sha_ni = false;
#endif
  auto b = [](bool v) -> std::string { return v ? "true" : "false"; };
  return {{"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
          {"bmi2", b(bmi2)},
          {"adx", b(adx)},
          {"avx512ifma", b(ifma)},
          {"aesni", b(aesni)},
          {"pclmul", b(clmul)},
          {"sha_ni", b(sha_ni)},
          {"adx_kernels_active", b(bi::mont_asm_available())},
          {"ifma_lane_active", b(bi::mont8_hw_available())},
          {"aesni_active", b(aes::aes_hw_available())},
          {"clmul_active", b(aead::ghash_hw_available())},
          {"shani_active", b(hash::sha_hw_available())}};
}

/// Same provenance as a raw JSON fragment (leading ", ") for the
/// JsonSnapshot context object.
inline std::string cpu_context_json() {
  std::string out = ", \"cpu\": {";
  bool first = true;
  for (const auto& [key, value] : cpu_context_pairs()) {
    if (!first) out += ", ";
    first = false;
    // Every value is a bare JSON literal (number or boolean) — no quoting.
    out += "\"" + key + "\": " + value;
  }
  out += "}";
  return out;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_)
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
        widths[i] = std::max(widths[i], row[i].size());
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (const auto w : widths) std::printf("%s|", std::string(w + 2, '-').c_str());
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double value, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

inline std::string fmt_ratio(double model, double paper) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (model - paper) / paper);
  return buf;
}

inline void section(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

/// google-benchmark-shaped JSON snapshot ({"context": {...}, "benchmarks":
/// [{name, iterations, real_time, ...}]}) shared by the plain-main
/// reproduction benches (bench_fleet, bench_concurrency, bench_fig7) so
/// every committed BENCH_*.json stays comparable by the snippets in
/// tools/run_bench.sh. Times are microseconds (the suites declare
/// time_unit "us"); notes land in the "label" field.
class JsonSnapshot {
 public:
  void add(std::string name, std::size_t iterations, double real_time_us,
           std::string note = {}) {
    entries_.push_back(Entry{std::move(name), iterations, real_time_us, std::move(note)});
  }

  /// Writes the snapshot. `extra_context` is a raw JSON fragment appended
  /// inside the context object; start it with ", " when non-empty. CPU
  /// provenance (cpu_context_json) is stamped into every snapshot.
  void write(const char* path, const char* suite, const std::string& extra_context = {}) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return;
    }
    std::fprintf(f, "{\n  \"context\": {\"suite\": \"%s\", \"time_unit\": \"us\"%s%s},\n", suite,
                 cpu_context_json().c_str(), extra_context.c_str());
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"iterations\": %zu, \"real_time\": %.3f, "
                   "\"cpu_time\": %.3f, \"time_unit\": \"us\"%s%s%s}%s\n",
                   e.name.c_str(), e.iterations, e.real_time_us, e.real_time_us,
                   e.note.empty() ? "" : ", \"label\": \"", e.note.c_str(),
                   e.note.empty() ? "" : "\"", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
  }

 private:
  struct Entry {
    std::string name;
    std::size_t iterations;
    double real_time_us;
    std::string note;
  };
  std::vector<Entry> entries_;
};

}  // namespace ecqv::bench
