// Clock, CPU-time, quantile and record-payload helpers shared by the
// benchmark's files. Nothing here calls the library.
#pragma once

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

namespace perfbench {

/// Load-generator threads. One generator spends about as much CPU per
/// handshake, and more per record, as the server does; with two the
/// generators still fall behind whenever the server runs fast, and the
/// latency figures then measure the generators' queue. Three keep the
/// server the only bottleneck, so a closed loop's latency follows its
/// throughput.
inline constexpr int kGenerators = 3;

/// Steady clock in nanoseconds, one epoch for every thread of the process.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of `thread` so far: the accounting
/// getrusage(RUSAGE_THREAD) reports, read through the thread's CPU clock so
/// another thread can sample it at an exact instant.
inline double thread_cpu_s(std::thread& thread) {
  clockid_t clock{};
  timespec ts{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &ts) != 0)
    return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The q-quantile (0..1) by linear interpolation between order statistics;
/// 0 for an empty sample. Sorts `values`.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) + static_cast<double>(values[hi]) * frac;
}

/// One latency sample: when its op started (ms after the window opened) and
/// how long it took.
struct Sample {
  std::uint32_t at_ms = 0;
  float value = 0.0f;
};

/// The q-quantile of each sub-window of about `sub_ms` (samples grouped by
/// start time), then the median of those: a burst of stalls on a shared
/// host moves one sub-window's figure rather than the run's. With one
/// sub-window this is the plain quantile.
inline double windowed_quantile(const std::vector<Sample>& samples, double q, double window_ms,
                                double sub_ms) {
  const auto parts = static_cast<std::size_t>(std::max(1.0, window_ms / sub_ms));
  std::vector<std::vector<float>> groups(parts);
  for (const Sample& s : samples) {
    const auto part = static_cast<std::size_t>(s.at_ms / window_ms * static_cast<double>(parts));
    groups[std::min(part, parts - 1)].push_back(s.value);
  }
  std::vector<double> figures;
  for (std::vector<float>& group : groups)
    if (!group.empty()) figures.push_back(quantile(group, q));
  return quantile(figures, 0.5);
}

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Record plaintext: id(8) || send time ns(8) || filler. The id names the
// generator (top byte) and its record count; the filler is a pure function
// of (seed, id), so the server side checks every byte it was handed.
inline constexpr std::size_t kRecordHeader = 16;

inline std::uint64_t record_id(int generator, std::uint64_t count) {
  return (static_cast<std::uint64_t>(generator) << 56) | count;
}
inline int record_generator(std::uint64_t id) { return static_cast<int>(id >> 56); }

inline void fill_record(std::uint8_t* out, std::size_t len, std::uint64_t seed,
                        std::uint64_t id, std::int64_t sent_ns) {
  std::memcpy(out, &id, 8);
  std::memcpy(out + 8, &sent_ns, 8);
  std::uint64_t state = splitmix64(seed ^ splitmix64(id));
  for (std::size_t at = kRecordHeader; at < len; at += 8) {
    state = splitmix64(state);
    std::memcpy(out + at, &state, std::min<std::size_t>(8, len - at));
  }
}

/// True when the filler matches the seeded stream for the record's id.
inline bool check_record(const std::uint8_t* data, std::size_t len, std::uint64_t seed) {
  if (len < kRecordHeader) return false;
  std::uint64_t id = 0;
  std::memcpy(&id, data, 8);
  std::uint64_t state = splitmix64(seed ^ splitmix64(id));
  for (std::size_t at = kRecordHeader; at < len; at += 8) {
    state = splitmix64(state);
    if (std::memcmp(data + at, &state, std::min<std::size_t>(8, len - at)) != 0) return false;
  }
  return true;
}

}  // namespace perfbench
