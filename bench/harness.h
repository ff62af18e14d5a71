// Figure-regeneration harness (paper §4).
//
// Reproduces the microbenchmark of the evaluation: per-thread single-role
// workloads (update / lookup / range-scan threads), four scenarios, batch
// modes (simple, 10-op, 100-op × sequential/random), uniform or Zipfian key
// choice, both key/value shapes, swept over a thread grid for every index.
//
// Scenarios (paper §4.2, plus the range/reverse extension):
//   a: 100% update threads
//   b: 25% update, 75% lookup
//   c: 25% update, 50% lookup, 25% scan (100 entries)
//   d: 25% update, 50% lookup, 25% scan (10000 entries)
//   e: 25% update, 25% lookup, 25% bounded-range scan ([k, k+100)),
//      25% reverse scan (100 entries descending) — exercises the
//      MapApi range_scan/rscan_n surface on every index
//
// Reported numbers are millions of *basic operations* per second: one
// put/remove/get counts 1, a scan over n entries counts n, a B-op batch
// counts B. Each row also reports the update-only throughput — the appendix
// figures (7-10) are the same runs with that second series plotted.
//
// Scale: defaults target a small machine (see DESIGN.md §2 scale note); pass
// --paper for the full 10M-entry, 96-thread grid of the paper's testbed.
// Latency columns (ISSUE 10, DESIGN.md §15): every CSV row carries
// p50/p99/p999 microseconds over the cell's sampled per-op latencies. Two
// recording modes:
//   * closed loop (default): service time of 1 op in 4, two TSC reads per
//     sampled op (~16 ns) — cheap enough to stay inside the §15 overhead
//     budget, but a stalled op delays the next op's start, so tails are
//     understated under saturation (classic coordinated omission);
//   * open loop (--rate=R): ops are dispatched on a fixed schedule of
//     intended start times (R ops/sec split across the cell's workers) and
//     every latency is completion MINUS INTENDED start — a stall shows up
//     in every queued op behind it, never skipped, making the percentiles
//     coordinated-omission-free.
// --metrics=<file> additionally dumps per-cell counter deltas + per-role
// histograms as JSON (schema jiffy-metrics-v1; read by check_scaling.py).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/map_api.h"
#include "common/striped_counter.h"  // CachePadded
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace jiffy::bench {

enum class Scenario {
  kUpdateOnly,
  kUpdateLookup,
  kMixedShortScan,
  kMixedLongScan,
  kMixedRange,
};

inline const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kUpdateOnly: return "a_update";
    case Scenario::kUpdateLookup: return "b_lookup75";
    case Scenario::kMixedShortScan: return "c_scan100";
    case Scenario::kMixedLongScan: return "d_scan10k";
    case Scenario::kMixedRange: return "e_range";
  }
  return "?";
}

struct BatchMode {
  std::size_t size = 0;  // 0 = simple put/remove
  bool sequential = false;

  std::string name() const {
    if (size == 0) return "simple";
    return "b" + std::to_string(size) + (sequential ? "_seq" : "_rand");
  }
};

struct RunConfig {
  std::string figure;
  std::string kv_shape;
  KeyChooser::Kind dist = KeyChooser::Kind::Uniform;
  std::uint64_t key_space = 40'000;  // 2x entries, like the paper's 20M/10M
  std::uint64_t entries = 20'000;
  double seconds = 0.15;
  // Jiffy's autoscaler EMAs are time-weighted (paper §3.3.6 reports ~1-10 s
  // adjustment time); the warmup runs the mix once so measured cells see the
  // adapted revision sizes, not the transient.
  double warmup = 0.5;
  std::vector<int> threads = {1, 2, 4};
  Scenario scenario = Scenario::kUpdateOnly;
  BatchMode batch;
  double zipf_theta = 0.99;
  // Repetitions per cell; the best rep is reported. Short cells on a shared
  // (or single-core, oversubscribed) box are scheduler-noise-dominated, and
  // max-of-N is the standard robust estimator for "what the code can do".
  int reps = 1;
  // Open-loop mode: total intended ops/sec for the cell, split evenly across
  // its workers. 0 = closed loop (see the header comment).
  double rate = 0;
};

// Latency op classes: one histogram per per-thread role kind, merged across
// workers after join. A scan/range op is one whole scan call.
enum LatClass { kLatPut = 0, kLatGet, kLatScan, kLatBatch, kLatClassCount };
inline constexpr const char* kLatClassNames[kLatClassCount] = {"put", "get",
                                                               "scan", "batch"};

struct RowResult {
  double total_mops = 0;
  double update_mops = 0;
  obs::LatHistogram lat[kLatClassCount];  // TSC ticks; see ticks_per_us
  double ticks_per_us = 1.0;              // per-cell calibration
};

inline double hist_pct_us(const obs::LatHistogram& h, double p,
                          double ticks_per_us) {
  if (h.count() == 0 || ticks_per_us <= 0) return 0;
  return static_cast<double>(h.value_at_percentile(p)) / ticks_per_us;
}

// TSC tick rate, measured once per process against steady_clock — used only
// to convert --rate into a pacing interval. Percentile reporting uses the
// tighter per-cell calibration run_cell takes at its own endpoints.
inline double tsc_ticks_per_sec() {
  static const double tps = [] {
    const TscClock c;
    const auto w0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = c.read();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::uint64_t t1 = c.read();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
            .count();
    return s > 0 ? static_cast<double>(t1 - t0) / s : 1e9;
  }();
  return tps;
}

// Per-worker latency instrumentation; strictly single-threaded (one LatMeter
// per worker, merged after join). Compiles to nothing under JIFFY_OBS=0 so
// the obs-off twin bench measures the bare op loop.
struct LatMeter {
  obs::LatHistogram hist;
  TscClock tsc;
  std::uint64_t interval = 0;  // pacing interval in ticks; 0 = closed loop
  std::uint64_t intended = 0;
  std::uint64_t t0 = 0;
  std::uint64_t n = 0;

  void arm() {
#if JIFFY_OBS
    intended = tsc.read();
#endif
  }

  // Call before the op. In open-loop mode waits for the next intended start
  // (never skipping missed slots — the coordinated-omission-free property);
  // returns false when stop was raised mid-wait.
  template <class Stopped>
  bool begin(const Stopped& stopped) {
#if JIFFY_OBS
    if (interval != 0) {
      std::uint64_t now;
      while ((now = tsc.read()) < intended) {
        if (stopped()) return false;
        // Far from the slot, cede the core (these boxes are oversubscribed);
        // inside ~a microsecond, spin so the start lands on schedule.
        if (intended - now > 2048) std::this_thread::yield();
      }
      t0 = intended;  // latency is measured from the INTENDED start
    } else {
      t0 = (n & 3) == 0 ? tsc.read() : 0;  // sampled service time, 1-in-4
    }
#else
    (void)stopped;
#endif
    return true;
  }

  // Call after the op completes.
  void end() {
#if JIFFY_OBS
    ++n;
    if (interval != 0) {
      hist.record(tsc.read() - t0);
      intended += interval;
    } else if (t0 != 0) {
      hist.record(tsc.read() - t0);
    }
#endif
  }
};

// Thread-role split of the paper: indices below are "percent * threads".
// scan_len / range_span are defaulted: only the scan scenarios set them, and
// the update-only branches spell out the no-scanner split explicitly.
struct RoleSplit {
  int updaters = 0;
  int lookups = 0;
  int scanners = 0;
  int rev_scanners = 0;    // rscan_n threads (descending, scan_len entries)
  int rangers = 0;         // range_scan threads ([k, k+range_span) half-open)
  std::size_t scan_len = 0;
  std::uint64_t range_span = 0;  // key-index width of each bounded range
};

inline RoleSplit roles_for(Scenario s, int threads) {
  auto pct = [&](double p) {
    int n = static_cast<int>(p * threads + 0.5);
    return n < 1 ? 1 : n;
  };
  switch (s) {
    case Scenario::kUpdateOnly:
      return {.updaters = threads, .lookups = 0, .scanners = 0};
    case Scenario::kUpdateLookup: {
      const int upd = threads >= 4 ? pct(0.25) : 1;
      return {.updaters = upd, .lookups = threads - upd, .scanners = 0};
    }
    case Scenario::kMixedShortScan:
    case Scenario::kMixedLongScan: {
      int upd = threads >= 4 ? pct(0.25) : 1;
      int scan = threads >= 4 ? pct(0.25) : 1;
      int look = threads - upd - scan;
      if (look < 0) {
        look = 0;
        scan = threads - upd;
        if (scan < 0) scan = 0;
      }
      return {.updaters = upd, .lookups = look, .scanners = scan,
              .scan_len = s == Scenario::kMixedShortScan ? std::size_t{100}
                                                         : std::size_t{10'000}};
    }
    case Scenario::kMixedRange: {
      RoleSplit r;
      r.scan_len = 100;
      r.range_span = 100;
      if (threads < 4) {
        r.updaters = 1;
        if (threads >= 2) r.rangers = 1;
        if (threads >= 3) r.rev_scanners = 1;
        return r;
      }
      r.updaters = pct(0.25);
      r.rangers = pct(0.25);
      r.rev_scanners = pct(0.25);
      r.lookups = threads - r.updaters - r.rangers - r.rev_scanners;
      if (r.lookups < 0) r.lookups = 0;
      return r;
    }
  }
  return {.updaters = threads};
}

// Runs one (index, config, thread-count) cell against a preloaded index.
// The chooser is passed in: it is immutable and identical for the whole
// sweep, and constructing it is O(key_space) for Zipf (the zeta sum), which
// would otherwise be paid once per cell at --paper scale.
template <class K, class V, class Map>
  requires MapApi<Map>
RowResult run_cell(Map& idx, const RunConfig& cfg, int threads,
                   const KeyChooser& chooser) {
  const RoleSplit roles = roles_for(cfg.scenario, threads);

  // start and stop are written by the coordinator while every worker polls
  // them; padded apart so the stop store does not invalidate the line the
  // start spin reads (and neither shares a line with the slot array below).
  CachePadded<std::atomic<bool>> start_pad;
  CachePadded<std::atomic<bool>> stop_pad;
  std::atomic<bool>& start = start_pad.value;
  std::atomic<bool>& stop = stop_pad.value;
  // One counter cacheline per worker, written (plainly — each slot has
  // exactly one writer) at the end of its run and read only after join().
  // The padding keeps the harness from manufacturing the very false sharing
  // the engine's striped counters remove (DESIGN.md §14); the layout
  // contract is static_asserted in tests/test_striped_counter.cpp.
  struct OpSlot {
    std::uint64_t total = 0;
    std::uint64_t updates = 0;
  };
  std::vector<CachePadded<OpSlot>> slots(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  // Per-worker latency histograms, written once (plainly) by the owner at
  // the end of its run and merged after join. No padding needed: unlike the
  // op slots these are cold until the final write.
  struct LatSlot {
    obs::LatHistogram hist;
    int cls = kLatPut;
  };
  std::vector<LatSlot> lat_slots(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  // Open-loop pacing: cfg.rate intended ops/sec for the whole cell, split
  // evenly, expressed as a per-worker TSC interval. 0 = closed loop.
  const std::uint64_t pace_ticks =
      cfg.rate > 0 && threads > 0
          ? static_cast<std::uint64_t>(tsc_ticks_per_sec() * threads /
                                       cfg.rate)
          : 0;

  // start is a release/acquire edge (pairs: harness-start-stop) so workers
  // cannot observe it before t0 is taken; stop is relaxed and the per-thread
  // op slots are plain because the joins below order everything written.
  auto stopped = [&stop] {
    // relaxed: advisory stop flag; thread join orders the counter writes.
    return stop.load(std::memory_order_relaxed);
  };

  auto updater = [&](int tid) {
    Rng rng(0xBEEF + static_cast<std::uint64_t>(tid));
    std::uint64_t ops = 0;
    LatMeter lm;
    lm.interval = pace_ticks;
    while (!start.load(std::memory_order_acquire))  // pairs: harness-start-stop
      std::this_thread::yield();  // oversubscribed: let the coordinator run
    lm.arm();
    while (!stopped()) {
      if (!lm.begin(stopped)) break;
      if (cfg.batch.size == 0) {
        const std::uint64_t i = chooser.next_index(rng);
        const K k = KeyCodec<K>::encode(i, cfg.key_space);
        if (rng.next_bool(0.5))
          idx.put(k, ValueCodec<V>::make(i, rng.next()));
        else
          idx.erase(k);
        ++ops;
      } else {
        Batch<K, V> b;
        b.reserve(cfg.batch.size);
        std::uint64_t i = chooser.next_index(rng);
        for (std::size_t j = 0; j < cfg.batch.size; ++j) {
          if (!cfg.batch.sequential) i = chooser.next_index(rng);
          const K k = KeyCodec<K>::encode(i % cfg.key_space, cfg.key_space);
          if (rng.next_bool(0.5))
            b.put(k, ValueCodec<V>::make(i, rng.next()));
          else
            b.erase(k);
          if (cfg.batch.sequential) ++i;
        }
        idx.apply(std::move(b));
        ops += cfg.batch.size;
      }
      lm.end();
    }
    slots[static_cast<std::size_t>(tid)].value = {ops, ops};
    lat_slots[static_cast<std::size_t>(tid)] = {
        lm.hist, cfg.batch.size == 0 ? kLatPut : kLatBatch};
  };

  auto lookup = [&](int tid) {
    Rng rng(0xFACE + static_cast<std::uint64_t>(tid));
    std::uint64_t ops = 0;
    LatMeter lm;
    lm.interval = pace_ticks;
    while (!start.load(std::memory_order_acquire))  // pairs: harness-start-stop
      std::this_thread::yield();  // oversubscribed: let the coordinator run
    lm.arm();
    while (!stopped()) {
      if (!lm.begin(stopped)) break;
      const std::uint64_t i = chooser.next_index(rng);
      idx.get(KeyCodec<K>::encode(i, cfg.key_space));
      ++ops;
      lm.end();
    }
    slots[static_cast<std::size_t>(tid)].value = {ops, 0};
    lat_slots[static_cast<std::size_t>(tid)] = {lm.hist, kLatGet};
  };

  auto scanner = [&](int tid) {
    Rng rng(0x5CA9 + static_cast<std::uint64_t>(tid));
    std::uint64_t ops = 0;
    LatMeter lm;
    lm.interval = pace_ticks;
    while (!start.load(std::memory_order_acquire))  // pairs: harness-start-stop
      std::this_thread::yield();  // oversubscribed: let the coordinator run
    lm.arm();
    while (!stopped()) {
      if (!lm.begin(stopped)) break;
      const std::uint64_t i = chooser.next_index(rng);
      ops += idx.scan_n(KeyCodec<K>::encode(i, cfg.key_space), roles.scan_len,
                        [](const K&, const V&) {});
      lm.end();
    }
    slots[static_cast<std::size_t>(tid)].value = {ops, 0};
    lat_slots[static_cast<std::size_t>(tid)] = {lm.hist, kLatScan};
  };

  auto rev_scanner = [&](int tid) {
    Rng rng(0xD15C + static_cast<std::uint64_t>(tid));
    std::uint64_t ops = 0;
    LatMeter lm;
    lm.interval = pace_ticks;
    while (!start.load(std::memory_order_acquire))  // pairs: harness-start-stop
      std::this_thread::yield();  // oversubscribed: let the coordinator run
    lm.arm();
    while (!stopped()) {
      if (!lm.begin(stopped)) break;
      const std::uint64_t i = chooser.next_index(rng);
      ops += idx.rscan_n(KeyCodec<K>::encode(i, cfg.key_space),
                         roles.scan_len, [](const K&, const V&) {});
      lm.end();
    }
    slots[static_cast<std::size_t>(tid)].value = {ops, 0};
    lat_slots[static_cast<std::size_t>(tid)] = {lm.hist, kLatScan};
  };

  auto ranger = [&](int tid) {
    Rng rng(0x7A11 + static_cast<std::uint64_t>(tid));
    std::uint64_t ops = 0;
    LatMeter lm;
    lm.interval = pace_ticks;
    while (!start.load(std::memory_order_acquire))  // pairs: harness-start-stop
      std::this_thread::yield();  // oversubscribed: let the coordinator run
    lm.arm();
    while (!stopped()) {
      if (!lm.begin(stopped)) break;
      const std::uint64_t lo_i = chooser.next_index(rng);
      const std::uint64_t hi_i =
          std::min(lo_i + roles.range_span, cfg.key_space - 1);
      ops += idx.range_scan(KeyCodec<K>::encode(lo_i, cfg.key_space),
                            KeyCodec<K>::encode(hi_i, cfg.key_space),
                            [](const K&, const V&) {});
      lm.end();
    }
    slots[static_cast<std::size_t>(tid)].value = {ops, 0};
    lat_slots[static_cast<std::size_t>(tid)] = {lm.hist, kLatScan};
  };

  std::vector<std::thread> ts;
  int tid = 0;
  for (int i = 0; i < roles.updaters; ++i) ts.emplace_back(updater, tid++);
  for (int i = 0; i < roles.lookups; ++i) ts.emplace_back(lookup, tid++);
  for (int i = 0; i < roles.scanners; ++i) ts.emplace_back(scanner, tid++);
  for (int i = 0; i < roles.rev_scanners; ++i)
    ts.emplace_back(rev_scanner, tid++);
  for (int i = 0; i < roles.rangers; ++i) ts.emplace_back(ranger, tid++);

  const TscClock cal;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = cal.read();
  start.store(true, std::memory_order_release);  // pairs: harness-start-stop
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  // relaxed: advisory stop flag; thread join orders the counter writes.
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : ts) t.join();
  const std::uint64_t c1 = cal.read();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RowResult r;
  // Every worker has been joined, so the plain slot reads are race-free.
  std::uint64_t total = 0;
  std::uint64_t updates = 0;
  for (const auto& s : slots) {
    total += s.value.total;
    updates += s.value.updates;
  }
  r.total_mops = static_cast<double>(total) / dt / 1e6;
  r.update_mops = static_cast<double>(updates) / dt / 1e6;
  // Ticks→µs calibration over this cell's own wall span, so percentile
  // conversion tracks the actual tick rate of the run, not a boot estimate.
  r.ticks_per_us =
      dt > 0 ? static_cast<double>(c1 - c0) / (dt * 1e6) : 1.0;
  for (const LatSlot& ls : lat_slots) r.lat[ls.cls].merge(ls.hist);
  return r;
}

// ---- metrics JSON sink (--metrics=<file>) --------------------------------
// Cells are appended as pre-serialized JSON objects while the figure runs
// and flushed once at the end (schema jiffy-metrics-v1, read by
// tools/check_scaling.py --metrics=). A process-global sink keeps the
// plumbing out of the templated run_index/run_cell signatures.
struct MetricsSink {
  std::string path;                // empty = metrics disabled
  std::vector<std::string> cells;  // serialized JSON objects
};

inline MetricsSink& metrics_sink() {
  static MetricsSink s;
  return s;
}

inline void append_json_hist(std::string& out, const char* hist_name,
                             const obs::LatHistogram& h, double ticks_per_us) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"%s\":{\"count\":%llu,\"p50_us\":%.3f,\"p99_us\":%.3f,"
                "\"p999_us\":%.3f,\"max_us\":%.3f}",
                hist_name, static_cast<unsigned long long>(h.count()),
                hist_pct_us(h, 50.0, ticks_per_us),
                hist_pct_us(h, 99.0, ticks_per_us),
                hist_pct_us(h, 99.9, ticks_per_us),
                ticks_per_us > 0
                    ? static_cast<double>(h.max()) / ticks_per_us
                    : 0.0);
  out += buf;
}

inline void append_metrics_cell(const RunConfig& cfg, const char* index_name,
                                int threads, const RowResult& r,
                                const obs::MetricsSnapshot& delta,
                                const std::string& map_json) {
  MetricsSink& sink = metrics_sink();
  if (sink.path.empty()) return;
  std::string c = "{";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"figure\":\"%s\",\"scenario\":\"%s\",\"batch\":\"%s\","
      "\"dist\":\"%s\",\"kv\":\"%s\",\"index\":\"%s\",\"threads\":%d,"
      "\"seconds\":%.3f,\"reps\":%d,\"mode\":\"%s\",\"rate\":%.1f,"
      "\"total_mops\":%.3f,\"update_mops\":%.3f",
      cfg.figure.c_str(), scenario_name(cfg.scenario),
      cfg.batch.name().c_str(),
      cfg.dist == KeyChooser::Kind::Uniform ? "uniform" : "zipf",
      cfg.kv_shape.c_str(), index_name, threads, cfg.seconds, cfg.reps,
      cfg.rate > 0 ? "open" : "closed", cfg.rate, r.total_mops,
      r.update_mops);
  c += buf;
  c += ",\"counters\":{";
  for (unsigned i = 0; i < obs::kEventCount; ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%lld", i ? "," : "",
                  obs::kEventNames[i],
                  static_cast<long long>(delta.events[i]));
    c += buf;
  }
  std::snprintf(buf, sizeof buf, ",\"%s\":%lld}", obs::kLimboPeakName,
                static_cast<long long>(delta.limbo_peak));
  c += buf;
  obs::LatHistogram all;
  for (int i = 0; i < kLatClassCount; ++i) all.merge(r.lat[i]);
  c += ",\"latency\":{";
  append_json_hist(c, "all", all, r.ticks_per_us);
  for (int i = 0; i < kLatClassCount; ++i) {
    if (r.lat[i].count() == 0) continue;
    c += ",";
    append_json_hist(c, kLatClassNames[i], r.lat[i], r.ticks_per_us);
  }
  c += "}";
  if (!map_json.empty()) c += ",\"map\":" + map_json;
  c += "}";
  sink.cells.push_back(std::move(c));
}

inline void write_metrics_file() {
  MetricsSink& sink = metrics_sink();
  if (sink.path.empty()) return;
  std::FILE* f = std::fopen(sink.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics: cannot open %s\n", sink.path.c_str());
    return;
  }
  std::fprintf(f, "{\"schema\":\"jiffy-metrics-v1\",\"obs\":%d,\"cells\":[\n",
               static_cast<int>(JIFFY_OBS));
  for (std::size_t i = 0; i < sink.cells.size(); ++i)
    std::fprintf(f, "%s%s\n", sink.cells[i].c_str(),
                 i + 1 < sink.cells.size() ? "," : "");
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// Sweeps the thread grid. Every thread-count cell gets its OWN index,
// preloaded identically and warmed with the cell's own thread count: cells
// used to share one instance, so cell N measured the map state (and heap
// state) left behind by cells 1..N-1 — the higher thread counts, which run
// last, absorbed the whole churn history of the run, and the "scaling"
// ratio conflated map aging with threads (measured on fig10: a shared-map
// 8-thread cell ran ~25% slower than the identical fresh-map cell). Reps
// within a cell still share the cell's index — every cell ages the same
// way, so best-of-N stays comparable across thread counts.
template <class K, class V, class Map>
  requires MapApi<Map>
void run_index(const RunConfig& cfg, const char* name) {
  const auto preload = [&cfg](Map& idx) {
    // Shuffled preload: ascending insertion would degenerate the BST-route
    // baselines (every split lands on the right edge). Indices are strided
    // across the whole key space (every other lattice point for the default
    // 2x domain) so present and absent keys interleave — otherwise every
    // miss would route to the node past the last key.
    const std::uint64_t stride =
        cfg.entries ? std::max<std::uint64_t>(cfg.key_space / cfg.entries, 1)
                    : 1;
    std::vector<std::uint64_t> order(cfg.entries);
    for (std::uint64_t i = 0; i < cfg.entries; ++i) order[i] = i * stride;
    Rng rng(1);
    for (std::uint64_t i = cfg.entries; i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    for (const std::uint64_t i : order)
      idx.put(KeyCodec<K>::encode(i, cfg.key_space), ValueCodec<V>::make(i, 0));
  };
  const KeyChooser chooser(cfg.dist, cfg.key_space, cfg.zipf_theta);
  for (int threads : cfg.threads) {
    Map idx;
    preload(idx);
    if (cfg.warmup > 0) {
      RunConfig warm = cfg;
      warm.seconds = cfg.warmup;
      run_cell<K, V>(idx, warm, threads, chooser);
    }
    // Counter deltas are taken AFTER warmup so the attributed window covers
    // exactly the measured reps (cells run sequentially; see MetricsSnapshot).
    const obs::MetricsSnapshot snap0 = obs::snapshot();
    RowResult r = run_cell<K, V>(idx, cfg, threads, chooser);
    for (int rep = 1; rep < cfg.reps; ++rep) {
      const RowResult q = run_cell<K, V>(idx, cfg, threads, chooser);
      if (q.total_mops > r.total_mops) r = q;
    }
    const obs::MetricsSnapshot delta = obs::snapshot() - snap0;
    obs::LatHistogram all;
    for (int c = 0; c < kLatClassCount; ++c) all.merge(r.lat[c]);
    std::printf("%s,%s,%s,%s,%s,%s,%d,%.3f,%.3f,%.2f,%.2f,%.2f\n",
                cfg.figure.c_str(), scenario_name(cfg.scenario),
                cfg.batch.name().c_str(),
                cfg.dist == KeyChooser::Kind::Uniform ? "uniform" : "zipf",
                cfg.kv_shape.c_str(), name, threads, r.total_mops,
                r.update_mops, hist_pct_us(all, 50.0, r.ticks_per_us),
                hist_pct_us(all, 99.0, r.ticks_per_us),
                hist_pct_us(all, 99.9, r.ticks_per_us));
    std::fflush(stdout);
    if (!metrics_sink().path.empty()) {
      std::string map_json;
      if constexpr (requires { idx.debug_stats(); }) {
        const auto ds = idx.debug_stats();
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"node_count\":%zu,\"entry_count\":%zu,"
            "\"avg_revision_size\":%.2f,\"target_revision_size\":%u,"
            "\"read_fraction_ema\":%.3f,\"tombstone_count\":%zu,"
            "\"dead_shell_estimate\":%zu,\"purged_total\":%llu}",
            ds.node_count, ds.entry_count, ds.avg_revision_size,
            ds.target_revision_size, ds.read_fraction_ema, ds.tombstone_count,
            ds.dead_shell_estimate,
            static_cast<unsigned long long>(ds.purged_total));
        map_json = buf;
      }
      append_metrics_cell(cfg, name, threads, r, delta, map_json);
    }
  }
}

struct CliOptions {
  double seconds = 0.15;
  double warmup = 0.5;
  std::uint64_t entries = 20'000;
  std::vector<int> threads = {1, 2, 4};
  bool paper = false;
  std::string only_index;     // run just one index: jiffy, cslm or lf-list
  std::string only_scenario;  // a..e
  bool skip_batches = false;
  int reps = 1;  // best-of-N per cell (see RunConfig::reps)
  double rate = 0;           // open-loop intended ops/sec (0 = closed loop)
  std::string metrics_path;  // --metrics=<file>: JSON counter/latency dump
  std::string trace_path;    // --trace=<file>: binary event-trace dump
};

inline CliOptions parse_cli(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* p) -> const char* {
      return a.c_str() + std::strlen(p);
    };
    if (a == "--paper") {
      o.paper = true;
      o.entries = 10'000'000;
      o.seconds = 5.0;
      o.warmup = 10.0;
      o.threads = {8, 16, 32, 48, 64, 80, 96};
    } else if (a.rfind("--seconds=", 0) == 0) {
      o.seconds = std::stod(val("--seconds="));
    } else if (a.rfind("--warmup=", 0) == 0) {
      o.warmup = std::stod(val("--warmup="));
    } else if (a.rfind("--entries=", 0) == 0) {
      o.entries = std::stoull(val("--entries="));
    } else if (a.rfind("--threads=", 0) == 0) {
      o.threads.clear();
      std::string list = val("--threads=");
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        o.threads.push_back(std::stoi(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (a.rfind("--index=", 0) == 0) {
      o.only_index = val("--index=");
      if (o.only_index != "jiffy" && o.only_index != "cslm" &&
          o.only_index != "lf-list") {
        std::fprintf(stderr, "unknown --index=%s (valid: jiffy cslm lf-list)\n",
                     o.only_index.c_str());
        std::exit(2);
      }
    } else if (a.rfind("--scenario=", 0) == 0) {
      o.only_scenario = val("--scenario=");
      if (o.only_scenario.size() != 1 || o.only_scenario[0] < 'a' ||
          o.only_scenario[0] > 'e') {
        std::fprintf(stderr, "unknown --scenario=%s (valid: a..e)\n",
                     o.only_scenario.c_str());
        std::exit(2);
      }
    } else if (a == "--no-batches") {
      o.skip_batches = true;
    } else if (a.rfind("--reps=", 0) == 0) {
      o.reps = std::max(1, std::stoi(val("--reps=")));
    } else if (a.rfind("--rate=", 0) == 0) {
      o.rate = std::stod(val("--rate="));
    } else if (a.rfind("--metrics=", 0) == 0) {
      o.metrics_path = val("--metrics=");
    } else if (a.rfind("--trace=", 0) == 0) {
      o.trace_path = val("--trace=");
    } else if (a == "--help") {
      std::printf(
          "flags: --paper | --seconds=S | --entries=N | --threads=a,b,c | "
          "--index=jiffy|cslm|lf-list | --scenario=a|b|c|d|e | --no-batches | "
          "--reps=N | "
          "--rate=OPS_PER_SEC (open-loop latency mode) | "
          "--metrics=FILE (per-cell counter/latency JSON) | "
          "--trace=FILE (binary event trace, see tools/traceview.py)\n");
      std::exit(0);
    }
  }
  return o;
}

// Runs one complete figure: the simple-update row for every index, then the
// batch rows for jiffy, the only index with atomic batch updates.
template <class K, class V>
void run_figure(const char* figure, const char* kv_shape,
                KeyChooser::Kind dist, const CliOptions& cli) {
  RunConfig base;
  base.figure = figure;
  base.kv_shape = kv_shape;
  base.dist = dist;
  base.entries = cli.entries;
  base.key_space = cli.entries * 2;
  base.seconds = cli.seconds;
  base.warmup = cli.warmup;
  base.threads = cli.threads;
  base.reps = cli.reps;
  base.rate = cli.rate;
  metrics_sink().path = cli.metrics_path;
  if (!cli.trace_path.empty()) obs::trace_enable(true);

  std::printf(
      "figure,scenario,batch,dist,kv,index,threads,total_mops,update_mops,"
      "p50_us,p99_us,p999_us\n");

  const Scenario scenarios[] = {Scenario::kUpdateOnly, Scenario::kUpdateLookup,
                                Scenario::kMixedShortScan,
                                Scenario::kMixedLongScan,
                                Scenario::kMixedRange};
  auto scenario_enabled = [&](Scenario s) {
    if (cli.only_scenario.empty()) return true;
    return cli.only_scenario.size() == 1 &&
           cli.only_scenario[0] == scenario_name(s)[0];
  };
  auto index_enabled = [&](const char* n) {
    return cli.only_index.empty() || cli.only_index == n;
  };

  for (Scenario s : scenarios) {
    if (!scenario_enabled(s)) continue;
    RunConfig cfg = base;
    cfg.scenario = s;

    // Simple put/remove row: every index (Figure top rows).
    cfg.batch = BatchMode{};
    if (index_enabled("jiffy")) run_index<K, V, JiffyMap<K, V>>(cfg, "jiffy");
    if (index_enabled("lf-list"))
      run_index<K, V, baselines::LfList<K, V>>(cfg, "lf-list");
    if (index_enabled("cslm"))
      run_index<K, V, baselines::CslmMap<K, V>>(cfg, "cslm");

    // Batch rows (Figure middle/bottom): jiffy only — the baselines' apply()
    // is a plain, non-atomic loop.
    if (cli.skip_batches || !index_enabled("jiffy")) continue;
    for (std::size_t bsz : {std::size_t{10}, std::size_t{100}}) {
      for (bool seq : {true, false}) {
        cfg.batch = BatchMode{bsz, seq};
        run_index<K, V, JiffyMap<K, V>>(cfg, "jiffy");
      }
    }
  }

  write_metrics_file();
  if (!cli.trace_path.empty()) {
    const std::uint64_t n = obs::trace_dump(cli.trace_path.c_str());
    std::fprintf(stderr, "trace: wrote %llu events to %s\n",
                 static_cast<unsigned long long>(n), cli.trace_path.c_str());
  }
}

}  // namespace jiffy::bench
