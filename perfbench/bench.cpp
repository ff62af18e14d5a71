// Closed-loop benchmark program for JiffyMap: one named workload, one seed, one
// process. README.md beside this file documents the workloads, the metrics
// and the layer each per-layer metric is expected to move.
//
//   perfbench_jiffy --workload <name> --seed <n> --seconds <s>
//                   [--trace-file <path>] [--inject-lost-update]
//                   [--source-id <id>]
//
// The program drives the map only through its public API (put, erase, get,
// scan_n, apply, debug_stats, approx_size) and reads the public obs counters
// and the EBR epoch. Every result the map returns is checked:
//   * put/erase return values against the calling writer's sequential model
//     (keys go to writers by residue, index mod writers, so each key has one
//     writer and its model is exact);
//   * every value embeds its key's index, so a get or a scanned entry is
//     checked against its key;
//   * scans must be strictly ascending, start at or after `from` and hold at
//     most n entries;
//   * after the window a full scan is compared entry by entry with the
//     writers' models, and approx_size() with the models' live count.
// With --trace-file, spans are recorded around every call into the map and
// around the benchmark's phases, buffered per thread and written at exit.
// The last line of stdout is one JSON report.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "common/block_cache.h"
#include "common/fixed_bytes.h"
#include "core/jiffy.h"
#include "ebr/ebr.h"
#include "obs/counters.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using std::uint32_t;
using std::uint64_t;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Time this thread spent runnable but waiting for a CPU (second field of
// schedstat), or nullopt where the kernel does not expose it.
std::optional<uint64_t> thread_wait_ns() {
  std::ifstream f("/proc/thread-self/schedstat");
  uint64_t run = 0, wait = 0;
  if (!(f >> run >> wait)) return std::nullopt;
  return wait;
}

// Bytes the allocator has handed out and not had back, over all arenas.
std::size_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  if (!std::getline(f, line)) return "";
  return line;
}

// ---- JSON output ------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& json) {
    s_ += (s_.size() > 1 ? "," : "") + quoted(k) + ":" + json;
    return *this;
  }
  Obj& n(const std::string& k, double v) { return raw(k, num(v)); }
  Obj& str(const std::string& k, const std::string& v) {
    return raw(k, quoted(v));
  }
  Obj& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

std::string metric(double value, const char* unit, uint64_t samples) {
  return Obj().n("value", value).str("unit", unit).n("samples",
      static_cast<double>(samples)).done();
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// ---- key/value shapes ---------------------------------------------------------
//
// Keys come from the repo's order-preserving KeyCodec, so index order is key
// order and a full scan meets the model's indices in ascending order. Values
// embed the key index and a per-put sequence number; the sequence number is
// what tells one put to a key from the next.

// 4 B keys / 4 B values (paper Figure 6): index in the low 18 bits, the low
// 14 bits of the sequence number above it.
struct Small {
  using K = jiffy::FixedBytes<4>;
  using V = jiffy::FixedBytes<4>;
  static constexpr unsigned kIdxBits = 18;
  static constexpr uint64_t kMaxSpace = 1ull << kIdxBits;
  static V value(uint64_t i, uint32_t seq) {
    return V::from_u64((i | (uint64_t{seq} << kIdxBits)) & 0xffffffffull);
  }
  static uint64_t value_idx(const V& v) {
    return v.to_u64() & ((1ull << kIdxBits) - 1);
  }
};

// 16 B keys / 100 B values (paper Figure 5): index in bytes 0-7, sequence
// number in bytes 8-11, the rest a pattern of both.
struct Large {
  using K = jiffy::Key16;
  using V = jiffy::Value100;
  static constexpr uint64_t kMaxSpace = ~0ull;
  static V value(uint64_t i, uint32_t seq) {
    V v;
    for (int b = 0; b < 8; ++b)
      v.data[b] = static_cast<unsigned char>(i >> (8 * (7 - b)));
    for (int b = 0; b < 4; ++b)
      v.data[8 + b] = static_cast<unsigned char>(seq >> (8 * (3 - b)));
    for (std::size_t b = 12; b < V::size(); ++b)
      v.data[b] = static_cast<unsigned char>(i * 131 + seq * 31 + b);
    return v;
  }
  static uint64_t value_idx(const V& v) {
    uint64_t i = 0;
    for (int b = 0; b < 8; ++b) i = (i << 8) | v.data[b];
    return i;
  }
};

// ---- workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  bool large;             // Large shape, else Small
  std::size_t preload;    // entries; the key space is twice this
  int updaters;           // 50/50 put/erase, one key residue each
  int getters;            // uniform get
  int scanners;           // scan_n(kScanLen) from a uniform key
  int batchers;           // apply() of kBatchLen random put/erase ops
};

constexpr Workload kWorkloads[] = {
    {"updates_small", false, 100'000, 4, 0, 0, 0},
    {"reads_scans_large", true, 1'000'000, 1, 2, 1, 0},
    {"batches_small", false, 100'000, 0, 0, 0, 4},
};

// A run is kCycles cycles of preload, warmup, window and verify, each on a
// fresh map, with the --seconds window split evenly between them. setup_s
// is the median of the cycles' preload times, and the window metrics pool the
// cycles' windows, so one run samples the box at several moments; on the 1M
// map it also keeps each window at the same early stretch of the
// post-preload merge ramp (see README.md, "Findings").
constexpr int kCycles = 4;
constexpr std::size_t kScanLen = 100;
constexpr std::size_t kBatchLen = 100;
constexpr uint64_t kWarmupNs = 1'000'000'000;  // autoscaler EMA tau is 0.5 s
constexpr uint64_t kStallNs = 1'000'000;       // an update call over 1 ms
constexpr double kShareFloor = 0.8;  // min worker CPU share of a full core
constexpr uint64_t kInjectAt = 1000;  // the writer-0 put or batch dropped

// ---- tracing ------------------------------------------------------------------

enum Span : unsigned {
  kPreload, kWarmup, kMeasure, kVerify,
  kPut, kErase, kGet, kScanN, kApply, kApproxSize, kDebugStats,
  kSpanCount
};
constexpr const char* kSpanNames[kSpanCount] = {
    "bench.preload", "bench.warmup", "bench.measure", "bench.verify",
    "put", "erase", "get", "scan_n", "apply", "approx_size", "debug_stats"};

// Per-thread span buffer. Phase spans are kept whole. Calls into the map are
// folded into per-(phase, name) aggregates, exact for every call; the first
// kRawPerPhase calls of each phase and up to kRawStalls calls over kStallNs
// are also kept as raw spans. A run makes tens of millions of calls, too many
// to keep one record each.
class Tracer {
 public:
  struct Agg {
    uint64_t count = 0, total_ns = 0, stall_count = 0, stall_ns = 0,
             max_ns = 0;
  };

  Tracer(bool on, uint32_t tid) : on_(on), tid_(tid) {}

  // Closes the open phase at t and opens `name`.
  void phase(Span name, uint64_t t) {
    if (!on_) return;
    close(t);
    phases_.push_back({{next_id(), 0, t, 0, name}, {}, 0});
    open_ = true;
  }

  void close(uint64_t t) {
    if (!on_ || !open_) return;
    phases_.back().span.end = t;
    open_ = false;
  }

  void call(Span name, uint64_t s, uint64_t e) {
    if (!on_) return;
    Phase& p = phases_.back();
    Agg& a = p.agg[name];
    const uint64_t d = e - s;
    ++a.count;
    a.total_ns += d;
    a.max_ns = std::max(a.max_ns, d);
    const bool stall = d > kStallNs;
    if (stall) {
      ++a.stall_count;
      a.stall_ns += d;
    }
    const uint64_t id = next_id();
    if (p.raw < kRawPerPhase || (stall && stalls_ < kRawStalls)) {
      raw_.push_back({id, p.span.id, s, e, name});
      ++p.raw;
      stalls_ += stall;
    }
  }

  void write(std::FILE* f, uint64_t base) const {
    const auto span_line = [&](const Rec& r) {
      std::fprintf(f,
                   "{\"span\":\"%s\",\"tid\":%u,\"id\":%llu,\"parent\":%llu,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   kSpanNames[r.name], tid_, ull(r.id), ull(r.parent),
                   ull(r.start - base), ull(r.end - base));
    };
    for (const Phase& p : phases_) {
      span_line(p.span);
      for (unsigned n = 0; n < kSpanCount; ++n) {
        const Agg& a = p.agg[n];
        if (!a.count) continue;
        std::fprintf(f,
                     "{\"agg\":\"%s\",\"tid\":%u,\"parent\":%llu,"
                     "\"count\":%llu,\"total_ns\":%llu,\"stall_count\":%llu,"
                     "\"stall_ns\":%llu,\"max_ns\":%llu}\n",
                     kSpanNames[n], tid_, ull(p.span.id), ull(a.count),
                     ull(a.total_ns), ull(a.stall_count), ull(a.stall_ns),
                     ull(a.max_ns));
      }
    }
    for (const Rec& r : raw_) span_line(r);
  }

 private:
  static constexpr uint64_t kRawPerPhase = 2048;
  static constexpr uint64_t kRawStalls = 2048;
  struct Rec {
    uint64_t id, parent, start, end;
    Span name;
  };
  struct Phase {
    Rec span;
    Agg agg[kSpanCount];
    uint64_t raw;
  };
  static unsigned long long ull(uint64_t v) { return v; }
  uint64_t next_id() { return (uint64_t{tid_} + 1) << 40 | ++seq_; }

  bool on_;
  uint32_t tid_;
  uint64_t seq_ = 0;
  uint64_t stalls_ = 0;
  bool open_ = false;
  std::vector<Phase> phases_;
  std::vector<Rec> raw_;
};

// ---- latency histogram ------------------------------------------------------
//
// Log-linear like obs::LatHistogram, but with 256 linear sub-buckets per
// power of two (0.4 % wide) and a percentile interpolated inside its bucket.
// A percentile read off bucket edges moves in 3 % steps, so a steady metric
// would read the same value in most runs and hide how far runs really agree.
class Hist {
 public:
  void record(uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
    max_ = std::max(max_, ns);
  }

  void merge(const Hist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
    max_ = std::max(max_, o.max_);
  }

  uint64_t max() const { return max_; }

  // The p-th percentile (p in (0, 100]), in ns.
  double percentile(double p) const {
    const double want = p / 100.0 * static_cast<double>(total_);
    uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[i];
      if (c && static_cast<double>(below + c) >= want) {
        const double frac = (want - static_cast<double>(below)) /
                            static_cast<double>(c);
        const double v = lower(i) + frac * (lower(i + 1) - lower(i));
        return std::min(v, static_cast<double>(max_));
      }
      below += c;
    }
    return static_cast<double>(max_);
  }

 private:
  static constexpr unsigned kSubBits = 8;
  static constexpr uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = 33 * kSub;  // up to 2^40 ns

  static std::size_t index(uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::size_t i = (msb - kSubBits + 1) * kSub +
                          ((v >> (msb - kSubBits)) & (kSub - 1));
    return std::min(i, kBuckets - 1);
  }

  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const unsigned msb = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    return static_cast<double>((uint64_t{1} << msb) +
                               ((i % kSub) << (msb - kSubBits)));
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
  uint64_t total_ = 0;
  uint64_t max_ = 0;
};

// ---- per-thread state -----------------------------------------------------------

// Latency classes: one call into the map each. On batches_small an update
// call is one apply() of kBatchLen ops.
enum Cls : unsigned { kUpdate, kRead, kScan, kClassCount };
constexpr const char* kClassNames[kClassCount] = {"update", "get", "scan"};

// What one worker's calls in the window added up to.
struct Tally {
  uint64_t calls[kClassCount] = {};
  uint64_t basic[kClassCount] = {};  // entries for scans, ops for batches
  Hist lat[kClassCount];  // ns per call

  void merge(const Tally& o) {
    for (unsigned c = 0; c < kClassCount; ++c) {
      calls[c] += o.calls[c];
      basic[c] += o.basic[c];
      lat[c].merge(o.lat[c]);
    }
  }
};

struct alignas(64) Worker {
  Worker(uint32_t tid, int cycle, bool traced)
      : cycle(cycle), tracer(traced, tid) {}

  const int cycle;
  Tally tally;
  bool last_counted = false;  // whether the last call was in the window
  Cls last_cls = kUpdate;
  uint64_t attempted = 0, failed = 0;
  bool measuring = false, done = false;
  uint64_t cpu0 = 0, wall0 = 0, cpu_ns = 0, wall_ns = 0;
  std::optional<uint64_t> wait0, wait_ns;
  Tracer tracer;

  void check(bool ok) { failed += !ok; }
  void credit(uint64_t basic) {
    if (last_counted) tally.basic[last_cls] += basic;
  }
};

// ---- the benchmark --------------------------------------------------------------

struct Options {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  std::string trace_file;
  std::string source_id = "unknown";
  bool inject_lost_update = false;
};

template <class S>
class Bench {
  using K = typename S::K;
  using V = typename S::V;
  using Map = jiffy::JiffyMap<K, V>;

  struct Model {
    std::vector<uint32_t> seq;  // by slot = index / writers; 0 = absent
    uint32_t next = 2;          // preloaded entries carry seq 1
  };

 public:
  explicit Bench(const Options& o)
      : o_(o),
        w_(*o.w),
        writers_(w_.updaters + w_.batchers),
        space_(2 * w_.preload),
        per_writer_(space_ / static_cast<uint64_t>(writers_)),
        stride_(jiffy::KeyCodec<K>::encode(1, space_).to_u64()),
        window_ns_(static_cast<uint64_t>(o.seconds * 1e9 / kCycles)) {
    if (space_ > S::kMaxSpace || space_ % writers_ != 0) std::abort();
  }

  std::string run() {
    const uint64_t base = now_ns();
    const bool traced = !o_.trace_file.empty();
    Worker coord(0, -1, traced);
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<CycleResult> cycles;
    prepare_inputs();
    for (int c = 0; c < kCycles; ++c)
      cycles.push_back(run_cycle(c, coord, workers));
    std::string report = make_report(workers, coord, cycles);
    if (traced) write_trace(report, coord, workers, base);
    return report;
  }

 private:
  K key(uint64_t i) const { return jiffy::KeyCodec<K>::encode(i, space_); }

  // The index a key encodes, or space_ when it is no key of this run.
  uint64_t index_of(const K& k) const {
    const uint64_t i = k.to_u64() / stride_;
    return i < space_ && key(i) == k ? i : space_;
  }

  bool entry_ok(const K& k, const V& v) const {
    const uint64_t i = index_of(k);
    return i != space_ && S::value_idx(v) == i;
  }

  uint64_t stream_seed(int tid) const {
    return jiffy::splitmix64(o_.seed ^
                             (0xD1B54A32D192ED03ull * (uint64_t(tid) + 1)));
  }

  static void sleep_until_ns(uint64_t t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t)));
  }

  // The preloaded half of the key space: the first `preload` indices of a
  // seeded shuffle of [0, space), the same in every cycle.
  void prepare_inputs() {
    std::vector<uint64_t> all(space_);
    for (uint64_t i = 0; i < space_; ++i) all[i] = i;
    jiffy::Rng rng(o_.seed);
    for (uint64_t i = space_; i > 1; --i)
      std::swap(all[i - 1], all[rng.next_below(i)]);
    all.resize(w_.preload);
    order_ = std::move(all);
  }

  struct CycleResult {
    double setup_s = 0;
    typename Map::DebugStats stats;
    uint64_t purged = 0;     // shells purged from worker launch to join
    uint64_t period_ns = 0;  // worker launch to join
    jiffy::obs::MetricsSnapshot counters;  // over the window
    uint64_t epochs = 0;                   // over the window
    double space_amp = 0;
  };

  // Preloads a fresh map (timed), runs the workers through warmup and the
  // window, then verifies the map against the models.
  CycleResult run_cycle(int cycle, Worker& coord,
                        std::vector<std::unique_ptr<Worker>>& workers) {
    CycleResult res;
    models_.assign(static_cast<std::size_t>(writers_), Model{});
    for (Model& m : models_) m.seq.assign(per_writer_, 0);
    for (uint64_t i : order_) seq_of(i) = 1;
    const uint64_t t = now_ns();
    coord.tracer.phase(kPreload, t);
    map_ = std::make_unique<Map>();
    for (uint64_t i : order_)
      coord.check(traced_call(coord, kPut, [&] {
        return map_->put(key(i), S::value(i, 1));
      }));
    const uint64_t loaded = now_ns();
    coord.tracer.close(loaded);
    res.setup_s = static_cast<double>(loaded - t) / 1e9;
    const uint64_t purged0 = map_->debug_stats().purged_total;

    // Launch, then let the warmup run until t0_; the window is [t0_, t_end_).
    const uint64_t launch = now_ns();
    t0_ = launch + kWarmupNs;
    t_end_ = t0_ + window_ns_;
    std::vector<std::thread> threads;
    int writer = 0;
    const auto spawn = [&](auto role, int count, bool writes) {
      for (int r = 0; r < count; ++r) {
        const auto tid = static_cast<uint32_t>(workers.size() + 1);
        workers.push_back(
            std::make_unique<Worker>(tid, cycle, !o_.trace_file.empty()));
        Worker* wk = workers.back().get();
        const int wid = writes ? writer++ : -1;
        const uint64_t sd = stream_seed(tid);
        threads.emplace_back([this, wk, wid, sd, role] {
          jiffy::Rng rng(sd);
          wk->tracer.phase(kWarmup, now_ns());
          while (!wk->done) (this->*role)(*wk, rng, wid);
        });
      }
    };
    spawn(&Bench::update_step, w_.updaters, true);
    spawn(&Bench::batch_step, w_.batchers, true);
    spawn(&Bench::get_step, w_.getters, false);
    spawn(&Bench::scan_step, w_.scanners, false);
    sleep_until_ns(t0_);
    const jiffy::obs::MetricsSnapshot c0 = jiffy::obs::snapshot();
    const uint64_t epoch0 = jiffy::ebr::current_epoch();
    sleep_until_ns(t_end_);
    res.counters = jiffy::obs::snapshot() - c0;
    res.epochs = jiffy::ebr::current_epoch() - epoch0;
    for (std::thread& th : threads) th.join();
    const uint64_t joined = now_ns();
    res.period_ns = joined - launch;

    coord.tracer.phase(kVerify, joined);
    res.stats = traced_call(coord, kDebugStats,
                            [&] { return map_->debug_stats(); });
    res.purged = res.stats.purged_total - purged0;
    const uint64_t live = verify(coord);
    coord.tracer.close(now_ns());
    // The map's footprint is what destroying it gives back to the heap,
    // after the workers' EBR backlog is drained: no benchmark state and no
    // momentary limbo is counted.
    drain_limbo(threads.size());
    const std::size_t with_map = heap_in_use();
    map_.reset();
    const std::size_t without = heap_in_use();
    res.space_amp = static_cast<double>(with_map - std::min(with_map, without)) /
                    (static_cast<double>(live) *
                     static_cast<double>(sizeof(K) + sizeof(V)));
    return res;
  }

  uint32_t& seq_of(uint64_t i) {
    return models_[i % writers_].seq[i / writers_];
  }

  template <class F>
  auto traced_call(Worker& w, Span name, F&& f) {
    const uint64_t s = now_ns();
    auto r = f();
    w.tracer.call(name, s, now_ns());
    ++w.attempted;
    return r;
  }

  // One timed call into the map by a worker: counted in the window when it
  // starts inside it, and the call that starts past the window ends the
  // worker's loop.
  template <class F>
  auto call(Worker& w, Span name, Cls cls, uint64_t basic, F&& f) {
    const uint64_t s = now_ns();
    if (!w.measuring && s >= t0_ && s < t_end_) {
      w.measuring = true;
      w.tracer.phase(kMeasure, s);
      w.wall0 = s;
      w.cpu0 = thread_cpu_ns();
      w.wait0 = thread_wait_ns();
    }
    auto r = f();
    const uint64_t e = now_ns();
    ++w.attempted;
    w.tracer.call(name, s, e);
    w.last_counted = false;
    if (s >= t_end_) {
      w.done = true;
      w.wall_ns = e - w.wall0;
      w.cpu_ns = thread_cpu_ns() - w.cpu0;
      if (const auto wt = thread_wait_ns(); wt && w.wait0)
        w.wait_ns = *wt - *w.wait0;
      w.tracer.close(e);
    } else if (w.measuring) {
      ++w.tally.calls[cls];
      w.tally.basic[cls] += basic;
      w.tally.lat[cls].record(e - s);
      w.last_counted = true;
      w.last_cls = cls;
    }
    return r;
  }

  // The dropped write of --inject-lost-update: writer 0's kInjectAt-th put
  // (or batch op) is recorded in its model but never reaches the map, and
  // writer 0 never draws that key again, so no later write can mask it.
  bool lose_this_write(int wid, uint64_t slot) {
    if (!o_.inject_lost_update || wid != 0 || ++injected_count_ != kInjectAt)
      return false;
    lost_slot_ = slot;
    return true;
  }

  uint64_t draw_slot(jiffy::Rng& rng, int wid) const {
    uint64_t slot;
    do slot = rng.next_below(per_writer_);
    while (wid == 0 && slot == lost_slot_);
    return slot;
  }

  void update_step(Worker& w, jiffy::Rng& rng, int wid) {
    Model& m = models_[wid];
    const uint64_t slot = draw_slot(rng, wid);
    const uint64_t i = slot * writers_ + wid;
    const K k = key(i);
    if (rng.next() & 1) {
      const uint32_t seq = m.next++;
      const bool fresh = m.seq[slot] == 0;
      m.seq[slot] = seq;
      if (lose_this_write(wid, slot)) return;
      const V v = S::value(i, seq);
      w.check(call(w, kPut, kUpdate, 1, [&] { return map_->put(k, v); }) ==
              fresh);
    } else {
      const bool present = m.seq[slot] != 0;
      m.seq[slot] = 0;
      w.check(call(w, kErase, kUpdate, 1, [&] { return map_->erase(k); }) ==
              present);
    }
  }

  void batch_step(Worker& w, jiffy::Rng& rng, int wid) {
    Model& m = models_[wid];
    jiffy::Batch<K, V> b;
    b.reserve(kBatchLen);
    std::pair<uint64_t, uint32_t> after[kBatchLen];  // slot, seq (0: erased)
    for (std::size_t j = 0; j < kBatchLen; ++j) {
      const uint64_t slot = draw_slot(rng, wid);
      const uint64_t i = slot * writers_ + wid;
      const uint32_t seq = (rng.next() & 1) ? m.next++ : 0;
      after[j] = {slot, seq};
      if (seq && lose_this_write(wid, slot)) continue;
      if (seq)
        b.put(key(i), S::value(i, seq));
      else
        b.erase(key(i));
    }
    call(w, kApply, kUpdate, kBatchLen, [&] {
      map_->apply(std::move(b));
      return true;
    });
    for (const auto& [slot, seq] : after) m.seq[slot] = seq;  // last wins
  }

  void get_step(Worker& w, jiffy::Rng& rng, int) {
    const uint64_t i = rng.next_below(space_);
    const K k = key(i);
    const std::optional<V> v =
        call(w, kGet, kRead, 1, [&] { return map_->get(k); });
    w.check(!v || S::value_idx(*v) == i);
  }

  // The checking callback runs inside the timed call, as a caller's own work
  // on each entry would: a key compare and two index decodes per entry.
  void scan_step(Worker& w, jiffy::Rng& rng, int) {
    const K from = key(rng.next_below(space_));
    K prev{};
    std::size_t seen = 0;
    bool ok = true;
    const std::size_t n = call(w, kScanN, kScan, 0, [&] {
      return map_->scan_n(from, kScanLen, [&](const K& k, const V& v) {
        ok &= seen == 0 ? !(k < from) : prev < k;
        ok &= entry_ok(k, v);
        prev = k;
        ++seen;
      });
    });
    w.check(ok && n == seen && n <= kScanLen);
    w.credit(n);
  }

  // Full scan against the models, merged in index (= key) order. Each model
  // entry and each scanned entry is one checked result. Returns the models'
  // live count.
  uint64_t verify(Worker& coord) {
    uint64_t live = 0;
    for (const Model& m : models_)
      for (uint32_t s : m.seq) live += s != 0;
    const std::size_t size =
        traced_call(coord, kApproxSize, [&] { return map_->approx_size(); });
    coord.check(size == live);
    if (size != live)
      std::fprintf(stderr, "verify: approx_size %zu, models hold %llu\n",
                   size, static_cast<unsigned long long>(live));

    uint64_t next = 0;  // first index not yet compared
    uint64_t checked = 0, bad = 0;
    const auto report = [&](const char* what, uint64_t i) {
      if (++bad <= 10)
        std::fprintf(stderr, "verify: key index %llu (model seq %u): %s\n",
                     static_cast<unsigned long long>(i),
                     i < space_ ? seq_of(i) : 0u, what);
    };
    const auto missing_below = [&](uint64_t end) {
      for (; next < end; ++next)
        if (seq_of(next)) ++checked, report("missing from the map", next);
    };
    traced_call(coord, kScanN, [&] {
      return map_->scan_n(K{}, live + 1, [&](const K& k, const V& v) {
        ++checked;
        const uint64_t i = index_of(k);
        if (i == space_ || i < next) {
          report(i == space_ ? "foreign key" : "out of order", i);
          return;
        }
        missing_below(i);
        const uint32_t seq = seq_of(i);
        if (!seq)
          report("present but erased in the model", i);
        else if (v != S::value(i, seq))
          report("value of another write", i);
        next = i + 1;
      });
    });
    missing_below(space_);
    coord.attempted += checked;
    coord.failed += bad;
    return live;
  }

  // Frees what the workers left in EBR limbo, so the heap holds the map and
  // not a momentary backlog: an exited thread's retire list waits for the
  // next thread that takes over its record. Each drain thread takes one
  // record (all are held at once, so no two share one) and quiesces it.
  static void drain_limbo(std::size_t records) {
    jiffy::ebr::quiesce();
    std::atomic<std::size_t> arrived{0};
    std::vector<std::thread> drains;
    for (std::size_t i = 0; i < records; ++i)
      drains.emplace_back([&] {
        jiffy::ebr::quiesce();
        arrived.fetch_add(1);
        while (arrived.load() < records) std::this_thread::yield();
        jiffy::ebr::quiesce();
      });
    for (std::thread& t : drains) t.join();
    jiffy::ebr::quiesce();
  }

  std::string make_report(
      const std::vector<std::unique_ptr<Worker>>& workers, const Worker& coord,
      const std::vector<CycleResult>& cycles) {
    using jiffy::obs::Ev;
    const double window_s =
        static_cast<double>(window_ns_) / 1e9 * static_cast<double>(kCycles);
    uint64_t attempted = coord.attempted, failed = coord.failed;
    Tally all;
    std::vector<Tally> per_cycle(kCycles);
    std::string shares = "[";
    double share_min = INFINITY, share_sum = 0, wait_sum = 0, wall_sum = 0;
    bool have_wait = true;
    for (const auto& wk : workers) {
      attempted += wk->attempted;
      failed += wk->failed;
      all.merge(wk->tally);
      per_cycle[wk->cycle].merge(wk->tally);
      const double share = wk->wall_ns ? static_cast<double>(wk->cpu_ns) /
                                             static_cast<double>(wk->wall_ns)
                                       : 0;
      shares += (shares.size() > 1 ? "," : "") + num(share);
      share_min = std::min(share_min, share);
      share_sum += share;
      wall_sum += static_cast<double>(wk->wall_ns);
      if (wk->wait_ns)
        wait_sum += static_cast<double>(*wk->wait_ns);
      else
        have_wait = false;
    }
    shares += "]";

    // Every end-to-end value is the median over the cycles of the value in
    // one cycle's window, so a box hiccup in one cycle does not set it. A
    // whole window, not a shorter slice, gives each value its samples: the
    // large map's updater completes one purge-bound burst of updates per
    // sweep, ~10 sweeps per second, so a 1 s count moves in ~10 % steps.
    const double cycle_s = window_s / kCycles;
    const auto mops = [&](const Tally& t, unsigned cls) {
      return static_cast<double>(t.basic[cls]) / cycle_s / 1e6;
    };
    const auto pct_us = [](const Tally& t, unsigned cls, double p) {
      return t.lat[cls].percentile(p) / 1e3;
    };
    const auto cycle_median = [&](auto f) {
      std::vector<double> v;
      for (const Tally& t : per_cycle) v.push_back(f(t));
      return median(std::move(v));
    };
    uint64_t all_calls = 0;
    for (unsigned cls = 0; cls < kClassCount; ++cls) all_calls += all.calls[cls];
    const double total_mops = cycle_median([&](const Tally& t) {
      double sum = 0;
      for (unsigned cls = 0; cls < kClassCount; ++cls) sum += mops(t, cls);
      return sum;
    });

    const auto over_cycles = [&](auto f) {
      std::vector<double> v;
      for (const CycleResult& c : cycles) v.push_back(f(c));
      return v;
    };
    const std::vector<double> setup_s =
        over_cycles([](const CycleResult& c) { return c.setup_s; });
    Obj e2e;
    e2e.raw("total_mops", metric(total_mops, "Mop/s", all_calls))
        .raw("setup_s", metric(median(setup_s), "s", cycles.size()))
        .raw("space_amp",
             metric(median(over_cycles(
                        [](const CycleResult& c) { return c.space_amp; })),
                    "ratio", cycles.size()));
    // On batches_small the update class is apply(): the batch_*
    // metrics are these, with a 100-op batch counting 100 toward the mops.
    const std::string alias[kClassCount] = {
        w_.batchers ? "batch" : "update", "get", "scan"};
    Obj classes;
    for (unsigned cls = 0; cls < kClassCount; ++cls) {
      const uint64_t n = all.calls[cls];
      if (!n) continue;
      const std::string m = metric(
          cycle_median([&](const Tally& t) { return mops(t, cls); }), "Mop/s",
          n);
      const std::string p50 = metric(
          cycle_median([&](const Tally& t) { return pct_us(t, cls, 50); }),
          "us", n);
      const std::string p99 = metric(
          cycle_median([&](const Tally& t) { return pct_us(t, cls, 99); }),
          "us", n);
      e2e.raw(alias[cls] + "_mops", m)
          .raw(alias[cls] + "_p50_us", p50)
          .raw(alias[cls] + "_p99_us", p99);
      if (cls == kUpdate && w_.batchers)  // the shared update_* names
        e2e.raw("update_mops", m)
            .raw("update_p50_us", p50)
            .raw("update_p99_us", p99);
      std::string cycle_mops = "[", cycle_p99 = "[";
      for (const Tally& t : per_cycle) {
        const char* sep = cycle_mops.size() > 1 ? "," : "";
        cycle_mops += sep + num(mops(t, cls));
        cycle_p99 += sep + num(pct_us(t, cls, 99));
      }
      classes.raw(kClassNames[cls],
                  Obj().n("calls", static_cast<double>(n))
                      .n("basic_ops", static_cast<double>(all.basic[cls]))
                      .raw("cycle_mops", cycle_mops + "]")
                      .raw("cycle_p99_us", cycle_p99 + "]")
                      .n("p999_us", pct_us(all, cls, 99.9))
                      .n("max_us",
                         static_cast<double>(all.lat[cls].max()) / 1e3)
                      .done());
    }
    e2e.raw("failed_op_frac",
            metric(static_cast<double>(failed) / static_cast<double>(attempted),
                   "ratio", attempted));

    jiffy::obs::MetricsSnapshot c;
    uint64_t epochs = 0, purged = 0, period_ns = 0;
    for (const CycleResult& r : cycles) {
      for (unsigned e = 0; e < jiffy::obs::kEventCount; ++e)
        c.events[e] += r.counters.events[e];
      c.limbo_peak = std::max(c.limbo_peak, r.counters.limbo_peak);
      epochs += r.epochs;
      purged += r.purged;
      period_ns += r.period_ns;
    }
    const auto stat = [&](auto f) {
      return median(over_cycles([&](const CycleResult& r) {
        return static_cast<double>(f(r.stats));
      }));
    };
    const auto rate = [&](double v) { return v / window_s; };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double hits = static_cast<double>(c[Ev::block_cache_hit]);
    const double misses = static_cast<double>(c[Ev::block_cache_miss]);
    const double share_mean =
        workers.empty() ? 0 : share_sum / static_cast<double>(workers.size());
    Obj layers;
    layers
        .n("core.install_lost_per_kupdate",
           ratio(1e3 * static_cast<double>(c[Ev::cas_install_lost]),
                 static_cast<double>(all.basic[kUpdate])))
        .n("core.avg_revision_entries",
           stat([](const auto& st) { return st.avg_revision_size; }))
        .n("core.target_revision_entries",
           stat([](const auto& st) { return st.target_revision_size; }))
        .n("core.splits_per_s", rate(static_cast<double>(c[Ev::split])))
        .n("core.merges_per_s", rate(static_cast<double>(c[Ev::merge])))
        .n("core.replay_dup_ratio",
           ratio(static_cast<double>(c[Ev::replay_group_duplicated]),
                 static_cast<double>(c[Ev::replay_group_claimed])))
        .n("core.replay_claimed_per_s",
           rate(static_cast<double>(c[Ev::replay_group_claimed])))
        .n("core.help_stamps_per_s",
           rate(static_cast<double>(c[Ev::help_stamp])))
        .n("core.purge_sweeps_per_s",
           rate(static_cast<double>(c[Ev::purge_sweeps])))
        // purged_total is read outside the window (its walk would compete
        // with the workers), so this rate spans warmup and window.
        .n("core.purged_per_s", static_cast<double>(purged) /
                                    (static_cast<double>(period_ns) / 1e9))
        .n("core.tombstones_end",
           stat([](const auto& st) { return st.tombstone_count; }))
        .n("ebr.epoch_advances_per_s", rate(static_cast<double>(epochs)))
        .n("ebr.valve_donations_per_s",
           rate(static_cast<double>(c[Ev::valve_donations])))
        .n("ebr.limbo_peak", static_cast<double>(c.limbo_peak))
        .n("block_cache.hit_frac", ratio(hits, hits + misses))
        .n("host.worker_cpu_share_min", workers.empty() ? 0 : share_min)
        .n("host.worker_cpu_share_mean", share_mean)
        .n("host.worker_wait_frac", have_wait ? ratio(wait_sum, wall_sum) : -1);

    const auto list = [](const std::vector<double>& v) {
      std::string o = "[";
      for (double x : v) o += (o.size() > 1 ? "," : "") + num(x);
      return o + "]";
    };

    return Obj()
        .str("schema", "perfbench-jiffy-v1")
        .str("workload", w_.name)
        .n("seed", static_cast<double>(o_.seed))
        .n("seconds", o_.seconds)
        .n("threads", static_cast<double>(workers.size() / kCycles))
        .n("cycles", kCycles)
        .n("preload", static_cast<double>(w_.preload))
        .n("key_space", static_cast<double>(space_))
        .str("kv_shape", w_.large ? "16B/100B" : "4B/4B")
        .flag("traced", !o_.trace_file.empty())
        .flag("inject_lost_update", o_.inject_lost_update)
        .raw("host", host_json(shares, share_min, have_wait))
        .flag("correct", failed == 0)
        .n("attempted", static_cast<double>(attempted))
        .n("failed", static_cast<double>(failed))
        .raw("cycle_setup_s", list(setup_s))
        .raw("cycle_space_amp", list(over_cycles(
                                    [](const CycleResult& c) { return c.space_amp; })))
        .raw("e2e", e2e.done())
        .raw("classes", classes.done())
        .raw("layers", layers.done())
        .done();
  }

  std::string host_json(const std::string& shares, double share_min,
                        bool have_wait) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::string affinity;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
          affinity += (affinity.empty() ? "" : ",") + std::to_string(c);
    std::string cpu_max = read_first_line("/sys/fs/cgroup/cpu.max");
    std::ostringstream sw;
    sw << "JIFFY_OBS=" << JIFFY_OBS
#if defined(JIFFY_SCHEDULE_POINTS) && JIFFY_SCHEDULE_POINTS
       << " JIFFY_SCHEDULE_POINTS=1"
#else
       << " JIFFY_SCHEDULE_POINTS=0"
#endif
       << " JIFFY_BLOCK_CACHE_ENABLED=" << JIFFY_BLOCK_CACHE_ENABLED
       << " JIFFY_NO_BLOCK_CACHE="
       << (std::getenv("JIFFY_NO_BLOCK_CACHE") ? "set" : "unset")
       << " JIFFY_TRACE=" << (std::getenv("JIFFY_TRACE") ? "set" : "unset");
    return Obj()
        .n("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
        .str("affinity", affinity)
        .str("cgroup_cpu_max", cpu_max.empty() ? "unreadable" : cpu_max)
        .str("compiler", __VERSION__)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("switches", sw.str())
        .str("source_id", o_.source_id)
        .raw("worker_cpu_share", shares)
        .n("cpu_share_floor", kShareFloor)
        .flag("cores_delivered", share_min >= kShareFloor)
        .flag("schedstat", have_wait)
        .done();
  }

  void write_trace(const std::string& report, const Worker& coord,
                   const std::vector<std::unique_ptr<Worker>>& workers,
                   uint64_t base) const {
    std::FILE* f = std::fopen(o_.trace_file.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", o_.trace_file.c_str());
      std::exit(1);
    }
    std::fprintf(f, "{\"report\":%s}\n", report.c_str());
    coord.tracer.write(f, base);
    for (const auto& wk : workers) wk->tracer.write(f, base);
    if (std::fclose(f) != 0) std::exit(1);
  }

  const Options o_;
  const Workload& w_;
  const uint64_t writers_;
  const uint64_t space_;
  const uint64_t per_writer_;
  const uint64_t stride_;
  const uint64_t window_ns_;  // per cycle
  // The current cycle's window [t0_, t_end_), set before the cycle's
  // workers are spawned.
  uint64_t t0_ = 0, t_end_ = 0;
  uint64_t injected_count_ = 0;     // touched by writer 0 only
  uint64_t lost_slot_ = ~0ull;      // likewise
  std::vector<uint64_t> order_;
  std::vector<Model> models_;
  std::unique_ptr<Map> map_;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_jiffy --workload <name> --seed <n> "
               "--seconds <s> [--trace-file <path>] [--inject-lost-update] "
               "[--source-id <id>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads)
        if (name == w.name) o.w = &w;
      if (!o.w) usage(("unknown workload " + name).c_str());
    } else if (a == "--seed") {
      const std::string s = value();
      char* end = nullptr;
      o.seed = std::strtoull(s.c_str(), &end, 10);
      if (s.empty() || *end) usage("--seed takes a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      const std::string s = value();
      char* end = nullptr;
      o.seconds = std::strtod(s.c_str(), &end);
      if (s.empty() || *end || !(o.seconds >= 1 && o.seconds <= 600))
        usage("--seconds takes a number in [1, 600]");
    } else if (a == "--trace-file") {
      o.trace_file = value();
    } else if (a == "--source-id") {
      o.source_id = value();
    } else if (a == "--inject-lost-update") {
      o.inject_lost_update = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!o.w || !have_seed || o.seconds == 0)
    usage("--workload, --seed and --seconds are required");
  const std::string report = o.w->large ? Bench<Large>(o).run()
                                        : Bench<Small>(o).run();
  std::printf("%s\n", report.c_str());
  return 0;
}
