// Observability layer regressions (ISSUE 10, DESIGN.md §15): counter
// exactness under multi-thread churn, histogram bucket/percentile math
// against a sorted-vector oracle, and trace-ring wraparound plus a binary
// dump/decode round-trip (the C++ twin of tools/traceview.py's reader).
//
// The trace test shrinks the per-thread ring via JIFFY_TRACE_EVENTS before
// the first traced event — the capacity is latched at first ring
// construction, so the setenv must stay the first line of main().
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/rng.h"

namespace {

using jiffy::obs::Ev;
using jiffy::obs::LatHistogram;
using jiffy::obs::MetricsSnapshot;
using jiffy::obs::TraceEvent;

// ---- counters: exact totals under 8-thread churn ---------------------------
// Each thread bumps a known per-event count; the post-join snapshot delta
// (join orders the relaxed shard writes) must match the sum exactly — the
// StripedCounter quiescent-exactness contract, exercised through the macro
// layer and the registry rather than a local counter instance.
void test_counters_exact() {
  const MetricsSnapshot before = jiffy::obs::snapshot();

  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 20'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        JIFFY_COUNT(cas_install_lost);
        if (i % 2 == 0) JIFFY_COUNT(help_stamp);
        if (i % 5 == 0) JIFFY_COUNT_N(split, 2);
      }
      // Each thread raises the gauge to a distinct value; max survives.
      JIFFY_COUNT_MAX_LIMBO(100 + t);
    });
  }
  for (auto& t : ts) t.join();

  const MetricsSnapshot d = jiffy::obs::snapshot() - before;
#if JIFFY_OBS
  CHECK_EQ(d[Ev::cas_install_lost], kThreads * kPerThread);
  CHECK_EQ(d[Ev::help_stamp], kThreads * (kPerThread / 2));
  CHECK_EQ(d[Ev::split], kThreads * 2 * ((kPerThread + 4) / 5));
  CHECK_EQ(d[Ev::merge], 0);
  CHECK(d.limbo_peak >= 100 + kThreads - 1);
#else
  CHECK_EQ(d[Ev::cas_install_lost], 0);
#endif
  std::puts("counters: exact under churn");
}

// ---- limbo peak: a reset starts a fresh window -----------------------------
// test_counters_exact left the gauge at 100+. After a reset, a window whose
// threads raise it to at most 7 must report 7, not the earlier peak.
void test_limbo_peak_reset() {
  jiffy::obs::limbo_peak_reset();
  const MetricsSnapshot before = jiffy::obs::snapshot();
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([t] { JIFFY_COUNT_MAX_LIMBO(4 + t); });
  for (auto& t : ts) t.join();
  const MetricsSnapshot d = jiffy::obs::snapshot() - before;
#if JIFFY_OBS
  CHECK_EQ(d.limbo_peak, 7);
#else
  CHECK_EQ(d.limbo_peak, 0);
#endif
  std::puts("limbo peak: reset per window");
}

// ---- histogram: bucket math + percentiles vs sorted oracle -----------------
void test_histogram_buckets() {
  // index_of/upper_edge are inverses on bucket edges, and every value maps
  // to a bucket whose edge bounds it from above within the error budget.
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{1000}, std::uint64_t{1} << 20,
        (std::uint64_t{1} << 40) + 12345, ~std::uint64_t{0}}) {
    const std::size_t i = LatHistogram::index_of(v);
    CHECK(i < LatHistogram::kBucketCount);
    const std::uint64_t hi = LatHistogram::upper_edge(i);
    CHECK(hi >= v);
    // Relative quantization error <= 2^-kSubBits.
    CHECK(static_cast<double>(hi - v) <=
          static_cast<double>(v) / LatHistogram::kSubCount + 1.0);
    CHECK_EQ(LatHistogram::index_of(hi), i);
    if (hi + 1 != 0) CHECK_EQ(LatHistogram::index_of(hi + 1), i + 1);
  }
  std::puts("histogram: bucket mapping");
}

void test_histogram_percentiles() {
  jiffy::Rng rng(0x0b5e);
  // Mixed scales: a dense low mode plus a heavy tail, the shape latency
  // distributions actually take.
  std::vector<std::uint64_t> vals;
  LatHistogram h;
  for (int i = 0; i < 100'000; ++i) {
    std::uint64_t v = rng.next() % 1000;           // ~1µs-scale mode
    if (i % 100 == 0) v = 10'000 + rng.next() % 90'000;   // p99 tail
    if (i % 1000 == 0) v = 1'000'000 + rng.next() % 1'000'000;  // p999 tail
    vals.push_back(v);
    h.record(v);
  }
  CHECK_EQ(h.count(), vals.size());
  std::sort(vals.begin(), vals.end());
  CHECK_EQ(h.max(), vals.back());

  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    // Oracle: smallest value covering ceil(p% of n) samples.
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(vals.size()));
    if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(vals.size()))
      ++rank;
    if (rank == 0) rank = 1;
    const std::uint64_t exact = vals[rank - 1];
    const std::uint64_t got = h.value_at_percentile(p);
    // Never under the exact order statistic; over by at most one bucket
    // width (<= 3.125% relative, +1 for the integer edges).
    CHECK(got >= exact);
    CHECK(static_cast<double>(got - exact) <=
          static_cast<double>(exact) / LatHistogram::kSubCount + 1.0);
  }

  // merge() must equal recording the union.
  LatHistogram a, b, u;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next() % 100'000;
    (i % 2 ? a : b).record(v);
    u.record(v);
  }
  a.merge(b);
  CHECK_EQ(a.count(), u.count());
  CHECK_EQ(a.max(), u.max());
  for (double p : {50.0, 99.0, 99.9})
    CHECK_EQ(a.value_at_percentile(p), u.value_at_percentile(p));
  std::puts("histogram: percentiles vs oracle");
}

// ---- trace ring: wraparound + dump/decode round-trip -----------------------
#if JIFFY_OBS
struct DumpHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t event_size;
  std::uint64_t event_count;
  std::uint64_t ticks_hint;
};

void test_trace_roundtrip(std::size_t ring_cap) {
  jiffy::obs::trace_enable(true);
  // Two threads, each emitting well past the ring capacity so both rings
  // wrap; events carry a per-thread sequence number in `a` so the decode can
  // verify "newest kept, oldest dropped, order preserved".
  constexpr int kThreads = 2;
  const std::uint64_t kEmit = 5 * static_cast<std::uint64_t>(ring_cap) + 7;
  // Barrier after the first event: rings are lazily acquired at a thread's
  // first emit and recycled at exit, so without it one thread could finish
  // and donate its ring to the other (single-core scheduling), collapsing
  // the two expected rings into one.
  std::atomic<int> armed{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t, kEmit, &armed] {
      jiffy::obs::trace_sched(static_cast<unsigned>(t));  // acquire my ring
      armed.fetch_add(1, std::memory_order_relaxed);
      // relaxed: startup rendezvous only; no payload is published through it.
      while (armed.load(std::memory_order_relaxed) < kThreads)
        std::this_thread::yield();
      for (std::uint64_t i = 0; i < kEmit; ++i) {
        switch (i % 3) {
          case 0:
            jiffy::obs::trace_retire(reinterpret_cast<void*>(i + 1), i,
                                     jiffy::obs::RetireTag::kRevUnref);
            break;
          case 1: jiffy::obs::trace_sched(static_cast<unsigned>(t)); break;
          default: jiffy::obs::trace_epoch(i); break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  jiffy::obs::trace_enable(false);

  const char* path = "test_obs_trace.bin";
  const std::uint64_t written = jiffy::obs::trace_dump(path);
  // Both rings wrapped: exactly ring_cap retained per traced thread. The
  // main thread never traced, so it owns no ring.
  CHECK_EQ(written, static_cast<std::uint64_t>(kThreads) * ring_cap);

  std::FILE* f = std::fopen(path, "rb");
  CHECK(f != nullptr);
  DumpHeader hd;
  CHECK_EQ(std::fread(&hd.magic, 1, 8, f), std::size_t{8});
  CHECK_EQ(std::fread(&hd.version, sizeof hd.version, 1, f), std::size_t{1});
  CHECK_EQ(std::fread(&hd.event_size, sizeof hd.event_size, 1, f),
           std::size_t{1});
  CHECK_EQ(std::fread(&hd.event_count, sizeof hd.event_count, 1, f),
           std::size_t{1});
  CHECK_EQ(std::fread(&hd.ticks_hint, sizeof hd.ticks_hint, 1, f),
           std::size_t{1});
  CHECK_EQ(std::memcmp(hd.magic, "JFTRACE1", 8), 0);
  CHECK_EQ(hd.version, 1u);
  CHECK_EQ(hd.event_size, sizeof(TraceEvent));
  CHECK_EQ(hd.event_count, written);

  std::vector<TraceEvent> ev(written);
  CHECK_EQ(std::fread(ev.data(), sizeof(TraceEvent), written, f), written);
  // Header promised exactly event_count records.
  CHECK_EQ(std::fread(&hd.version, 1, 1, f), std::size_t{0});
  std::fclose(f);
  std::remove(path);

  // Per-tid: timestamps monotone (oldest-first within a ring) and the
  // retained window is the newest ring_cap events in emission order.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : ev) by_tid[e.tid].push_back(&e);
  CHECK_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, list] : by_tid) {
    CHECK_EQ(list.size(), ring_cap);
    std::uint64_t prev_ts = 0;
    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const TraceEvent& e = *list[i];
      CHECK(e.ts >= prev_ts);
      prev_ts = e.ts;
      CHECK(e.kind >= 1 && e.kind <= 3);
      // Reconstruct the emission sequence number from the kind-specific
      // payload (retire: a = seq+1; epoch: a = seq; sched carries none).
      std::uint64_t seq = 0;
      bool has_seq = true;
      if (e.kind == 2) {
        seq = e.a - 1;
        CHECK_EQ(e.b, seq);      // bytes field carried the raw counter
        CHECK_EQ(e.tag, 1);      // kRevUnref
        CHECK_EQ(seq % 3, 0u);
      } else if (e.kind == 3) {
        seq = e.a;
        CHECK_EQ(seq % 3, 2u);
      } else {
        has_seq = false;
      }
      if (has_seq) {
        CHECK(seq >= kEmit - ring_cap);  // only the newest window survives
        CHECK(i == 0 || seq > prev_seq);
        prev_seq = seq;
      }
    }
  }
  std::printf("trace: wraparound round-trip (cap=%zu, %" PRIu64
              " events/thread)\n",
              ring_cap, kEmit);
}
#endif  // JIFFY_OBS

}  // namespace

int main() {
#if JIFFY_OBS
  // Must precede the first traced event: the ring capacity is latched once.
  setenv("JIFFY_TRACE_EVENTS", "128", /*overwrite=*/1);
#endif

  test_counters_exact();
  test_limbo_peak_reset();
  test_histogram_buckets();
  test_histogram_percentiles();
#if JIFFY_OBS
  test_trace_roundtrip(128);
#else
  CHECK_EQ(jiffy::obs::trace_dump("unused"), 0u);
  std::puts("trace: compiled out (JIFFY_OBS=0)");
#endif

  std::printf("test_obs OK\n");
  return 0;
}
