// Snapshot-watermark reclamation: the oldest-active-version ticket registry,
// the cooperative purge pass (collect / targeted unlink / drain / retire),
// eligibility gating by live snapshots, bounded tombstone growth with
// auto-purge on, the unlink's schedule windows (a tower link in flight, a
// shell sharing its anchor with a live node) and its O(log n) cost per
// shell. Built with JIFFY_PURGE_VERIFY, so every retire first checks that
// no pointer into a condemned shell is left (debug_condemned_refs).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "core/jiffy.h"
#include "core/schedule_points.h"
#include "ebr/ebr.h"
#include "obs/counters.h"
#include "test_util.h"

namespace {

using Map = jiffy::JiffyMap<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kIdle = ~0ull;

jiffy::JiffyConfig manual_cfg() {
  jiffy::JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;  // small nodes: erase waves force merges
  cfg.reclaim.auto_purge = false;  // purge only when the test says so
  return cfg;
}

void version_ticket_unit() {
  CHECK_EQ(jiffy::ebr::min_active_version(), kIdle);
  {
    jiffy::ebr::VersionTicket t;
    // Freshly constructed: sentinel 0 blocks the watermark entirely.
    CHECK_EQ(jiffy::ebr::min_active_version(), 0u);
    t.publish(12345);
    CHECK_EQ(jiffy::ebr::min_active_version(), 12345u);
    jiffy::ebr::VersionTicket t2;
    t2.publish(99);
    CHECK_EQ(jiffy::ebr::min_active_version(), 99u);
  }
  CHECK_EQ(jiffy::ebr::min_active_version(), kIdle);
  std::printf("version ticket unit ok\n");
}

// Erase a wave of keys so nodes shrink below the merge threshold, then
// reinsert so the next wave can merge again.
void churn_wave(Map& map, std::uint64_t n, std::uint64_t round) {
  for (std::uint64_t k = 0; k < n; ++k)
    if (k % 8 != 0) map.erase(k);
  for (std::uint64_t k = 0; k < n; ++k)
    if (k % 8 != 0) map.put(k, round * 1000 + k);
}

void manual_purge_progression() {
  Map map(manual_cfg());
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t k = 0; k < kN; ++k) map.put(k, k);
  for (std::uint64_t round = 1; round <= 3; ++round) churn_wave(map, kN, round);

  auto stats = map.debug_stats();
  std::printf("after churn: tombstones=%zu dead_shells~%zu\n",
              stats.tombstone_count, stats.dead_shell_estimate);
  CHECK(stats.tombstone_count > 0);  // merges left kAbsorbed markers linked

  // No snapshots alive -> watermark is ~0 -> everything is eligible. One
  // purge() call normally completes the whole state machine (its internal
  // quiesce() advances the epoch past the drain barrier); allow a few.
  std::size_t retired = 0;
  for (int i = 0; i < 10 && retired == 0; ++i) retired = map.purge();
  CHECK(retired > 0);

  stats = map.debug_stats();
  std::printf("after purge: tombstones=%zu purged_total=%llu\n",
              stats.tombstone_count,
              static_cast<unsigned long long>(stats.purged_total));
  CHECK_EQ(stats.tombstone_count, 0u);  // single-threaded: all were eligible
  CHECK_EQ(stats.purged_total, static_cast<std::uint64_t>(retired));
  CHECK_EQ(map.debug_condemned_refs(), 0u);

  // The map still answers correctly through the rebuilt links.
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t want = k % 8 == 0 ? k : 3000 + k;
    CHECK_EQ(map.get(k).value(), want);
  }
  CHECK_EQ(map.size_slow(), kN);
  std::printf("manual purge progression ok\n");
}

void snapshot_blocks_reclamation() {
  Map map(manual_cfg());
  constexpr std::uint64_t kN = 1024;
  for (std::uint64_t k = 0; k < kN; ++k) map.put(k, k);

  // Clean slate: reclaim the shells from the initial inserts' splits.
  for (int i = 0; i < 4; ++i) map.purge();
  const std::uint64_t purged_before = map.debug_stats().purged_total;

  {
    const auto snap = map.snapshot();  // pins version V via its ticket

    // All merge deaths from this churn stamp dv > V: ineligible while the
    // snapshot lives, no matter how often purge runs.
    for (std::uint64_t round = 1; round <= 2; ++round)
      churn_wave(map, kN, round);
    const std::size_t tombs_live = map.debug_stats().tombstone_count;
    CHECK(tombs_live > 0);
    for (int i = 0; i < 4; ++i) map.purge();

    const auto stats = map.debug_stats();
    CHECK_EQ(stats.purged_total, purged_before);      // nothing retired
    CHECK_EQ(stats.tombstone_count, tombs_live);      // nothing unlinked
    CHECK_EQ(map.debug_condemned_refs(), 0u);         // nothing condemned

    // And the snapshot still reads the pre-churn world exactly.
    for (std::uint64_t k = 0; k < kN; ++k)
      CHECK_EQ(snap.get(k).value(), k);
  }

  // Snapshot gone -> watermark lifts -> the same shells reclaim.
  std::size_t retired = 0;
  for (int i = 0; i < 10 && retired == 0; ++i) retired = map.purge();
  CHECK(retired > 0);
  const auto stats = map.debug_stats();
  CHECK_EQ(stats.tombstone_count, 0u);
  CHECK(stats.purged_total > purged_before);
  CHECK_EQ(map.debug_condemned_refs(), 0u);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t want = k % 8 == 0 ? k : 2000 + k;
    CHECK_EQ(map.get(k).value(), want);
  }
  std::printf("snapshot gating ok\n");
}

void auto_purge_bounds_growth() {
  jiffy::JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;
  cfg.reclaim.auto_purge = true;
  cfg.reclaim.threshold = 64;
  Map map(cfg);

  constexpr std::uint64_t kN = 512;
  for (std::uint64_t k = 0; k < kN; ++k) map.put(k, k);
  // ~50k ops of merge-heavy churn; the merge path must keep triggering
  // purge so linked garbage stays near the threshold instead of growing
  // with total churn.
  for (std::uint64_t round = 1; round <= 50; ++round) churn_wave(map, kN, round);

  auto stats = map.debug_stats();
  std::printf("auto-purge: tombstones=%zu purged_total=%llu\n",
              stats.tombstone_count,
              static_cast<unsigned long long>(stats.purged_total));
  CHECK(stats.purged_total > 0);  // the trigger actually fired
  CHECK(stats.tombstone_count < 2 * cfg.reclaim.threshold + 64);

  for (int i = 0; i < 6; ++i) map.purge();
  stats = map.debug_stats();
  CHECK_EQ(stats.tombstone_count, 0u);
  CHECK_EQ(map.size_slow(), kN);
  CHECK_EQ(map.debug_condemned_refs(), 0u);
  std::printf("auto-purge bound ok\n");
}

// Purge until a call retires something (single-threaded, so the drain
// completes within a call or two); returns the shells retired.
std::size_t purge_until_retired(Map& map) {
  std::size_t retired = 0;
  for (int i = 0; i < 10 && retired == 0; ++i) retired = map.purge();
  return retired;
}

// A splitter parks at index_link — its new node's level-l slot already
// points at the successor, the link CAS not yet made — while the map
// around it is merged away, condemned and unlinked. Its guard holds the
// drain, so nothing may be retired; released, its CAS must fail against
// the unlinked (marked) successor and retry, and the purge must then
// retire everything with no pointer left behind.
void index_link_scenario() {
  using jiffy::sched::FaultPlan;
  using jiffy::sched::Point;
  Map map(manual_cfg());
  constexpr std::uint64_t kN = 4000;
  for (std::uint64_t k = 0; k < kN; k += 2) map.put(k, k);

  FaultPlan plan;
  plan.block_at(Point::kIndexLink, 1);
  FaultPlan::install(&plan);
  jiffy::sched::enable_this_thread(false);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> last{0};
  std::thread splitter([&] {
    // Fill the odd keys in ascending order: the nodes split, and the first
    // split part with a tower parks at index_link.
    for (std::uint64_t k = 1; k < kN && !stop.load(); k += 2) {
      last.store(k);
      map.put(k, k);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (plan.blocked() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  CHECK_EQ(plan.blocked(), 1u);
  const std::uint64_t parked = last.load();

  // Merge (nearly) everything: erasing from the top lets each node absorb
  // its emptied successor.
  for (std::uint64_t k = kN; k-- > 0;)
    if (k % 64 != 0 && k != parked) map.erase(k);
  CHECK(map.debug_stats().tombstone_count > 0);
  for (int i = 0; i < 4; ++i) CHECK_EQ(map.purge(), 0u);  // drain held
  for (std::uint64_t k = 0; k < kN; k += 64) CHECK_EQ(map.get(k).value(), k);

  stop.store(true);
  plan.release_all();
  splitter.join();
  FaultPlan::uninstall();
  jiffy::sched::enable_this_thread(true);

  CHECK(purge_until_retired(map) > 0);
  for (int i = 0; i < 4; ++i) map.purge();
  CHECK_EQ(map.debug_condemned_refs(), 0u);
  CHECK_EQ(map.debug_stats().tombstone_count, 0u);
  std::size_t live = 0;
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::optional<std::uint64_t> v = map.get(k);
    const bool want = k % 64 == 0 || k == parked ||
                      (k % 2 == 1 && k > parked && k <= last.load());
    CHECK_EQ(v.has_value(), want);
    if (v) {
      CHECK_EQ(*v, k);
      ++live;
    }
  }
  CHECK_EQ(map.size_slow(), live);
  std::printf("index_link scenario ok (parked at key %llu)\n",
              static_cast<unsigned long long>(parked));
}

// A shell and a live node with the same anchor: node A absorbs B (anchor
// 14), then A splits with a part starting exactly at 14, so the new node m
// lands between A and the shell, both anchored at 14. Reverse traversal
// must survive that state; the unlink must walk the equal-anchor run by
// identity, remove the shell and keep m.
void equal_anchor_scenario() {
  Map map(manual_cfg());  // fixed_size 8: merge when combined <= 5
  for (std::uint64_t k = 0; k <= 15; ++k) map.put(k, k);
  // head{0..6}, A(7){7..13}, B(14){14,15}
  CHECK_EQ(map.debug_stats().node_count, 3u);
  const std::vector<std::uint64_t> want = {0,  1,  2,  3,  4,  5,  6,  7,
                                           10, 11, 12, 13, 14, 15, 16, 17};
  auto check_now = [&] {
    std::vector<std::uint64_t> fwd, rev;
    map.scan_n(0, 100, [&](std::uint64_t k, std::uint64_t) {
      fwd.push_back(k);
    });
    CHECK(fwd == want);
    map.rscan_n(100, 100, [&](std::uint64_t k, std::uint64_t) {
      rev.push_back(k);
    });
    std::reverse(rev.begin(), rev.end());
    CHECK(rev == want);
    for (std::uint64_t k = 0; k < 20; ++k) {
      const bool present =
          std::find(want.begin(), want.end(), k) != want.end();
      CHECK_EQ(map.get(k).has_value(), present);
      if (present) CHECK_EQ(map.get(k).value(), k < 16 ? k : 100 + k);
    }
  };
  {
    const auto before = map.snapshot();
    for (std::uint64_t k : {8, 9, 10, 11}) map.erase(k);  // A{7,12,13}+B
    auto stats = map.debug_stats();
    CHECK_EQ(stats.tombstone_count, 1u);
    CHECK_EQ(stats.node_count, 2u);
    for (std::uint64_t k : {10, 16, 17, 11}) map.put(k, k < 16 ? k : 100 + k);
    // A{7,10,12,13,14,15,16,17} + 11 splits evenly: A{7,10,11,12,13} and
    // m(14){14,15,16,17} in front of the shell B(14).
    stats = map.debug_stats();
    CHECK_EQ(stats.tombstone_count, 1u);
    CHECK_EQ(stats.node_count, 3u);
    check_now();
    // The pre-merge snapshot pins the shell: nothing to reclaim yet, and
    // it still reads the world before the merge, backwards too.
    CHECK_EQ(map.purge(), 0u);
    std::vector<std::uint64_t> old_rev;
    for (auto c = before.seek_for_prev(100); c.valid(); c.prev())
      old_rev.push_back(c.key());
    CHECK_EQ(old_rev.size(), 16u);
    for (std::uint64_t i = 0; i < 16; ++i) CHECK_EQ(old_rev[i], 15 - i);
  }
  CHECK_EQ(purge_until_retired(map), 1u);
  CHECK_EQ(map.debug_condemned_refs(), 0u);
  const auto stats = map.debug_stats();
  CHECK_EQ(stats.tombstone_count, 0u);
  CHECK_EQ(stats.node_count, 3u);
  check_now();
  std::printf("equal-anchor scenario ok\n");
}

// Nodes the purge pass steps on per retired shell, for the same number of
// shells on a map of n entries (JIFFY_OBS counters; 0 when compiled out).
double visits_per_shell(std::uint64_t n) {
  Map map(manual_cfg());
  for (std::uint64_t k = 0; k < n; ++k) map.put(k, k);
  // 32 windows spread over the key space, each emptied from the top so
  // its nodes merge into one another.
  constexpr std::uint64_t kWindows = 32, kWidth = 96;
  for (std::uint64_t w = 0; w < kWindows; ++w) {
    const std::uint64_t base = w * (n / kWindows);
    for (std::uint64_t k = base + kWidth; k-- > base;)
      if (k % 16 != 0) map.erase(k);
  }
  const jiffy::obs::MetricsSnapshot c0 = jiffy::obs::snapshot();
  std::size_t retired = 0;
  for (int i = 0; i < 10; ++i) retired += map.purge();
  const jiffy::obs::MetricsSnapshot d = jiffy::obs::snapshot() - c0;
  CHECK(retired > 0);
  CHECK_EQ(map.debug_stats().tombstone_count, 0u);
  const double v = static_cast<double>(d[jiffy::obs::Ev::purge_visits]) /
                   static_cast<double>(retired);
  std::printf("  n=%llu shells=%zu passes=%lld visits/shell=%.1f\n",
              static_cast<unsigned long long>(n), retired,
              static_cast<long long>(d[jiffy::obs::Ev::purge_sweeps]), v);
  return v;
}

// The targeted unlink costs O(log n) per shell: 64x more entries may not
// cost more than 4x the visits per shell (a full-structure sweep would
// cost ~64x).
void purge_cost_scales_with_shells() {
  const double small = visits_per_shell(4096);
  const double large = visits_per_shell(256 * 1024);
  if (JIFFY_OBS) {
    CHECK(small > 0 && large > 0);
    CHECK(large <= 4 * small && small <= 4 * large);
  }
  std::printf("purge cost scaling ok (%.1f vs %.1f visits/shell)\n", small,
              large);
}

}  // namespace

int main() {
  version_ticket_unit();
  manual_purge_progression();
  snapshot_blocks_reclamation();
  auto_purge_bounds_growth();
  index_link_scenario();
  equal_anchor_scenario();
  purge_cost_scales_with_shells();
  std::printf("test_reclaim OK\n");
  return 0;
}
