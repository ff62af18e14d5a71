// The MapApi concept: the one surface the figure harness compiles against —
// CRUD + contains / approx_size, typed batch apply, forward/reverse bounded
// scans and a half-open range scan. JiffyMap, CslmMap and LfList model it
// directly, so the harness instantiates the maps themselves; adding an index
// is "make it model the concept" — no per-index special cases.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "baselines/cslm.h"
#include "baselines/lf_list.h"
#include "core/jiffy.h"
#include "workload/keyvalue.h"

namespace jiffy {

// `scan_n` visits up to n entries with key >= from in ascending order;
// `rscan_n` up to n entries with key <= from in descending order;
// `range_scan` every entry in the half-open range [lo, hi) ascending. All
// three return the visit count. `apply` consumes a typed Batch — atomic on
// JiffyMap only; the baselines apply it as a plain loop. `approx_size` is
// O(1) and may be transiently off by in-flight operations.
template <class A>
concept MapApi = requires(A& a, const A& ca, const typename A::key_type& k,
                          const typename A::mapped_type& v,
                          Batch<typename A::key_type,
                                typename A::mapped_type> b) {
  { a.put(k, v) } -> std::same_as<bool>;
  { a.erase(k) } -> std::same_as<bool>;
  { ca.get(k) } -> std::same_as<std::optional<typename A::mapped_type>>;
  { ca.contains(k) } -> std::same_as<bool>;
  { ca.approx_size() } -> std::same_as<std::size_t>;
  { a.apply(std::move(b)) } -> std::same_as<void>;
  { ca.scan_n(k, std::size_t{1},
              [](const typename A::key_type&,
                 const typename A::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
  { ca.rscan_n(k, std::size_t{1},
               [](const typename A::key_type&,
                  const typename A::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
  { ca.range_scan(k, k,
                  [](const typename A::key_type&,
                     const typename A::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
};

static_assert(MapApi<JiffyMap<std::uint64_t, std::uint64_t>>);
static_assert(MapApi<baselines::CslmMap<std::uint64_t, std::uint64_t>>);
static_assert(MapApi<baselines::LfList<std::uint64_t, std::uint64_t>>);

}  // namespace jiffy
