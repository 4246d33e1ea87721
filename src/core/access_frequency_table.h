// Access-frequency table for the cold data area (paper Fig. 11(a)).
//
// Logs per-chunk read counts for data the first stage classified cold.
// Chunks whose read frequency reaches `promote_threshold` are "cold"
// (write-once-read-MANY -> fast pages); the rest are "icy-cold"
// (write-once-read-few -> slow pages).  A write resets the counter — the
// data is new content whose popularity is unknown again.
//
// The table is capacity-bounded.  On overflow all counters are halved and
// zero entries dropped (classic aging), which both bounds memory and lets
// stale popularity decay, standing in for the paper's "sorted by logged
// access frequency" maintenance.  When every entry is still non-zero after
// halving, the entries with the LOWEST LPNs are dropped until there is room
// again, so the surviving set is a function of the table's contents alone.
//
// Storage is dense and indexed by LPN: a uint32 count and a presence bit per
// logical page (4 B + 1 bit, allocated once; untracked LPNs keep count 0).
// Lookups and updates are O(1); a decay walks the presence bits in
// ascending LPN order, O(logical pages / 64 + entries).  LPNs at or beyond
// the logical page count throw std::out_of_range; the table never grows.
#pragma once

#include <cstdint>
#include <vector>

#include "util/serial.h"
#include "util/types.h"

namespace ctflash::core {

class AccessFrequencyTable {
 public:
  /// `logical_pages` is the LPN key space (> 0); `capacity` the entry budget.
  AccessFrequencyTable(std::uint64_t logical_pages,
                       std::uint32_t promote_threshold, std::size_t capacity);

  /// Registers (or re-registers) newly written cold data; counter resets.
  void OnWrite(Lpn lpn) { Set(lpn, 0); }

  /// Registers an entry with an explicit popularity seed (used when data is
  /// demoted from the hot area with known read history).
  void Register(Lpn lpn, std::uint32_t initial_frequency) {
    Set(lpn, initial_frequency);
  }

  /// Increments and returns the read counter (registering if unknown).
  std::uint32_t OnRead(Lpn lpn);

  /// Current read count (0 when untracked).
  std::uint32_t FrequencyOf(Lpn lpn) const { return count_[Index(lpn)]; }

  /// Second-level classification: cold (true) vs icy-cold (false).
  bool IsCold(Lpn lpn) const {
    return FrequencyOf(lpn) >= promote_threshold_;
  }

  void Erase(Lpn lpn);

  std::size_t Size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint32_t promote_threshold() const { return promote_threshold_; }
  std::uint64_t decay_count() const { return decays_; }

  /// O(logical pages) structural check: the presence bits count `Size()`
  /// entries, within capacity, and every untracked LPN has count 0.
  bool CheckInvariants() const;

  /// Serializes entries in ascending LPN order (a canonical encoding:
  /// identical tables produce identical bytes).  LoadState throws
  /// std::runtime_error when the section holds more entries than the
  /// capacity, an LPN at or beyond the logical page count, or a duplicate.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  std::size_t Index(Lpn lpn) const {
    if (lpn >= count_.size()) ThrowOutOfRange(lpn);
    return static_cast<std::size_t>(lpn);
  }
  [[noreturn]] void ThrowOutOfRange(Lpn lpn) const;

  bool Present(std::size_t i) const {
    return (present_[i / 64] >> (i % 64)) & 1;
  }
  /// Sets the count of `lpn`, inserting it (after a possible decay) when
  /// untracked.
  void Set(Lpn lpn, std::uint32_t count);
  void Insert(std::size_t i, std::uint32_t count);
  void Drop(std::size_t i);
  void MaybeDecay();

  std::uint32_t promote_threshold_;
  std::size_t capacity_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint64_t> present_;  // one bit per LPN
  std::size_t size_ = 0;
  std::uint64_t decays_ = 0;
};

}  // namespace ctflash::core
