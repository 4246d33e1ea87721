// Two-level LRU for the hot data area (paper Fig. 10(a), Algorithm 1).
//
// New hot writes enter the head of the HOT list.  A read of a hot-list entry
// promotes it to the head of the IRON-HOT list (its data will be moved to a
// fast virtual block progressively, on the next update or GC).  Overflow
// demotes: the iron-hot LRU tail falls back to the hot head; the hot LRU
// tail leaves the hot area entirely (demoted to the cold area).  Duplicate
// LBAs are collapsed on every write (Algorithm 1 lines 2-5).
//
// At most one entry can cascade out of the structure per operation, so every
// mutator returns an optional demoted LPN instead of a vector.
//
// Storage is dense and indexed by LPN: both recency lists are intrusive
// doubly-linked lists threaded through one array of uint32 prev/next links,
// plus a 1-byte tier per LPN (9 B per logical page, allocated once).  Every
// operation is O(1) with no allocation.  LPNs at or beyond the logical page
// count throw std::out_of_range; the structure never grows.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/serial.h"
#include "util/types.h"

namespace ctflash::core {

class TwoLevelLru {
 public:
  enum class Tier : std::uint8_t { kNone = 0, kHot = 1, kIronHot = 2 };

  /// `logical_pages` is the LPN key space (> 0, below 2^32 - 1); capacities
  /// are entry counts (> 0).
  TwoLevelLru(std::uint64_t logical_pages, std::size_t hot_capacity,
              std::size_t iron_capacity);

  Tier TierOf(Lpn lpn) const { return tier_[Index(lpn)]; }
  bool Contains(Lpn lpn) const { return TierOf(lpn) != Tier::kNone; }

  struct Outcome {
    /// Tier the caller should place the data in (kHot or kIronHot); kNone
    /// from OnRead means the lpn is not tracked by the hot area.
    Tier tier = Tier::kNone;
    /// Entry pushed out of the hot area (goes to the cold area), if any.
    std::optional<Lpn> demoted_to_cold;
  };

  /// Registers a host write.  Re-writes of an iron-hot entry stay iron-hot
  /// (the VB-list divert rules may still redirect the physical placement);
  /// everything else (re)enters the hot list head.
  Outcome OnWrite(Lpn lpn);

  /// Registers a host read.  Hot entries are promoted to iron-hot; iron-hot
  /// entries are refreshed.  Unknown lpns return tier kNone and no demotion.
  Outcome OnRead(Lpn lpn);

  /// Removes an entry (data reclassified cold by the first stage, or
  /// trimmed).  No-op when absent.
  void Erase(Lpn lpn);

  std::size_t HotSize() const { return hot_.size; }
  std::size_t IronSize() const { return iron_.size; }
  std::size_t hot_capacity() const { return hot_capacity_; }
  std::size_t iron_capacity() const { return iron_capacity_; }

  /// Least-recently-used entries (tails), for tests.
  std::optional<Lpn> HotTail() const;
  std::optional<Lpn> IronTail() const;

  /// O(logical pages) structural check: every list is acyclic, its links
  /// agree in both directions, its entries carry its tier, sizes match the
  /// walks and stay within capacity, and no untracked LPN carries a tier.
  bool CheckInvariants() const;

  /// Serializes both recency lists in MRU->LRU order; the links are rebuilt
  /// on load.  LoadState throws std::runtime_error when a list exceeds this
  /// instance's capacity, or holds an LPN at or beyond the logical page count
  /// or one already seen in either list.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Link {
    std::uint32_t prev;  // towards the MRU head
    std::uint32_t next;  // towards the LRU tail
  };
  struct List {
    std::uint32_t head = kNil;  // MRU
    std::uint32_t tail = kNil;  // LRU
    std::size_t size = 0;
  };

  std::uint32_t Index(Lpn lpn) const {
    if (lpn >= tier_.size()) ThrowOutOfRange(lpn);
    return static_cast<std::uint32_t>(lpn);
  }
  [[noreturn]] void ThrowOutOfRange(Lpn lpn) const;

  List& ListOf(Tier tier) { return tier == Tier::kHot ? hot_ : iron_; }
  void PushFront(Tier tier, std::uint32_t i);
  void Unlink(std::uint32_t i);
  /// Inserts at the head of `tier`'s list, cascading demotions.
  std::optional<Lpn> InsertHead(std::uint32_t i, Tier tier);
  bool CheckList(const List& list, Tier tier) const;
  void PutList(util::StateWriter& w, const List& list) const;

  std::size_t hot_capacity_;
  std::size_t iron_capacity_;
  std::vector<Link> links_;  // valid only where tier_ != kNone
  std::vector<Tier> tier_;
  List hot_;
  List iron_;
};

}  // namespace ctflash::core
