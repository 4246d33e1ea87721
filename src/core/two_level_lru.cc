#include "core/two_level_lru.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::core {

TwoLevelLru::TwoLevelLru(std::uint64_t logical_pages,
                         std::size_t hot_capacity, std::size_t iron_capacity)
    : hot_capacity_(hot_capacity), iron_capacity_(iron_capacity) {
  if (hot_capacity == 0 || iron_capacity == 0) {
    throw std::invalid_argument("TwoLevelLru: capacities must be > 0");
  }
  if (logical_pages == 0 || logical_pages >= kNil) {
    throw std::invalid_argument(
        "TwoLevelLru: logical_pages must be in [1, 2^32 - 1)");
  }
  links_.resize(logical_pages);
  tier_.assign(logical_pages, Tier::kNone);
}

void TwoLevelLru::ThrowOutOfRange(Lpn lpn) const {
  throw std::out_of_range("TwoLevelLru: lpn " + std::to_string(lpn) +
                          " >= logical page count " +
                          std::to_string(tier_.size()));
}

void TwoLevelLru::PushFront(Tier tier, std::uint32_t i) {
  List& list = ListOf(tier);
  links_[i] = Link{kNil, list.head};
  if (list.head != kNil) {
    links_[list.head].prev = i;
  } else {
    list.tail = i;
  }
  list.head = i;
  ++list.size;
  tier_[i] = tier;
}

void TwoLevelLru::Unlink(std::uint32_t i) {
  List& list = ListOf(tier_[i]);
  const Link link = links_[i];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    list.head = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    list.tail = link.prev;
  }
  --list.size;
  tier_[i] = Tier::kNone;
}

std::optional<Lpn> TwoLevelLru::InsertHead(std::uint32_t i, Tier tier) {
  // Demote the LRU tail on overflow: iron-hot -> hot head; hot -> out (cold
  // area).
  if (tier == Tier::kIronHot) {
    PushFront(Tier::kIronHot, i);
    if (iron_.size <= iron_capacity_) return std::nullopt;
    i = iron_.tail;
    Unlink(i);
  }
  PushFront(Tier::kHot, i);
  if (hot_.size <= hot_capacity_) return std::nullopt;
  const std::uint32_t victim = hot_.tail;
  Unlink(victim);
  return victim;
}

TwoLevelLru::Outcome TwoLevelLru::OnWrite(Lpn lpn) {
  const std::uint32_t i = Index(lpn);
  const Tier current = tier_[i];
  // Algorithm 1 lines 2-5: drop the duplicated entry before re-inserting.
  if (current != Tier::kNone) Unlink(i);
  Outcome out;
  out.tier = current == Tier::kIronHot ? Tier::kIronHot : Tier::kHot;
  out.demoted_to_cold = InsertHead(i, out.tier);
  return out;
}

TwoLevelLru::Outcome TwoLevelLru::OnRead(Lpn lpn) {
  const std::uint32_t i = Index(lpn);
  Outcome out;
  if (tier_[i] == Tier::kNone) return out;  // not in the hot area
  Unlink(i);
  out.tier = Tier::kIronHot;  // "promote if read"
  out.demoted_to_cold = InsertHead(i, Tier::kIronHot);
  return out;
}

void TwoLevelLru::Erase(Lpn lpn) {
  const std::uint32_t i = Index(lpn);
  if (tier_[i] != Tier::kNone) Unlink(i);
}

std::optional<Lpn> TwoLevelLru::HotTail() const {
  if (hot_.tail == kNil) return std::nullopt;
  return hot_.tail;
}

std::optional<Lpn> TwoLevelLru::IronTail() const {
  if (iron_.tail == kNil) return std::nullopt;
  return iron_.tail;
}

bool TwoLevelLru::CheckList(const List& list, Tier tier) const {
  std::size_t walked = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t i = list.head; i != kNil; i = links_[i].next) {
    // A walk longer than the recorded size means a cycle or a stray link.
    if (i >= tier_.size() || ++walked > list.size) return false;
    if (tier_[i] != tier || links_[i].prev != prev) return false;
    prev = i;
  }
  return walked == list.size && list.tail == prev;
}

bool TwoLevelLru::CheckInvariants() const {
  if (hot_.size > hot_capacity_ || iron_.size > iron_capacity_) return false;
  if (!CheckList(hot_, Tier::kHot) || !CheckList(iron_, Tier::kIronHot)) {
    return false;
  }
  const auto tracked = static_cast<std::size_t>(
      std::count_if(tier_.begin(), tier_.end(),
                    [](Tier t) { return t != Tier::kNone; }));
  return tracked == hot_.size + iron_.size;
}

void TwoLevelLru::PutList(util::StateWriter& w, const List& list) const {
  w.PutU64(list.size);
  for (std::uint32_t i = list.head; i != kNil; i = links_[i].next) w.PutU64(i);
}

void TwoLevelLru::SaveState(util::StateWriter& w) const {
  w.Tag("2LRU");
  PutList(w, hot_);
  PutList(w, iron_);
}

void TwoLevelLru::LoadState(util::StateReader& r) {
  r.ExpectTag("2LRU");
  const std::vector<std::uint64_t> hot = r.GetU64Seq();
  const std::vector<std::uint64_t> iron = r.GetU64Seq();
  if (hot.size() > hot_capacity_ || iron.size() > iron_capacity_) {
    throw std::runtime_error("snapshot: LRU list exceeds capacity (hot " +
                             std::to_string(hot.size()) + "/" +
                             std::to_string(hot_capacity_) + ", iron " +
                             std::to_string(iron.size()) + "/" +
                             std::to_string(iron_capacity_) + ")");
  }
  // Decode into a fresh structure so a rejected section leaves this one
  // intact.  A duplicate would thread one link into two list positions and
  // close a cycle, so it is rejected like an out-of-range LPN.
  TwoLevelLru loaded(tier_.size(), hot_capacity_, iron_capacity_);
  const auto load = [&](const std::vector<std::uint64_t>& seq, Tier tier,
                        const char* field) {
    // LRU -> MRU, so pushing each entry at the head rebuilds the saved order.
    for (auto it = seq.rbegin(); it != seq.rend(); ++it) {
      const std::uint64_t lpn = *it;
      if (lpn >= tier_.size()) {
        throw std::runtime_error(
            std::string("snapshot: 2LRU ") + field + " lpn " +
            std::to_string(lpn) + " >= logical page count " +
            std::to_string(tier_.size()));
      }
      if (loaded.tier_[lpn] != Tier::kNone) {
        throw std::runtime_error(std::string("snapshot: 2LRU ") + field +
                                 " lpn " + std::to_string(lpn) +
                                 " is a duplicate");
      }
      loaded.PushFront(tier, static_cast<std::uint32_t>(lpn));
    }
  };
  load(hot, Tier::kHot, "hot");
  load(iron, Tier::kIronHot, "iron");
  *this = std::move(loaded);
}

}  // namespace ctflash::core
