#include "core/access_frequency_table.h"

#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::core {

namespace {
/// Calls `fn(i)` for every set bit of `words`, in ascending bit order.  `fn`
/// may clear the bit it is given.
template <typename Fn>
void ForEachSetBit(const std::vector<std::uint64_t>& words, Fn&& fn) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}
}  // namespace

AccessFrequencyTable::AccessFrequencyTable(std::uint64_t logical_pages,
                                           std::uint32_t promote_threshold,
                                           std::size_t capacity)
    : promote_threshold_(promote_threshold), capacity_(capacity) {
  if (promote_threshold == 0) {
    throw std::invalid_argument(
        "AccessFrequencyTable: promote_threshold must be > 0");
  }
  if (capacity == 0) {
    throw std::invalid_argument("AccessFrequencyTable: capacity must be > 0");
  }
  if (logical_pages == 0) {
    throw std::invalid_argument(
        "AccessFrequencyTable: logical_pages must be > 0");
  }
  count_.assign(logical_pages, 0);
  present_.assign((logical_pages + 63) / 64, 0);
}

void AccessFrequencyTable::ThrowOutOfRange(Lpn lpn) const {
  throw std::out_of_range("AccessFrequencyTable: lpn " + std::to_string(lpn) +
                          " >= logical page count " +
                          std::to_string(count_.size()));
}

void AccessFrequencyTable::Insert(std::size_t i, std::uint32_t count) {
  present_[i / 64] |= std::uint64_t{1} << (i % 64);
  count_[i] = count;
  ++size_;
}

void AccessFrequencyTable::Drop(std::size_t i) {
  present_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  count_[i] = 0;
  --size_;
}

void AccessFrequencyTable::MaybeDecay() {
  if (size_ < capacity_) return;
  ++decays_;
  ForEachSetBit(present_, [this](std::size_t i) {
    count_[i] /= 2;
    if (count_[i] == 0) Drop(i);
  });
  // Pathological case: every entry still above zero after halving.  Drop
  // the lowest LPNs until there is room (they are all popular; the rule
  // only has to be deterministic).
  for (std::size_t w = 0; size_ >= capacity_; ++w) {
    while (present_[w] != 0 && size_ >= capacity_) {
      Drop(w * 64 + static_cast<std::size_t>(std::countr_zero(present_[w])));
    }
  }
}

void AccessFrequencyTable::Set(Lpn lpn, std::uint32_t count) {
  const std::size_t i = Index(lpn);
  if (Present(i)) {
    count_[i] = count;
    return;
  }
  MaybeDecay();
  Insert(i, count);
}

std::uint32_t AccessFrequencyTable::OnRead(Lpn lpn) {
  const std::size_t i = Index(lpn);
  if (Present(i)) {
    if (count_[i] < ~0u) ++count_[i];
    return count_[i];
  }
  MaybeDecay();
  Insert(i, 1);
  return 1;
}

void AccessFrequencyTable::Erase(Lpn lpn) {
  const std::size_t i = Index(lpn);
  if (Present(i)) Drop(i);
}

bool AccessFrequencyTable::CheckInvariants() const {
  if (size_ > capacity_) return false;
  std::size_t present = 0;
  for (std::size_t i = 0; i < count_.size(); ++i) {
    if (Present(i)) {
      ++present;
    } else if (count_[i] != 0) {
      return false;
    }
  }
  // Bits past the last LPN in the final word must stay clear.
  return present == size_ &&
         (count_.size() % 64 == 0 ||
          present_.back() >> (count_.size() % 64) == 0);
}

void AccessFrequencyTable::SaveState(util::StateWriter& w) const {
  w.Tag("FREQ");
  w.PutU64(size_);
  ForEachSetBit(present_, [&](std::size_t i) {
    w.PutU64(i);
    w.PutU32(count_[i]);
  });
  w.PutU64(decays_);
}

void AccessFrequencyTable::LoadState(util::StateReader& r) {
  r.ExpectTag("FREQ");
  const std::uint64_t n = r.GetCount();
  if (n > capacity_) {
    throw std::runtime_error("snapshot: FREQ entry count " + std::to_string(n) +
                             " exceeds capacity " + std::to_string(capacity_));
  }
  // Decode into a fresh table so a rejected section leaves this one intact.
  AccessFrequencyTable loaded(count_.size(), promote_threshold_, capacity_);
  for (std::uint64_t k = 0; k < n; ++k) {
    const Lpn lpn = r.GetU64();
    const std::uint32_t count = r.GetU32();
    if (lpn >= count_.size()) {
      throw std::runtime_error("snapshot: FREQ lpn " + std::to_string(lpn) +
                               " >= logical page count " +
                               std::to_string(count_.size()));
    }
    if (loaded.Present(lpn)) {
      throw std::runtime_error("snapshot: FREQ lpn " + std::to_string(lpn) +
                               " is a duplicate");
    }
    loaded.Insert(lpn, count);
  }
  loaded.decays_ = r.GetU64();
  *this = std::move(loaded);
}

}  // namespace ctflash::core
