// Differential and decoder-robustness tests for the PPB hotness state.
//
// The reference structures below are the hash-map / linked-list
// implementations the dense LPN-indexed TwoLevelLru and AccessFrequencyTable
// replaced, kept here as an executable specification.  The one deliberate
// difference from the original reference table: when every entry survives a
// decay, it drops the lowest LPN first (the documented rule) instead of
// whatever entry came first in hash order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/access_frequency_table.h"
#include "core/two_level_lru.h"
#include "util/random.h"
#include "util/serial.h"

namespace ctflash::core {
namespace {

using Tier = TwoLevelLru::Tier;

class RefTwoLevelLru {
 public:
  RefTwoLevelLru(std::size_t hot_capacity, std::size_t iron_capacity)
      : hot_capacity_(hot_capacity), iron_capacity_(iron_capacity) {}

  Tier TierOf(Lpn lpn) const {
    const auto it = index_.find(lpn);
    return it == index_.end() ? Tier::kNone : it->second.tier;
  }

  TwoLevelLru::Outcome OnWrite(Lpn lpn) {
    TwoLevelLru::Outcome out;
    const Tier current = TierOf(lpn);
    Detach(lpn);
    out.tier = current == Tier::kIronHot ? Tier::kIronHot : Tier::kHot;
    out.demoted_to_cold = InsertHead(lpn, out.tier);
    return out;
  }

  TwoLevelLru::Outcome OnRead(Lpn lpn) {
    TwoLevelLru::Outcome out;
    if (TierOf(lpn) == Tier::kNone) return out;
    Detach(lpn);
    out.tier = Tier::kIronHot;
    out.demoted_to_cold = InsertHead(lpn, Tier::kIronHot);
    return out;
  }

  void Erase(Lpn lpn) { Detach(lpn); }

  std::size_t HotSize() const { return hot_.size(); }
  std::size_t IronSize() const { return iron_.size(); }
  std::optional<Lpn> HotTail() const {
    return hot_.empty() ? std::nullopt : std::optional<Lpn>(hot_.back());
  }
  std::optional<Lpn> IronTail() const {
    return iron_.empty() ? std::nullopt : std::optional<Lpn>(iron_.back());
  }

  void SaveState(util::StateWriter& w) const {
    w.Tag("2LRU");
    w.PutU64Seq(hot_);
    w.PutU64Seq(iron_);
  }

 private:
  struct Node {
    std::list<Lpn>::iterator it;
    Tier tier;
  };

  std::optional<Lpn> InsertHead(Lpn lpn, Tier tier) {
    std::list<Lpn>& list = tier == Tier::kHot ? hot_ : iron_;
    const std::size_t capacity =
        tier == Tier::kHot ? hot_capacity_ : iron_capacity_;
    list.push_front(lpn);
    index_[lpn] = Node{list.begin(), tier};
    if (list.size() <= capacity) return std::nullopt;
    const Lpn victim = list.back();
    list.pop_back();
    index_.erase(victim);
    if (tier == Tier::kIronHot) return InsertHead(victim, Tier::kHot);
    return victim;
  }

  void Detach(Lpn lpn) {
    const auto it = index_.find(lpn);
    if (it == index_.end()) return;
    (it->second.tier == Tier::kHot ? hot_ : iron_).erase(it->second.it);
    index_.erase(it);
  }

  std::size_t hot_capacity_;
  std::size_t iron_capacity_;
  std::list<Lpn> hot_;
  std::list<Lpn> iron_;
  std::unordered_map<Lpn, Node> index_;
};

class RefFreqTable {
 public:
  explicit RefFreqTable(std::size_t capacity) : capacity_(capacity) {}

  void OnWrite(Lpn lpn) { Register(lpn, 0); }

  void Register(Lpn lpn, std::uint32_t initial_frequency) {
    const auto it = freq_.find(lpn);
    if (it != freq_.end()) {
      it->second = initial_frequency;
      return;
    }
    MaybeDecay();
    freq_.emplace(lpn, initial_frequency);
  }

  std::uint32_t OnRead(Lpn lpn) {
    const auto it = freq_.find(lpn);
    if (it != freq_.end()) {
      if (it->second < ~0u) ++it->second;
      return it->second;
    }
    MaybeDecay();
    freq_.emplace(lpn, 1);
    return 1;
  }

  std::uint32_t FrequencyOf(Lpn lpn) const {
    const auto it = freq_.find(lpn);
    return it == freq_.end() ? 0 : it->second;
  }

  void Erase(Lpn lpn) { freq_.erase(lpn); }

  std::size_t Size() const { return freq_.size(); }
  std::uint64_t decay_count() const { return decays_; }
  std::uint64_t all_popular_drops() const { return all_popular_drops_; }

  void SaveState(util::StateWriter& w) const {
    w.Tag("FREQ");
    std::vector<std::pair<Lpn, std::uint32_t>> entries(freq_.begin(),
                                                       freq_.end());
    std::sort(entries.begin(), entries.end());
    w.PutU64(entries.size());
    for (const auto& [lpn, count] : entries) {
      w.PutU64(lpn);
      w.PutU32(count);
    }
    w.PutU64(decays_);
  }

 private:
  void MaybeDecay() {
    if (freq_.size() < capacity_) return;
    ++decays_;
    for (auto it = freq_.begin(); it != freq_.end();) {
      it->second /= 2;
      it = it->second == 0 ? freq_.erase(it) : std::next(it);
    }
    while (freq_.size() >= capacity_) {
      freq_.erase(std::min_element(freq_.begin(), freq_.end())->first);
      ++all_popular_drops_;
    }
  }

  std::size_t capacity_;
  std::unordered_map<Lpn, std::uint32_t> freq_;
  std::uint64_t decays_ = 0;
  std::uint64_t all_popular_drops_ = 0;
};

template <typename T>
std::vector<std::uint8_t> Save(const T& t) {
  util::StateWriter w;
  t.SaveState(w);
  return w.TakeBytes();
}

struct LockstepCase {
  std::uint64_t logical_pages;
  std::size_t hot_capacity;
  std::size_t iron_capacity;
  std::size_t freq_capacity;
  std::uint64_t seed;
};

class HotnessLockstep : public ::testing::TestWithParam<LockstepCase> {};

// Drives both implementations with the same operation stream, coupled the
// way PpbFtl couples them (hot-area demotions enter the frequency table),
// and requires identical observable state after every operation.
TEST_P(HotnessLockstep, DenseMatchesReference) {
  const LockstepCase c = GetParam();
  TwoLevelLru lru(c.logical_pages, c.hot_capacity, c.iron_capacity);
  AccessFrequencyTable freq(c.logical_pages, 2, c.freq_capacity);
  RefTwoLevelLru ref_lru(c.hot_capacity, c.iron_capacity);
  RefFreqTable ref_freq(c.freq_capacity);
  util::Xoshiro256StarStar rng(c.seed);
  // Half the keys come from a small popular prefix so entries are re-hit.
  const std::uint64_t popular = std::max<std::uint64_t>(1, c.logical_pages / 16);

  constexpr int kOps = 60000;
  for (int op = 1; op <= kOps; ++op) {
    const Lpn lpn = rng.UniformBelow(rng.Bernoulli(0.5) ? popular
                                                        : c.logical_pages);
    // The last quarter is a popularity storm: mostly large seeds, so whole
    // tables survive halving and the lowest-LPN drop rule has to act.
    const bool storm = op > kOps - kOps / 4;
    TwoLevelLru::Outcome out, ref_out;
    switch (storm && rng.Bernoulli(0.7) ? 3 : rng.UniformBelow(6)) {
      case 0:  // hot-area write
        out = lru.OnWrite(lpn);
        ref_out = ref_lru.OnWrite(lpn);
        freq.Erase(lpn);
        ref_freq.Erase(lpn);
        break;
      case 1:  // host read
        out = lru.OnRead(lpn);
        ref_out = ref_lru.OnRead(lpn);
        if (out.tier == Tier::kNone) {
          ASSERT_EQ(freq.OnRead(lpn), ref_freq.OnRead(lpn)) << "op " << op;
        }
        break;
      case 2:  // cold-area write
        lru.Erase(lpn);
        ref_lru.Erase(lpn);
        freq.OnWrite(lpn);
        ref_freq.OnWrite(lpn);
        break;
      case 3: {  // seeded popularity: 0, small, or large enough to survive
        static constexpr std::uint32_t kSeeds[] = {0, 1, 3, 1u << 20, ~0u};
        const std::uint32_t seed = kSeeds[storm ? 3 + rng.UniformBelow(2)
                                                : rng.UniformBelow(5)];
        freq.Register(lpn, seed);
        ref_freq.Register(lpn, seed);
        break;
      }
      case 4:
        freq.Erase(lpn);
        ref_freq.Erase(lpn);
        break;
      default:
        lru.Erase(lpn);
        ref_lru.Erase(lpn);
        break;
    }
    ASSERT_EQ(out.tier, ref_out.tier) << "op " << op;
    ASSERT_EQ(out.demoted_to_cold, ref_out.demoted_to_cold) << "op " << op;
    if (out.demoted_to_cold) {
      freq.OnWrite(*out.demoted_to_cold);
      ref_freq.OnWrite(*ref_out.demoted_to_cold);
      ASSERT_EQ(lru.TierOf(*out.demoted_to_cold), Tier::kNone);
    }
    ASSERT_EQ(lru.TierOf(lpn), ref_lru.TierOf(lpn)) << "op " << op;
    ASSERT_EQ(lru.HotSize(), ref_lru.HotSize()) << "op " << op;
    ASSERT_EQ(lru.IronSize(), ref_lru.IronSize()) << "op " << op;
    ASSERT_EQ(lru.HotTail(), ref_lru.HotTail()) << "op " << op;
    ASSERT_EQ(lru.IronTail(), ref_lru.IronTail()) << "op " << op;
    ASSERT_EQ(freq.FrequencyOf(lpn), ref_freq.FrequencyOf(lpn)) << "op " << op;
    ASSERT_EQ(freq.Size(), ref_freq.Size()) << "op " << op;
    ASSERT_EQ(freq.decay_count(), ref_freq.decay_count()) << "op " << op;
    if (op % 1000 == 0) {
      ASSERT_EQ(Save(lru), Save(ref_lru)) << "op " << op;
      ASSERT_EQ(Save(freq), Save(ref_freq)) << "op " << op;
      ASSERT_TRUE(lru.CheckInvariants()) << "op " << op;
      ASSERT_TRUE(freq.CheckInvariants()) << "op " << op;
    }
  }
  // The stream must have exercised decays and the all-popular drop rule.
  EXPECT_GT(ref_freq.decay_count(), 0u);
  EXPECT_GT(ref_freq.all_popular_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, HotnessLockstep,
    ::testing::Values(LockstepCase{512, 16, 8, 32, 1},
                      LockstepCase{64, 1, 1, 1, 2},
                      LockstepCase{1000, 40, 12, 24, 3},
                      LockstepCase{4096, 100, 50, 200, 4}));

// --- snapshot decoder robustness ------------------------------------------

constexpr std::uint64_t kPages = 300;

void PutU64At(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v) {
  if (off + 8 <= b.size()) std::memcpy(b.data() + off, &v, 8);
}

std::uint64_t GetU64At(const std::vector<std::uint8_t>& b, std::size_t off) {
  std::uint64_t v = 0;
  if (off + 8 <= b.size()) std::memcpy(&v, b.data() + off, 8);
  return v;
}

/// Applies one random mutation; `slot(k)` is the byte offset of the k-th
/// LPN field among `n` (offset of the count field is `count_off`).
template <typename SlotFn>
void Mutate(std::vector<std::uint8_t>& b, util::Xoshiro256StarStar& rng,
            std::size_t count_off, std::size_t n, SlotFn slot) {
  switch (rng.UniformBelow(6)) {
    case 0:  // duplicate one LPN into another slot
      if (n >= 2) PutU64At(b, slot(rng.UniformBelow(n)),
                           GetU64At(b, slot(rng.UniformBelow(n))));
      break;
    case 1:  // LPN at or just beyond the key space
      if (n >= 1) PutU64At(b, slot(rng.UniformBelow(n)),
                           kPages + rng.UniformBelow(3));
      break;
    case 2:  // arbitrary LPN
      if (n >= 1) PutU64At(b, slot(rng.UniformBelow(n)), rng());
      break;
    case 3:  // count off by a little, or huge
      PutU64At(b, count_off,
               rng.Bernoulli(0.8) ? GetU64At(b, count_off) + rng.UniformBelow(3) - 1
                                  : rng());
      break;
    case 4:  // random byte flip
      b[rng.UniformBelow(b.size())] ^=
          static_cast<std::uint8_t>(1u << rng.UniformBelow(8));
      break;
    default:  // truncation
      b.resize(rng.UniformBelow(b.size()));
      break;
  }
}

/// Loads mutated bytes into `t`.  Returns whether the load succeeded; either
/// way the structure must be consistent, and after a successful load it must
/// keep working under `exercise`.
template <typename T, typename Exercise>
bool LoadsConsistently(T& t, const std::vector<std::uint8_t>& bytes,
                       Exercise exercise) {
  util::StateReader r(bytes);
  try {
    t.LoadState(r);
  } catch (const std::exception&) {
    EXPECT_TRUE(t.CheckInvariants());
    return false;
  }
  EXPECT_TRUE(t.CheckInvariants());
  exercise();
  EXPECT_TRUE(t.CheckInvariants());
  return true;
}

TEST(HotnessSnapshotFuzz, MutatedLruSectionsLoadConsistentlyOrThrow) {
  util::Xoshiro256StarStar rng(2024);
  TwoLevelLru source(kPages, 24, 12);
  for (int i = 0; i < 400; ++i) {
    const Lpn lpn = rng.UniformBelow(kPages);
    rng.Bernoulli(0.5) ? source.OnWrite(lpn) : source.OnRead(lpn);
  }
  const std::vector<std::uint8_t> saved = Save(source);
  const std::size_t n_hot = source.HotSize();
  const std::size_t n_iron = source.IronSize();
  ASSERT_GT(n_iron, 1u);
  int loaded = 0;
  for (int it = 0; it < 3000; ++it) {
    std::vector<std::uint8_t> bytes = saved;
    // Layout: tag, hot count, hot LPNs, iron count, iron LPNs (all u64).
    const bool hot = rng.Bernoulli(0.5);
    const std::size_t count_off = hot ? 4 : 4 + 8 * (1 + n_hot);
    const std::size_t n = hot ? n_hot : n_iron;
    const int mutations = 1 + static_cast<int>(rng.UniformBelow(3));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      Mutate(bytes, rng, count_off, n,
             [&](std::size_t k) { return count_off + 8 * (1 + k); });
    }
    TwoLevelLru lru(kPages, 24, 12);
    lru.OnWrite(5);
    loaded += LoadsConsistently(lru, bytes, [&] {
      for (Lpn l = 0; l < kPages; l += 7) {
        lru.OnRead(l);
        lru.OnWrite(l);
      }
    });
    ASSERT_FALSE(HasFailure()) << "iteration " << it;
  }
  // Some mutations (e.g. copying an entry onto itself, or a shortened
  // count) still leave a valid snapshot.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 3000);
}

TEST(HotnessSnapshotFuzz, MutatedFreqSectionsLoadConsistentlyOrThrow) {
  util::Xoshiro256StarStar rng(4048);
  AccessFrequencyTable source(kPages, 2, 40);
  for (int i = 0; i < 400; ++i) source.OnRead(rng.UniformBelow(kPages));
  const std::vector<std::uint8_t> saved = Save(source);
  const std::size_t n = source.Size();
  ASSERT_GT(n, 1u);
  int loaded = 0;
  for (int it = 0; it < 3000; ++it) {
    std::vector<std::uint8_t> bytes = saved;
    // Layout: tag, u64 count, count x (u64 LPN, u32 reads), u64 decays.
    const int mutations = 1 + static_cast<int>(rng.UniformBelow(3));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      Mutate(bytes, rng, 4, n, [](std::size_t k) { return 12 + 12 * k; });
    }
    AccessFrequencyTable table(kPages, 2, 40);
    table.Register(5, 9);
    loaded += LoadsConsistently(table, bytes, [&] {
      for (Lpn l = 0; l < kPages; l += 3) table.OnRead(l);
    });
    ASSERT_FALSE(HasFailure()) << "iteration " << it;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 3000);
}

}  // namespace
}  // namespace ctflash::core
