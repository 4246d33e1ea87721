#include "util/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ctflash::util {

namespace {
std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

void Xoshiro256StarStar::Reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // Guard against the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Xoshiro256StarStar::UniformBelow(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("UniformBelow: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) % bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256StarStar::UniformInRange(std::uint64_t lo,
                                                 std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInRange: lo > hi");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return (*this)();  // full 64-bit range
  return lo + UniformBelow(span);
}

double Xoshiro256StarStar::UniformDouble() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Xoshiro256StarStar::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (theta < 0.0) throw std::invalid_argument("ZipfSampler: theta must be >= 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfSampler: n must fit in 32 bits");
  }
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) v /= sum;
  cdf_.back() = 1.0;  // guard against fp round-off at the tail

  // K is a power of two, so cdf * K and u * K are exact and
  // cdf_[i] >= k / K  <=>  floor(cdf_[i] * K) >= k.  Record the first rank
  // of each floor value, then carry the minimum down over the values no
  // rank hits.  Both passes are branch-free.
  const std::uint64_t k_count =
      std::min<std::uint64_t>(std::bit_floor(n), std::uint64_t{1} << 18);
  guide_scale_ = static_cast<double>(k_count);
  guide_.assign(k_count + 1, static_cast<std::uint32_t>(n));
  for (std::uint64_t i = n; i-- > 0;) {
    guide_[static_cast<std::size_t>(cdf_[i] * guide_scale_)] =
        static_cast<std::uint32_t>(i);
  }
  for (std::size_t k = k_count; k-- > 0;) {
    guide_[k] = std::min(guide_[k], guide_[k + 1]);
  }
}

std::uint64_t ZipfSampler::RankOf(double u) const {
  // g / K <= u < (g + 1) / K, so the answer lies in
  // [guide_[g], guide_[g + 1]]; binary-search that bracket for the first
  // cdf_[i] >= u.  u = 1 uses the last bracket.
  const std::size_t last = guide_.size() - 2;
  const std::size_t g =
      std::min(static_cast<std::size_t>(u * guide_scale_), last);
  std::uint64_t lo = guide_[g], hi = guide_[g + 1];
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfSampler::Pmf(std::uint64_t rank) const {
  if (rank >= n_) throw std::out_of_range("ZipfSampler::Pmf: rank out of range");
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace ctflash::util
