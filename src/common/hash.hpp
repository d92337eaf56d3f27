// Deterministic hashing (FNV-1a) used for metadata partitioning, chunk
// checksums and synthetic data fingerprints. Intentionally not std::hash,
// whose values may differ between standard libraries.
#pragma once

#include <cstdint>
#include <string_view>

namespace bs {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

constexpr std::uint64_t fnv1a(std::string_view data,
                              std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

constexpr std::uint64_t fnv1a_u64(std::uint64_t value,
                                  std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  // Multiply `a` into the seed first so the combination is asymmetric
  // (plain xor-seeding collides pairs like (1,2)/(2,1)).
  return fnv1a_u64(b, (a * kFnvPrime) ^ kFnvOffset);
}

/// Order-sensitive 64-bit digest accumulator (boost-style mix): two
/// digests agree only if every mixed value matched in content and order.
/// Determinism tests, the repl plane's state digests and the benches'
/// suite digests all use it.
class Digest {
 public:
  constexpr explicit Digest(std::uint64_t seed = kFnvOffset) : h_(seed) {}
  constexpr void mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ull + (h_ << 6) + (h_ >> 2);
  }
  constexpr void mix_signed(std::int64_t v) {
    mix(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace bs
