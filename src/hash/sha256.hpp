// SHA-256 (FIPS 180-4), implemented from scratch.
//
// On the per-hop relay path: every relay hashes each message it forwards
// for the gossipsub message id, and again for the RLN hash-bind x = H(m)
// before the SNARK check. Also used for commit–reveal commitments and as
// the nothing-up-my-sleeve PRF that derives Poseidon parameters.
//
// Whole blocks go to a compression kernel chosen once at run time: the x86
// SHA extensions (SHA-NI) when CPUID reports them, the portable kernel
// otherwise. Both produce identical digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace waku::hash {

using Sha256Digest = std::array<std::uint8_t, 32>;

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Compressor = void (*)(Sha256State& state, const std::uint8_t* data,
                                  std::size_t blocks) noexcept;

/// The portable kernel: runs on every target.
void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// The SHA-NI kernel, or nullptr when this build is not x86-64 or CPUID
/// reports no SHA/SSSE3/SSE4.1. Sha256 calls this once and keeps the
/// kernel (or the portable one) for the life of the process.
Sha256Compressor sha256_accelerated_compressor() noexcept;

}  // namespace detail

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(BytesView data) noexcept;
  /// Finalizes and returns the digest; the hasher must be reset() to reuse.
  Sha256Digest finalize() noexcept;

 private:
  detail::Sha256State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Sha256Digest sha256(BytesView data) noexcept;

/// One-shot returning an owning Bytes (32 bytes).
Bytes sha256_bytes(BytesView data);

}  // namespace waku::hash
