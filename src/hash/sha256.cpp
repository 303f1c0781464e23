#include "hash/sha256.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace waku::hash {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1).
bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = ((ebx >> 29) & 1U) != 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sha && ((ecx >> 9) & 1U) != 0 && ((ecx >> 19) & 1U) != 0;
}

// SHA-NI compression. The state is held as the lane pairs ABEF and CDGH
// that sha256rnds2 expects; each group of four rounds consumes one vector
// of schedule words and derives the vector four groups ahead (msg1/msg2).
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ni(
    detail::Sha256State& state, const std::uint8_t* data,
    std::size_t blocks) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), byte_swap);
    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)),
        byte_swap);
    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)),
        byte_swap);
    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)),
        byte_swap);
    // Fully unrolled, the m0..m3 rotation is register renaming and the
    // schedule words the last four groups derive are dead code.
#pragma GCC unroll 16
    for (std::size_t group = 0; group < 16; ++group) {
      const __m128i wk = _mm_add_epi32(
          m0, _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(&kK[4 * group])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a time.
      const __m128i next = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                        _mm_alignr_epi8(m3, m2, 4)),
          m3);
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

}  // namespace

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void detail::sha256_compress_portable(Sha256State& state,
                                      const std::uint8_t* data,
                                      std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 =
          h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

detail::Sha256Compressor detail::sha256_accelerated_compressor() noexcept {
#if defined(__x86_64__)
  return cpu_has_sha_ni() ? &compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

namespace {

// The kernel every Sha256 uses, chosen on first use (thread-safe, and valid
// even when a static initializer hashes first).
void compress(detail::Sha256State& state, const std::uint8_t* data,
              std::size_t blocks) noexcept {
  static const detail::Sha256Compressor chosen = [] {
    const detail::Sha256Compressor accelerated =
        detail::sha256_accelerated_compressor();
    return accelerated != nullptr ? accelerated
                                  : &detail::sha256_compress_portable;
  }();
  chosen(state, data, blocks);
}

}  // namespace

void Sha256::update(BytesView data) noexcept {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(64 - buffer_len_, data.size());
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(offset), data.end(),
              buffer_.begin());
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finalize() noexcept {
  // 0x80, zeros up to 56 mod 64, then the big-endian bit length: one
  // update that completes at most two blocks.
  const std::uint64_t bit_len = total_len_ * 8;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t zeros_end = (buffer_len_ < 56 ? 56 : 120) - buffer_len_;
  for (int i = 0; i < 8; ++i) {
    pad[zeros_end + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(BytesView(pad.data(), zeros_end + 8));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t s = state_[static_cast<std::size_t>(i)];
    digest[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(s >> 24);
    digest[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(s >> 16);
    digest[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(s >> 8);
    digest[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(s);
  }
  return digest;
}

Sha256Digest sha256(BytesView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Bytes sha256_bytes(BytesView data) {
  const Sha256Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace waku::hash
