#include "hash/poseidon.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <string>

#include "common/expect.hpp"
#include "hash/sha256.hpp"

namespace waku::hash {

namespace {

// Partial-round counts per width for alpha=5 over BN254, from the Poseidon
// reference parameter search (R_F = 8 throughout).
constexpr std::size_t kPartialRounds[] = {0, 0, 56, 57, 56, 60};
constexpr std::size_t kFullRounds = 8;

// Nothing-up-my-sleeve field element stream: Fr_i = SHA256(seed || i) mod r.
Fr nums_element(const std::string& seed, std::uint32_t index) {
  Bytes input = to_bytes(seed);
  for (int b = 0; b < 4; ++b) {
    input.push_back(static_cast<std::uint8_t>(index >> (8 * b)));
  }
  const Sha256Digest d = sha256(input);
  return Fr::from_bytes_reduce(BytesView(d.data(), d.size()));
}

// Builds a secure MDS matrix via the Cauchy construction
// M[i][j] = 1 / (x_i + y_j), with the 2t generators drawn from the NUMS
// stream and re-drawn until all are distinct and all sums invertible.
std::vector<Fr> build_mds(std::size_t t) {
  std::vector<Fr> xs;
  std::vector<Fr> ys;
  std::uint32_t counter = 0;
  auto fresh = [&](const std::vector<Fr>& a, const std::vector<Fr>& b,
                   const Fr& candidate) {
    for (const Fr& v : a) {
      if (v == candidate) return false;
    }
    for (const Fr& v : b) {
      // x_i + y_j must be non-zero for every pair, i.e. candidate != -v.
      if (candidate == v.neg()) return false;
    }
    return true;
  };
  const std::string seed = "waku-rln-poseidon-mds-t" + std::to_string(t);
  while (xs.size() < t) {
    const Fr c = nums_element(seed, counter++);
    if (fresh(xs, ys, c)) xs.push_back(c);
  }
  while (ys.size() < t) {
    const Fr c = nums_element(seed, counter++);
    if (fresh(ys, xs, c)) ys.push_back(c);
  }
  std::vector<Fr> mds(t * t);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < t; ++j) {
      mds[i * t + j] = (xs[i] + ys[j]).inverse();
    }
  }
  return mds;
}

PoseidonParams build_params(std::size_t t) {
  WAKU_EXPECTS(t >= 2 && t <= 5);
  PoseidonParams p;
  p.t = t;
  p.full_rounds = kFullRounds;
  p.partial_rounds = kPartialRounds[t];
  const std::size_t n = t * p.total_rounds();
  p.round_constants.reserve(n);
  const std::string seed = "waku-rln-poseidon-rc-t" + std::to_string(t);
  for (std::uint32_t i = 0; i < n; ++i) {
    p.round_constants.push_back(nums_element(seed, i));
  }
  p.mds = build_mds(t);
  return p;
}

// The tables the native permutation runs on, derived once per width from
// PoseidonParams (Poseidon paper, App. B). Partial round k of the textbook
// form is x -> M·S0(x + c_k) with S0 the S-box on lane 0 only.
//
// 1. Constant folding. S0 and M are the identity / linear on lanes 1..t-1,
//    so the tail of c_k can be pushed through M into round k+1:
//    c_{k+1} += M·(0, c_k[1..]). Each partial round then adds one scalar to
//    lane 0, and the last tail lands in the first full round after them.
// 2. Sparse MDS. Split M = [[m00, w^T], [v, M̂]]. Keep the state as z with
//    x = diag(1, D̂)·z; diag(1, D̂) commutes with S0 and with adding to lane
//    0, so round k only has to apply the sparse
//      z0 <- m00·z0 + ŵ_k·z[1..],   z[1..] <- z[1..] + v̂_k·z0
//    with ŵ_k = (M̂^T)^(k-1)·w, v̂_k = M̂^-k·v, and D̂ = M̂^R_P is applied
//    once after the last partial round: 2t-1 multiplications per round plus
//    one dense (t-1)x(t-1) product, instead of t² per round.
struct NativeTables {
  std::vector<Fr> full_rc;     ///< R_F·t, the post-partial round folded
  std::vector<Fr> partial_rc;  ///< R_P scalars, one per partial round
  /// Per partial round: ŵ_k (t-1 entries), then v̂_k (t-1 entries).
  std::vector<Fr> sparse;
  std::vector<Fr> tail;  ///< M̂^R_P, (t-1)x(t-1) row-major
};

using Matrix = std::vector<std::vector<Fr>>;

Matrix mat_mul(const Matrix& a, const Matrix& b) {
  const std::size_t n = a.size();
  Matrix out(n, std::vector<Fr>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) out[i][j] += a[i][k] * b[k][j];
    }
  }
  return out;
}

std::vector<Fr> mat_vec(const Matrix& a, const std::vector<Fr>& x) {
  std::vector<Fr> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < x.size(); ++j) out[i] += a[i][j] * x[j];
  }
  return out;
}

// Gauss-Jordan inverse; the MDS sub-matrices it is used on are invertible.
Matrix mat_inverse(Matrix a) {
  const std::size_t n = a.size();
  Matrix inv(n, std::vector<Fr>(n));
  for (std::size_t i = 0; i < n; ++i) inv[i][i] = Fr::one();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a[pivot][col].is_zero()) ++pivot;
    WAKU_EXPECTS(pivot < n);
    std::swap(a[col], a[pivot]);
    std::swap(inv[col], inv[pivot]);
    const Fr scale = a[col][col].inverse();
    for (std::size_t j = 0; j < n; ++j) {
      a[col][j] *= scale;
      inv[col][j] *= scale;
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col].is_zero()) continue;
      const Fr f = a[row][col];
      for (std::size_t j = 0; j < n; ++j) {
        a[row][j] -= f * a[col][j];
        inv[row][j] -= f * inv[col][j];
      }
    }
  }
  return inv;
}

NativeTables build_native(const PoseidonParams& p) {
  const std::size_t t = p.t;
  const std::size_t half_full = p.full_rounds / 2;
  NativeTables n;

  // Constant folding, in the textbook coordinates.
  std::vector<Fr> carry(t);  // tail constants pushed into the next round
  for (std::size_t k = 0; k < p.partial_rounds; ++k) {
    std::vector<Fr> eff(t);
    for (std::size_t i = 0; i < t; ++i) {
      eff[i] = p.rc(half_full + k, i) + carry[i];
    }
    n.partial_rc.push_back(eff[0]);
    for (std::size_t i = 0; i < t; ++i) {
      carry[i] = Fr::zero();
      for (std::size_t j = 1; j < t; ++j) carry[i] += p.m(i, j) * eff[j];
    }
  }
  for (std::size_t r = 0; r < p.full_rounds; ++r) {
    const std::size_t round = r < half_full ? r : r + p.partial_rounds;
    for (std::size_t i = 0; i < t; ++i) {
      n.full_rc.push_back(p.rc(round, i) +
                          (r == half_full ? carry[i] : Fr::zero()));
    }
  }

  // Sparse factorization of the partial-round MDS.
  Matrix m_hat(t - 1, std::vector<Fr>(t - 1));
  std::vector<Fr> w(t - 1);
  std::vector<Fr> v(t - 1);
  for (std::size_t i = 1; i < t; ++i) {
    w[i - 1] = p.m(0, i);
    v[i - 1] = p.m(i, 0);
    for (std::size_t j = 1; j < t; ++j) m_hat[i - 1][j - 1] = p.m(i, j);
  }
  Matrix m_hat_t(t - 1, std::vector<Fr>(t - 1));
  Matrix power(t - 1, std::vector<Fr>(t - 1));  // M̂^k
  for (std::size_t i = 0; i + 1 < t; ++i) {
    power[i][i] = Fr::one();
    for (std::size_t j = 0; j + 1 < t; ++j) m_hat_t[i][j] = m_hat[j][i];
  }
  const Matrix m_hat_inv = mat_inverse(m_hat);
  std::vector<Fr> w_k = w;
  std::vector<Fr> v_k = mat_vec(m_hat_inv, v);
  for (std::size_t k = 0; k < p.partial_rounds; ++k) {
    n.sparse.insert(n.sparse.end(), w_k.begin(), w_k.end());
    n.sparse.insert(n.sparse.end(), v_k.begin(), v_k.end());
    w_k = mat_vec(m_hat_t, w_k);
    v_k = mat_vec(m_hat_inv, v_k);
    power = mat_mul(power, m_hat);
  }
  for (const std::vector<Fr>& row : power) {
    n.tail.insert(n.tail.end(), row.begin(), row.end());
  }
  return n;
}

struct PoseidonInstance {
  PoseidonParams params;
  NativeTables native;
};

const PoseidonInstance& poseidon_instance(std::size_t t) {
  WAKU_EXPECTS(t >= 2 && t <= 5);
  static std::array<PoseidonInstance, 6> cache;
  static std::once_flag flags[6];
  std::call_once(flags[t], [t] {
    cache[t].params = build_params(t);
    cache[t].native = build_native(cache[t].params);
  });
  return cache[t];
}

Fr sbox(const Fr& x) {
  const Fr x2 = x.square();
  const Fr x4 = x2.square();
  return x4 * x;
}

template <std::size_t T>
void full_round(std::array<Fr, T>& s, const Fr* rc, const PoseidonParams& p) {
  for (std::size_t i = 0; i < T; ++i) s[i] = sbox(s[i] + rc[i]);
  std::array<Fr, T> next;
  for (std::size_t i = 0; i < T; ++i) {
    Fr acc = p.m(i, 0) * s[0];
    for (std::size_t j = 1; j < T; ++j) acc += p.m(i, j) * s[j];
    next[i] = acc;
  }
  s = next;
}

template <std::size_t T>
void permute(std::array<Fr, T>& s, const PoseidonInstance& inst) {
  const PoseidonParams& p = inst.params;
  const NativeTables& n = inst.native;
  const std::size_t half_full = p.full_rounds / 2;

  const Fr* rc = n.full_rc.data();
  for (std::size_t r = 0; r < half_full; ++r, rc += T) full_round(s, rc, p);

  const Fr m00 = p.m(0, 0);
  const Fr* sparse = n.sparse.data();
  for (std::size_t k = 0; k < p.partial_rounds; ++k, sparse += 2 * (T - 1)) {
    const Fr x0 = sbox(s[0] + n.partial_rc[k]);
    Fr acc = m00 * x0;
    for (std::size_t j = 1; j < T; ++j) {
      acc += sparse[j - 1] * s[j];
      s[j] += sparse[T - 1 + j - 1] * x0;
    }
    s[0] = acc;
  }
  std::array<Fr, T> tail_out;
  for (std::size_t i = 1; i < T; ++i) {
    const Fr* row = n.tail.data() + (i - 1) * (T - 1);
    Fr acc = row[0] * s[1];
    for (std::size_t j = 2; j < T; ++j) acc += row[j - 1] * s[j];
    tail_out[i] = acc;
  }
  for (std::size_t i = 1; i < T; ++i) s[i] = tail_out[i];

  for (std::size_t r = 0; r < half_full; ++r, rc += T) full_round(s, rc, p);
}

template <std::size_t T>
void permute_span(std::span<Fr> state) {
  std::array<Fr, T> s;
  std::copy(state.begin(), state.end(), s.begin());
  permute(s, poseidon_instance(T));
  std::copy(s.begin(), s.end(), state.begin());
}

}  // namespace

const PoseidonParams& poseidon_params(std::size_t t) {
  return poseidon_instance(t).params;
}

void poseidon_permute(std::span<Fr> state) {
  switch (state.size()) {
    case 2: return permute_span<2>(state);
    case 3: return permute_span<3>(state);
    case 4: return permute_span<4>(state);
    case 5: return permute_span<5>(state);
    default: WAKU_EXPECTS(state.size() >= 2 && state.size() <= 5);
  }
}

Fr poseidon_hash(std::span<const Fr> inputs) {
  WAKU_EXPECTS(!inputs.empty() && inputs.size() <= 4);
  std::array<Fr, 5> state{};
  std::copy(inputs.begin(), inputs.end(), state.begin() + 1);
  poseidon_permute(std::span<Fr>(state.data(), inputs.size() + 1));
  return state[0];
}

Fr poseidon1(const Fr& a) {
  const std::array<Fr, 1> in{a};
  return poseidon_hash(in);
}

Fr poseidon2(const Fr& a, const Fr& b) {
  const std::array<Fr, 2> in{a, b};
  return poseidon_hash(in);
}

Fr poseidon3(const Fr& a, const Fr& b, const Fr& c) {
  const std::array<Fr, 3> in{a, b, c};
  return poseidon_hash(in);
}

}  // namespace waku::hash
