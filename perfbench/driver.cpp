// Relay / mesh benchmark driver.
//
//   perfbench --workload relay|mesh --seed N --seconds S --trace 0|1
//
// Every workload is single-threaded and closed-loop (one client on the main
// thread, the default deterministic ParallelismConfig) and derives all of
// its inputs from --seed. The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics (kEndToEnd), with
// --trace 1 the per-layer metrics (kPerLayer). Both lists are identical on
// every workload; a layer a workload does not exercise reads 0. The exit
// code is 1 when any correctness check failed. METRICS.md documents every
// metric and which ones are wall-clock, exact, or modeled.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/propagation.hpp"
#include "rln/harness.hpp"
#include "rln/rate_limit_proof.hpp"
#include "rln/validation_pipeline.hpp"
#include "zksnark/rln_circuit.hpp"

// ---- benchmark-side allocation counter ------------------------------------
// Counting is switched on only around the operations a traced run measures;
// when off, every allocation pays one relaxed load.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace waku;       // NOLINT
using namespace waku::rln;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDepth = 20;
constexpr std::uint64_t kEpochMs = 10'000;
constexpr int kSetups = 5;  // set-ups per untraced relay run; setup_s is their median
constexpr std::size_t kPayloadSizes[] = {32, 1024, 16 * 1024};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---- metric lists -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_msgs_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"honest_delivery_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"zksnark.keygen_s", "s"},
    {"node.publish_ms", "ms"},
    {"merkle.witness_us", "us"},
    {"zksnark.circuit_us", "us"},
    {"zksnark.prove_us", "us"},
    {"zksnark.cs_digest_us", "us"},
    {"zksnark.cs_satisfied_us", "us"},
    {"zksnark.prove_msm_us", "us_modeled"},
    {"rln.encode_us", "us"},
    {"zksnark.constraints", "count"},
    {"zksnark.allocs_per_proof", "count"},
    {"zksnark.alloc_bytes_per_proof", "bytes"},
    {"zksnark.minor_faults_per_proof", "count"},
    {"allocs_per_op", "count"},
    {"alloc_bytes_per_op", "bytes"},
    {"minor_faults_per_op", "count"},
    {"pipeline.window_us", "us"},
    {"pipeline.stage.epoch_gate_us", "us"},
    {"pipeline.stage.root_check_us", "us"},
    {"pipeline.stage.nullifier_precheck_us", "us"},
    {"pipeline.stage.groth16_batch_us", "us_modeled"},
    {"pipeline.stage.groth16_fallback_us", "us_modeled"},
    {"pipeline.stage.double_signal_us", "us"},
    {"zksnark.verify_batch_us", "us_modeled"},
    {"pipeline.accepted", "count"},
    {"pipeline.precheck_duplicates", "count"},
    {"pipeline.spam_detected", "count"},
    {"pipeline.bad_proof", "count"},
    {"pipeline.batch_aggregated", "count"},
    {"pipeline.batch_fallbacks", "count"},
    {"pipeline.log_entries", "count"},
    {"gossip.forwarded", "count"},
    {"gossip.duplicate_rx", "count"},
    {"gossip.rejected", "count"},
    {"gossip.windows_flushed", "count"},
    {"gossip.window_fill_mean", "count"},
    {"node.slash_commits", "count"},
    {"chain.register_s", "s"},
    {"sim.run_s", "s"},
    {"sim.validate_s", "s"},
    {"sim.validate_share", "ratio"},
    {"propagation.hop_depth_p50", "hops"},
    {"propagation.per_hop_ms", "ms_virtual"},
    {"propagation.redundancy_ratio", "ratio"},
    {"mesh.spam_delivered_ratio", "ratio"},
    {"mesh.time_to_slash_ms", "ms_virtual"},
    {"unattributed_share", "ratio"},
    {"tracing_overhead", "ratio"},
};

// ---- result -----------------------------------------------------------------

class Report {
 public:
  explicit Report(bool trace) {
    if (trace) {
      for (const MetricDef& m : kPerLayer) values_[m.name] = 0.0;
    }
  }

  void set(const std::string& name, double value) {
    if (!std::isfinite(value)) {
      check(false, "non-finite value for " + name);
      value = 0.0;
    }
    values_[name] = value;
  }
  void attempt() { ++attempted_; }
  /// Records one correctness check; a failed check counts one failed op.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// Prints the result line. Every metric of the run's list must have been
  /// set (per-layer metrics default to 0 = layer not exercised).
  void print(bool trace) {
    const std::span<const MetricDef> defs =
        trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef& m : defs) {
      if (values_.count(m.name) == 0) {
        check(false, std::string("metric not set: ") + m.name);
        values_[m.name] = 0.0;
      }
    }
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (const MetricDef& m : defs) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", values_[m.name]);
      out += &m == defs.data() ? "" : ", ";
      out += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

// ---- statistics -------------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The tail percentile of `v` and a `#` line saying which one was used and
/// how many samples lie beyond it. `pct` 0 picks the highest of p99 / p95 /
/// p90 that leaves at least ten samples beyond it (the maximum when even
/// p90 does not). Wall-clock workloads fix the percentile instead, to the
/// one this rule gives at the smallest sample count a run of theirs
/// produces, so every run reports the same percentile.
double tail_percentile(const std::vector<double>& v, int pct, const char* what) {
  const auto beyond = [&](int p) {
    return v.size() - std::min(v.size(), static_cast<std::size_t>(std::ceil(
                                             p / 100.0 * static_cast<double>(v.size()))));
  };
  if (pct == 0) {
    pct = 100;
    for (const int p : {90, 95, 99}) {
      if (beyond(p) >= 10) pct = p;
    }
  }
  std::printf("# %s tail: p%d of %zu samples, %zu beyond\n", what, pct, v.size(), beyond(pct));
  return percentile(v, pct / 100.0);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The quiet part of a timed run. The host alternates between a fast and
/// a slow phase (about 1.7x apart) that last seconds, and the share of
/// slow time drifts from run to run, so any statistic over the whole run
/// moves with it. The run's units (passes, in time order, `unit_s` each)
/// are cut into kBlocks consecutive blocks; returns the kQuietBlocks
/// blocks with the lowest mean as [first, last) unit ranges.
constexpr std::size_t kBlocks = 10;
constexpr std::size_t kQuietBlocks = 3;
std::vector<std::pair<std::size_t, std::size_t>> quiet_blocks(const std::vector<double>& unit_s) {
  const std::size_t per = unit_s.size() / kBlocks;
  std::vector<std::pair<double, std::size_t>> blocks;  // (mean, block)
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto first = unit_s.begin() + static_cast<std::ptrdiff_t>(b * per);
    blocks.emplace_back(
        mean(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per))), b);
  }
  std::sort(blocks.begin(), blocks.end());
  std::vector<std::pair<std::size_t, std::size_t>> quiet;
  for (std::size_t k = 0; k < kQuietBlocks; ++k) {
    quiet.emplace_back(blocks[k].second * per, (blocks[k].second + 1) * per);
  }
  return quiet;
}


double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Allocation and page-fault counters around a traced operation.
struct Usage {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t minflt = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {g_allocs.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed),
            static_cast<std::uint64_t>(ru.ru_minflt)};
  }
};

/// Accumulates counter deltas over the operations it brackets.
class UsageMeter {
 public:
  void begin() {
    g_count_allocs.store(true, std::memory_order_relaxed);
    start_ = Usage::now();
  }
  void end() {
    const Usage u = Usage::now();
    g_count_allocs.store(false, std::memory_order_relaxed);
    total_.allocs += u.allocs - start_.allocs;
    total_.bytes += u.bytes - start_.bytes;
    total_.minflt += u.minflt - start_.minflt;
  }
  /// Reports `<prefix>allocs_per_<unit>` and its two siblings.
  void report(Report& r, double units, const std::string& prefix,
              const std::string& unit) const {
    r.set(prefix + "allocs_per_" + unit, ratio(static_cast<double>(total_.allocs), units));
    r.set(prefix + "alloc_bytes_per_" + unit, ratio(static_cast<double>(total_.bytes), units));
    r.set(prefix + "minor_faults_per_" + unit, ratio(static_cast<double>(total_.minflt), units));
  }

 private:
  Usage start_;
  Usage total_;
};

// ---- inputs -----------------------------------------------------------------

/// Payload kinds, stamped in byte 0 so receivers classify deliveries.
enum class Kind : std::uint8_t { kHonest = 1, kFlood = 2, kInvalid = 3 };

/// Seeded payloads from the {32 B, 1 KiB, 16 KiB} mix. Sizes are dealt
/// from a reshuffled deck holding each size once, so every run sees the
/// same share of each size and only their order depends on the seed. Byte
/// 0 is the kind, bytes 1..8 the message id, the rest seeded filler.
class PayloadSource {
 public:
  explicit PayloadSource(std::uint64_t seed) : rng_(seed) {}

  Bytes next(Kind kind, std::uint64_t id) {
    if (deck_.empty()) {
      deck_.assign(std::begin(kPayloadSizes), std::end(kPayloadSizes));
      std::shuffle(deck_.begin(), deck_.end(), rng_);
    }
    Bytes p = rng_.next_bytes(deck_.back());
    deck_.pop_back();
    p[0] = static_cast<std::uint8_t>(kind);
    for (int i = 0; i < 8; ++i) p[1 + i] = static_cast<std::uint8_t>(id >> (8 * i));
    return p;
  }

 private:
  Rng rng_;
  std::vector<std::size_t> deck_;
};

Kind payload_kind(const Bytes& p) { return static_cast<Kind>(p[0]); }

std::uint64_t payload_id(const Bytes& p) {
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id |= std::uint64_t{p[1 + i]} << (8 * i);
  return id;
}

// ---- telemetry readers --------------------------------------------------------

/// Histogram totals summed over nodes (values in ns for _seconds families).
struct HistTotal {
  double count = 0;
  double sum_ns = 0;
  void add(const obs::Histogram& h) {
    const obs::HistogramSnapshot s = h.snapshot();
    count += static_cast<double>(s.count);
    sum_ns += static_cast<double>(s.sum);
  }
  [[nodiscard]] double mean_us() const { return ratio(sum_ns, count) / 1e3; }
};

constexpr const char* kStages[] = {"epoch_gate",    "root_check",
                                   "nullifier_precheck", "groth16_batch",
                                   "groth16_fallback",   "double_signal"};

/// Pipeline stage/window timings recorded under a wall clock.
struct StageTotals {
  HistTotal window;
  HistTotal stage[6];

  void add(const PipelineMetrics& m) {
    window.add(*m.window);
    const obs::Histogram* stages[6] = {m.epoch_gate,    m.root_check,
                                       m.nullifier_precheck, m.groth16_batch,
                                       m.groth16_fallback,   m.double_signal};
    for (int i = 0; i < 6; ++i) stage[i].add(*stages[i]);
  }
  void add_node(WakuRlnRelayNode& node) {
    const std::string shard = "shard=\"0\"";
    window.add(node.telemetry().histogram("waku_pipeline_validate_seconds", shard));
    for (int i = 0; i < 6; ++i) {
      stage[i].add(node.telemetry().histogram(
          "waku_pipeline_stage_seconds",
          std::string("stage=\"") + kStages[i] + "\"," + shard));
    }
  }
  [[nodiscard]] double stage_sum_ns() const {
    double sum = 0;
    for (const HistTotal& t : stage) sum += t.sum_ns;
    return sum;
  }
  void report(Report& r) const {
    r.set("pipeline.window_us", window.mean_us());
    for (int i = 0; i < 6; ++i) {
      r.set(std::string("pipeline.stage.") + kStages[i] + "_us", stage[i].mean_us());
    }
  }
};

/// Router, node and pipeline counters summed over a deployment.
void report_node_counters(Report& r, RlnHarness& h) {
  ValidatorStats v;
  gossipsub::RouterStats g;
  std::uint64_t slash_commits = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const NodeTelemetrySnapshot s = h.node(i).telemetry_snapshot();
    v += s.pipeline;
    g.forwarded += s.router.forwarded;
    g.duplicates += s.router.duplicates;
    g.rejected += s.router.rejected;
    g.validation_windows_flushed += s.router.validation_windows_flushed;
    slash_commits += s.node.slash_commits;
  }
  const auto count = [](std::uint64_t x) { return static_cast<double>(x); };
  r.set("pipeline.accepted", count(v.accepted));
  r.set("pipeline.precheck_duplicates", count(v.precheck_duplicates));
  r.set("pipeline.spam_detected", count(v.spam_detected));
  r.set("pipeline.bad_proof", count(v.bad_proof));
  r.set("pipeline.batch_aggregated", count(v.batch_aggregated));
  r.set("pipeline.batch_fallbacks", count(v.batch_fallbacks));
  r.set("pipeline.log_entries", static_cast<double>(v.log_entries));  // live, at the end
  r.set("gossip.forwarded", count(g.forwarded));
  r.set("gossip.duplicate_rx", count(g.duplicates));
  r.set("gossip.rejected", count(g.rejected));
  r.set("gossip.windows_flushed", count(g.validation_windows_flushed));
  // Messages that reached a validator per flushed window.
  r.set("gossip.window_fill_mean",
        ratio(static_cast<double>(v.accepted + v.epoch_gap + v.duplicates +
                                  v.no_proof + v.bad_proof + v.stale_root +
                                  v.spam_detected),
              static_cast<double>(g.validation_windows_flushed)));
  r.set("node.slash_commits", count(slash_commits));
}

// ---- prover decomposition -----------------------------------------------------

/// The proof bundle for a proved circuit, as WakuRlnRelayNode builds it.
RateLimitProof make_bundle(const zksnark::RlnCircuit& c, std::uint64_t epoch,
                           const zksnark::Proof& proof) {
  RateLimitProof bundle;
  bundle.share_x = c.publics.x;
  bundle.share_y = c.publics.y;
  bundle.nullifier = c.publics.nullifier;
  bundle.epoch = epoch;
  bundle.root = c.publics.root;
  bundle.proof = proof;
  return bundle;
}

/// Times the public calls try_publish composes, on an equivalent input:
/// witness, circuit build, the two ConstraintSystem passes prove repeats
/// internally, prove itself, and proof attachment + wire encoding. The
/// allocation counter covers the calls a publish makes (not the two extra
/// ConstraintSystem passes).
class ProverBreakdown {
 public:
  /// Builds a proved message from `sk` and a witness source; returns it.
  template <typename PathFn>
  WakuMessage run(const Fr& sk, PathFn&& path_fn, Bytes payload,
                  std::uint64_t epoch, Rng& rng) {
    const zksnark::Keypair& kp = zksnark::rln_keypair(kDepth);
    WakuMessage msg;
    msg.payload = std::move(payload);
    usage_.begin();
    auto t = Clock::now();
    zksnark::RlnProverInput input;
    input.sk = sk;
    input.path = path_fn();
    witness_.push_back(since(t));
    input.x = message_hash(msg);
    input.epoch = Fr::from_u64(epoch);

    t = Clock::now();
    zksnark::RlnCircuit circuit = zksnark::build_rln_circuit(input);
    circuit_.push_back(since(t));
    usage_.end();
    const zksnark::ConstraintSystem& cs = circuit.builder.cs();
    constraints_ = static_cast<double>(cs.num_constraints());

    t = Clock::now();
    const Fr digest = cs.digest();
    digest_.push_back(since(t));
    t = Clock::now();
    const bool sat = cs.is_satisfied(circuit.builder.assignment());
    satisfied_.push_back(since(t));
    ok_ = ok_ && sat && digest == kp.pk.circuit_digest;

    usage_.begin();
    t = Clock::now();
    const zksnark::Proof proof =
        zksnark::prove(kp.pk, cs, circuit.builder.assignment(), rng);
    prove_.push_back(since(t));

    t = Clock::now();
    attach_proof(msg, make_bundle(circuit, epoch, proof));
    const Bytes wire = msg.serialize();
    encode_.push_back(since(t));
    usage_.end();
    ok_ = ok_ && !wire.empty();
    return msg;
  }

  [[nodiscard]] bool ok() const { return ok_; }

  void report(Report& r) const {
    r.set("merkle.witness_us", mean(witness_) * 1e6);
    r.set("zksnark.circuit_us", mean(circuit_) * 1e6);
    r.set("zksnark.prove_us", mean(prove_) * 1e6);
    r.set("zksnark.cs_digest_us", mean(digest_) * 1e6);
    r.set("zksnark.cs_satisfied_us", mean(satisfied_) * 1e6);
    // Modeled: what prove spends outside its two structural passes is
    // the RLC passes standing in for the MSMs (zksnark/groth16.cpp).
    r.set("zksnark.prove_msm_us",
          std::max(0.0, mean(prove_) - mean(digest_) - mean(satisfied_)) * 1e6);
    r.set("rln.encode_us", mean(encode_) * 1e6);
    r.set("zksnark.constraints", constraints_);
    usage_.report(r, static_cast<double>(prove_.size()), "zksnark.", "proof");
  }

 private:
  std::vector<double> witness_, circuit_, digest_, satisfied_, prove_, encode_;
  UsageMeter usage_;
  double constraints_ = 0;
  bool ok_ = true;
};

// ---- workload: relay ----------------------------------------------------------
// A depth-20 group of 128 members. Set-up proves one message per member plus
// 16 double-signal second messages; 16 echoes (the same bundle re-sent)
// complete the 160-message stream. Set-up also deals kRelayOrders seeded
// orders of the stream, each placing every echo and double signal after
// the message it repeats or conflicts with. Pass p feeds a fresh
// ValidationPipeline order p % kRelayOrders in windows of kRelayWindow and
// times each validate_batch; cycling orders keeps the window mix the same
// from seed to seed. The window is the `validation_batch_max` of 8 that the
// mesh workload and the repository's mesh benches give their nodes.

constexpr std::size_t kRelayMembers = 128;
constexpr std::size_t kRelayDoubles = 16;
constexpr std::size_t kRelayEchoes = 16;
constexpr std::size_t kRelayWindow = 8;
constexpr std::size_t kRelayOrders = 64;
constexpr std::uint64_t kRelayEpoch = 100;
constexpr std::uint64_t kRelayNowMs = kRelayEpoch * kEpochMs + 500;

struct RelayItem {
  WakuMessage msg;
  Verdict expected = Verdict::kAccept;
  std::size_t original = 0;  ///< index of the message it follows (extras)
  std::optional<Fr> sk;      ///< expected recovered sk (double signals)
};

struct RelaySetup {
  GroupManager group{kDepth, TreeMode::kFullTree};
  std::vector<RelayItem> items;  ///< originals first, then the extras
  std::vector<std::vector<std::size_t>> orders;
  double register_s = 0;
};

WakuMessage prove_relay_message(const RelaySetup& s, const Identity& member,
                                std::size_t index, Bytes payload, Rng& rng,
                                ProverBreakdown* breakdown) {
  if (breakdown != nullptr) {
    return breakdown->run(member.sk, [&] { return s.group.path_of(index); },
                          std::move(payload), kRelayEpoch, rng);
  }
  WakuMessage msg;
  msg.payload = std::move(payload);
  zksnark::RlnProverInput input;
  input.sk = member.sk;
  input.path = s.group.path_of(index);
  input.x = message_hash(msg);
  input.epoch = Fr::from_u64(kRelayEpoch);
  const zksnark::RlnCircuit c = zksnark::build_rln_circuit(input);
  attach_proof(msg, make_bundle(c, kRelayEpoch,
                                zksnark::prove(zksnark::rln_keypair(kDepth).pk, c.builder.cs(),
                                               c.builder.assignment(), rng)));
  return msg;
}

std::unique_ptr<RelaySetup> build_relay(std::uint64_t seed, ProverBreakdown* breakdown) {
  auto s = std::make_unique<RelaySetup>();
  Rng rng(seed ^ 0x4E1A'7000ULL);
  PayloadSource payloads(seed ^ 0x4E1A'7001ULL);
  std::vector<Identity> members;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kRelayMembers; ++i) {
    members.push_back(Identity::generate(rng));
    chain::Event ev;
    ev.name = "MemberRegistered";
    ev.topics = {ff::U256{i}, members.back().pk.to_u256()};
    s->group.on_event(ev);
  }
  s->register_s = since(t0);

  std::uint64_t next_id = 0;
  for (std::size_t i = 0; i < kRelayMembers; ++i) {
    s->items.push_back({prove_relay_message(*s, members[i], i,
                                            payloads.next(Kind::kHonest, next_id++), rng,
                                            breakdown),
                        Verdict::kAccept, i, std::nullopt});
  }
  std::vector<std::size_t> picks(kRelayMembers);
  for (std::size_t i = 0; i < kRelayMembers; ++i) picks[i] = i;
  std::shuffle(picks.begin(), picks.end(), rng);
  for (std::size_t k = 0; k < kRelayDoubles; ++k) {
    const std::size_t m = picks[k];
    s->items.push_back({prove_relay_message(*s, members[m], m,
                                            payloads.next(Kind::kHonest, next_id++), rng,
                                            breakdown),
                        Verdict::kRejectSpam, m, members[m].sk});
  }
  std::shuffle(picks.begin(), picks.end(), rng);
  for (std::size_t k = 0; k < kRelayEchoes; ++k) {
    const std::size_t m = picks[k];
    s->items.push_back({s->items[m].msg, Verdict::kIgnoreDuplicate, m, std::nullopt});
  }

  for (std::size_t k = 0; k < kRelayOrders; ++k) {
    std::vector<std::size_t> order(kRelayMembers);
    for (std::size_t i = 0; i < kRelayMembers; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t x = kRelayMembers; x < s->items.size(); ++x) {
      const auto pos = std::find(order.begin(), order.end(), s->items[x].original);
      const auto after = static_cast<std::size_t>(pos - order.begin()) + 1;
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(
                                       after + rng.next_below(order.size() - after + 1)),
                   x);
    }
    s->orders.push_back(std::move(order));
  }
  return s;
}

void run_relay(std::uint64_t seed, double seconds, bool trace, Report& r) {
  std::vector<double> setups;
  ProverBreakdown breakdown;
  std::unique_ptr<RelaySetup> s;
  const zksnark::VerifyingKey& vk = zksnark::rln_keypair(kDepth).vk;
  const ValidatorConfig vcfg{.epoch = EpochConfig{.epoch_length_ms = kEpochMs},
                             .max_epoch_gap = 2};
  constexpr std::size_t n = kRelayMembers + kRelayDoubles + kRelayEchoes;
  static_assert(n % kRelayWindow == 0, "a pass is whole windows");

  obs::Histogram h_window;
  obs::Histogram h_stage[6];
  const PipelineMetrics pm{&h_stage[0], &h_stage[1], &h_stage[2], &h_stage[3],
                           &h_stage[4], &h_stage[5], &h_window};
  UsageMeter usage;
  std::vector<double> window_ms;  // every window, in time order
  std::vector<double> pass_s;     // every pass, in time order
  std::vector<double> plain_s, traced_s, verify_s;
  std::uint64_t passes = 0;
  ValidatorStats first_pass;
  Rng verify_rng(seed ^ 0xBA7C'4000ULL);
  std::vector<WakuMessage> window;
  std::vector<zksnark::BatchEntry> entries;
  // One set-up before each equal share of the timed passes, so the median
  // of the set-up times samples the host at several points of the run.
  const int segments = trace ? 1 : kSetups;
  for (int k = 0; k < segments; ++k) {
    s.reset();
    const auto ts = Clock::now();
    s = build_relay(seed, trace ? &breakdown : nullptr);
    setups.push_back(since(ts));
    const auto start = Clock::now();
    for (; since(start) < seconds / segments || (k + 1 == segments && passes < kRelayOrders);
         ++passes) {
      const bool traced_pass = trace && passes % 2 == 1;
      const std::vector<std::size_t>& order = s->orders[passes % kRelayOrders];
      ValidationPipeline pipeline(vk, s->group, vcfg, seed * 7919 + passes);
      if (traced_pass) pipeline.set_telemetry(&obs::steady_clock(), &pm);
      double this_pass_s = 0;
      for (std::size_t i = 0; i < n; i += kRelayWindow) {
        window.clear();
        for (std::size_t j = i; j < i + kRelayWindow; ++j) {
          window.push_back(s->items[order[j]].msg);
        }
        // Allocations are counted over the first cycle of orders only, so
        // the count covers the same windows on every run of a seed.
        const bool counted = traced_pass && passes < kRelayOrders;
        if (counted) usage.begin();
        const auto t0 = Clock::now();
        const std::vector<ValidationOutcome> out =
            pipeline.validate_batch(window, kRelayNowMs);
        const double dt = since(t0);
        if (counted) usage.end();
        this_pass_s += dt;
        window_ms.push_back(dt * 1e3);
        for (std::size_t j = 0; j < kRelayWindow; ++j) {
          const RelayItem& item = s->items[order[i + j]];
          r.attempt();
          bool ok = j < out.size() && out[j].verdict == item.expected;
          if (ok && item.sk.has_value()) {
            ok = out[j].recovered_sk.has_value() && *out[j].recovered_sk == *item.sk;
          }
          if (!ok) {
            r.check(false, "relay: message " + std::to_string(order[i + j]) + " got verdict " +
                               (j < out.size() ? verdict_name(out[j].verdict) : "none"));
          }
        }
        if (traced_pass) {
          // The modeled verifier cost of the same window, called directly.
          entries.clear();
          for (const WakuMessage& m : window) {
            const RateLimitProof b = *extract_proof(m);
            entries.push_back({b.public_inputs(message_hash(m)), b.proof});
          }
          const auto tv = Clock::now();
          const zksnark::BatchVerifyOutcome vo = zksnark::verify_batch(vk, entries, verify_rng);
          verify_s.push_back(since(tv));
          r.check(vo.aggregated, "relay: direct verify_batch fell back");
        }
      }
      pass_s.push_back(this_pass_s);
      (traced_pass ? traced_s : plain_s).push_back(this_pass_s);
      const ValidatorStats st = pipeline.stats();
      if (passes == 0) first_pass = st;
      r.check(st.accepted == kRelayMembers && st.batch_fallbacks == 0,
              "relay: a pass accepted a wrong count or fell back to per-proof verification");
    }
  }

  if (!trace) {
    r.set("setup_s", median(setups));
    // Throughput, median and tail over the windows of the quiet blocks of
    // passes. Every pass has `per_pass` windows.
    constexpr std::size_t per_pass = n / kRelayWindow;
    std::vector<double> quiet_ms;
    double quiet_s = 0;
    std::size_t quiet_passes = 0;
    for (const auto& [first, last] : quiet_blocks(pass_s)) {
      for (std::size_t p = first; p < last; ++p) quiet_s += pass_s[p];
      quiet_passes += last - first;
      quiet_ms.insert(quiet_ms.end(),
                      window_ms.begin() + static_cast<std::ptrdiff_t>(first * per_pass),
                      window_ms.begin() + static_cast<std::ptrdiff_t>(last * per_pass));
    }
    std::printf("# relay: %zu of %zu passes in the quiet blocks\n", quiet_passes, pass_s.size());
    r.set("throughput_msgs_per_s", ratio(static_cast<double>(quiet_passes * n), quiet_s));
    r.set("latency_ms_p50", percentile(quiet_ms, 0.5));
    r.set("latency_ms_tail", tail_percentile(quiet_ms, 99, "relay window latency, quiet blocks"));
    r.set("honest_delivery_ratio",
          ratio(static_cast<double>(first_pass.accepted), static_cast<double>(kRelayMembers)));
    return;
  }
  r.check(breakdown.ok(), "relay: circuit digest or satisfiability mismatch");
  breakdown.report(r);
  usage.report(r, static_cast<double>(kRelayOrders / 2 * n), "", "op");
  StageTotals st;
  st.add(pm);
  st.report(r);
  r.set("zksnark.verify_batch_us", mean(verify_s) * 1e6);
  r.set("pipeline.accepted", static_cast<double>(first_pass.accepted));
  r.set("pipeline.precheck_duplicates", static_cast<double>(first_pass.precheck_duplicates));
  r.set("pipeline.spam_detected", static_cast<double>(first_pass.spam_detected));
  r.set("pipeline.bad_proof", static_cast<double>(first_pass.bad_proof));
  r.set("pipeline.batch_aggregated", static_cast<double>(first_pass.batch_aggregated));
  r.set("pipeline.batch_fallbacks", static_cast<double>(first_pass.batch_fallbacks));
  r.set("pipeline.log_entries", static_cast<double>(first_pass.log_entries));
  r.set("chain.register_s", s->register_s);
  r.set("unattributed_share", ratio(st.window.sum_ns - st.stage_sum_ns(), st.window.sum_ns));
  r.set("tracing_overhead", ratio(mean(traced_s), mean(plain_s)) - 1.0);
}

// ---- workload: mesh -----------------------------------------------------------
// 64 nodes, degree 6, depth 20, default links, 10 s epochs, batch windows of
// 8 flushed on the 1 s heartbeat. 32 honest publishers each publish once per
// epoch at a seeded time for 4 epochs; from epoch 2 a double-signal flooder
// (4 per epoch) and an invalid-proof flooder (2 per epoch) attack; 3 drain
// epochs follow. Only the wall time inside run_ms is timed: proving happens
// between the run_ms calls.

constexpr std::size_t kMeshNodes = 64;
constexpr int kMeshScenarios = 3;  // set-ups per untraced run, each followed by the scenario
constexpr std::size_t kMeshDegree = 6;
constexpr std::size_t kFlooder = 0;
constexpr std::size_t kInvalidFlooder = 1;
constexpr std::size_t kFirstPublisher = 2;
constexpr std::size_t kPublishers = 32;
constexpr std::size_t kPublishEpochs = 4;
constexpr std::size_t kDrainEpochs = 3;
constexpr std::size_t kAttackStartEpoch = 2;
constexpr std::uint64_t kFloodOffsetsMs[] = {1'500, 3'500, 5'500, 7'500};
constexpr std::uint64_t kInvalidOffsetsMs[] = {2'500, 6'500};

enum class MeshMode { kPlain, kStageTiming, kHopTrace };

HarnessConfig mesh_config(std::uint64_t seed, MeshMode mode) {
  HarnessConfig c;
  c.num_nodes = kMeshNodes;
  c.degree = kMeshDegree;
  c.node.tree_depth = kDepth;
  c.node.validator.epoch.epoch_length_ms = kEpochMs;
  c.node.gossip.validation_batch_max = 8;
  c.seed = seed;
  if (mode == MeshMode::kStageTiming) c.node.obs.clock = &obs::steady_clock();
  if (mode == MeshMode::kHopTrace) {
    c.node.obs.trace.sample_every = 1;
    c.node.obs.trace.completed_ring = 1'024;
    c.node.obs.trace.max_open = 1'024;
  }
  return c;
}

struct MeshOutcome {
  double register_s = 0;
  double run_s = 0;  ///< wall time inside the timed run_ms calls
  std::vector<double> call_run_s;  ///< the same, per call, in call order
  std::vector<double> propagation_ms;  ///< honest, non-origin receivers
  std::uint64_t honest_sent = 0;
  std::uint64_t honest_delivered = 0;
  std::uint64_t spam_sent = 0;
  std::uint64_t spam_delivered = 0;
  double time_to_slash_ms = 0;
  std::vector<double> publish_ms;
  StageTotals stages;
  UsageMeter usage;
  obs::PropagationSummary hops;
  double per_hop_ms = 0;
};

std::unique_ptr<RlnHarness> build_mesh(std::uint64_t seed, MeshMode mode, double* register_s) {
  auto h = std::make_unique<RlnHarness>(mesh_config(seed, mode));
  const auto t0 = Clock::now();
  h->register_all();
  *register_s = since(t0);
  return h;
}

/// Mean virtual ms per hop over every delivering non-origin node of the
/// complete trees: (first receipt - publish) / hop depth.
double mean_per_hop_ms(const std::vector<obs::PropagationTree>& trees) {
  double sum = 0;
  double n = 0;
  for (const obs::PropagationTree& t : trees) {
    if (!t.complete) continue;
    for (const obs::PropagationNodeView& v : t.nodes) {
      if (v.node == t.origin_node || v.depth <= 0 || !v.delivered) continue;
      sum += static_cast<double>(v.first_rx_ns - t.publish_ns) / 1e6 / v.depth;
      n += 1;
    }
  }
  return ratio(sum, n);
}

void drive_mesh(RlnHarness& h, std::uint64_t seed, MeshMode mode, MeshOutcome& o, Report& r,
                bool count) {
  const auto is_attacker = [](std::size_t i) { return i == kFlooder || i == kInvalidFlooder; };
  const std::size_t honest_nodes = kMeshNodes - 2;

  // Member indices, for slash attribution.
  std::vector<std::uint64_t> index_of(kMeshNodes);
  for (std::size_t i = 0; i < kMeshNodes; ++i) index_of[i] = *h.node(i).group().own_index();
  std::vector<std::pair<std::uint64_t, net::TimeMs>> slashed;
  const std::uint64_t subscription = h.chain().subscribe_events([&](const chain::Event& ev) {
    if (ev.name == "MemberSlashed") slashed.emplace_back(ev.topics[0].limb[0], h.sim().now());
  });

  struct Sent {
    std::size_t origin;
    net::TimeMs at;
    std::uint64_t receivers = 0;  // bitmask of node slots that delivered it
  };
  std::vector<Sent> honest;  // by id
  std::uint64_t spam_ids = 0;
  for (std::size_t i = 0; i < kMeshNodes; ++i) {
    h.node(i).set_message_handler([&, i](const WakuMessage& m) {
      if (is_attacker(i)) return;
      const Kind kind = payload_kind(m.payload);
      if (kind != Kind::kHonest) {
        ++o.spam_delivered;
        r.check(kind == Kind::kFlood, "mesh: invalid-proof message delivered at an honest node");
        return;
      }
      const std::uint64_t id = payload_id(m.payload);
      if (!r.check(id < honest.size(), "mesh: unknown honest message delivered")) return;
      Sent& s = honest[id];
      if (s.origin == i) return;
      r.check((s.receivers >> i & 1) == 0, "mesh: message delivered twice at one node");
      s.receivers |= std::uint64_t{1} << i;
      ++o.honest_delivered;
      o.propagation_ms.push_back(static_cast<double>(h.sim().now() - s.at));
    });
  }

  // Seeded schedule. Each epoch is cut into one stratum per publisher;
  // a seeded permutation assigns publishers to strata and each publishes
  // at a seeded offset inside its stratum. Publish times thus cover the
  // 1 s heartbeat phase evenly on every seed (the propagation latency
  // depends on how long a message waits for the heartbeat that flushes
  // its validation window), while the order and exact times vary.
  Rng rng(seed ^ 0x3E5'4000ULL);
  PayloadSource payloads(seed ^ 0x3E5'4001ULL);
  struct Event {
    std::uint64_t offset_ms;
    Kind kind;
    std::size_t node;
  };
  std::vector<std::vector<Event>> schedule(kPublishEpochs);
  constexpr std::uint64_t kStratumMs = kEpochMs / kPublishers;
  std::vector<std::size_t> strata(kPublishers);
  for (std::size_t e = 0; e < kPublishEpochs; ++e) {
    for (std::size_t p = 0; p < kPublishers; ++p) strata[p] = p;
    std::shuffle(strata.begin(), strata.end(), rng);
    for (std::size_t p = 0; p < kPublishers; ++p) {
      schedule[e].push_back({strata[p] * kStratumMs + rng.next_below(kStratumMs),
                             Kind::kHonest, kFirstPublisher + p});
    }
    if (e >= kAttackStartEpoch) {
      for (const std::uint64_t at : kFloodOffsetsMs) {
        schedule[e].push_back({at, Kind::kFlood, kFlooder});
      }
      for (const std::uint64_t at : kInvalidOffsetsMs) {
        schedule[e].push_back({at, Kind::kInvalid, kInvalidFlooder});
      }
    }
    std::stable_sort(schedule[e].begin(), schedule[e].end(),
                     [](const Event& a, const Event& b) { return a.offset_ms < b.offset_ms; });
  }

  // Start on an epoch boundary (untimed warm-up).
  const net::TimeMs start = (h.sim().now() / kEpochMs + 1) * kEpochMs;
  h.run_ms(start - h.sim().now());
  const auto run_until = [&](net::TimeMs t) {
    if (t <= h.sim().now()) return;
    if (count) o.usage.begin();
    const auto t0 = Clock::now();
    h.run_ms(t - h.sim().now());
    o.call_run_s.push_back(since(t0));
    o.run_s += o.call_run_s.back();
    if (count) o.usage.end();
  };

  std::optional<net::TimeMs> first_double_signal;
  obs::PropagationAssembler assembler;
  if (mode == MeshMode::kHopTrace) {
    assembler.set_default_subscribers(kMeshNodes);
    assembler.mark_adversary(h.node(kFlooder).node_id());
    assembler.mark_adversary(h.node(kInvalidFlooder).node_id());
  }
  for (std::size_t e = 0; e < kPublishEpochs + kDrainEpochs; ++e) {
    const net::TimeMs epoch_start = start + e * kEpochMs;
    std::uint64_t flood_this_epoch = 0;
    for (const Event& ev : e < kPublishEpochs ? schedule[e] : std::vector<Event>{}) {
      run_until(epoch_start + ev.offset_ms);
      WakuRlnRelayNode& node = h.node(ev.node);
      if (ev.kind == Kind::kInvalid) {
        node.publish_with_invalid_proof(payloads.next(Kind::kInvalid, spam_ids++));
        ++o.spam_sent;
        continue;
      }
      const bool flood = ev.kind == Kind::kFlood;
      const std::uint64_t id = flood ? spam_ids++ : honest.size();
      if (!flood) honest.push_back({ev.node, h.sim().now()});
      Bytes payload = payloads.next(ev.kind, id);
      const auto t0 = Clock::now();
      const auto status = flood ? node.force_publish(std::move(payload))
                                : node.try_publish(std::move(payload));
      const double dt = since(t0);
      if (flood) {
        // Refused once the flooder's membership is slashed.
        if (status != WakuRlnRelayNode::PublishStatus::kOk) continue;
        ++o.spam_sent;
        if (++flood_this_epoch == 2 && !first_double_signal) {
          first_double_signal = h.sim().now();
        }
      } else {
        r.attempt();
        r.check(status == WakuRlnRelayNode::PublishStatus::kOk,
                "mesh: honest try_publish did not return kOk");
      }
      o.publish_ms.push_back(dt * 1e3);
    }
    run_until(epoch_start + kEpochMs);
    if (mode == MeshMode::kHopTrace) {
      for (std::size_t i = 0; i < kMeshNodes; ++i) {
        assembler.ingest(h.node(i).node_id(), h.node(i).trace_dump());
      }
    }
  }

  // The callbacks reference this frame's locals.
  h.chain().unsubscribe_events(subscription);
  for (std::size_t i = 0; i < kMeshNodes; ++i) h.node(i).set_message_handler(nullptr);

  o.honest_sent = honest.size();
  const double expected = static_cast<double>(o.honest_sent * (honest_nodes - 1));
  r.check(static_cast<double>(o.honest_delivered) == expected,
          "mesh: honest deliveries " + std::to_string(o.honest_delivered) + " of " +
              std::to_string(static_cast<std::uint64_t>(expected)));
  bool flooder_slashed = false;
  for (const auto& [index, at] : slashed) {
    if (index == index_of[kFlooder] && !flooder_slashed) {
      flooder_slashed = true;
      if (first_double_signal) {
        o.time_to_slash_ms = static_cast<double>(at - *first_double_signal);
      }
    } else {
      r.check(false, "mesh: member " + std::to_string(index) + " slashed besides the flooder");
    }
  }
  r.check(flooder_slashed && first_double_signal.has_value(), "mesh: flooder not slashed");
  if (mode == MeshMode::kStageTiming) {
    for (std::size_t i = 0; i < kMeshNodes; ++i) o.stages.add_node(h.node(i));
  }
  if (mode == MeshMode::kHopTrace) {
    o.hops = assembler.summary();
    o.per_hop_ms = mean_per_hop_ms(assembler.assemble());
  }
}

/// Median hop depth of delivering nodes from the summary's histogram.
double hop_depth_p50(const obs::PropagationSummary& s) {
  std::size_t total = 0;
  for (const std::size_t c : s.hop_histogram) total += c;
  std::size_t seen = 0;
  for (std::size_t d = 0; d < s.hop_histogram.size(); ++d) {
    seen += s.hop_histogram[d];
    if (2 * seen >= total && total > 0) return static_cast<double>(d);
  }
  return 0.0;
}

bool same_virtual_outcome(const MeshOutcome& a, const MeshOutcome& b) {
  return a.propagation_ms == b.propagation_ms && a.honest_delivered == b.honest_delivered &&
         a.spam_delivered == b.spam_delivered && a.spam_sent == b.spam_sent &&
         a.time_to_slash_ms == b.time_to_slash_ms;
}

void run_mesh(std::uint64_t seed, bool trace, Report& r) {
  const std::size_t honest_nodes = kMeshNodes - 2;
  if (!trace) {
    // kMeshScenarios set-ups, each followed by the scenario: the set-ups
    // are spread over the run, every run_ms call is timed kMeshScenarios
    // times, and one seed must replay the same virtual-time outcome.
    std::vector<double> setups;
    std::deque<MeshOutcome> runs;
    for (int k = 0; k < kMeshScenarios; ++k) {
      double register_s = 0;
      const auto t0 = Clock::now();
      const std::unique_ptr<RlnHarness> h = build_mesh(seed, MeshMode::kPlain, &register_s);
      setups.push_back(since(t0));
      drive_mesh(*h, seed, MeshMode::kPlain, runs.emplace_back(), r, false);
    }
    // The scenarios make the same run_ms calls with the same work;
    // throughput takes each call's fastest run, so a slow host phase
    // during one of them does not count.
    const MeshOutcome& o = runs.front();
    for (const MeshOutcome& x : runs) {
      r.check(same_virtual_outcome(o, x) && x.call_run_s.size() == o.call_run_s.size(),
              "mesh: the same seed gave a different outcome");
    }
    double best_s = 0;
    for (std::size_t c = 0; c < o.call_run_s.size(); ++c) {
      double t = o.call_run_s[c];
      for (const MeshOutcome& x : runs) {
        if (c < x.call_run_s.size()) t = std::min(t, x.call_run_s[c]);
      }
      best_s += t;
    }
    r.set("setup_s", median(setups));
    r.set("throughput_msgs_per_s", ratio(static_cast<double>(o.honest_delivered), best_s));
    r.set("latency_ms_p50", percentile(o.propagation_ms, 0.5));
    r.set("latency_ms_tail", tail_percentile(o.propagation_ms, 0, "mesh propagation"));
    r.set("honest_delivery_ratio",
          ratio(static_cast<double>(o.honest_delivered),
                static_cast<double>(o.honest_sent * (honest_nodes - 1))));
    std::printf("# mesh: spam_delivered_ratio %.6f time_to_slash_ms %.0f\n",
                ratio(static_cast<double>(o.spam_delivered),
                      static_cast<double>(o.spam_sent * honest_nodes)),
                o.time_to_slash_ms);
    return;
  }
  // Traced: the plain scenario (baseline), the same scenario with wall-clock
  // stage telemetry and allocation counting, and once more with every message
  // traced across nodes. All three must agree on every virtual-time outcome.
  MeshOutcome plain, timed, traced;
  std::unique_ptr<RlnHarness> h = build_mesh(seed, MeshMode::kPlain, &plain.register_s);
  drive_mesh(*h, seed, MeshMode::kPlain, plain, r, false);
  h = build_mesh(seed, MeshMode::kStageTiming, &timed.register_s);
  drive_mesh(*h, seed, MeshMode::kStageTiming, timed, r, true);
  report_node_counters(r, *h);
  h = build_mesh(seed, MeshMode::kHopTrace, &traced.register_s);
  drive_mesh(*h, seed, MeshMode::kHopTrace, traced, r, false);
  h.reset();
  r.check(same_virtual_outcome(plain, timed) && same_virtual_outcome(plain, traced),
          "mesh: telemetry or tracing changed the virtual-time outcome");

  r.set("node.publish_ms", mean(timed.publish_ms));
  timed.usage.report(r, static_cast<double>(timed.honest_delivered), "", "op");
  timed.stages.report(r);
  r.set("chain.register_s", timed.register_s);
  r.set("sim.run_s", timed.run_s);
  const double validate_s = timed.stages.window.sum_ns / 1e9;
  r.set("sim.validate_s", validate_s);
  r.set("sim.validate_share", ratio(validate_s, timed.run_s));
  r.set("propagation.hop_depth_p50", hop_depth_p50(traced.hops));
  r.set("propagation.per_hop_ms", traced.per_hop_ms);
  r.set("propagation.redundancy_ratio", traced.hops.redundancy_ratio);
  r.set("mesh.spam_delivered_ratio",
        ratio(static_cast<double>(plain.spam_delivered),
              static_cast<double>(plain.spam_sent * honest_nodes)));
  r.set("mesh.time_to_slash_ms", plain.time_to_slash_ms);
  r.set("unattributed_share", ratio(timed.run_s - validate_s, timed.run_s));
  r.set("tracing_overhead", ratio(timed.run_s, plain.run_s) - 1.0);
}

// ---- main ---------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload relay|mesh --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = val == "1";
    } else {
      return usage();
    }
  }
  if (workload != "relay" && workload != "mesh") return usage();

  Report r(trace);
  // The trusted-setup artifact is a process-wide cache every workload
  // needs; fill it before the set-ups so they measure the same work.
  const auto tk = Clock::now();
  const zksnark::Keypair& kp = zksnark::rln_keypair(kDepth);
  const double keygen_s = since(tk);
  r.check(kp.pk.num_constraints > 0, "trusted setup produced an empty key");

  if (workload == "relay") run_relay(seed, seconds, trace, r);
  if (workload == "mesh") run_mesh(seed, trace, r);

  if (trace) {
    r.set("zksnark.keygen_s", keygen_s);
  } else {
    r.set("peak_rss_mb", peak_rss_mb());
  }
  std::fflush(stderr);
  r.print(trace);
  return r.correct() ? 0 : 1;
}
