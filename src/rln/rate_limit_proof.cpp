#include "rln/rate_limit_proof.hpp"

#include "common/serde.hpp"
#include "hash/sha256.hpp"

namespace waku::rln {

Bytes RateLimitProof::serialize() const {
  ByteWriter w;
  w.write_raw(share_x.to_bytes_be());
  w.write_raw(share_y.to_bytes_be());
  w.write_raw(nullifier.to_bytes_be());
  w.write_u64(epoch);
  w.write_raw(root.to_bytes_be());
  w.write_raw(proof.serialize());
  return std::move(w).take();
}

RateLimitProof RateLimitProof::deserialize(BytesView bytes) {
  ByteReader r(bytes);
  RateLimitProof p;
  p.share_x = Fr::from_bytes_reduce(r.read_raw(32));
  p.share_y = Fr::from_bytes_reduce(r.read_raw(32));
  p.nullifier = Fr::from_bytes_reduce(r.read_raw(32));
  p.epoch = r.read_u64();
  p.root = Fr::from_bytes_reduce(r.read_raw(32));
  p.proof = zksnark::Proof::deserialize(r.read_raw(zksnark::Proof::kSerializedSize));
  return p;
}

std::vector<Fr> RateLimitProof::public_inputs(const Fr& msg_hash) const {
  zksnark::RlnPublicInputs pub;
  pub.x = msg_hash;
  pub.y = share_y;
  pub.nullifier = nullifier;
  pub.epoch = Fr::from_u64(epoch);
  pub.root = root;
  return pub.to_vector();
}

Fr message_hash(const WakuMessage& message) {
  // sha256(message.signal_bytes()), streamed instead of materialized.
  hash::Sha256 h;
  h.update(le_bytes(static_cast<std::uint32_t>(message.payload.size())));
  h.update(message.payload);
  h.update(le_bytes(static_cast<std::uint32_t>(message.content_topic.size())));
  h.update(bytes_view(message.content_topic));
  return Fr::from_bytes_reduce(h.finalize());
}

void attach_proof(WakuMessage& message, const RateLimitProof& proof) {
  message.rate_limit_proof = proof.serialize();
}

std::optional<RateLimitProof> extract_proof(const WakuMessage& message) {
  if (!message.rate_limit_proof.has_value()) return std::nullopt;
  try {
    return RateLimitProof::deserialize(*message.rate_limit_proof);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace waku::rln
