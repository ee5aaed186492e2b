// Versioned binary codec for core::EvaluationResult — the payload format of
// the persistent result store and of the server's evaluate replies.
//
// Every field is serialized explicitly, in a fixed order, with an explicit
// width, little-endian (util/byte_io.hpp), so records are portable across
// hosts and bit-exact through a round trip: doubles travel as IEEE-754 bit
// patterns, so NaN payloads and -0.0 come back unchanged from disk.
//
// The leading version byte gates decoding: when EvaluationResult grows or
// changes a field, bump kResultCodecVersion and old records are rejected
// cleanly (a store miss, never a misread). decode also rejects payloads
// whose size differs from the fixed record size — a truncated or padded
// payload is corruption, not a best-effort partial result.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/evaluator.hpp"

namespace hm::store {

/// Bump whenever the EvaluationResult field set or encoding changes.
inline constexpr std::uint8_t kResultCodecVersion = 1;

/// Encoded size: 1 version byte + the fixed-width fields below. Kept as a
/// constant so decode can reject wrong-sized payloads outright.
inline constexpr std::size_t kEncodedResultSize =
    1 +       // codec version
    8 + 1 +   // chiplet_count, regularity
    8 + 8 + 8 +                // diameter, avg_hop_distance, bisection_links
    8 + 8 + 8 + 8 + 8 +        // link_count .. full_global_bandwidth_bps
    8 + 8 + 8 + 1 +            // latency/saturation measurements + drained
    8 + 8 + 8 + 8 + 8;         // fault_* block

/// Appends the encoded record to `out`.
void encode_result(const core::EvaluationResult& r,
                   std::vector<std::uint8_t>& out);

/// Decodes a payload previously produced by encode_result. Returns nullopt
/// on any mismatch: wrong size, wrong version byte, or a malformed field
/// (e.g. a bool byte that is neither 0 nor 1, an enum out of range).
[[nodiscard]] std::optional<core::EvaluationResult> decode_result(
    const std::uint8_t* data, std::size_t size);

}  // namespace hm::store
