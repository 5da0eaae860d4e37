// The one strict unsigned-integer parse behind every numeric flag and spec
// field (bench flags, checkpoint policies, elastic and link-chaos specs,
// tool arguments). The C library's unsigned conversions accept a leading
// sign or space and wrap "-1" to 2^64-1; this parse refuses both, so outside
// input can never turn into a wrapped or truncated count.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace sgxpl {

/// The whole of `text` must be an unsigned integer, decimal or 0x-prefixed
/// hex, with no sign, space or suffix, that fits 64 bits and lies in
/// [lo, hi]. nullopt otherwise.
std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

}  // namespace sgxpl
