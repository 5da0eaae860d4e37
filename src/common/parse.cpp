#include "common/parse.h"

#include <charconv>
#include <system_error>

namespace sgxpl {

std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                            std::uint64_t lo,
                                            std::uint64_t hi) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v, base);
  if (ec != std::errc{} || ptr != last || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace sgxpl
