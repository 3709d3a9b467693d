// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace govdns::util {

// Splits on a single character; empty pieces are kept ("a..b" -> a, "", b).
std::vector<std::string> Split(std::string_view text, char sep);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII case folding: what std::tolower does in the "C" locale, which this
// program never leaves, without a libc call per character.
inline char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

// ASCII-only lowering, sufficient for DNS hostnames.
std::string ToLower(std::string_view text);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// True if `text` ends with `suffix`, ASCII case-insensitively.
bool EndsWithIgnoreCase(std::string_view text, std::string_view suffix);

bool ContainsIgnoreCase(std::string_view text, std::string_view needle);

// Formats n with thousands separators: 1234567 -> "1,234,567".
std::string WithCommas(int64_t n);

// Formats a ratio as a percentage with one decimal: 0.2954 -> "29.5%".
std::string Percent(double ratio, int decimals = 1);

}  // namespace govdns::util
