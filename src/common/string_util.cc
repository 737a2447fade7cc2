#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <charconv>

namespace bayescrowd {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t pos = text.find(delim, begin);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(begin));
      return out;
    }
    out.emplace_back(text.substr(begin, pos - begin));
    begin = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool IsSafeName(std::string_view text) {
  return !text.empty() &&
         text.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                "0123456789._-") == std::string_view::npos;
}

bool ParseInt(std::string_view text, int* out) {
  text = Trim(text);
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseDouble(std::string_view text, double* out) {
  text = Trim(text);
  if (text.empty()) return false;
  // std::from_chars for double is not reliably available on older
  // libstdc++; use strtod on a bounded copy.
  std::string buf(text);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (size < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(size), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

}  // namespace bayescrowd
