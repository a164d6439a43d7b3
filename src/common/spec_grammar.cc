#include "common/spec_grammar.h"

#include <charconv>

#include "common/error.h"

namespace diaca {

std::string_view SpecGrammar::Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> SpecGrammar::Split(std::string_view text,
                                                 char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const auto pos = text.find(sep);
    if (pos == std::string_view::npos) {
      parts.push_back(text);
      return parts;
    }
    parts.push_back(text.substr(0, pos));
    text.remove_prefix(pos + 1);
  }
}

void SpecGrammar::Fail(std::string_view item, const std::string& why) const {
  throw Error("bad " + std::string(flag_) + " item '" + std::string(item) +
              "': " + why + " (grammar: " + std::string(doc_) + ")");
}

double SpecGrammar::ParseDouble(std::string_view text, std::string_view item,
                                const char* what) const {
  double out = 0.0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    Fail(item, std::string("expected a number for the ") + what);
  }
  return out;
}

void SpecGrammar::CheckKeys(std::string_view item, std::string_view kind,
                            const char* valid_keys, std::string_view allowed,
                            std::span<const std::string_view> args) const {
  for (const std::string_view arg : args) {
    const char key = arg.empty() ? '\0' : arg.front();
    if (allowed.find(key) != std::string_view::npos) continue;
    for (const SpecKeyOwner& owner : owners_) {
      if (owner.key != key) continue;
      Fail(item, std::string("key '") + key + "' is not valid for " +
                     std::string(kind) + " (valid keys: " + valid_keys +
                     "; '" + key + "' belongs to " + owner.kinds + ")");
    }
    Fail(item, "unknown key '" + std::string(arg) + "' for " +
                   std::string(kind) + " (valid keys: " + valid_keys + ")");
  }
}

}  // namespace diaca
