// The item tokenizer the `--faults` and `--churn` grammars share: a spec
// is ';'-separated KIND@FIRST[:ARG...] items, and each argument starts
// with a one-letter key. SpecGrammar owns what both grammars spell the
// same way: trimming and splitting, the failure message (flag, item,
// reason, doc pointer), number parsing and the misplaced-key check. Each
// grammar keeps its own kinds and value rules.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace diaca {

/// A one-letter argument key and the kinds that consume it, as the
/// misplaced-key message names them ("'x' belongs to spike").
struct SpecKeyOwner {
  char key;
  const char* kinds;
};

class SpecGrammar {
 public:
  /// `flag` ("--faults") and `doc` ("docs/resilience.md") appear in every
  /// failure message; `owners` is the grammar's key table. All three must
  /// outlive the grammar.
  constexpr SpecGrammar(std::string_view flag, std::string_view doc,
                        std::span<const SpecKeyOwner> owners)
      : flag_(flag), doc_(doc), owners_(owners) {}

  /// `s` without leading and trailing spaces and tabs.
  static std::string_view Trim(std::string_view s);

  /// `text` cut at every `sep`; empty pieces are kept, so the result is
  /// never empty.
  static std::vector<std::string_view> Split(std::string_view text, char sep);

  /// Throws diaca::Error("bad <flag> item '<item>': <why> (grammar:
  /// <doc>)").
  [[noreturn]] void Fail(std::string_view item, const std::string& why) const;

  /// All of `text` as a double through std::from_chars (no leading '+',
  /// whitespace or hex prefix); otherwise Fail with "expected a number
  /// for the <what>".
  double ParseDouble(std::string_view text, std::string_view item,
                     const char* what) const;

  /// Fail on the first argument whose key is not in `allowed`: a key
  /// another kind owns is named with its owners, any other as unknown.
  /// `valid_keys` describes the kind's own keys in the message.
  void CheckKeys(std::string_view item, std::string_view kind,
                 const char* valid_keys, std::string_view allowed,
                 std::span<const std::string_view> args) const;

 private:
  std::string_view flag_;
  std::string_view doc_;
  std::span<const SpecKeyOwner> owners_;
};

}  // namespace diaca
