// Minimal command-line flag parsing for the bench/example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name`. Unknown
// flags are an error so typos in experiment scripts fail loudly, and so
// are malformed values: an integer or number must be the whole token
// (`--seed 1x` fails), an integer must fit in 64 bits, a number must be
// finite (`--time-budget nan` fails), and a boolean must be one of
// true/false, 1/0 or yes/no.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mmsyn {

/// Declarative flag set: register flags with defaults, then parse argv.
class Flags {
public:
  /// Registers an integer flag.
  void define_int(const std::string& name, std::int64_t default_value,
                  const std::string& help);
  /// Registers a floating-point flag.
  void define_double(const std::string& name, double default_value,
                     const std::string& help);
  /// Registers a boolean flag (presence, `=true/false`, or `=1/0`).
  void define_bool(const std::string& name, bool default_value,
                   const std::string& help);
  /// Registers a string flag.
  void define_string(const std::string& name, const std::string& default_value,
                     const std::string& help);
  /// Registers a choice flag: the value must be one of `choices` (an
  /// unknown value is an actionable error listing them). Bare `--name`
  /// selects `implicit_value` — so a flag that historically was boolean
  /// (e.g. `--dvs`) can grow named backends without breaking scripts;
  /// `--name value` consumes the next argument only when it is a
  /// registered choice. Read with get_string().
  void define_choice(const std::string& name,
                     const std::vector<std::string>& choices,
                     const std::string& default_value,
                     const std::string& implicit_value,
                     const std::string& help);

  /// Parses argv (excluding argv[0]); returns false on error (printing a
  /// message that names the flag and the bad token) or when `--help` is
  /// present (printing usage).
  bool parse(int argc, char** argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// Integer flag value checked against [lo, hi]; throws
  /// std::invalid_argument naming the flag and the range when outside it.
  [[nodiscard]] std::int64_t get_int_in(const std::string& name,
                                        std::int64_t lo,
                                        std::int64_t hi) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  /// Prints registered flags with defaults and help strings.
  void print_usage(const std::string& program) const;

private:
  enum class Kind { kInt, kDouble, kBool, kString, kChoice };
  struct Entry {
    Kind kind;
    std::string value;  // textual representation
    std::string help;
    std::vector<std::string> choices{};  // kChoice: allowed values
    std::string implicit{};              // kChoice: value for bare `--name`
    std::int64_t integer = 0;            // kInt: parsed value
    double number = 0.0;                 // kDouble: parsed value
    bool boolean = false;                // kBool: parsed value
  };
  void add(const std::string& name, Entry entry);
  bool set_value(const std::string& name, const std::string& text);
  const Entry& entry(const std::string& name, Kind kind) const;

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace mmsyn
