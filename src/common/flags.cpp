#include "common/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <type_traits>

namespace mmsyn {
namespace {

std::string kind_name(int kind) {
  switch (kind) {
    case 0: return "int";
    case 1: return "double";
    case 2: return "bool";
    case 3: return "string";
    default: return "choice";
  }
}

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const auto& c : choices) {
    if (!out.empty()) out += ", ";
    out += c;
  }
  return out;
}

/// The whole of `text` as T: nullopt on any leftover character, an empty
/// token, a value outside T's range, or a non-finite floating value.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) return std::nullopt;
  }
  return out;
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  return std::nullopt;
}

}  // namespace

void Flags::add(const std::string& name, Entry entry) {
  entries_[name] = std::move(entry);
  order_.push_back(name);
}

void Flags::define_int(const std::string& name, std::int64_t default_value,
                       const std::string& help) {
  add(name, Entry{.kind = Kind::kInt,
                  .value = std::to_string(default_value),
                  .help = help,
                  .integer = default_value});
}

void Flags::define_double(const std::string& name, double default_value,
                          const std::string& help) {
  add(name, Entry{.kind = Kind::kDouble,
                  .value = std::to_string(default_value),
                  .help = help,
                  .number = default_value});
}

void Flags::define_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  add(name, Entry{.kind = Kind::kBool,
                  .value = default_value ? "true" : "false",
                  .help = help,
                  .boolean = default_value});
}

void Flags::define_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  add(name, Entry{.kind = Kind::kString, .value = default_value, .help = help});
}

void Flags::define_choice(const std::string& name,
                          const std::vector<std::string>& choices,
                          const std::string& default_value,
                          const std::string& implicit_value,
                          const std::string& help) {
  add(name, Entry{.kind = Kind::kChoice,
                  .value = default_value,
                  .help = help,
                  .choices = choices,
                  .implicit = implicit_value});
}

bool Flags::set_value(const std::string& name, const std::string& text) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    return false;
  }
  Entry& e = it->second;
  // Numbers and booleans are parsed here, once, so a malformed token is a
  // parse error naming the flag instead of a silently different value.
  const char* expected = nullptr;
  switch (e.kind) {
    case Kind::kInt:
      if (const auto v = parse_number<std::int64_t>(text)) e.integer = *v;
      else expected = "a 64-bit integer";
      break;
    case Kind::kDouble:
      if (const auto v = parse_number<double>(text)) e.number = *v;
      else expected = "a finite number";
      break;
    case Kind::kBool:
      if (const auto v = parse_bool(text)) e.boolean = *v;
      else expected = "true/false, 1/0 or yes/no";
      break;
    case Kind::kString:
      break;
    case Kind::kChoice:
      if (std::find(e.choices.begin(), e.choices.end(), text) ==
          e.choices.end()) {
        std::fprintf(stderr,
                     "unknown value '%s' for --%s: registered choices are %s\n",
                     text.c_str(), name.c_str(),
                     join_choices(e.choices).c_str());
        return false;
      }
      break;
  }
  if (expected != nullptr) {
    std::fprintf(stderr, "invalid value '%s' for --%s: expected %s\n",
                 text.c_str(), name.c_str(), expected);
    return false;
  }
  e.value = text;
  return true;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool have_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
    if (!have_value) {
      if (it->second.kind == Kind::kBool) {
        value = "true";
      } else if (it->second.kind == Kind::kChoice) {
        // Consume the next argument only when it names a registered
        // choice; otherwise the bare flag selects the implicit value
        // (so a script ending in `--dvs` keeps working).
        const auto& choices = it->second.choices;
        if (i + 1 < argc && std::find(choices.begin(), choices.end(),
                                      argv[i + 1]) != choices.end()) {
          value = argv[++i];
        } else {
          value = it->second.implicit;
        }
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
    }
    if (!set_value(name, value)) return false;
  }
  return true;
}

const Flags::Entry& Flags::entry(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::out_of_range("flag not defined: " + name);
  // Choice flags read back as strings.
  const bool ok = it->second.kind == kind ||
                  (kind == Kind::kString && it->second.kind == Kind::kChoice);
  if (!ok)
    throw std::logic_error("flag " + name + " is not of type " +
                           kind_name(static_cast<int>(kind)));
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return entry(name, Kind::kInt).integer;
}

std::int64_t Flags::get_int_in(const std::string& name, std::int64_t lo,
                              std::int64_t hi) const {
  const std::int64_t v = get_int(name);
  if (v < lo || v > hi)
    throw std::invalid_argument(name + ": --" + name + "=" +
                                std::to_string(v) +
                                " is out of range (expected " +
                                std::to_string(lo) + ".." +
                                std::to_string(hi) + ")");
  return v;
}

double Flags::get_double(const std::string& name) const {
  return entry(name, Kind::kDouble).number;
}

bool Flags::get_bool(const std::string& name) const {
  return entry(name, Kind::kBool).boolean;
}

const std::string& Flags::get_string(const std::string& name) const {
  return entry(name, Kind::kString).value;
}

void Flags::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program.c_str());
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    if (e.kind == Kind::kChoice) {
      std::fprintf(stderr, "  --%-20s %s (one of: %s; default: %s)\n",
                   name.c_str(), e.help.c_str(),
                   join_choices(e.choices).c_str(), e.value.c_str());
    } else {
      std::fprintf(stderr, "  --%-20s %s (default: %s)\n", name.c_str(),
                   e.help.c_str(), e.value.c_str());
    }
  }
}

}  // namespace mmsyn
