// Command-line flags declared once per binary, as a typed table (DESIGN.md
// §18). A binary declares each flag with the variable it sets, its value type
// and bounds (or its enum value names) and one help line, then parses:
//
//   FlagTable t;
//   t.Int("cycles", &opts.cycles, 1, "crash-recovery cycles (default 30)");
//   t.Enum("repl_ack", &opts.repl_ack, kReplAckNames, "ack discipline");
//   t.Set("ha", &opts.ha, true, "drive a two-node replicated pair");
//   t.Parse(argc, argv);
//
// Parse applies the flags in command-line order, so a later flag overrides
// an earlier one. It exits with status 2, naming the flag, on an unknown
// flag, a malformed or out-of-range value, a valued flag given without
// "=VALUE", or "=VALUE" given to a bare flag. --help prints the table and
// exits 0.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace kvaccel {

// One named value of an enumerated flag. The same tables name the values in
// reports and printouts, so a flag value and its report string never drift.
template <typename T>
struct EnumName {
  const char* name;
  T value;
};

// The name `names` gives `value`, or "?" when no entry has it.
template <typename T, size_t N>
const char* NameOf(const EnumName<T> (&names)[N],
                   std::type_identity_t<T> value) {
  for (const EnumName<T>& n : names) {
    if (n.value == value) return n.name;
  }
  return "?";
}

// Sets *value to the entry called `name`; false when no entry has the name.
template <typename T, size_t N>
bool ValueOf(const EnumName<T> (&names)[N], std::string_view name, T* value) {
  for (const EnumName<T>& n : names) {
    if (name == n.name) {
      *value = n.value;
      return true;
    }
  }
  return false;
}

// Parses `text` as a finite number in [min, max]. On failure returns false
// and sets *err to the reason (the flag name is the caller's to add).
bool ParseDouble(const char* text, double min, double max, double* out,
                 std::string* err);

class FlagTable {
 public:
  // Applies one flag's value text; false with *err set when it is invalid.
  using Setter = std::function<bool(const char* value, std::string* err)>;

  // --name=N: a base-10 integer in [min, the largest T], range-checked in
  // T itself so a value too wide for T is rejected, not wrapped.
  template <typename T>
  void Int(const char* name, T* dest, std::type_identity_t<T> min,
           const char* help) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    Custom(name, "N", [dest, min](const char* v, std::string* err) {
      constexpr T kMax = std::numeric_limits<T>::max();
      std::conditional_t<std::is_signed_v<T>, long long, unsigned long long>
          x = 0;
      char* end = nullptr;
      errno = 0;
      if constexpr (std::is_signed_v<T>) {
        x = strtoll(v, &end, 10);
      } else {
        x = strtoull(v, &end, 10);
      }
      // strtoull wraps a leading '-'; an unsigned flag rejects it instead.
      if (end == v || *end != '\0' || errno == ERANGE ||
          (std::is_unsigned_v<T> && v[strspn(v, " ")] == '-')) {
        *err = std::string("'") + v + "' (expected an integer)";
        return false;
      }
      if (x < min || x > kMax) {
        *err = std::string(v) +
               (x < min ? " (must be >= " : " (must be <= ") +
               std::to_string(x < min ? min : kMax) + ")";
        return false;
      }
      *dest = static_cast<T>(x);
      return true;
    }, help);
  }

  // --name=F: a finite number in [min, max].
  void Double(const char* name, double* dest, double min, double max,
              const char* help) {
    Custom(name, "F", [dest, min, max](const char* v, std::string* err) {
      return ParseDouble(v, min, max, dest, err);
    }, help);
  }

  // --name=META: any text, including the empty string.
  void String(const char* name, std::string* dest, const char* meta,
              const char* help) {
    Custom(name, meta, [dest](const char* v, std::string*) {
      *dest = v;
      return true;
    }, help);
  }

  // --name=NAME: one of `names` (which must outlive the table), stored in
  // *dest as its value.
  template <typename D, typename V, size_t N>
  void Enum(const char* name, D* dest, const EnumName<V> (&names)[N],
            const char* help) {
    std::string meta = names[0].name;
    for (size_t i = 1; i < N; i++) meta += std::string("|") + names[i].name;
    Custom(name, meta.c_str(),
           [dest, &names, meta](const char* v, std::string* err) {
             V value{};
             if (!ValueOf(names, v, &value)) {
               *err = std::string("'") + v + "' (expected " + meta + ")";
               return false;
             }
             *dest = static_cast<D>(value);
             return true;
           },
           help);
  }

  // Bare --name: stores `value` in *dest.
  template <typename T>
  void Set(const char* name, T* dest, std::type_identity_t<T> value,
           const char* help) {
    Action(name, [dest, value] { *dest = value; }, help);
  }

  // Bare --name: runs `action`.
  void Action(const char* name, std::function<void()> action,
              const char* help) {
    flags_.push_back({name, "", help, nullptr, std::move(action)});
  }

  // --name=META: `set` checks and applies the value.
  void Custom(const char* name, const char* meta, Setter set,
              const char* help) {
    flags_.push_back({name, meta, help, std::move(set), nullptr});
  }

  // Applies argv[1..argc) in order; see the file comment for what exits.
  void Parse(int argc, char** argv) const;

  // Whether a flag called --`name` is declared.
  bool Has(std::string_view name) const;

 private:
  struct Flag {
    std::string name;
    std::string meta;  // value shape shown by --help; empty for a bare flag
    std::string help;
    Setter set;                    // valued flags
    std::function<void()> action;  // bare flags
  };

  std::vector<Flag> flags_;
};

}  // namespace kvaccel
