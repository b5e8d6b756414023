#include "common/flags.h"

#include <cmath>
#include <cstdio>

namespace kvaccel {

bool ParseDouble(const char* text, double min, double max, double* out,
                 std::string* err) {
  char* end = nullptr;
  errno = 0;
  const double v = strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    *err = std::string("'") + text + "' (expected a number)";
    return false;
  }
  if (v < min || v > max) {
    char bound[64];
    snprintf(bound, sizeof(bound), "%s %g", v < min ? ">=" : "<=",
             v < min ? min : max);
    *err = std::string(text) + " (must be " + bound + ")";
    return false;
  }
  *out = v;
  return true;
}

bool FlagTable::Has(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return true;
  }
  return false;
}

void FlagTable::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (strcmp(arg, "--help") == 0) {
      const char* base = strrchr(argv[0], '/');
      printf("usage: %s [--flag[=VALUE] ...]\n",
             base != nullptr ? base + 1 : argv[0]);
      for (const Flag& f : flags_) {
        const std::string spec =
            "--" + f.name + (f.meta.empty() ? "" : "=" + f.meta);
        printf("  %-26s %s\n", spec.c_str(), f.help.c_str());
      }
      printf("  %-26s %s\n", "--help", "print this list and exit");
      exit(0);
    }
    const char* eq = strchr(arg, '=');
    const std::string_view name(arg, eq != nullptr ? eq - arg : strlen(arg));
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (name == "--" + f.name) flag = &f;
    }
    if (flag == nullptr) {
      fprintf(stderr, "unknown flag: %s (see --help)\n", arg);
      exit(2);
    }
    if (flag->action && eq != nullptr) {
      fprintf(stderr, "--%s takes no value, got %s\n", flag->name.c_str(),
              arg);
      exit(2);
    }
    if (flag->set && eq == nullptr) {
      fprintf(stderr, "--%s needs a value: --%s=%s\n", flag->name.c_str(),
              flag->name.c_str(), flag->meta.c_str());
      exit(2);
    }
    std::string err;
    if (flag->action) {
      flag->action();
    } else if (!flag->set(eq + 1, &err)) {
      fprintf(stderr, "invalid value for --%s: %s\n", flag->name.c_str(),
              err.c_str());
      exit(2);
    }
  }
}

}  // namespace kvaccel
