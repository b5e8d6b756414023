#include "lsm/filename.h"

#include <cinttypes>
#include <charconv>
#include <cstdio>
#include <string_view>

namespace kvaccel::lsm {

namespace {

std::string NumberedName(const char* prefix, uint64_t number,
                         const char* suffix) {
  char buf[48];
  snprintf(buf, sizeof(buf), "%s%06" PRIu64 "%s", prefix, number, suffix);
  return buf;
}

}  // namespace

std::string TableFileName(uint64_t number) {
  return NumberedName("", number, ".sst");
}

std::string LogFileName(uint64_t number) {
  return NumberedName("", number, ".log");
}

std::string ManifestFileName(uint64_t number) {
  return NumberedName("MANIFEST-", number, "");
}

bool ParseFileName(const std::string& name, uint64_t* number,
                   FileType* type) {
  std::string_view digits = name;
  FileType t = FileType::kManifest;
  if (digits.starts_with("MANIFEST-")) {
    digits.remove_prefix(9);
  } else if (digits.ends_with(".sst") || digits.ends_with(".log")) {
    t = digits.ends_with(".sst") ? FileType::kTable : FileType::kLog;
    digits.remove_suffix(4);
  } else {
    return false;
  }
  uint64_t n = 0;
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, n);
  // "%06" pads to six digits and never puts a zero before a seventh.
  if (ec != std::errc() || ptr != end || digits.size() < 6 ||
      (digits.size() > 6 && digits[0] == '0')) {
    return false;
  }
  *number = n;
  *type = t;
  return true;
}

}  // namespace kvaccel::lsm
