// Status: a lightweight, copyable result type used across the whole library
// for operations that can fail without an exceptional control path (I/O,
// lookups, decoding). Mirrors the RocksDB/LevelDB convention the paper's
// host stack is written against.
#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace kvaccel {

class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound,
    kCorruption,
    kNotSupported,
    kInvalidArgument,
    kIOError,
    kBusy,
    kTryAgain,
    kAborted,
    kNoSpace,
  };

  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg = {}) {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg = {}) {
    return Status(Code::kCorruption, msg);
  }
  static Status NotSupported(std::string_view msg = {}) {
    return Status(Code::kNotSupported, msg);
  }
  static Status InvalidArgument(std::string_view msg = {}) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg = {}) {
    return Status(Code::kIOError, msg);
  }
  static Status Busy(std::string_view msg = {}) {
    return Status(Code::kBusy, msg);
  }
  static Status TryAgain(std::string_view msg = {}) {
    return Status(Code::kTryAgain, msg);
  }
  static Status Aborted(std::string_view msg = {}) {
    return Status(Code::kAborted, msg);
  }
  static Status NoSpace(std::string_view msg = {}) {
    return Status(Code::kNoSpace, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsTryAgain() const { return code_ == Code::kTryAgain; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsNoSpace() const { return code_ == Code::kNoSpace; }
  // Device errors worth retrying; Corruption, NoSpace and InvalidArgument
  // are not.
  bool IsTransient() const { return IsIOError() || IsBusy() || IsTryAgain(); }

  Code code() const { return code_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = CodeName(code_);
    if (!msg_.empty()) {
      out += ": ";
      out += msg_;
    }
    return out;
  }

  const std::string& message() const { return msg_; }

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string_view msg) : code_(code), msg_(msg) {}

  static const char* CodeName(Code code) {
    switch (code) {
      case Code::kOk: return "OK";
      case Code::kNotFound: return "NotFound";
      case Code::kCorruption: return "Corruption";
      case Code::kNotSupported: return "NotSupported";
      case Code::kInvalidArgument: return "InvalidArgument";
      case Code::kIOError: return "IOError";
      case Code::kBusy: return "Busy";
      case Code::kTryAgain: return "TryAgain";
      case Code::kAborted: return "Aborted";
      case Code::kNoSpace: return "NoSpace";
    }
    return "Unknown";
  }

  Code code_ = Code::kOk;
  std::string msg_;
};

}  // namespace kvaccel
