// Minimal deterministic JSON writer used by the observability subsystem for
// metric snapshots and run reports. Deliberately tiny: no DOM, no parsing —
// a streaming emitter whose output is byte-stable for identical inputs, which
// is what makes run reports diffable across seeds and machines.
//
// Usage:
//   JsonWriter w;
//   w.BeginObject();
//   w.Field("name", "fillrandom");
//   w.Key("series"); w.BeginArray(); w.Double(1.5); w.EndArray();
//   w.EndObject();
//   fputs(w.str().c_str(), f);
//
// The output grows in fixed chunks rather than one doubling buffer, so a
// report of several MB never holds an old and a new buffer at once; str()
// assembles it once, at its exact size.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace kvaccel::obs {

class JsonWriter {
 public:
  JsonWriter() { stack_.push_back(kTop); }

  void BeginObject() {
    Sep();
    Put("{");
    stack_.push_back(kFirst);
  }
  void EndObject() {
    stack_.pop_back();
    Put("}");
  }
  void BeginArray() {
    Sep();
    Put("[");
    stack_.push_back(kFirst);
  }
  void EndArray() {
    stack_.pop_back();
    Put("]");
  }

  void Key(const std::string& k) {
    Sep();
    AppendEscaped(k);
    Put(":");
    pending_value_ = true;
  }

  void String(const std::string& v) {
    Sep();
    AppendEscaped(v);
  }
  void Uint(uint64_t v) {
    Sep();
    char buf[24];
    snprintf(buf, sizeof(buf), "%" PRIu64, v);
    Put(buf);
  }
  void Int(int64_t v) {
    Sep();
    char buf[24];
    snprintf(buf, sizeof(buf), "%" PRId64, v);
    Put(buf);
  }
  // Fixed "%.10g" format: enough precision for every quantity we report while
  // staying byte-identical across runs. Non-finite values (which JSON cannot
  // represent) are emitted as 0.
  void Double(double v) {
    Sep();
    if (!std::isfinite(v)) {
      Put("0");
      return;
    }
    char buf[40];
    snprintf(buf, sizeof(buf), "%.10g", v);
    Put(buf);
  }
  void Bool(bool v) {
    Sep();
    Put(v ? "true" : "false");
  }
  void Null() {
    Sep();
    Put("null");
  }

  void Field(const std::string& k, const std::string& v) {
    Key(k);
    String(v);
  }
  void Field(const std::string& k, const char* v) {
    Key(k);
    String(v);
  }
  void Field(const std::string& k, uint64_t v) {
    Key(k);
    Uint(v);
  }
  void Field(const std::string& k, int64_t v) {
    Key(k);
    Int(v);
  }
  void Field(const std::string& k, int v) {
    Key(k);
    Int(v);
  }
  void Field(const std::string& k, unsigned v) {
    Key(k);
    Uint(v);
  }
  void Field(const std::string& k, double v) {
    Key(k);
    Double(v);
  }
  void Field(const std::string& k, bool v) {
    Key(k);
    Bool(v);
  }

  // The whole output, copied out of the chunks at its exact size; each
  // chunk is freed once copied, so the writer is empty afterwards. Call it
  // once, after the last value.
  std::string str() {
    size_t size = 0;
    for (const std::string& c : chunks_) size += c.size();
    std::string out;
    out.reserve(size);
    for (std::string& c : chunks_) {
      out += c;
      std::string().swap(c);
    }
    chunks_.clear();
    return out;
  }

  static void Escape(const std::string& in, std::string* out) {
    out->push_back('"');
    for (char c : in) {
      switch (c) {
        case '"':
          *out += "\\\"";
          break;
        case '\\':
          *out += "\\\\";
          break;
        case '\n':
          *out += "\\n";
          break;
        case '\r':
          *out += "\\r";
          break;
        case '\t':
          *out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            snprintf(buf, sizeof(buf), "\\u%04x", c);
            *out += buf;
          } else {
            out->push_back(c);
          }
      }
    }
    out->push_back('"');
  }

 private:
  enum State : uint8_t { kTop, kFirst, kRest };

  // Emits the separating comma demanded by the enclosing container, unless
  // this value completes a just-written key.
  void Sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (stack_.back() == kFirst) {
      stack_.back() = kRest;
    } else if (stack_.back() == kRest) {
      Put(",");
    }
  }

  // The chunk with room for `n` more bytes: a new one when the current one
  // would have to grow.
  std::string& Room(size_t n) {
    if (chunks_.empty() ||
        chunks_.back().size() + n > chunks_.back().capacity()) {
      chunks_.emplace_back().reserve(std::max(kChunkBytes, n));
    }
    return chunks_.back();
  }
  void Put(std::string_view v) { Room(v.size()).append(v); }
  // An escaped character takes at most 6 bytes, plus the two quotes.
  void AppendEscaped(const std::string& s) {
    Escape(s, &Room(6 * s.size() + 2));
  }

  static constexpr size_t kChunkBytes = 1 << 20;

  std::vector<std::string> chunks_;
  std::vector<State> stack_;
  bool pending_value_ = false;
};

}  // namespace kvaccel::obs
