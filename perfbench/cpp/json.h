// Minimal streaming JSON writer for the benchmark's raw run record.

#ifndef PERFBENCH_CPP_JSON_H_
#define PERFBENCH_CPP_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream* os) : os_(os) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  void Key(const std::string& key) {
    Separate();
    WriteString(key);
    *os_ << ':';
    after_key_ = true;
  }

  void Value(double v) {
    Separate();
    if (!std::isfinite(v)) {
      *os_ << "null";  // JSON has no NaN/Inf; the reader treats null as bad.
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *os_ << buf;
  }
  void Value(int64_t v) {
    Separate();
    *os_ << v;
  }
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(uint64_t v) {
    Separate();
    *os_ << v;
  }
  void Value(bool v) {
    Separate();
    *os_ << (v ? "true" : "false");
  }
  void Value(const std::string& v) {
    Separate();
    WriteString(v);
  }
  void Value(const char* v) { Value(std::string(v)); }
  template <class T>
  void Value(const std::vector<T>& values) {
    BeginArray();
    for (const T& v : values) Value(v);
    EndArray();
  }

  template <class T>
  void Field(const std::string& key, const T& value) {
    Key(key);
    Value(value);
  }

 private:
  void Open(char c) {
    Separate();
    *os_ << c;
    first_.push_back(true);
  }
  void Close(char c) {
    first_.pop_back();
    *os_ << c;
  }
  /// Writes the comma between siblings (not after a key).
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) *os_ << ',';
    first_.back() = false;
  }
  void WriteString(const std::string& s) {
    *os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        *os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *os_ << buf;
      } else {
        *os_ << c;
      }
    }
    *os_ << '"';
  }

  std::ostream* os_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_JSON_H_
