// The one writer behind every BENCH_*.json the benchmarks emit:
//
//   {
//     "figure": "<figure>",
//     "mode": "smoke" | "full",
//     <header() fields>,
//     "series": [
//       {<AddRow() fields>},
//       ...
//     ]
//   }
//
// Fields keep their insertion order, and each number prints at the
// precision its caller names.
#pragma once

#include <concepts>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <utility>

namespace eunomia::bench {

// `s` as a JSON string literal, quotes included. The benches' strings are
// printable ASCII, so only quotes and backslashes need escaping.
inline std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + '"';
}

// The "key": value members of one JSON object, joined by `separator`.
class JsonFields {
 public:
  explicit JsonFields(std::string separator = ", ")
      : separator_(std::move(separator)) {}

  JsonFields& Str(std::string_view key, std::string_view value) {
    return Raw(key, JsonQuote(value));
  }
  JsonFields& Num(std::string_view key, double value, int precision) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.*f", precision, value);
    return Raw(key, text);
  }
  template <std::integral T>
  JsonFields& Int(std::string_view key, T value) {
    return Raw(key, std::to_string(value));
  }
  JsonFields& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  const std::string& text() const { return text_; }

 private:
  JsonFields& Raw(std::string_view key, std::string_view value) {
    text_.append(text_.empty() ? "" : separator_)
        .append(JsonQuote(key))
        .append(": ")
        .append(value);
    return *this;
  }

  std::string separator_;
  std::string text_;
};

class BenchJson {
 public:
  BenchJson(std::string_view figure, bool smoke) : header_(",\n  ") {
    header_.Str("figure", figure).Str("mode", smoke ? "smoke" : "full");
  }

  // Top-level fields, printed after "figure" and "mode".
  JsonFields& header() { return header_; }
  // A new "series" entry; the reference survives later AddRow calls.
  JsonFields& AddRow() { return rows_.emplace_back(); }

  std::string Render() const {
    std::string out = "{\n  " + header_.text() + ",\n  \"series\": [";
    for (const JsonFields& row : rows_) {
      out += (&row == &rows_.front() ? "\n    {" : ",\n    {") + row.text() + "}";
    }
    return out + (rows_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  }

  // Writes Render() to `path`. Failure is a warning, not an error: the
  // printed tables carry the same numbers.
  bool Write(const char* path) const {
    const std::string text = Render();
    std::FILE* f = std::fopen(path, "w");
    bool ok = f != nullptr;
    if (ok) {
      ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
      ok = std::fclose(f) == 0 && ok;
    }
    if (!ok) {
      std::printf("WARNING: could not write %s\n", path);
      return false;
    }
    std::printf("\nwrote %s (%zu series points)\n", path, rows_.size());
    return true;
  }

 private:
  JsonFields header_;
  std::deque<JsonFields> rows_;
};

}  // namespace eunomia::bench
