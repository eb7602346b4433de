// Minimal streaming JSON writer for telemetry exports (metric snapshots,
// Chrome-tracing files). Deliberately strict: every number written goes
// through check_finite(), and a NaN or infinity throws instead of leaking
// "inf"/"nan" tokens into the output — which is how the old string-built
// digests produced invalid JSON from empty Distributions. Doubles are
// rendered with %.17g (round-trippable and deterministic for identical
// bit patterns), integers as integers, so identically-seeded runs export
// byte-identical documents.
#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mhrp::telemetry {

/// Thrown when a non-finite value reaches the JSON layer. JSON has no
/// representation for inf/NaN; silently emitting them would produce a
/// document strict parsers reject.
class NonFiniteJsonError : public std::invalid_argument {
 public:
  explicit NonFiniteJsonError(const std::string& what)
      : std::invalid_argument(what) {}
};

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit `"name":` inside an object; the next value call completes the
  /// member.
  void key(std::string_view name);

  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void null();

  /// Render a double exactly as value(double) would (shared with the text
  /// snapshot so both formats agree). Throws NonFiniteJsonError on
  /// non-finite input.
  [[nodiscard]] static std::string format_number(double v);

 private:
  void separate();  // comma between siblings
  void write_escaped(std::string_view s);

  struct Frame {
    bool array = false;
    bool first = true;
    bool key_pending = false;
  };

  std::ostream& out_;
  std::vector<Frame> stack_;
};

}  // namespace mhrp::telemetry
