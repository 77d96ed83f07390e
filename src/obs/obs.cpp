#include "obs/obs.hpp"

namespace appfl::obs {

namespace detail {
std::atomic<int> g_level{static_cast<int>(Level::kOff)};
}  // namespace detail

std::string to_string(Level lv) {
  switch (lv) {
    case Level::kOff: return "off";
    case Level::kMetrics: return "metrics";
    case Level::kTrace: return "trace";
  }
  return "?";
}

std::optional<Level> parse_level(const std::string& name) {
  if (name == "off") return Level::kOff;
  if (name == "metrics") return Level::kMetrics;
  if (name == "trace") return Level::kTrace;
  return std::nullopt;
}

void set_level(Level lv) {
  detail::g_level.store(static_cast<int>(lv), std::memory_order_relaxed);
}

}  // namespace appfl::obs
