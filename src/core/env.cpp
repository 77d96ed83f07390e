#include "core/env.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/async_runner.hpp"
#include "core/config.hpp"
#include "obs/obs.hpp"

namespace appfl::core {

namespace {

void warn_invalid(const char* name, const char* value, const char* need) {
  std::fprintf(stderr, "warning: ignoring invalid %s='%s' (need %s)\n", name,
               value, need);
}

void read_double(const char* name, double& field) {
  const char* value = std::getenv(name);
  if (value == nullptr) return;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    warn_invalid(name, value, "a number");
    return;
  }
  field = parsed;
}

/// Whole-string integer in [min, max]; min is 0 or 1 when max is unbounded.
void read_size(const char* name, std::size_t& field, long min,
               long max = LONG_MAX) {
  const char* value = std::getenv(name);
  if (value == nullptr) return;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < min ||
      parsed > max) {
    const std::string need =
        max != LONG_MAX ? "an integer in [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]"
        : min == 0      ? "a non-negative integer"
                        : "a positive integer";
    warn_invalid(name, value, need.c_str());
    return;
  }
  field = static_cast<std::size_t>(parsed);
}

/// One of a fixed set of names; `parse` returns nullopt on anything else.
template <class T, class Parse>
void read_choice(const char* name, T& field, Parse parse, const char* names) {
  const char* value = std::getenv(name);
  if (value == nullptr) return;
  if (const auto parsed = parse(std::string(value))) {
    field = *parsed;
  } else {
    warn_invalid(name, value, names);
  }
}

/// Non-empty path; an empty value leaves the field alone.
void read_path(const char* name, std::string& field) {
  const char* value = std::getenv(name);
  if (value != nullptr && *value != '\0') field = value;
}

/// Warns about (and does not apply) an override this kind of run ignores.
void ignore_here(const char* name, const char* why) {
  if (const char* value = std::getenv(name)) {
    std::fprintf(stderr, "warning: ignoring %s='%s' (%s)\n", name, value, why);
  }
}

void read_fault_dead(std::vector<std::uint32_t>& dead) {
  const char* value = std::getenv("APPFL_FAULT_DEAD");
  if (value == nullptr) return;
  dead.clear();
  const std::string list(value);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string token = list.substr(pos, comma - pos);
    if (!token.empty() &&
        token.find_first_not_of("0123456789") == std::string::npos) {
      dead.push_back(
          static_cast<std::uint32_t>(std::strtoul(token.c_str(), nullptr, 10)));
    } else if (!token.empty()) {
      std::fprintf(stderr,
                   "warning: ignoring bad APPFL_FAULT_DEAD token '%s'\n",
                   token.c_str());
    }
    pos = comma + 1;
  }
}

/// Clears `path` (with a warning) when `level` cannot produce it.
void require_level(std::string& path, obs::Level level, obs::Level needed,
                   const char* what) {
  if (path.empty() || level >= needed) return;
  std::fprintf(stderr,
               "warning: %s output '%s' requires obs level %s (level is '%s') "
               "— ignoring it\n",
               what, path.c_str(),
               needed == obs::Level::kTrace ? "'trace'" : "'metrics' or 'trace'",
               obs::to_string(level).c_str());
  path.clear();
}

}  // namespace

void apply_env(RunConfig& config) {
  comm::FaultConfig& faults = config.faults;
  read_double("APPFL_FAULT_DROP", faults.drop);
  read_double("APPFL_FAULT_DUPLICATE", faults.duplicate);
  read_double("APPFL_FAULT_REORDER", faults.reorder);
  read_double("APPFL_FAULT_CORRUPT", faults.corrupt);
  read_double("APPFL_FAULT_DELAY", faults.delay);
  read_double("APPFL_FAULT_DELAY_MAX_S", faults.delay_max_s);
  read_fault_dead(faults.dead);

  if (config.population == 0) {
    read_choice("APPFL_WIRE_CODEC", config.uplink_codec,
                comm::parse_uplink_codec, "none|fp16|quant8|topk|int8");
    ignore_here("APPFL_TREE_FANOUT", "it applies to population runs only");
  } else {
    ignore_here("APPFL_WIRE_CODEC", "the population engine has no codec path");
    read_size("APPFL_TREE_FANOUT", config.tree_fan_out, 0);
  }
  read_size("APPFL_MAILBOX_CAP", config.mailbox_capacity, 0);

  // An empty APPFL_CKPT_DIR switches checkpointing off.
  if (const char* dir = std::getenv("APPFL_CKPT_DIR")) {
    config.checkpoint_dir = dir;
  }
  if (const char* from = std::getenv("APPFL_CKPT_RESUME")) {
    config.resume_from = from;
  }
  read_size("APPFL_CKPT_EVERY", config.checkpoint_every_n_rounds, 1);

  read_choice(
      "APPFL_OBS_LEVEL", config.obs_level,
      [](const std::string& v) {
        return obs::parse_level(v) ? std::optional<std::string>(v)
                                   : std::nullopt;
      },
      "off|metrics|trace");
  read_path("APPFL_OBS_TRACE_OUT", config.trace_out);
  read_path("APPFL_OBS_METRICS_OUT", config.metrics_out);
  read_path("APPFL_OBS_HEALTH_OUT", config.health_out);
  read_path("APPFL_OBS_CRITPATH_OUT", config.critpath_out);
  read_path("APPFL_OBS_FLIGHT_DIR", config.flight_dir);
  // An invalid configured level is left for validate() to reject.
  if (const auto level = obs::parse_level(config.obs_level)) {
    require_level(config.trace_out, *level, obs::Level::kTrace, "trace");
    require_level(config.critpath_out, *level, obs::Level::kTrace,
                  "critical-path");
    require_level(config.metrics_out, *level, obs::Level::kMetrics, "metrics");
    require_level(config.health_out, *level, obs::Level::kMetrics,
                  "health ledger");
    require_level(config.flight_dir, *level, obs::Level::kMetrics,
                  "flight recorder");
  }

  if (config.kernel_backend == "auto") {
    read_choice(
        "APPFL_KERNEL_BACKEND", config.kernel_backend,
        [](const std::string& v) {
          return v == "auto" || v == "reference" || v == "tiled"
                     ? std::optional<std::string>(v)
                     : std::nullopt;
        },
        "auto|reference|tiled");
  }
  if (config.kernel_threads == 0) {
    read_size("APPFL_KERNEL_THREADS", config.kernel_threads, 0, 1024);
  }
}

void apply_env(AsyncConfig& config) {
  apply_env(config.run);
  AsyncStrategyOptions& strategy = config.strategy;
  read_choice("APPFL_ASYNC_STRATEGY", strategy.kind, parse_async_strategy,
              "fedasync|fedbuff|fedcompass|iiadmm");
  read_choice("APPFL_ASYNC_STALENESS_WEIGHT", strategy.weight,
              parse_staleness_weight, "constant|polynomial|hinge");
  read_size("APPFL_ASYNC_BUFFER_K", strategy.buffer_k, 1);
  read_size("APPFL_ASYNC_HINGE_S0", strategy.hinge_s0, 0);
}

}  // namespace appfl::core
