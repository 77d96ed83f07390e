// The one place the library reads run settings from the process
// environment. An entry point (appfl_cli) calls apply_env once, after flag
// parsing; the runners read only their config, so a stray APPFL_* variable
// in the shell cannot change a library call, a test, or a benchmark.
//
// Each override replaces the field it names, so an env value wins over a
// flag. The kernel engine is the exception: APPFL_KERNEL_BACKEND /
// APPFL_KERNEL_THREADS fill kernel_backend / kernel_threads only while they
// are still "auto" / 0. A value that does not parse is warned about on
// stderr and ignored — never silently read as 0, which would quietly
// disable a fault campaign or a checkpoint cadence.
#pragma once

namespace appfl::core {

struct RunConfig;
struct AsyncConfig;

/// Applies the run overrides:
///   APPFL_FAULT_DROP / _DUPLICATE / _REORDER / _CORRUPT / _DELAY /
///     _DELAY_MAX_S (numbers), APPFL_FAULT_DEAD (comma-separated ids; bad
///     tokens are skipped)
///   APPFL_WIRE_CODEC (none|fp16|quant8|topk|int8; not on population runs,
///     whose engine has no codec path)
///   APPFL_CKPT_DIR, APPFL_CKPT_RESUME (paths), APPFL_CKPT_EVERY (>= 1)
///   APPFL_TREE_FANOUT (population runs only), APPFL_MAILBOX_CAP (>= 0)
///   APPFL_OBS_LEVEL (off|metrics|trace), APPFL_OBS_TRACE_OUT / _METRICS_OUT
///     / _HEALTH_OUT / _CRITPATH_OUT / _FLIGHT_DIR (non-empty paths)
///   APPFL_KERNEL_BACKEND (auto|reference|tiled), APPFL_KERNEL_THREADS
///     (0..1024)
/// Afterwards, obs output paths the resolved level cannot produce are
/// warned about and cleared, so a run never writes an empty artifact. The
/// caller validates the config afterwards (the runners do).
void apply_env(RunConfig& config);

/// apply_env(config.run), plus APPFL_ASYNC_STRATEGY
/// (fedasync|fedbuff|fedcompass), APPFL_ASYNC_STALENESS_WEIGHT
/// (constant|polynomial|hinge), APPFL_ASYNC_BUFFER_K (>= 1) and
/// APPFL_ASYNC_HINGE_S0 (>= 0) on config.strategy.
void apply_env(AsyncConfig& config);

}  // namespace appfl::core
