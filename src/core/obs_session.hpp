// Per-run observability session. Owns the lifecycle the runners share:
// read the run's obs level and output paths from its (validated) config,
// raise the process-wide level for the duration of the run, clear the global
// tracer and metrics registry so artifacts describe THIS run, stream one
// JSONL line per round, and at the end write the summary + metrics lines and
// the Chrome trace file.
//
// Resume semantics (the contract tests/test_resume.cpp pins): traffic
// counters CONTINUE across --resume because the JSONL summary reports
// comm.stats(), which the checkpoint restores; registry instruments and
// spans RESTART, because the session clears them at run start — a resumed
// run's trace covers only the rounds this process executed.
//
// The level is process-wide state, so concurrent runs in one process should
// not both enable observability; the last session to finish restores the
// level it found.
#pragma once

#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/runner.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"

namespace appfl::core {

class ObsSession {
 public:
  explicit ObsSession(const RunConfig& config);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool metrics_enabled() const { return level_ >= obs::Level::kMetrics; }
  /// True when a JSONL stream is open — callers can skip building lines.
  bool streaming() const { return writer_.has_value() && writer_->ok(); }

  /// The run's per-client health ledger. Runners feed it (gated on
  /// metrics_enabled()); the session snapshots it per round into the JSONL
  /// stream and at finish into the summary + the --health-out CSV.
  obs::HealthLedger& health() { return health_; }

  /// One JSONL line for a completed round (no-op without a metrics stream),
  /// followed by the round's health-ledger snapshot line when the ledger
  /// has observations. test_accuracy's −1 sentinel serializes as null.
  void write_round(const RoundMetrics& metrics);

  /// Arbitrary pre-rendered JSONL line (the async runner's event stream).
  void write_line(const std::string& json);

  /// End of run: summary line (traffic from result.traffic — the counters
  /// that survive resume), registry-snapshot line, trace-file export.
  void finish(const RunResult& result);

  /// End of run without a sync-runner summary (async runners): health
  /// summary + CSV, tracer self-telemetry, registry snapshot line, trace
  /// export, critical-path artifacts.
  void finish();

 private:
  obs::Level level_ = obs::Level::kOff;
  std::string trace_out_;
  std::string health_out_;
  std::string critpath_out_;
  obs::Level previous_ = obs::Level::kOff;
  std::optional<obs::JsonlWriter> writer_;
  obs::HealthLedger health_;
};

}  // namespace appfl::core
