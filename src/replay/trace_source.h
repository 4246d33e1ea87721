// TraceSource: the pull-iterator every replay component consumes.
//
// The trace replay engine (replay_engine.h) never sees a materialized
// std::vector of records — it pulls one TraceRecord at a time, so a
// multi-GB MSR-Cambridge CSV streams through the device model with a
// bounded resident window while the same code path accepts an in-memory
// vector or a synthetic generator.  Sources are Reset()-able so a
// characterization pass (workload_profile.h) can precede the replay pass
// over the same source.
//
//  * VectorTraceSource      — adapter over a materialized record vector;
//  * SpanTraceSource        — non-owning view over records the caller keeps
//                             alive (replays a materialized trace without
//                             copying it);
//  * SyntheticTraceSource   — streams trace::SyntheticTraceGenerator output
//                             without materializing it (Reset reseeds, so
//                             both passes see the identical stream);
//  * StreamingMsrCsvSource  — bounded-memory MSR CSV reader: decodes the
//                             file in chunks of `window_records`, keeps at
//                             most one chunk resident (O(window), not
//                             O(trace)), and reports the peak resident
//                             count so tests and benches can assert the
//                             bound.  An optional hostname filter splits a
//                             combined multi-server CSV into per-host
//                             streams (the shape MSR distributes).
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/synthetic.h"
#include "trace/trace.h"

namespace ctflash::replay {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls the next record; std::nullopt at end of stream.
  virtual std::optional<trace::TraceRecord> Next() = 0;

  /// Rewinds to the first record.  Sources are deterministic: every pass
  /// yields the identical stream.
  virtual void Reset() = 0;

  /// Total records if cheaply known, 0 otherwise (streams don't count
  /// ahead).
  virtual std::uint64_t SizeHint() const { return 0; }
};

class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<trace::TraceRecord> records)
      : records_(std::move(records)) {}

  std::optional<trace::TraceRecord> Next() override {
    if (next_ >= records_.size()) return std::nullopt;
    return records_[next_++];
  }
  void Reset() override { next_ = 0; }
  std::uint64_t SizeHint() const override { return records_.size(); }

 private:
  std::vector<trace::TraceRecord> records_;
  std::size_t next_ = 0;
};

class SpanTraceSource final : public TraceSource {
 public:
  explicit SpanTraceSource(std::span<const trace::TraceRecord> records)
      : records_(records) {}

  std::optional<trace::TraceRecord> Next() override {
    if (next_ >= records_.size()) return std::nullopt;
    return records_[next_++];
  }
  void Reset() override { next_ = 0; }
  std::uint64_t SizeHint() const override { return records_.size(); }

 private:
  std::span<const trace::TraceRecord> records_;
  std::size_t next_ = 0;
};

class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(const trace::SyntheticWorkloadConfig& config);

  std::optional<trace::TraceRecord> Next() override;
  void Reset() override;
  std::uint64_t SizeHint() const override { return config_.num_requests; }

 private:
  trace::SyntheticWorkloadConfig config_;
  std::unique_ptr<trace::SyntheticTraceGenerator> generator_;
  std::uint64_t emitted_ = 0;
};

class StreamingMsrCsvSource final : public TraceSource {
 public:
  struct Options {
    /// Records decoded per refill; the resident-memory bound.
    std::size_t window_records = 4096;
    /// Keep only lines whose Hostname field matches; "" keeps all.
    std::string hostname_filter;
  };

  explicit StreamingMsrCsvSource(const std::string& path)
      : StreamingMsrCsvSource(path, Options()) {}
  StreamingMsrCsvSource(const std::string& path, const Options& options);

  std::optional<trace::TraceRecord> Next() override;
  void Reset() override;

  /// High-water mark of simultaneously resident decoded records across the
  /// source's whole lifetime — the O(window) bound tests assert.
  std::size_t PeakResidentRecords() const { return peak_resident_; }
  /// CSV lines consumed so far (parser position, diagnostics).
  std::uint64_t LinesConsumed() const { return parser_.LineCount(); }

 private:
  void Refill();

  std::string path_;
  Options options_;
  std::ifstream in_;
  trace::MsrCsvParser parser_;
  std::deque<trace::TraceRecord> window_;
  std::size_t peak_resident_ = 0;
  bool exhausted_ = false;
};

}  // namespace ctflash::replay
