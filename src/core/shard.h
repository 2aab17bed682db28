// Constant-memory sharded campaign execution (DESIGN.md §5g).
//
// ShardedCampaignSink is the one place campaign runs are folded. Every
// campaign mode commits through it: Campaign::run (with or without an
// out_dir), `qoed_cli fleet`, and `qoed_cli serve`. With an out_dir,
// workers stream each run's findings/timeline/metrics JSONL into bounded
// shard files, rotated at a byte budget and written atomically
// (tmp+rename) BEFORE the manifest records them, so a killed campaign
// leaves a consistent prefix that a resume continues from. The final
// artifacts come from an external merge over the shards:
//
//   findings.jsonl  = concatenation of findings shards (run-index order)
//   timeline.jsonl  = k-way merge of the per-shard (t, device, seq)-sorted
//                     timeline shards (core::merge_sorted_timeline_streams)
//   metrics.json    = index-ordered fold of the per-run registry snapshots
//                     (obs::MetricsRegistry::merge_from_json)
//
// submit() encodes the metrics line and stamps and sorts the timeline on
// the calling worker. The sink lock covers commit ordering (out-of-order
// runs wait in memory up to the shard budget, in pending files past it),
// the fold of the committed run's structured RunExecution, the
// shard-close timeline merge and the shard writes; profile() records each
// hold in prof.shard.commit_lock_wall.
//
// Determinism: runs commit strictly in run-index order and every fold walks
// them in that order. A run whose only copy is bytes (spilled, or replayed
// on resume) is decoded first; %.17g doubles and uint64 seeds round-trip,
// so it folds to the same bits as the live run. Merged artifacts are
// byte-identical at any --jobs, metrics.json equals an in-memory
// campaign's registry, and the timeline merge (a per-run sort plus k-way
// merges by a key total across runs) does not depend on shard layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "core/export_sink.h"
#include "obs/metrics.h"

namespace qoed::core {

// Atomic write shared by shards, manifests and merged artifacts: the
// content lands under a temporary name and is renamed into place, so a
// reader never observes a partial file. False on I/O failure.
bool write_file_atomic(const std::string& path, const std::string& content);

struct ShardInfo {
  std::size_t index = 0;
  std::size_t run_begin = 0;  // first run committed to this shard
  std::size_t run_end = 0;    // one past the last
};

// out_dir/MANIFEST.json — the durable index of a sharded campaign. Only
// shards listed here exist as far as readers are concerned; files written
// after the last manifest update are overwritten on resume.
struct ShardManifest {
  std::string campaign;
  std::uint64_t master_seed = 0;
  std::size_t runs = 0;   // planned campaign size (0 = open-ended service)
  bool complete = false;  // finalize() saw every planned run committed
  std::vector<ShardInfo> shards;

  // Durable commit frontier: every run below this is safely on disk.
  std::size_t committed() const {
    return shards.empty() ? 0 : shards.back().run_end;
  }
};

// Reads out_dir/MANIFEST.json; false when absent or malformed.
bool read_shard_manifest(const std::string& out_dir, ShardManifest* out,
                         std::string* error = nullptr);

// Stamps each object line of `jsonl` with a leading member, turning
// {"i":0,...} into {<member>,"i":0,...}: "run":7 for the merged findings
// and captures artifacts, "device":"dev-0001" for a cell's findings.
// Non-object lines pass through unchanged.
void stamp_lines(std::string_view member, std::string_view jsonl,
                 std::string* out);

// One metrics-shard line: the run's identity, outcome, samples, counters
// and registry snapshot. Resume, spills and the merge sinks read it back.
std::string encode_metrics_line(std::size_t run_index, const RunExecution& ex);

// A decoded metrics line: the header fields, plus raw views of the three
// payload sections so each reader parses only the sections it uses.
struct MetricsLine {
  std::string_view text;  // the whole line
  std::size_t run = 0;
  RunOutcome outcome;  // attempts, resched, seed, ok, virtual_s
  std::string error;
  std::string_view samples = "{}", counters = "{}", registry = "{}";
};

// The one parser of the metrics-line format. False on malformed input,
// with *error naming the field and its byte offset in the line.
bool decode_metrics_line(std::string_view line, MetricsLine* out,
                         std::string* error);

// Parses a decoded line's samples, counters and registry sections into
// *out (result fields plus attempts/reschedules/last_seed) — the inverse
// of encode_metrics_line. False with a located *error on malformed input.
bool decode_run(const MetricsLine& line, RunExecution* out,
                std::string* error);

// Thread-safe streaming sink for campaign runs. Workers submit completed
// RunExecutions in any order; the sink commits them strictly in run-index
// order, folding aggregates and buffering artifact bytes until the open
// shard exceeds its budget and rotates to disk. With an empty out_dir it
// is an in-memory ordering/fold stage: no line is encoded and nothing is
// written (the in-memory Campaign and `qoed_cli serve` without an
// artifact directory).
class ShardedCampaignSink {
 public:
  // Observes each commit — fired under the sink lock, strictly in
  // run-index order, with the run index and the run in flight (its
  // registry and raw, unstamped findings included); copy to keep.
  using CommitHook =
      std::function<void(std::size_t run_index, const RunExecution& run)>;

  // Creates out_dir if needed. With cfg.resume and a matching manifest,
  // replays the closed shards into the aggregates and continues at the
  // durable frontier; a manifest disagreeing on (campaign, master_seed,
  // runs) throws std::runtime_error. Without resume, stale manifest and
  // pending files in out_dir are removed.
  ShardedCampaignSink(const CampaignShardConfig& cfg, std::string campaign,
                      std::uint64_t master_seed, std::size_t planned_runs);

  // The commit frontier: every run below it is folded (and durable when
  // sharding to disk). Campaign::run starts its index counter here.
  std::size_t committed() const;

  void set_commit_hook(CommitHook hook);

  // Thread-safe. Accepts any run index >= the frontier; indices already
  // committed (resume overlap) are dropped.
  void submit(std::size_t run_index, RunExecution&& ex);

  // Closes the open shard, writes the final manifest (complete=true when
  // every planned run is in). Call once, after all workers joined.
  void finalize();

  // Canonical merged-metrics snapshot of everything committed so far: the
  // streaming aggregate registry plus the campaign.run_attempts /
  // quarantined / rescheduled outcome counters, serialized with
  // MetricsRegistry::write_json — the exact bytes ShardMetricsMergeSink
  // writes to metrics.json (minus the trailing newline), including runs
  // still buffered in the open shard. Thread-safe; the serve `stats` verb
  // reads it live, so a drained session's snapshot byte-matches the batch
  // fleet's merged artifact.
  std::string metrics_snapshot() const;

  // Fills a CampaignResult from the streaming aggregates: run_errors /
  // run_attempts / quarantined / counters / registry (+ campaign.* totals),
  // metric summaries (exact n/min/max and index-ordered mean, Welford
  // stddev, histogram-derived percentiles; pooled_samples and cdf stay
  // empty — see DESIGN.md §5g), and the spine trace when build_trace.
  void fold_into(CampaignResult* out, bool build_trace) const;

  const ShardManifest& manifest() const { return manifest_; }

  // Wall-clock profile (prof.* family, never the deterministic registry):
  // the prof.shard.commit_lock_wall histogram, one observation per submit.
  // Thread-safe.
  obs::MetricsRegistry profile() const;

 private:
  struct RunMeta {
    RunOutcome outcome;
    std::string error;  // empty for clean runs
  };
  struct Welford {
    std::uint64_t n = 0;
    double mean = 0, m2 = 0, min = 0, max = 0;
    void add(double v);
  };
  struct MetricAccum {
    Welford pooled;     // every sample, folded in run-index order
    Welford run_means;  // one entry per contributing run
  };
  // A run between submit() and its commit; line and timeline are only
  // encoded when sharding to disk.
  struct Staged {
    RunExecution ex;
    std::string line, timeline;
    bool spilled = false;  // everything lives in the pending file instead
    std::size_t parked = 0;  // artifact bytes counted in parked_bytes_
  };

  // Folds one run's outcome, and its samples, counters and registry when
  // it is clean, into the aggregates.
  void fold_locked(std::size_t run_index, const RunExecution& ex);
  void commit_locked(std::size_t run_index, Staged& s);
  bool spill_locked(std::size_t run_index, const Staged& s);
  bool unspill_locked(std::size_t run_index, Staged* s);  // false on I/O error
  void close_shard_locked();
  void write_manifest_locked();
  std::string shard_path(const char* kind, std::size_t index) const;
  std::string pending_path(std::size_t run_index) const;
  void replay_closed_shards();

  mutable std::mutex mu_;
  CampaignShardConfig cfg_;
  ShardManifest manifest_;
  std::size_t frontier_ = 0;
  // First shard I/O failure; sticky. Writes stop extending the manifest and
  // finalize() rethrows it on the caller's thread (workers must not throw).
  std::string io_error_;
  std::map<std::size_t, Staged> pending_;
  std::size_t parked_bytes_ = 0;  // artifact bytes of in-memory pending_
  CommitHook hook_;

  // Open-shard buffers (bounded by the rotation budget).
  std::string findings_buf_, metrics_buf_, captures_buf_;
  std::vector<std::string> timeline_runs_;  // stamped timeline per run
  std::size_t timeline_bytes_ = 0;
  std::size_t shard_run_begin_ = 0;

  // Streaming aggregates (O(runs) metadata, O(1) per metric — never
  // O(artifact bytes)).
  obs::MetricsRegistry registry_;
  std::map<std::string, double> counters_;
  std::map<std::string, MetricAccum> metrics_;
  obs::MetricsRegistry run_mean_hists_;  // per-run means, for percentiles
  std::vector<RunMeta> meta_;
  CampaignOutcomeTotals totals_;

  obs::MetricsRegistry profile_;
};

// ---- merged-artifact sinks over a shard directory ----
// Each reads MANIFEST.json at write() time and merges only manifest-listed
// shards, so stale files from an interrupted run are never consulted. A
// merge never thins its artifact: a missing manifest, a listed shard that
// cannot be read, or a malformed metrics line sets failbit on the stream,
// so write_file returns false and leaves the previous file in place.
// Empty shards are valid.

class ShardFindingsMergeSink final : public ExportSink {
 public:
  explicit ShardFindingsMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "findings.jsonl"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

class ShardTimelineMergeSink final : public ExportSink {
 public:
  explicit ShardTimelineMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "timeline.jsonl"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

class ShardMetricsMergeSink final : public ExportSink {
 public:
  explicit ShardMetricsMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "metrics.json"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

// Targeted-capture slices, stamped {"run":N,...} and concatenated in
// run-index order — same shape rule as findings.
class ShardCapturesMergeSink final : public ExportSink {
 public:
  explicit ShardCapturesMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "captures.jsonl"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

// Per-run outcomes (reschedules, quarantine, ...) read back from a shard
// directory's manifest-listed metrics lines (malformed ones are skipped).
// Keyed "run-N" — the label the merged timeline/findings use — so fleet
// rollups can join on it.
std::map<std::string, RunOutcome> read_run_outcomes(const std::string& out_dir);

}  // namespace qoed::core
