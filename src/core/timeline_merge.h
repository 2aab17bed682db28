// Multi-device timeline merge.
//
// Each device's collection spine exports one timeline.jsonl (see
// TimelineJsonlSink); a campaign over several devices produces several.
// merge_timelines interleaves them into a single stream ordered by
// (t, device, seq) — timestamp first, then device label, then the
// device-local capture sequence — and stamps every line with its device:
//   {"device":"galaxy-s3","t":1.002334,"seq":7,"layer":"packet",...}
// The ordering key is total for distinct device labels, so the merge is a
// pure function of the *set* of inputs: feeding the same timelines in any
// order yields byte-identical output (determinism test in
// timeline_merge_test).
//
// Every merge in the repository is the same two steps:
//   1. stamp_and_sort_timeline, per input: stamp each line with the
//      input's label and stable-sort by (t, device, seq). Inputs are
//      independent, so this runs wherever the input is produced (the
//      sharded campaign does it on the worker, before taking its commit
//      lock).
//   2. a k-way merge of the stamped inputs by (t, device, seq), ties broken
//      by input position: merge_stamped_timelines in memory,
//      merge_sorted_timeline_streams over files.
// A stable per-input sort plus a position-tiebroken k-way merge orders
// lines exactly as one stable sort over the concatenated inputs would, so
// the result does not depend on how inputs are grouped before merging —
// the property that makes sharded timelines byte-identical to one
// merge_timelines over the same runs at any shard size.
//
// Robustness: real exports get truncated by crashes and corrupted in
// transit. Step 1 quarantines malformed lines (not a JSON object, or no
// finite "t" field) instead of merging garbage, counts them per input, and
// flags out-of-order timestamps within an input (still merged — the sort
// repairs them — but a symptom worth surfacing). merge_timelines_checked
// reports those counts; the plain merge_timelines wrapper keeps the
// original drop-silently contract.
//
// Field parsing works on the raw line text: a key matches only as a whole
// quoted key ("dt": never matches "t":), numbers are read exactly as
// std::strtod reads them (whitespace after the colon, exponents and -0 are
// accepted; 1e400, inf and nan are not finite and so not usable), and no
// parse reads past the end of its line.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qoed::core {

struct DeviceTimeline {
  std::string device;  // label injected into every merged line
  std::string jsonl;   // raw timeline.jsonl content
};

// Per-input accounting from a checked merge.
struct TimelineMergeStats {
  std::string device;
  std::size_t lines = 0;         // non-blank lines seen
  std::size_t malformed = 0;     // quarantined (not merged)
  std::size_t out_of_order = 0;  // t went backwards vs previous good line
};

struct TimelineMergeResult {
  std::string jsonl;  // the merged stream (well-formed lines only)
  std::vector<TimelineMergeStats> inputs;  // one entry per input, in order

  std::size_t total_malformed() const {
    std::size_t n = 0;
    for (const auto& s : inputs) n += s.malformed;
    return n;
  }
};

// One input after step 1: every usable line stamped with the input's label
// ({"device":<label>,...}), stably sorted by (t, device, seq),
// '\n'-terminated. A line that already leads with a "device" member (an
// input that is itself a merged timeline, like a cell run's) keeps it
// under the input's label as one composed member,
// {"device":"<label>/<its device>",...}, so the merge key sees both.
struct StampedTimeline {
  std::string jsonl;
  TimelineMergeStats stats;
};

StampedTimeline stamp_and_sort_timeline(std::string_view device,
                                        std::string_view jsonl);

// Step 2 in memory: k-way merges stamped inputs (outputs of
// stamp_and_sort_timeline) by (t, device, seq), ties going to the earlier
// input, and appends the merged lines to *out.
void merge_stamped_timelines(const std::vector<std::string_view>& inputs,
                             std::string* out);

// Both steps over raw device timelines.
TimelineMergeResult merge_timelines_checked(
    const std::vector<DeviceTimeline>& inputs);

// Back-compat wrapper: merged stream only, corruption dropped silently.
std::string merge_timelines(const std::vector<DeviceTimeline>& inputs);

// Per-group rollup over merged artifacts (`qoed_cli merge --summary`).
// Groups are keyed by each line's "device" string; findings stamped by the
// sharded campaign path with {"run":N,...} fall into a "run-N" group, or
// "run-N/<device>" when they also carry a "device" — the label the sharded
// timeline composes for the same run — so both stamp conventions
// summarize uniformly.
struct MergedGroupSummary {
  std::string label;
  std::size_t timeline_lines = 0;
  std::size_t findings = 0;
  // Median of the findings' "total_s" latency field (seconds); meaningful
  // only when has_latency (at least one finding carried the field).
  bool has_latency = false;
  double median_total_s = 0;
};

struct MergedSummary {
  std::vector<MergedGroupSummary> groups;  // sorted by label
  std::size_t timeline_lines = 0;          // totals across groups
  std::size_t findings = 0;
};

// Builds the rollup from a merged timeline stream and (optionally) a
// stamped findings stream; either may be empty. Malformed lines are
// ignored, matching the merge contracts above.
MergedSummary summarize_merged(std::string_view timeline_jsonl,
                               std::string_view findings_jsonl);

// Fixed-width text rendering (one group per row plus a totals row).
void print_merged_summary(std::ostream& os, const MergedSummary& summary);

// Step 2 over files, for the sharded campaign path: each input is an
// already-stamped, already-(t,device,seq)-sorted timeline stream (the
// output format of merge_timelines — shard files qualify by construction),
// and the merge interleaves them by the same (t, device, seq) key, holding
// one line per input in a reused buffer. Because the key is total across
// distinct device labels, merging sorted shards produces the same bytes as
// one global merge_timelines over all the runs, at any shard size. Lines
// without a finite "t" or a "device" string are dropped (same contract as
// merge_timelines). Returns the number of lines written.
std::size_t merge_sorted_timeline_streams(
    const std::vector<std::istream*>& inputs, std::ostream& out);

}  // namespace qoed::core
