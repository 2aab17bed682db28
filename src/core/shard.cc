#include "core/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/json_util.h"
#include "core/timeline_merge.h"

namespace qoed::core {

namespace fs = std::filesystem;

namespace {

std::string shard_file(const std::string& out_dir, const char* kind,
                       std::size_t index) {
  char num[16];
  std::snprintf(num, sizeof(num), "%06zu", index);
  return out_dir + "/" + kind + "-" + num + ".jsonl";
}

std::string manifest_path(const std::string& out_dir) {
  return out_dir + "/MANIFEST.json";
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!os) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

bool read_shard_manifest(const std::string& out_dir, ShardManifest* out,
                         std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  std::ifstream in(manifest_path(out_dir), std::ios::binary);
  if (!in) return fail("no manifest");
  std::ostringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  JsonLiteParser p(text);
  if (!p.enter_object()) return fail("manifest: expected object");
  *out = ShardManifest{};
  std::string key;
  std::string skey;
  while (p.next_key(&key)) {
    bool parsed = true;
    skey.clear();
    if (key == "campaign") {
      parsed = p.read_string(&out->campaign);
    } else if (key == "master_seed") {
      parsed = p.read_uint64(&out->master_seed);
    } else if (key == "runs") {
      std::uint64_t v = 0;
      parsed = p.read_uint64(&v);
      out->runs = static_cast<std::size_t>(v);
    } else if (key == "complete") {
      parsed = p.read_bool(&out->complete);
    } else if (key == "shards") {
      // next_key/array_next also return false on malformed input, so the
      // container depth tells a clean close from a parse failure.
      parsed = p.enter_array();
      while (parsed && p.array_next()) {
        skey.clear();
        parsed = p.enter_object();
        ShardInfo info;
        while (parsed && p.next_key(&skey)) {
          std::uint64_t v = 0;
          parsed = p.read_uint64(&v);
          if (skey == "index") {
            info.index = static_cast<std::size_t>(v);
          } else if (skey == "run_begin") {
            info.run_begin = static_cast<std::size_t>(v);
          } else if (skey == "run_end") {
            info.run_end = static_cast<std::size_t>(v);
          }
        }
        parsed = parsed && p.depth() == 2;
        out->shards.push_back(info);
      }
      parsed = parsed && p.depth() == 1;
    } else {
      parsed = p.skip_value();
    }
    if (!parsed) {
      const std::string field = skey.empty() ? key : key + "." + skey;
      return fail("manifest: malformed value for \"" + field + "\" at byte " +
                  std::to_string(p.offset()));
    }
  }
  if (p.depth() != 0) {
    return fail("manifest: malformed object at byte " +
                std::to_string(p.offset()));
  }
  return true;
}

void stamp_lines(std::string_view member, std::string_view jsonl,
                 std::string* out) {
  std::string_view rest = jsonl;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    if (line.front() == '{') {
      const std::string_view body = line.substr(1);
      out->push_back('{');
      out->append(member);
      if (body != "}") out->push_back(',');
      out->append(body);
    } else {
      out->append(line);
    }
    out->push_back('\n');
  }
}

std::string encode_metrics_line(std::size_t run_index,
                                const RunExecution& ex) {
  const RunResult& r = ex.result;
  std::ostringstream os;
  os << "{\"run\":" << run_index << ",\"attempts\":" << ex.attempts
     << ",\"resched\":" << ex.reschedules << ",\"seed\":" << ex.last_seed
     << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"error\":";
  put_json_string(os, r.error);
  os << ",\"virtual_s\":";
  put_json_number(os, r.virtual_seconds);
  os << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, vals] : r.samples) {
    if (!first) os << ',';
    first = false;
    put_json_string(os, name);
    os << ":[";
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (i) os << ',';
      put_json_number(os, vals[i]);
    }
    os << ']';
  }
  os << "},\"counters\":{";
  first = true;
  for (const auto& [name, v] : r.counters) {
    if (!first) os << ',';
    first = false;
    put_json_string(os, name);
    os << ':';
    put_json_number(os, v);
  }
  os << "},\"registry\":";
  r.registry.write_json(os);
  os << '}';
  return os.str();
}

bool decode_metrics_line(std::string_view line, MetricsLine* out,
                         std::string* error) {
  *out = MetricsLine{};
  out->text = line;
  JsonLiteParser p(line);
  if (!p.enter_object()) {
    *error = "expected an object at byte " + std::to_string(p.offset());
    return false;
  }
  RunOutcome& o = out->outcome;
  std::string key;
  std::uint64_t u = 0;
  while (p.next_key(&key)) {
    bool parsed = true;
    if (key == "run") {
      parsed = p.read_uint64(&u);
      out->run = static_cast<std::size_t>(u);
    } else if (key == "attempts") {
      parsed = p.read_uint64(&u);
      o.attempts = static_cast<std::size_t>(u);
    } else if (key == "resched") {
      parsed = p.read_uint64(&u);
      o.reschedules = static_cast<std::size_t>(u);
    } else if (key == "seed") {
      parsed = p.read_uint64(&o.last_seed);
    } else if (key == "ok") {
      parsed = p.read_bool(&o.ok);
    } else if (key == "error") {
      parsed = p.read_string(&out->error);
    } else if (key == "virtual_s") {
      parsed = p.read_number(&o.virtual_seconds);
    } else if (key == "samples") {
      parsed = p.raw_value(&out->samples);
    } else if (key == "counters") {
      parsed = p.raw_value(&out->counters);
    } else if (key == "registry") {
      parsed = p.raw_value(&out->registry);
    } else {
      parsed = p.skip_value();
    }
    if (!parsed) {
      *error = "malformed value for \"" + key + "\" at byte " +
               std::to_string(p.offset());
      return false;
    }
  }
  if (p.depth() != 0) {
    *error = "malformed object at byte " + std::to_string(p.offset());
    return false;
  }
  return true;
}

bool decode_run(const MetricsLine& line, RunExecution* out,
                std::string* error) {
  *out = RunExecution{};
  out->attempts = line.outcome.attempts;
  out->reschedules = line.outcome.reschedules;
  out->last_seed = line.outcome.last_seed;
  RunResult& r = out->result;
  r.ok = line.outcome.ok;
  r.error = line.error;
  r.virtual_seconds = line.outcome.virtual_seconds;
  // Locates a failed section parse within the whole line.
  const auto fail = [&](const char* section, std::string_view text,
                        std::size_t at) {
    *error = "malformed value in \"" + std::string(section) + "\" at byte " +
             std::to_string(static_cast<std::size_t>(
                                text.data() - line.text.data()) +
                            at);
    return false;
  };
  {
    JsonLiteParser p(line.samples);
    bool parsed = p.enter_object();
    std::string name;
    double v = 0;
    while (parsed && p.next_key(&name)) {
      std::vector<double>& vals = r.samples[name];
      parsed = p.enter_array();
      while (parsed && p.array_next()) {
        parsed = p.read_number(&v);
        vals.push_back(v);
      }
      parsed = parsed && p.depth() == 1;
    }
    if (!parsed || p.depth() != 0) {
      return fail("samples", line.samples, p.offset());
    }
  }
  {
    JsonLiteParser p(line.counters);
    bool parsed = p.enter_object();
    std::string name;
    double v = 0;
    while (parsed && p.next_key(&name)) {
      parsed = p.read_number(&v);
      r.counters[name] = v;
    }
    if (!parsed || p.depth() != 0) {
      return fail("counters", line.counters, p.offset());
    }
  }
  std::string reg_error;
  if (!r.registry.merge_from_json(line.registry, &reg_error)) {
    *error = "malformed value for \"registry\": " + reg_error;
    return false;
  }
  return true;
}

// ---- ShardedCampaignSink ----

void ShardedCampaignSink::Welford::add(double v) {
  if (n == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++n;
  const double d = v - mean;
  mean += d / static_cast<double>(n);
  m2 += d * (v - mean);
}

ShardedCampaignSink::ShardedCampaignSink(const CampaignShardConfig& cfg,
                                         std::string campaign,
                                         std::uint64_t master_seed,
                                         std::size_t planned_runs)
    : cfg_(cfg) {
  manifest_.campaign = std::move(campaign);
  manifest_.master_seed = master_seed;
  manifest_.runs = planned_runs;
  if (planned_runs > 0) meta_.resize(planned_runs);
  if (cfg_.out_dir.empty()) return;

  std::error_code ec;
  fs::create_directories(cfg_.out_dir, ec);
  if (ec) {
    throw std::runtime_error("shard: cannot create out dir " + cfg_.out_dir);
  }
  ShardManifest existing;
  const bool resuming = cfg_.resume && fs::exists(manifest_path(cfg_.out_dir));
  std::string manifest_error;
  if (resuming &&
      !read_shard_manifest(cfg_.out_dir, &existing, &manifest_error)) {
    throw std::runtime_error("shard resume: " + manifest_path(cfg_.out_dir) +
                             ": " + manifest_error);
  }
  if (resuming) {
    if (existing.campaign != manifest_.campaign ||
        existing.master_seed != manifest_.master_seed ||
        (planned_runs > 0 && existing.runs != planned_runs)) {
      throw std::runtime_error(
          "shard resume: MANIFEST.json in " + cfg_.out_dir +
          " belongs to a different campaign (name/master_seed/runs "
          "mismatch)");
    }
    manifest_.shards = existing.shards;
    replay_closed_shards();
    frontier_ = manifest_.committed();
    shard_run_begin_ = frontier_;
  } else if (!cfg_.resume) {
    fs::remove(manifest_path(cfg_.out_dir), ec);
  }
  // Pending spill files never survive a process: stale ones belong to runs
  // past the durable frontier, which will be re-executed.
  for (const auto& entry : fs::directory_iterator(cfg_.out_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pending-", 0) == 0 ||
        (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)) {
      fs::remove(entry.path(), ec);
    }
  }
}

std::size_t ShardedCampaignSink::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frontier_;
}

void ShardedCampaignSink::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

std::string ShardedCampaignSink::shard_path(const char* kind,
                                            std::size_t index) const {
  return shard_file(cfg_.out_dir, kind, index);
}

std::string ShardedCampaignSink::pending_path(std::size_t run_index) const {
  return cfg_.out_dir + "/pending-" + std::to_string(run_index);
}

void ShardedCampaignSink::submit(std::size_t run_index, RunExecution&& ex) {
  // Serialization and the per-byte timeline work (stamping every line with
  // the run's "run-N" label and sorting it, the per-run half of the
  // timeline merge) happen on the worker, outside the lock.
  Staged s;
  s.ex = std::move(ex);
  {
    // Moved out, not assigned over: assigning an empty string would keep
    // the raw timeline's buffer alive until the run is committed.
    const std::string raw = std::move(s.ex.result.artifacts.timeline_jsonl);
    if (!cfg_.out_dir.empty()) {
      s.line = encode_metrics_line(run_index, s.ex);
      s.timeline =
          stamp_and_sort_timeline("run-" + std::to_string(run_index), raw)
              .jsonl;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Destroyed before `lock`, so it times the whole hold.
  struct HoldTimer {
    obs::MetricsRegistry& profile;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~HoldTimer() {
      profile.observe("prof.shard.commit_lock_wall",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
  } hold{profile_};
  if (run_index < frontier_) return;  // resume overlap; already durable
  if (run_index != frontier_) {
    // An out-of-order run waits in memory while the parked runs fit the
    // shard budget and spills to a pending file past it, so memory stays
    // O(shard budget) even when one slow run stalls the frontier. On disk
    // trouble it stays in memory rather than being lost.
    const RunArtifacts& a = s.ex.result.artifacts;
    const std::size_t bytes = s.line.size() + s.timeline.size() +
                              a.findings_jsonl.size() +
                              a.captures_jsonl.size();
    const auto [slot, fresh] = pending_.try_emplace(run_index);
    if (!fresh) return;  // already waiting
    Staged& p = slot->second;
    if (!cfg_.out_dir.empty() && parked_bytes_ + bytes > cfg_.shard_bytes &&
        spill_locked(run_index, s)) {
      p.spilled = true;  // `s` and its buffers go when submit returns
    } else {
      s.parked = bytes;
      parked_bytes_ += bytes;
      p = std::move(s);
    }
    return;
  }
  commit_locked(run_index, s);
  // Drain every spilled/parked successor the new frontier unblocks.
  for (auto it = pending_.find(frontier_); it != pending_.end();
       it = pending_.find(frontier_)) {
    Staged p = std::move(it->second);
    pending_.erase(it);
    parked_bytes_ -= p.parked;
    if (p.spilled && !unspill_locked(frontier_, &p)) return;
    commit_locked(frontier_, p);
  }
}

bool ShardedCampaignSink::spill_locked(std::size_t run_index,
                                       const Staged& s) {
  const RunArtifacts& a = s.ex.result.artifacts;
  const std::string* parts[] = {&s.line, &a.findings_jsonl, &s.timeline,
                                &a.captures_jsonl};
  std::ofstream os(pending_path(run_index), std::ios::binary | std::ios::trunc);
  for (const std::string* part : parts) os << part->size() << ' ';
  for (const std::string* part : parts) {
    os.write(part->data(), static_cast<std::streamsize>(part->size()));
  }
  return static_cast<bool>(os);
}

bool ShardedCampaignSink::unspill_locked(std::size_t run_index, Staged* s) {
  const std::string path = pending_path(run_index);
  std::ifstream in(path, std::ios::binary);
  std::string findings, captures;
  std::string* parts[] = {&s->line, &findings, &s->timeline, &captures};
  std::size_t sizes[4] = {};
  for (std::size_t& n : sizes) in >> n;
  in.get();  // the ' ' after the sizes
  for (std::size_t i = 0; i < 4; ++i) {
    parts[i]->resize(sizes[i]);
    in.read(parts[i]->data(), static_cast<std::streamsize>(sizes[i]));
  }
  MetricsLine ml;
  std::string error = "cannot read it back";
  if (!in || !decode_metrics_line(s->line, &ml, &error) ||
      !decode_run(ml, &s->ex, &error)) {
    io_error_ = "shard: " + path + ": " + error;
    return false;
  }
  std::error_code ec;
  fs::remove(path, ec);
  s->ex.result.artifacts.findings_jsonl = std::move(findings);
  s->ex.result.artifacts.captures_jsonl = std::move(captures);
  return true;
}

void ShardedCampaignSink::fold_locked(std::size_t run_index,
                                      const RunExecution& ex) {
  const RunResult& r = ex.result;
  if (meta_.size() <= run_index) meta_.resize(run_index + 1);
  RunMeta& m = meta_[run_index];
  m.outcome = {ex.attempts, ex.reschedules, ex.last_seed, r.ok,
               r.virtual_seconds};
  m.error = r.ok ? std::string() : r.error;
  totals_.add(m.outcome);
  if (!r.ok) return;  // quarantined runs contribute nothing else
  for (const auto& [name, vals] : r.samples) {
    MetricAccum& acc = metrics_[name];
    double sum = 0;
    for (const double v : vals) {
      acc.pooled.add(v);
      sum += v;
    }
    if (vals.empty()) continue;
    const double run_mean = sum / static_cast<double>(vals.size());
    acc.run_means.add(run_mean);
    run_mean_hists_.observe(name, run_mean);
  }
  for (const auto& [name, v] : r.counters) counters_[name] += v;
  registry_.merge_from(r.registry);
}

void ShardedCampaignSink::commit_locked(std::size_t run_index, Staged& s) {
  fold_locked(run_index, s.ex);
  const RunResult& r = s.ex.result;
  if (!cfg_.out_dir.empty()) {
    const std::string member = "\"run\":" + std::to_string(run_index);
    stamp_lines(member, r.artifacts.findings_jsonl, &findings_buf_);
    stamp_lines(member, r.artifacts.captures_jsonl, &captures_buf_);
    metrics_buf_ += s.line;
    metrics_buf_ += '\n';
  }
  if (hook_) hook_(run_index, s.ex);
  if (!s.timeline.empty()) {
    timeline_bytes_ += s.timeline.size();
    timeline_runs_.push_back(std::move(s.timeline));
  }
  ++frontier_;

  if (cfg_.out_dir.empty()) return;
  const std::size_t bytes = findings_buf_.size() + metrics_buf_.size() +
                            captures_buf_.size() + timeline_bytes_;
  const std::size_t runs_in_shard = frontier_ - shard_run_begin_;
  if ((cfg_.shard_bytes > 0 && bytes >= cfg_.shard_bytes) ||
      (cfg_.shard_runs > 0 && runs_in_shard >= cfg_.shard_runs)) {
    close_shard_locked();
  }
}

void ShardedCampaignSink::close_shard_locked() {
  if (frontier_ == shard_run_begin_) return;  // nothing buffered
  if (cfg_.out_dir.empty()) {
    shard_run_begin_ = frontier_;
    return;
  }
  if (!io_error_.empty()) return;  // don't extend a broken prefix
  const std::size_t index = manifest_.shards.size();
  // The runs arrive stamped and sorted; one run is already the shard's
  // timeline, several are k-way merged.
  std::string timeline;
  if (timeline_runs_.size() == 1) {
    timeline = std::move(timeline_runs_.front());
  } else if (timeline_runs_.size() > 1) {
    merge_stamped_timelines(
        std::vector<std::string_view>(timeline_runs_.begin(),
                                      timeline_runs_.end()),
        &timeline);
  }
  // Artifacts first, manifest last: a crash in between leaves unlisted
  // files that the next resume simply overwrites.
  if (!write_file_atomic(shard_path("findings", index), findings_buf_) ||
      !write_file_atomic(shard_path("timeline", index), timeline) ||
      !write_file_atomic(shard_path("metrics", index), metrics_buf_) ||
      !write_file_atomic(shard_path("captures", index), captures_buf_)) {
    io_error_ = "shard: cannot write shard " + std::to_string(index) +
                " under " + cfg_.out_dir;
    return;
  }
  manifest_.shards.push_back({index, shard_run_begin_, frontier_});
  write_manifest_locked();
  findings_buf_.clear();
  metrics_buf_.clear();
  captures_buf_.clear();
  timeline_runs_.clear();
  timeline_bytes_ = 0;
  shard_run_begin_ = frontier_;
}

void ShardedCampaignSink::write_manifest_locked() {
  std::ostringstream os;
  os << "{\"campaign\":";
  put_json_string(os, manifest_.campaign);
  os << ",\"master_seed\":" << manifest_.master_seed
     << ",\"runs\":" << manifest_.runs
     << ",\"complete\":" << (manifest_.complete ? "true" : "false")
     << ",\"shards\":[";
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    const ShardInfo& s = manifest_.shards[i];
    if (i) os << ',';
    os << "{\"index\":" << s.index << ",\"run_begin\":" << s.run_begin
       << ",\"run_end\":" << s.run_end << '}';
  }
  os << "]}";
  if (!write_file_atomic(manifest_path(cfg_.out_dir), os.str())) {
    io_error_ = "shard: cannot write MANIFEST.json under " + cfg_.out_dir;
  }
}

void ShardedCampaignSink::replay_closed_shards() {
  for (const ShardInfo& info : manifest_.shards) {
    std::ifstream in(shard_path("metrics", info.index), std::ios::binary);
    if (!in) {
      throw std::runtime_error("shard resume: manifest lists " +
                               shard_path("metrics", info.index) +
                               " but it cannot be read");
    }
    std::string line;
    std::string error;
    MetricsLine ml;
    RunExecution ex;
    for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
      if (line.empty()) continue;
      const std::string where =
          shard_path("metrics", info.index) + ":" + std::to_string(line_no);
      if (!decode_metrics_line(line, &ml, &error) ||
          !decode_run(ml, &ex, &error)) {
        throw std::runtime_error("shard resume: " + where + ": " + error);
      }
      // The manifest says which runs this shard holds; a run outside that
      // range is corruption, not a reason to grow the metadata table.
      if (ml.run < info.run_begin || ml.run >= info.run_end) {
        throw std::runtime_error(
            "shard resume: " + where + ": run " + std::to_string(ml.run) +
            " outside the shard's range [" + std::to_string(info.run_begin) +
            ", " + std::to_string(info.run_end) + ")");
      }
      fold_locked(ml.run, ex);
    }
  }
}

obs::MetricsRegistry ShardedCampaignSink::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

void ShardedCampaignSink::finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  close_shard_locked();
  if (manifest_.runs == 0) manifest_.runs = frontier_;  // open-ended service
  manifest_.complete =
      io_error_.empty() && pending_.empty() && frontier_ >= manifest_.runs;
  if (!cfg_.out_dir.empty()) write_manifest_locked();
  if (!io_error_.empty()) throw std::runtime_error(io_error_);
}

namespace {

Summary streaming_summary(std::uint64_t n, double mean, double m2, double min,
                          double max,
                          const obs::MetricsRegistry::Histogram* hist) {
  Summary s;
  if (n == 0) return s;
  s.n = static_cast<std::size_t>(n);
  s.mean = mean;
  s.stddev = std::sqrt(std::max(0.0, m2 / static_cast<double>(n)));
  s.min = min;
  s.max = max;
  if (hist != nullptr && hist->count > 0) {
    s.p50 = obs::histogram_quantile(*hist, 0.50);
    s.p90 = obs::histogram_quantile(*hist, 0.90);
    s.p99 = obs::histogram_quantile(*hist, 0.99);
  }
  return s;
}

}  // namespace

std::string ShardedCampaignSink::metrics_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::MetricsRegistry merged = registry_;
  totals_.add_counters(merged);
  return merged.snapshot();
}

void ShardedCampaignSink::fold_into(CampaignResult* out,
                                    bool build_trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->run_errors.reserve(meta_.size());
  out->run_attempts.reserve(meta_.size());
  out->run_reschedules.reserve(meta_.size());
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    const RunOutcome& o = meta_[i].outcome;
    out->run_errors.push_back(meta_[i].error);
    out->run_attempts.push_back(o.attempts);
    out->run_reschedules.push_back(o.reschedules);
    if (!o.ok) {
      out->quarantined.push_back({i, o.attempts, o.last_seed, meta_[i].error});
    }
  }
  out->counters = counters_;
  out->registry = registry_;
  totals_.add_counters(out->registry);
  for (const auto& [name, acc] : metrics_) {
    MetricAggregate& agg = out->metrics[name];
    agg.pooled =
        streaming_summary(acc.pooled.n, acc.pooled.mean, acc.pooled.m2,
                          acc.pooled.min, acc.pooled.max,
                          out->registry.find_histogram(name));
    agg.per_run_means = streaming_summary(
        acc.run_means.n, acc.run_means.mean, acc.run_means.m2,
        acc.run_means.min, acc.run_means.max,
        run_mean_hists_.find_histogram(name));
  }
  out->trace.set_enabled(build_trace);
  if (build_trace) {
    // Same spine rows the in-memory merge builds, from the streamed
    // metadata: worker identity and completion order never reach it.
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      add_spine_run(out->trace, out->name, i, meta_[i].outcome);
    }
  }
}

// ---- merged-artifact sinks ----

namespace {

// Reads out_dir's manifest; on failure marks `os` failed (the merge would
// otherwise write an empty artifact over a real one).
bool manifest_or_fail(const std::string& out_dir, ShardManifest* manifest,
                      std::ostream& os) {
  if (read_shard_manifest(out_dir, manifest)) return true;
  os.setstate(std::ios::failbit);
  return false;
}

// Concatenates the manifest-listed `kind` shards in order.
void concat_shards(const std::string& out_dir, const char* kind,
                   std::ostream& os) {
  ShardManifest manifest;
  if (!manifest_or_fail(out_dir, &manifest, os)) return;
  for (const ShardInfo& info : manifest.shards) {
    std::ifstream in(shard_file(out_dir, kind, info.index), std::ios::binary);
    if (!in) {
      os.setstate(std::ios::failbit);
      return;
    }
    // Skip empty shards (runs with no findings): inserting a zero-length
    // rdbuf would set failbit on `os`.
    if (in.peek() != std::char_traits<char>::eof()) os << in.rdbuf();
  }
}

}  // namespace

void ShardFindingsMergeSink::write(std::ostream& os) const {
  concat_shards(out_dir_, "findings", os);
}

void ShardTimelineMergeSink::write(std::ostream& os) const {
  ShardManifest manifest;
  if (!manifest_or_fail(out_dir_, &manifest, os)) return;
  std::vector<std::ifstream> files;
  files.reserve(manifest.shards.size());
  for (const ShardInfo& info : manifest.shards) {
    files.emplace_back(shard_file(out_dir_, "timeline", info.index),
                       std::ios::binary);
    if (!files.back()) {
      os.setstate(std::ios::failbit);
      return;
    }
  }
  std::vector<std::istream*> streams;
  streams.reserve(files.size());
  for (std::ifstream& f : files) streams.push_back(&f);
  merge_sorted_timeline_streams(streams, os);
}

void ShardMetricsMergeSink::write(std::ostream& os) const {
  ShardManifest manifest;
  if (!manifest_or_fail(out_dir_, &manifest, os)) return;
  obs::MetricsRegistry registry;
  CampaignOutcomeTotals totals;
  std::string line;
  std::string error;
  MetricsLine ml;
  for (const ShardInfo& info : manifest.shards) {
    std::ifstream in(shard_file(out_dir_, "metrics", info.index),
                     std::ios::binary);
    if (!in) {
      os.setstate(std::ios::failbit);
      return;
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (!decode_metrics_line(line, &ml, &error) ||
          (ml.outcome.ok && !registry.merge_from_json(ml.registry))) {
        os.setstate(std::ios::failbit);
        return;
      }
      totals.add(ml.outcome);
    }
  }
  totals.add_counters(registry);
  registry.write_json(os);
  os << '\n';
}

void ShardCapturesMergeSink::write(std::ostream& os) const {
  concat_shards(out_dir_, "captures", os);
}

std::map<std::string, RunOutcome> read_run_outcomes(
    const std::string& out_dir) {
  std::map<std::string, RunOutcome> out;
  ShardManifest manifest;
  if (!read_shard_manifest(out_dir, &manifest)) return out;
  std::string line;
  std::string error;
  MetricsLine ml;
  for (const ShardInfo& info : manifest.shards) {
    std::ifstream in(shard_file(out_dir, "metrics", info.index),
                     std::ios::binary);
    while (std::getline(in, line)) {
      if (line.empty() || !decode_metrics_line(line, &ml, &error)) continue;
      out["run-" + std::to_string(ml.run)] = ml.outcome;
    }
  }
  return out;
}

}  // namespace qoed::core
