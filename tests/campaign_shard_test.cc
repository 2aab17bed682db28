// Sharded (constant-memory) campaign execution: the merged artifacts,
// shard rotation, crash/resume, and stale-file hygiene.
//
// The contract under test (DESIGN.md §5g): a campaign streamed through
// ShardedCampaignSink merges to the runs' own findings (stamped with their
// run index) and to one merge_timelines over their raw timelines, its
// metrics.json equals the in-memory campaign's registry snapshot, all at
// any --jobs, and a killed campaign resumes from its durable frontier
// without changing a byte of the final output.
#include "core/shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/export_sink.h"
#include "core/json_util.h"
#include "core/timeline_merge.h"
#include "sim/rng.h"

namespace qoed::core {
namespace {

namespace fs = std::filesystem;

// Cheap deterministic run with realistic artifacts: a few timeline lines,
// one finding, two samples, a counter. No testbed — these tests exercise
// the shard plumbing, not the simulation.
RunResult synthetic_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  RunResult out;
  std::ostringstream timeline;
  std::ostringstream findings;
  double t = 0;
  for (int i = 0; i < 6; ++i) {
    t += rng.uniform();
    timeline << "{\"t\":";
    put_json_number(timeline, t);
    timeline << ",\"seq\":" << i << ",\"layer\":\"packet\",\"len\":"
             << rng.uniform_int(40, 1500) << "}\n";
  }
  findings << "{\"rule\":\"test.flag\",\"t\":";
  put_json_number(findings, t);
  findings << "}\n";
  out.add_sample("latency_s", rng.uniform(0.1, 2.0));
  out.add_sample("latency_s", rng.uniform(0.1, 2.0));
  out.add_counter("events", 6);
  out.virtual_seconds = 1 + rng.uniform();
  out.artifacts.timeline_jsonl = timeline.str();
  out.artifacts.findings_jsonl = findings.str();
  return out;
}

// A run with a timeline but NO findings (like a scenario without a
// diagnosis engine attached).
RunResult bare_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  RunResult out;
  out.add_sample("latency_s", rng.uniform(0.1, 2.0));
  out.artifacts.timeline_jsonl =
      "{\"t\":0.5,\"seq\":0,\"layer\":\"packet\",\"len\":100}\n";
  out.virtual_seconds = 1;
  return out;
}

// Fresh scratch dir under the test temp root; removed first so reruns
// never see a previous invocation's shards.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qoed_shard_" + name;
  fs::remove_all(dir);
  return dir;
}

CampaignConfig sharded_config(const std::string& dir, std::size_t runs,
                              std::size_t jobs) {
  CampaignConfig cfg;
  cfg.name = "shard-test";
  cfg.runs = runs;
  cfg.jobs = jobs;
  cfg.master_seed = 4242;
  cfg.shard.out_dir = dir;
  return cfg;
}

struct Artifacts {
  std::string findings, timeline, metrics;
};

Artifacts merged_artifacts(const std::string& dir) {
  return {ShardFindingsMergeSink(dir).to_string(),
          ShardTimelineMergeSink(dir).to_string(),
          ShardMetricsMergeSink(dir).to_string()};
}

RunFn synthetic_factory() {
  return [](std::uint64_t seed, const RunSpec&) { return synthetic_run(seed); };
}

// Prefixes every line of a run's raw findings with its run index, spelled
// out here rather than through stamp_lines.
std::string stamp_run(std::size_t run, const std::string& jsonl) {
  std::istringstream is(jsonl);
  std::string out, line;
  while (std::getline(is, line)) {
    out += "{\"run\":" + std::to_string(run) + "," + line.substr(1) + "\n";
  }
  return out;
}

TEST(CampaignShard, MatchesInMemoryByteForByte) {
  const std::size_t runs = 9;
  const std::string dir = scratch_dir("vs_memory");
  CampaignConfig sharded = sharded_config(dir, runs, 4);
  const CampaignResult shard_result =
      Campaign(sharded).run(synthetic_factory());

  // The merged findings and timeline are the raw runs', stamped and
  // merged once.
  std::string findings;
  std::vector<DeviceTimeline> timelines;
  for (std::size_t i = 0; i < runs; ++i) {
    const RunResult r =
        synthetic_run(Campaign::run_seed(sharded.master_seed, i));
    findings += stamp_run(i, r.artifacts.findings_jsonl);
    timelines.push_back(
        {"run-" + std::to_string(i), r.artifacts.timeline_jsonl});
  }
  const Artifacts a = merged_artifacts(dir);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(a.findings, findings);
  EXPECT_EQ(a.timeline, merge_timelines(timelines));

  // metrics.json, counters and summaries against the in-memory campaign.
  CampaignConfig memory = sharded_config("", runs, 4);
  const CampaignResult mem_result = Campaign(memory).run(synthetic_factory());
  EXPECT_EQ(a.metrics, MetricsJsonSink(mem_result.registry).to_string());

  // The streaming summaries agree with the in-memory fold on the exact
  // moments (pooled percentiles intentionally differ: histogram-derived).
  ASSERT_EQ(shard_result.runs, mem_result.runs);
  ASSERT_EQ(shard_result.counters, mem_result.counters);
  const MetricAggregate* ms = shard_result.metric("latency_s");
  const MetricAggregate* mm = mem_result.metric("latency_s");
  ASSERT_NE(ms, nullptr);
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(ms->pooled.n, mm->pooled.n);
  EXPECT_DOUBLE_EQ(ms->pooled.mean, mm->pooled.mean);
  EXPECT_DOUBLE_EQ(ms->pooled.min, mm->pooled.min);
  EXPECT_DOUBLE_EQ(ms->pooled.max, mm->pooled.max);
  EXPECT_NEAR(ms->pooled.stddev, mm->pooled.stddev, 1e-9);
  // Sharded mode keeps O(shard) memory: no pooled samples or cdf.
  EXPECT_TRUE(ms->pooled_samples.empty());
  EXPECT_TRUE(ms->cdf.empty());
}

TEST(CampaignShard, ArtifactsInvariantAcrossJobs) {
  const std::string dir1 = scratch_dir("jobs1");
  const std::string dir8 = scratch_dir("jobs8");
  Campaign(sharded_config(dir1, 12, 1)).run(synthetic_factory());
  Campaign(sharded_config(dir8, 12, 8)).run(synthetic_factory());

  const Artifacts a1 = merged_artifacts(dir1);
  const Artifacts a8 = merged_artifacts(dir8);
  EXPECT_EQ(a1.findings, a8.findings);
  EXPECT_EQ(a1.timeline, a8.timeline);
  EXPECT_EQ(a1.metrics, a8.metrics);

  // The shard files themselves are identical too, not just the merge.
  std::ifstream m1(dir1 + "/MANIFEST.json");
  std::ifstream m8(dir8 + "/MANIFEST.json");
  std::stringstream s1, s8;
  s1 << m1.rdbuf();
  s8 << m8.rdbuf();
  EXPECT_EQ(s1.str(), s8.str());
}

TEST(CampaignShard, RotatesAtTinyBudgetAndManifestCoversAllRuns) {
  const std::string dir = scratch_dir("rotate");
  CampaignConfig cfg = sharded_config(dir, 7, 2);
  cfg.shard.shard_bytes = 200;  // every run overflows the budget
  Campaign(cfg).run(synthetic_factory());

  ShardManifest manifest;
  ASSERT_TRUE(read_shard_manifest(dir, &manifest));
  EXPECT_TRUE(manifest.complete);
  EXPECT_EQ(manifest.runs, 7u);
  ASSERT_GT(manifest.shards.size(), 1u);
  std::size_t expect_begin = 0;
  for (const ShardInfo& info : manifest.shards) {
    EXPECT_EQ(info.run_begin, expect_begin);
    EXPECT_GT(info.run_end, info.run_begin);
    for (const char* kind : {"findings", "timeline", "metrics"}) {
      char name[64];
      std::snprintf(name, sizeof name, "%s-%06zu.jsonl", kind, info.index);
      EXPECT_TRUE(fs::exists(dir + "/" + name)) << name;
    }
    expect_begin = info.run_end;
  }
  EXPECT_EQ(expect_begin, 7u);
}

// Simulated kill: a sink is dropped without finalize() after closing some
// shards; a resume sink picks up at the durable frontier and the final
// artifacts are byte-identical to an uninterrupted run.
TEST(CampaignShard, SinkLevelResumeAfterKill) {
  const std::uint64_t master = 4242;
  const std::size_t runs = 6;
  auto make_exec = [&](std::size_t i) {
    RunExecution ex;
    ex.last_seed = Campaign::run_seed(master, i);
    ex.result = synthetic_run(ex.last_seed);
    ex.attempts = 1;
    return ex;
  };

  const std::string clean_dir = scratch_dir("kill_clean");
  CampaignShardConfig clean_cfg;
  clean_cfg.out_dir = clean_dir;
  clean_cfg.shard_runs = 2;
  {
    ShardedCampaignSink sink(clean_cfg, "kill-test", master, runs);
    for (std::size_t i = 0; i < runs; ++i) sink.submit(i, make_exec(i));
    sink.finalize();
  }

  const std::string dir = scratch_dir("kill");
  CampaignShardConfig cfg = clean_cfg;
  cfg.out_dir = dir;
  {
    // Killed mid-shard: runs 0..4 submitted, shards [0,2) and [2,4) are
    // closed and durable, run 4 sits in the open buffer and dies with the
    // process (no finalize()).
    ShardedCampaignSink sink(cfg, "kill-test", master, runs);
    for (std::size_t i = 0; i < 5; ++i) sink.submit(i, make_exec(i));
  }
  ShardManifest partial;
  ASSERT_TRUE(read_shard_manifest(dir, &partial));
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.committed(), 4u);

  {
    CampaignShardConfig resume_cfg = cfg;
    resume_cfg.resume = true;
    ShardedCampaignSink sink(resume_cfg, "kill-test", master, runs);
    EXPECT_EQ(sink.committed(), 4u);
    // Resubmitting committed work (resume overlap) is dropped, not folded
    // twice.
    sink.submit(1, make_exec(1));
    for (std::size_t i = 4; i < runs; ++i) sink.submit(i, make_exec(i));
    sink.finalize();

    CampaignResult folded;
    sink.fold_into(&folded, /*build_trace=*/false);
    EXPECT_EQ(folded.counters.at("events"), 6.0 * runs);
  }

  const Artifacts resumed = merged_artifacts(dir);
  const Artifacts clean = merged_artifacts(clean_dir);
  EXPECT_EQ(resumed.findings, clean.findings);
  EXPECT_EQ(resumed.timeline, clean.timeline);
  EXPECT_EQ(resumed.metrics, clean.metrics);
}

TEST(CampaignShard, CampaignLevelResumeSkipsCommittedRuns) {
  const std::string dir = scratch_dir("campaign_resume");
  Campaign(sharded_config(dir, 8, 4)).run(synthetic_factory());
  const Artifacts first = merged_artifacts(dir);

  // Resuming a complete campaign is a no-op: zero factory invocations,
  // identical bytes.
  CampaignConfig cfg = sharded_config(dir, 8, 4);
  cfg.shard.resume = true;
  std::atomic<int> calls{0};
  const CampaignResult result =
      Campaign(cfg).run([&](std::uint64_t seed, const RunSpec&) {
        ++calls;
        return synthetic_run(seed);
      });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(result.runs, 8u);
  EXPECT_EQ(result.counters.at("events"), 6.0 * 8);

  const Artifacts second = merged_artifacts(dir);
  EXPECT_EQ(first.findings, second.findings);
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST(CampaignShard, ResumeIdentityMismatchThrows) {
  const std::string dir = scratch_dir("identity");
  CampaignShardConfig cfg;
  cfg.out_dir = dir;
  {
    ShardedCampaignSink sink(cfg, "identity-test", 7, 2);
    sink.finalize();
  }
  CampaignShardConfig resume_cfg = cfg;
  resume_cfg.resume = true;
  EXPECT_THROW(ShardedCampaignSink(resume_cfg, "identity-test", 8, 2),
               std::runtime_error);
  EXPECT_THROW(ShardedCampaignSink(resume_cfg, "other-campaign", 7, 2),
               std::runtime_error);
  EXPECT_NO_THROW(ShardedCampaignSink(resume_cfg, "identity-test", 7, 2));
}

TEST(CampaignShard, FreshStartClearsStaleFiles) {
  const std::string dir = scratch_dir("stale");
  fs::create_directories(dir);
  // Debris from a hypothetical interrupted earlier run under a DIFFERENT
  // config: a stale manifest, an orphaned pending spill, a torn temp file.
  std::ofstream(dir + "/MANIFEST.json") << "{\"campaign\":\"old\"}";
  std::ofstream(dir + "/pending-000003") << "junk";
  std::ofstream(dir + "/findings-000099.jsonl.tmp") << "junk";

  const std::string clean_dir = scratch_dir("stale_clean");
  Campaign(sharded_config(clean_dir, 5, 2)).run(synthetic_factory());
  Campaign(sharded_config(dir, 5, 2)).run(synthetic_factory());

  EXPECT_FALSE(fs::exists(dir + "/pending-000003"));
  EXPECT_FALSE(fs::exists(dir + "/findings-000099.jsonl.tmp"));
  const Artifacts a = merged_artifacts(dir);
  const Artifacts c = merged_artifacts(clean_dir);
  EXPECT_EQ(a.findings, c.findings);
  EXPECT_EQ(a.timeline, c.timeline);
  EXPECT_EQ(a.metrics, c.metrics);
}

// Regression: campaigns whose runs emit no findings must still export an
// (empty) merged findings.jsonl — a zero-length rdbuf insert used to set
// failbit and abort the whole write_file.
TEST(CampaignShard, EmptyFindingsStillExport) {
  const std::string dir = scratch_dir("no_findings");
  Campaign(sharded_config(dir, 3, 2))
      .run([](std::uint64_t seed, const RunSpec&) { return bare_run(seed); });

  EXPECT_EQ(ShardFindingsMergeSink(dir).to_string(), "");
  EXPECT_TRUE(ShardFindingsMergeSink(dir).write_file(dir + "/findings.jsonl"));
  EXPECT_TRUE(fs::exists(dir + "/findings.jsonl"));
  EXPECT_EQ(fs::file_size(dir + "/findings.jsonl"), 0u);
  EXPECT_FALSE(ShardTimelineMergeSink(dir).to_string().empty());
}

TEST(CampaignShard, EmptyShardedCampaignIsWellFormed) {
  const std::string dir = scratch_dir("empty");
  CampaignConfig cfg = sharded_config(dir, 0, 2);
  const CampaignResult result = Campaign(cfg).run(synthetic_factory());
  EXPECT_EQ(result.runs, 0u);
  EXPECT_EQ(result.failed_runs(), 0u);

  ShardManifest manifest;
  ASSERT_TRUE(read_shard_manifest(dir, &manifest));
  EXPECT_TRUE(manifest.complete);
  EXPECT_TRUE(manifest.shards.empty());
  EXPECT_EQ(merged_artifacts(dir).findings, "");
}

TEST(CampaignShard, QuarantinedRunsReportedAndExcludedFromMetrics) {
  const std::string dir = scratch_dir("quarantine");
  CampaignConfig cfg = sharded_config(dir, 4, 2);
  const CampaignResult result =
      Campaign(cfg).run([](std::uint64_t seed, const RunSpec& spec) {
        if (spec.run_index == 2) throw std::runtime_error("device offline");
        return synthetic_run(seed);
      });
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].run_index, 2u);
  EXPECT_EQ(result.quarantined[0].error, "device offline");
  EXPECT_EQ(result.failed_runs(), 1u);
  // Quarantined runs contribute nothing to pooled metrics or counters.
  EXPECT_EQ(result.counters.at("events"), 6.0 * 3);
  const MetricAggregate* agg = result.metric("latency_s");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->pooled.n, 2u * 3);
  // And the registry carries the campaign-level accounting.
  EXPECT_EQ(result.registry.counter("campaign.quarantined"), 1.0);
}

// A run timeline shaped like a real export plus the damage the merge must
// tolerate: t on a coarse grid (so runs tie on t), t stepping backwards,
// duplicate (t, seq) pairs, malformed and blank lines. Run 3 has none.
std::string messy_timeline(std::size_t run) {
  if (run == 3) return "";
  sim::Rng rng(1000 + run);
  std::ostringstream os;
  for (int i = 0; i < 40; ++i) {
    os << "{\"t\":";
    put_json_number(os, 0.25 * static_cast<double>(rng.uniform_int(0, 12)));
    os << ",\"seq\":" << i << ",\"layer\":\"packet\",\"k\":\"r" << run << "-"
       << i << "\"}\n";
    if (i % 11 == 3) os << "\n";
    if (i % 13 == 5) os << "{\"seq\":" << i << ",\"layer\":\"cut\n";
    if (i % 17 == 7) os << "####garbage\n";
  }
  os << "{\"t\":1,\"seq\":99,\"k\":\"dupA" << run << "\"}\n"
     << "{\"t\":1,\"seq\":99,\"k\":\"dupB" << run << "\"}\n";
  return os.str();
}

TEST(CampaignShard, MergedTimelineIndependentOfShardLayout) {
  const std::size_t runs = 9;
  const RunFn fn = [](std::uint64_t seed, const RunSpec& spec) {
    RunResult r = synthetic_run(seed);
    r.artifacts.timeline_jsonl = messy_timeline(spec.run_index);
    return r;
  };
  std::vector<DeviceTimeline> all;
  for (std::size_t i = 0; i < runs; ++i) {
    all.push_back({"run-" + std::to_string(i), messy_timeline(i)});
  }
  const std::string reference = merge_timelines(all);
  ASSERT_FALSE(reference.empty());

  // 1 byte: one run per shard, written as-is. 4 KiB: a few runs per shard,
  // k-way merged. Default and 1 GiB: every run in one shard.
  for (const std::size_t shard_bytes :
       {std::size_t{1}, std::size_t{4096}, CampaignShardConfig{}.shard_bytes,
        std::size_t{1} << 30}) {
    for (const std::size_t jobs : {1, 4}) {
      const std::string dir = scratch_dir(
          "layout_" + std::to_string(shard_bytes) + "_" + std::to_string(jobs));
      CampaignConfig cfg = sharded_config(dir, runs, jobs);
      cfg.shard.shard_bytes = shard_bytes;
      Campaign(cfg).run(fn);
      EXPECT_EQ(ShardTimelineMergeSink(dir).to_string(), reference)
          << "shard_bytes=" << shard_bytes << " jobs=" << jobs;
    }
  }
}

TEST(CampaignShard, CommitLockWallIsProfiledOutsideTheRegistry) {
  const std::string dir = scratch_dir("lock_wall");
  Campaign campaign(sharded_config(dir, 5, 2));
  const CampaignResult result = campaign.run(synthetic_factory());
  const obs::MetricsRegistry::Histogram* hold =
      campaign.last_profile().find_histogram("prof.shard.commit_lock_wall");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count, 5u);  // one observation per submit
  EXPECT_EQ(result.registry.find_histogram("prof.shard.commit_lock_wall"),
            nullptr);
  EXPECT_EQ(ShardMetricsMergeSink(dir).to_string().find("prof."),
            std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The metrics line is the only byte form of a run: decoding what
// encode_metrics_line wrote gives the run back exactly — extreme doubles,
// seeds past 2^53, escaped error text and quarantined runs included — and
// re-encoding the decoded run reproduces the line.
TEST(CampaignShard, MetricsLineRoundTripsExactly) {
  RunExecution clean;
  clean.attempts = 3;
  clean.reschedules = 1;
  clean.last_seed = UINT64_MAX - 1;
  clean.result.samples["edge"] = {-0.0, 5e-324, 1.7976931348623157e308, 0.1};
  clean.result.samples["none"] = {};
  clean.result.counters["c.neg_zero"] = -0.0;
  clean.result.counters["c.max"] = 1.7976931348623157e308;
  clean.result.counters["c.tiny"] = 5e-324;
  clean.result.registry.add_counter("c.neg_zero", -0.0);
  clean.result.registry.set_gauge("g.tiny", 5e-324);
  clean.result.registry.observe("latency_s", 0.25);
  clean.result.virtual_seconds = 1.7976931348623157e308;

  RunExecution quarantined;
  quarantined.attempts = 2;
  quarantined.last_seed = (std::uint64_t{1} << 53) + 1;
  quarantined.result.ok = false;
  quarantined.result.error = "quote \" backslash \\ nl \n tab \t ctl \x01 end";
  quarantined.result.registry.add_counter("log.warn", 2);
  quarantined.result.virtual_seconds = -0.0;

  for (const auto& [index, ex] :
       {std::pair<std::size_t, const RunExecution*>{7, &clean},
        {9, &quarantined}}) {
    const std::string line = encode_metrics_line(index, *ex);
    MetricsLine decoded;
    RunExecution back;
    std::string error;
    ASSERT_TRUE(decode_metrics_line(line, &decoded, &error)) << error;
    ASSERT_TRUE(decode_run(decoded, &back, &error)) << error;
    EXPECT_EQ(decoded.run, index);
    EXPECT_EQ(back.attempts, ex->attempts);
    EXPECT_EQ(back.reschedules, ex->reschedules);
    EXPECT_EQ(back.last_seed, ex->last_seed);
    EXPECT_EQ(back.result.ok, ex->result.ok);
    EXPECT_EQ(back.result.error, ex->result.error);
    EXPECT_TRUE(same_bits(back.result.virtual_seconds,
                          ex->result.virtual_seconds));
    ASSERT_EQ(back.result.samples.size(), ex->result.samples.size());
    for (const auto& [name, vals] : ex->result.samples) {
      const std::vector<double>& got = back.result.samples.at(name);
      ASSERT_EQ(got.size(), vals.size()) << name;
      for (std::size_t i = 0; i < vals.size(); ++i) {
        EXPECT_TRUE(same_bits(got[i], vals[i])) << name << "[" << i << "]";
      }
    }
    ASSERT_EQ(back.result.counters.size(), ex->result.counters.size());
    for (const auto& [name, v] : ex->result.counters) {
      EXPECT_TRUE(same_bits(back.result.counters.at(name), v)) << name;
    }
    EXPECT_EQ(back.result.registry.snapshot(), ex->result.registry.snapshot());
    EXPECT_EQ(encode_metrics_line(index, back), line);
  }
}

// The fold does not depend on submit order or on whether a run reached the
// sink as a structure or as bytes: runs fed last to first (parked in
// memory, or — past a tiny shard budget — spilled to pending files and
// decoded back) fold to the same snapshot and CampaignResult as runs fed
// in order.
TEST(CampaignShard, SinkFoldIsIndependentOfSubmitOrder) {
  const std::size_t runs = 6;
  const auto make_exec = [](std::size_t i) {
    RunExecution ex;
    ex.last_seed = Campaign::run_seed(4242, i);
    ex.result = synthetic_run(ex.last_seed);
    ex.result.samples["edge"] = {-0.0, 5e-324, 0.25};
    ex.attempts = 1 + i % 2;
    ex.reschedules = i % 3 == 0 ? 1 : 0;
    if (i == 4) {
      ex.result.ok = false;
      ex.result.error = "lost \"device\"";
    }
    return ex;
  };
  std::size_t spilled = 0;  // pending files just before run 0 arrived
  const auto fold = [&](const std::string& dir, bool reverse,
                        std::size_t shard_bytes) {
    CampaignShardConfig cfg;
    cfg.out_dir = dir;
    cfg.shard_bytes = shard_bytes;
    ShardedCampaignSink sink(cfg, "order-test", 4242, runs);
    for (std::size_t k = 0; k < runs; ++k) {
      const std::size_t i = reverse ? runs - 1 - k : k;
      if (i == 0 && !dir.empty()) {
        spilled = 0;
        for (const auto& e : fs::directory_iterator(dir)) {
          spilled += e.path().filename().string().rfind("pending-", 0) == 0;
        }
      }
      sink.submit(i, make_exec(i));
    }
    sink.finalize();
    CampaignResult result;
    result.name = "order-test";
    sink.fold_into(&result, /*build_trace=*/true);
    std::string out = sink.metrics_snapshot() + "\n" +
                      CampaignJsonSink(result).to_string() + "\n" +
                      TraceEventSink(result.trace).to_string() + "\n";
    for (const std::size_t n : result.run_reschedules) {
      out += std::to_string(n) + ",";
    }
    return out;
  };
  const std::size_t budget = CampaignShardConfig{}.shard_bytes;
  const std::string reference = fold("", false, budget);
  EXPECT_NE(reference.find("lost \\\"device\\\""), std::string::npos);
  EXPECT_EQ(fold("", true, budget), reference);
  const std::string fwd = scratch_dir("order_fwd");
  const std::string parked = scratch_dir("order_parked");
  const std::string spill = scratch_dir("order_spilled");
  EXPECT_EQ(fold(fwd, false, budget), reference);
  EXPECT_EQ(fold(parked, true, budget), reference);
  EXPECT_EQ(spilled, 0u);
  EXPECT_EQ(fold(spill, true, 1), reference);
  EXPECT_EQ(spilled, runs - 1);
  const Artifacts a = merged_artifacts(fwd);
  for (const std::string& dir : {parked, spill}) {
    const Artifacts b = merged_artifacts(dir);
    EXPECT_EQ(a.findings, b.findings) << dir;
    EXPECT_EQ(a.timeline, b.timeline) << dir;
    EXPECT_EQ(a.metrics, b.metrics) << dir;
  }
  EXPECT_EQ(slurp(fwd + "/metrics-000000.jsonl"),
            slurp(parked + "/metrics-000000.jsonl"));
}

// A merge never writes a thinner artifact than the shards hold: a missing
// manifest, a manifest-listed shard that cannot be read, or a malformed
// metrics line fails write_file and leaves the previous file in place.
TEST(CampaignShard, MergeSinksFailInsteadOfThinning) {
  const std::string dir = scratch_dir("thin");
  CampaignConfig cfg = sharded_config(dir, 3, 1);
  cfg.shard.shard_runs = 1;
  Campaign(cfg).run(synthetic_factory());

  const ShardFindingsMergeSink findings(dir);
  const ShardTimelineMergeSink timeline(dir);
  const ShardMetricsMergeSink metrics(dir);
  const ShardCapturesMergeSink captures(dir);
  const std::vector<std::pair<const ExportSink*, std::string>> sinks = {
      {&findings, "findings"},
      {&timeline, "timeline"},
      {&metrics, "metrics"},
      {&captures, "captures"}};  // captures shards are empty: still valid
  for (const auto& [sink, kind] : sinks) {
    const std::string path = dir + "/" + std::string(sink->id());
    ASSERT_TRUE(sink->write_file(path)) << kind;
    const std::string before = slurp(path);
    const std::string shard = dir + "/" + kind + "-000001.jsonl";
    const std::string saved = slurp(shard);
    fs::remove(shard);
    EXPECT_FALSE(sink->write_file(path)) << kind;
    EXPECT_EQ(slurp(path), before) << kind;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << kind;
    std::ofstream(shard, std::ios::binary) << saved;
    EXPECT_TRUE(sink->write_file(path)) << kind;
    EXPECT_EQ(slurp(path), before) << kind;
  }

  const std::string metrics_path = dir + "/metrics.json";
  const std::string before = slurp(metrics_path);
  const std::string shard = dir + "/metrics-000002.jsonl";
  const std::string saved = slurp(shard);
  for (const char* bad :
       {"garbage\n", "{\"run\":2,\"ok\":maybe}\n",
        "{\"run\":2,\"ok\":true,\"registry\":{\"counters\":{\"x\":}}}\n"}) {
    std::ofstream(shard, std::ios::binary | std::ios::trunc) << saved << bad;
    EXPECT_FALSE(metrics.write_file(metrics_path)) << bad;
    EXPECT_EQ(slurp(metrics_path), before) << bad;
  }
  std::ofstream(shard, std::ios::binary | std::ios::trunc) << saved;

  fs::remove(dir + "/MANIFEST.json");
  for (const auto& [sink, kind] : sinks) {
    EXPECT_FALSE(sink->write_file(dir + "/" + std::string(sink->id())))
        << kind;
  }
}

// --- input boundaries: unsigned fields, manifests and metrics lines ---

TEST(JsonLiteParserTest, ReadUint64RejectsSignsAndOverflow) {
  std::uint64_t v = 0;
  EXPECT_TRUE(JsonLiteParser("18446744073709551615").read_uint64(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(JsonLiteParser(" 0042,").read_uint64(&v));
  EXPECT_EQ(v, 42u);
  for (const char* bad : {"18446744073709551616", "99999999999999999999999",
                          "-1", "-0", "+1", "", "x", "1e3x"}) {
    JsonLiteParser p(bad);
    v = 7;
    if (std::string_view(bad) == "1e3x") {
      EXPECT_TRUE(p.read_uint64(&v));  // reads "1"; "e3x" is left over
      EXPECT_EQ(v, 1u);
      continue;
    }
    EXPECT_FALSE(p.read_uint64(&v)) << bad;
    EXPECT_EQ(v, 7u) << bad;          // *out untouched: nothing wraps
    EXPECT_EQ(p.offset(), 0u) << bad;  // the error points at the number
  }
  // Bounded by the view: the digits after it are not read.
  const std::string digits = "12345";
  JsonLiteParser p(std::string_view(digits).substr(0, 3));
  EXPECT_TRUE(p.read_uint64(&v));
  EXPECT_EQ(v, 123u);
}

TEST(CampaignShard, MalformedManifestIsRejectedWithItsLocation) {
  const std::string dir = scratch_dir("bad_manifest");
  fs::create_directories(dir);
  const auto expect_error = [&](const std::string& text,
                                const std::string& field,
                                std::size_t byte) {
    std::ofstream(dir + "/MANIFEST.json", std::ios::trunc) << text;
    ShardManifest manifest;
    std::string error;
    EXPECT_FALSE(read_shard_manifest(dir, &manifest, &error)) << text;
    EXPECT_NE(error.find(field), std::string::npos) << error;
    EXPECT_NE(error.find("at byte " + std::to_string(byte)),
              std::string::npos)
        << error;
  };
  const std::string negative = "{\"campaign\":\"c\",\"runs\":-1}";
  expect_error(negative, "\"runs\"", negative.find("-1"));
  const std::string overflow =
      "{\"campaign\":\"c\",\"master_seed\":18446744073709551616}";
  expect_error(overflow, "\"master_seed\"", overflow.find("1844"));
  const std::string shard =
      "{\"shards\":[{\"index\":0,\"run_begin\":0,\"run_end\":-3}]}";
  expect_error(shard, "\"shards.run_end\"", shard.find("-3"));
  const std::string truncated = "{\"campaign\":\"c\",\"runs\":5";
  expect_error(truncated, "malformed object", truncated.size());

  // Resuming over such a manifest fails loudly instead of starting over.
  CampaignShardConfig cfg;
  cfg.out_dir = dir;
  cfg.resume = true;
  std::ofstream(dir + "/MANIFEST.json", std::ios::trunc) << negative;
  try {
    ShardedCampaignSink sink(cfg, "c", 1, 0);
    ADD_FAILURE() << "resume accepted a malformed manifest";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MANIFEST.json"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignShard, ResumeRejectsCorruptMetricsLinesWithTheirLocation) {
  const auto corrupt_and_resume = [](const std::string& name,
                                     const std::string& from,
                                     const std::string& to) {
    const std::string dir = scratch_dir(name);
    CampaignConfig cfg = sharded_config(dir, 3, 1);
    cfg.shard.shard_runs = 1;
    Campaign(cfg).run(synthetic_factory());
    const std::string path = dir + "/metrics-000001.jsonl";
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    std::string text = content.str();
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos);
    text.replace(at, from.size(), to);
    std::ofstream(path, std::ios::trunc) << text;
    cfg.shard.resume = true;
    try {
      ShardedCampaignSink sink(cfg.shard, cfg.name, cfg.master_seed, 3);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string negative =
      corrupt_and_resume("bad_attempts", "\"attempts\":1", "\"attempts\":-1");
  EXPECT_NE(negative.find("metrics-000001.jsonl:1"), std::string::npos)
      << negative;
  EXPECT_NE(negative.find("\"attempts\""), std::string::npos) << negative;

  const std::string stray =
      corrupt_and_resume("bad_run", "{\"run\":1,", "{\"run\":4000000000,");
  EXPECT_NE(stray.find("outside the shard's range [1, 2)"), std::string::npos)
      << stray;
}

}  // namespace
}  // namespace qoed::core
