// End-to-end fleet benchmark: simulated device-hours per wall-second through
// the real simulator + live diagnosis + sharded campaign sink + k-way merge.
//
//   qoed_e2ebench --workload fleet-3g|fleet-wifi|cell-contention
//                 --seed N --seconds S --trace 0|1
//
// Load model: a closed-loop batch. A run is a sequence of rounds; each round
// queues all of its sessions at once on a core::Campaign with up to nproc
// (at most 4) workers, and a worker takes the next session when it finishes
// one. Rounds repeat until --seconds of wall time are used.
//
// --trace 0 re-executes this binary (via /proc/self/exe) for the measured
// rounds, so ru_maxrss is the high-water mark of the measured work alone,
// and prints the end-to-end metrics. --trace 1 runs one untraced round (for
// the campaign/shard/merge figures) and a single-threaded traced replay of
// a fixed subset of that round's sessions, with a span around every public
// call, and prints the per-layer ledger.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when an output check fails.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/social_server.h"
#include "apps/video_server.h"
#include "apps/web_server.h"
#include "cell/cell_run.h"
#include "core/campaign.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"
#include "core/scenario.h"
#include "core/shard.h"
#include "ctrl/policy_engine.h"
#include "diag/diagnosis_engine.h"
#include "diag/findings_sink.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pop/population.h"
#include "sim/rng.h"
#include "svc/run_spec.h"

namespace {

using namespace qoed;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool child = false;  // measured rounds only; results to --result-file
  std::string result_file;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: qoed_e2ebench --workload "
               "fleet-3g|fleet-wifi|cell-contention --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--child") {
      o.child = true;
      o.result_file = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "fleet-3g" && o.workload != "fleet-wifi" &&
      o.workload != "cell-contention") {
    usage("unknown --workload");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// Scratch output, relative to the working directory; removed at exit.
const std::string kWorkDir = ".bench_work";

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// ------------------------------------------------------------- workloads

// Set-ups timed per measured run (setup_s is their median).
constexpr std::size_t kSetupReps = 25;
// Cells per round of the cell-contention deck and devices per cell.
constexpr std::size_t kCellRound = 4;
constexpr int kCellDevices = 8;
// In every fleet round each class's slots 7, 17, 27 (largest action count
// first) carry a fault plan and a control policy: 7 of 79 sessions.
constexpr std::size_t kFaultEvery = 10;
constexpr std::size_t kFaultRank = 7;

bool is_fleet(const std::string& w) { return w != "cell-contention"; }

// A radio blackout placed inside the session: fault windows are absolute
// virtual time, so they are offset by the session's arrival. The policy
// aborts and reschedules a run whose radio layer stays lost for 3 s.
void add_fault_and_policy(svc::ScenarioSpec* spec) {
  char plan[96];
  std::snprintf(plan, sizeof plan, "radio:blackout=%.3f..%.3f",
                spec->arrival_s + 5, spec->arrival_s + 120);
  spec->fault_plan = plan;
  spec->fault_seed = spec->seed ^ 0x9e3779b97f4a7c15ULL;
  spec->policy = "on layer.radio==lost for 3s: abort+reschedule";
}

// Fleet rounds are stratified so that every round does the same amount of
// work whatever the seed. A round has one slot per (post kind, reps) pair
// (3 kinds x reps 3..12), six per video count (1..4) and five per page
// count (2..6) -- 30/24/25 sessions, the default 0.4/0.3/0.3 mix rounded to
// whole strata. Slots are filled from one pop::PopulationGenerator user
// stream (seeded by --seed; default mix, mobile diurnal curve): each user
// takes the first open slot of its class and action count, and users whose
// slots are full are skipped. Each round continues the stream where the
// last one stopped, so every round is fresh users.
//
// Queue order within a round is fixed: classes interleaved in proportion,
// largest action count first, so the round's tail is not decided by where
// the seed happens to put a 12-photo post. Fault plans sit on fixed slots
// (kFaultRank), so every round faults the same kinds of session.
class FleetStream {
 public:
  FleetStream(std::uint64_t seed, const std::string& network)
      : gen_(make_config(seed, network)), slots_(make_slots()) {}

  std::vector<svc::ScenarioSpec> next_round() {
    std::vector<svc::ScenarioSpec> out(slots_.size());
    std::vector<bool> filled(slots_.size(), false);
    std::size_t open = slots_.size();
    while (open > 0) {
      svc::ScenarioSpec s = gen_.user_spec(next_user_++);
      const std::string key = slot_key(s);
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (filled[i] || slots_[i].key != key) continue;
        if (slots_[i].faulted) add_fault_and_policy(&s);
        out[i] = std::move(s);
        filled[i] = true;
        --open;
        break;
      }
    }
    return out;
  }

 private:
  static std::string slot_key(const svc::ScenarioSpec& s) {
    if (s.scenario == "post") return s.kind + "/" + std::to_string(s.reps);
    if (s.scenario == "video") return "video/" + std::to_string(s.videos);
    return "pageload/" + std::to_string(s.pages);
  }

  struct Slot {
    std::string key;  // slot_key() of the sessions it accepts
    bool faulted = false;
  };

  // A round's slots, in queue order.
  static std::vector<Slot> make_slots() {
    std::vector<std::vector<std::string>> classes(3);
    for (long reps = 12; reps >= 3; --reps) {
      for (const char* kind : {"photos", "status", "checkin"}) {
        classes[0].push_back(std::string(kind) + "/" + std::to_string(reps));
      }
    }
    for (long v = 4; v >= 1; --v) {
      for (int k = 0; k < 6; ++k) {
        classes[1].push_back("video/" + std::to_string(v));
      }
    }
    for (long p = 6; p >= 2; --p) {
      for (int k = 0; k < 5; ++k) {
        classes[2].push_back("pageload/" + std::to_string(p));
      }
    }
    // Interleave: slot k of a class of n sits at (k + 0.5) / n.
    std::vector<std::pair<double, Slot>> keyed;
    for (const auto& cls : classes) {
      for (std::size_t k = 0; k < cls.size(); ++k) {
        keyed.emplace_back(
            (static_cast<double>(k) + 0.5) / static_cast<double>(cls.size()),
            Slot{cls[k], k % kFaultEvery == kFaultRank});
      }
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<Slot> slots;
    for (auto& [pos, slot] : keyed) slots.push_back(std::move(slot));
    return slots;
  }

  static pop::PopulationConfig make_config(std::uint64_t seed,
                                           const std::string& network) {
    pop::PopulationConfig cfg;
    cfg.seed = seed;
    cfg.users = ~std::size_t{0};
    cfg.network = network;
    return cfg;
  }

  pop::PopulationGenerator gen_;
  std::vector<Slot> slots_;
  std::size_t next_user_ = 0;
};

// The cell deck, run as every round of cell-contention: kCellRound
// shared-cell scenarios of kCellDevices mixed devices (browser, social and
// video in turn, arrivals 2 s apart, 3 actions each) on one 3G cell with
// 2000 kbps capacity and a 250 kbps throttle, shaping and policing
// alternating, cell k seeded with Campaign::run_seed(1, k). The deck is
// fixed and --seed sets the order it is queued in: whether a shaping cell
// hits the 1800 s UI-wait timeout depends on its seed and moves its virtual
// time up to 20x, so seed-derived cells would make every figure bimodal.
std::vector<cell::CellScenarioSpec> cell_deck(std::uint64_t seed) {
  static const char* const kApps[] = {"browser", "social", "video"};
  std::vector<cell::CellScenarioSpec> deck;
  for (std::size_t k = 0; k < kCellRound; ++k) {
    cell::CellScenarioSpec spec;
    spec.network = "3g";
    spec.seed = core::Campaign::run_seed(1, k);
    spec.capacity_kbps = 2000;
    spec.throttle_kbps = 250;
    spec.mechanism = k % 2 == 0 ? "shaping" : "policing";
    for (int i = 0; i < kCellDevices; ++i) {
      cell::CellDeviceSpec d;
      d.app = kApps[i % 3];
      d.arrival_s = 2.0 * i;
      d.actions = 3;
      d.think_s = 5;
      spec.devices.push_back(d);
    }
    deck.push_back(std::move(spec));
  }
  sim::Rng rng = sim::Rng(seed).fork("cell-order");
  for (std::size_t i = deck.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(deck[i - 1], deck[j]);
  }
  return deck;
}

// ---------------------------------------------------------- small helpers

std::uint64_t fnv1a(std::uint64_t h, const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct FileStats {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t bytes = 0;
  std::size_t lines = 0;
};

FileStats file_stats(const std::string& path) {
  FileStats st;
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    st.digest = fnv1a(st.digest, buf.data(), n);
    st.bytes += n;
    st.lines += static_cast<std::size_t>(
        std::count(buf.data(), buf.data() + n, '\n'));
  }
  return st;
}

std::size_t count_lines(std::string_view s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

std::size_t count_substr(std::string_view s, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(needle); pos != std::string_view::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

std::size_t dir_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<std::size_t>(e.file_size());
  }
  return total;
}

std::string fs_name(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --------------------------------------------------------- one round

// Merged artifacts of a round: file statistics of findings.jsonl,
// timeline.jsonl and metrics.json.
struct Merged {
  FileStats findings, timeline, metrics;
};

Merged merge_stats(const std::string& dir) {
  return {file_stats(dir + "/findings.jsonl"),
          file_stats(dir + "/timeline.jsonl"),
          file_stats(dir + "/metrics.json")};
}

struct RoundResult {
  double setup_s = 0;
  double gen_us = 0;    // spec generation
  double parse_us = 0;  // spec JSON -> parse_json
  double campaign_s = 0;
  double merge_s = 0;
  double merge_findings_s = 0, merge_timeline_s = 0, merge_metrics_s = 0;
  double device_s = 0;  // simulated device-seconds, all factory calls
  std::size_t sessions = 0;
  std::size_t quarantined = 0;
  std::size_t rescheduled = 0;
  std::size_t shard_bytes = 0;
  std::vector<double> call_ms;  // wall time of every factory call
  obs::MetricsRegistry profile;  // Campaign::last_profile()
  std::size_t jobs = 0;
  Merged merged;
  std::vector<std::string> errors;  // failed output checks
};

// The specs a round runs, after the JSON round trip that `qoed_cli fleet`
// and `serve` apply to their inputs.
struct RoundSpecs {
  std::vector<svc::ScenarioSpec> fleet;
  std::vector<cell::CellScenarioSpec> cells;
  std::size_t size() const {
    return fleet.empty() ? cells.size() : fleet.size();
  }
};

class Workload {
 public:
  explicit Workload(const Options& o)
      : opt_(o),
        fleet_(o.seed, o.workload == "fleet-wifi" ? "wifi" : "3g") {}

  // Generates, serializes and re-parses the next round's specs.
  RoundSpecs setup(RoundResult* rr) {
    RoundSpecs out;
    std::vector<std::string> lines;
    const auto t0 = Clock::now();
    if (is_fleet(opt_.workload)) {
      for (const auto& s : fleet_.next_round()) lines.push_back(s.to_json());
    } else {
      for (const auto& s : cell_deck(opt_.seed)) lines.push_back(s.to_json());
    }
    rr->gen_us = since(t0) * 1e6;
    const auto t1 = Clock::now();
    for (const std::string& line : lines) {
      std::string err;
      bool ok = false;
      if (is_fleet(opt_.workload)) {
        svc::ScenarioSpec s;
        ok = svc::ScenarioSpec::parse_json(line, &s, &err);
        out.fleet.push_back(std::move(s));
      } else {
        cell::CellScenarioSpec s;
        ok = cell::CellScenarioSpec::parse_json(line, &s, &err);
        out.cells.push_back(std::move(s));
      }
      if (!ok) throw std::runtime_error("spec round trip failed: " + err);
    }
    rr->parse_us = since(t1) * 1e6;
    return out;
  }

  const Options& options() const { return opt_; }

 private:
  Options opt_;
  FleetStream fleet_;
};

void prepare_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// The merge step: the three merged artifacts written from the shards.
void merge_round(const std::string& dir, RoundResult* rr) {
  const auto t0 = Clock::now();
  if (!core::ShardFindingsMergeSink(dir).write_file(dir + "/findings.jsonl")) {
    throw std::runtime_error("merge: findings.jsonl write failed");
  }
  rr->merge_findings_s = since(t0);
  const auto t1 = Clock::now();
  if (!core::ShardTimelineMergeSink(dir).write_file(dir + "/timeline.jsonl")) {
    throw std::runtime_error("merge: timeline.jsonl write failed");
  }
  rr->merge_timeline_s = since(t1);
  const auto t2 = Clock::now();
  if (!core::ShardMetricsMergeSink(dir).write_file(dir + "/metrics.json")) {
    throw std::runtime_error("merge: metrics.json write failed");
  }
  rr->merge_metrics_s = since(t2);
  rr->merge_s = since(t0);
}

double device_seconds(const svc::ScenarioSpec& s, const core::RunResult& r) {
  // Final virtual time of the session's loop minus its arrival: the loop
  // idles from t=0 to arrival_s, which is not session time.
  return r.virtual_seconds - s.arrival_s;
}

double device_seconds(const cell::CellScenarioSpec& s,
                      const core::RunResult& r) {
  // All devices of a cell share one loop: each device's final virtual time
  // is the loop's, minus that device's own arrival.
  double total = 0;
  for (const auto& d : s.devices) total += r.virtual_seconds - d.arrival_s;
  return total;
}

core::RunResult run_spec(const RoundSpecs& specs, const core::RunSpec& rs) {
  if (!specs.fleet.empty()) {
    return svc::run_scenario(specs.fleet[rs.run_index], rs);
  }
  return cell::run_cell_scenario(specs.cells[rs.run_index]);
}

double spec_device_seconds(const RoundSpecs& specs, std::size_t i,
                           const core::RunResult& r) {
  return specs.fleet.empty() ? device_seconds(specs.cells[i], r)
                             : device_seconds(specs.fleet[i], r);
}

core::CampaignConfig campaign_config(const std::string& name,
                                     std::size_t runs, std::size_t jobs,
                                     const std::string& dir) {
  core::CampaignConfig cfg;
  cfg.name = name;
  cfg.runs = runs;
  cfg.jobs = jobs;
  cfg.master_seed = 1;
  cfg.max_reschedules = 1;
  cfg.shard.out_dir = dir;
  return cfg;
}

// One closed-loop round: set-up, the sharded campaign, the merge, and the
// output checks. Leaves the round's files in `dir`.
// Set-up: the next round's specs generated and parsed, and its output
// directory prepared.
RoundSpecs setup_round(Workload& wl, const std::string& dir,
                       RoundResult* rr) {
  const auto t0 = Clock::now();
  RoundSpecs specs = wl.setup(rr);
  prepare_dir(dir);
  rr->setup_s = since(t0);
  return specs;
}

RoundResult run_round(Workload& wl, const std::string& dir, std::size_t jobs) {
  RoundResult rr;
  const RoundSpecs specs = setup_round(wl, dir, &rr);
  rr.sessions = specs.size();
  rr.jobs = jobs;

  // Artifact line counts of each session's last factory call (the one the
  // sink commits), checked against the merged files.
  std::mutex mu;
  std::vector<std::size_t> findings_lines(specs.size(), 0);
  std::vector<std::size_t> timeline_lines(specs.size(), 0);
  core::Campaign campaign(
      campaign_config(wl.options().workload, specs.size(), jobs, dir));
  const auto t0 = Clock::now();
  const core::CampaignResult res =
      campaign.run([&](std::uint64_t, const core::RunSpec& rs) {
        const auto c0 = Clock::now();
        core::RunResult r = run_spec(specs, rs);
        const double ms = since(c0) * 1e3;
        const double dev_s = spec_device_seconds(specs, rs.run_index, r);
        const std::size_t fl = count_lines(r.artifacts.findings_jsonl);
        const std::size_t tl = count_lines(r.artifacts.timeline_jsonl);
        std::lock_guard<std::mutex> lock(mu);
        rr.call_ms.push_back(ms);
        rr.device_s += dev_s;
        findings_lines[rs.run_index] = fl;
        timeline_lines[rs.run_index] = tl;
        return r;
      });
  rr.campaign_s = since(t0);
  merge_round(dir, &rr);
  rr.profile = campaign.last_profile();
  rr.quarantined = res.quarantined.size();
  for (const std::size_t n : res.run_reschedules) rr.rescheduled += n;

  // Shards on disk (everything but the three merged files).
  rr.merged = merge_stats(dir);
  rr.shard_bytes = dir_bytes(dir) - rr.merged.findings.bytes -
                   rr.merged.timeline.bytes - rr.merged.metrics.bytes;

  // Output checks: nothing quarantined, every committed line merged, and
  // non-empty artifacts.
  std::size_t want_findings = 0, want_timeline = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    want_findings += findings_lines[i];
    want_timeline += timeline_lines[i];
  }
  if (rr.quarantined != 0) {
    rr.errors.push_back(std::to_string(rr.quarantined) +
                        " sessions quarantined" +
                        (res.quarantined.empty()
                             ? ""
                             : ": " + res.quarantined.front().error));
  }
  if (rr.merged.findings.lines != want_findings) {
    rr.errors.push_back("findings.jsonl has " +
                        std::to_string(rr.merged.findings.lines) +
                        " lines, runs committed " +
                        std::to_string(want_findings));
  }
  if (rr.merged.timeline.lines != want_timeline) {
    rr.errors.push_back("timeline.jsonl has " +
                        std::to_string(rr.merged.timeline.lines) +
                        " lines, runs committed " +
                        std::to_string(want_timeline));
  }
  if (want_timeline == 0 || want_findings == 0) {
    rr.errors.push_back("round produced empty artifacts");
  }
  if (rr.merged.metrics.bytes == 0) {
    rr.errors.push_back("metrics.json is empty");
  }
  return rr;
}

// ------------------------------------------------------------ result IO

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples;  // human-readable sample count
  bool in_json = true;  // false: printed in the table only
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-26s %16s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6f  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    js << (first ? "" : ",") << '"' << m.name << "\":{\"value\":" << m.value
       << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------ measured (child) mode

// Times kSetupReps set-ups of round 0, then runs rounds for --seconds: a new
// round starts while the run would end nearer to --seconds with it than
// without it. Writes every set-up time, one line per round and every
// factory-call wall time into the result file.
int run_child(const Options& opt) {
  const std::size_t jobs = worker_count();
  const std::string dir = kWorkDir + "/round";
  std::ofstream out(opt.result_file);
  out.precision(17);
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    Workload fresh(opt);
    RoundResult rr;
    setup_round(fresh, dir, &rr);
    out << "setup " << rr.setup_s << '\n';
    fs::remove_all(dir);
  }
  Workload wl(opt);
  Merged first;
  const auto t0 = Clock::now();
  for (std::size_t round = 0;
       round == 0 ||
       since(t0) * (1 + 0.5 / static_cast<double>(round)) <= opt.seconds;
       ++round) {
    RoundResult rr = run_round(wl, dir, jobs);
    // The cell deck repeats every round, so its merged artifacts must too.
    const auto same = [](const FileStats& a, const FileStats& b) {
      return a.digest == b.digest && a.bytes == b.bytes;
    };
    if (round == 0) {
      first = rr.merged;
    } else if (!is_fleet(opt.workload) &&
               !(same(first.findings, rr.merged.findings) &&
                 same(first.timeline, rr.merged.timeline) &&
                 same(first.metrics, rr.merged.metrics))) {
      rr.errors.push_back("round " + std::to_string(round) +
                          " merged artifacts differ from round 0's");
    }
    out << "round " << rr.campaign_s << ' ' << rr.merge_s << ' '
        << rr.device_s << ' ' << rr.sessions << ' ' << rr.quarantined << ' '
        << rr.rescheduled << '\n';
    for (const double ms : rr.call_ms) out << "call " << ms << '\n';
    if (round == 0) {
      out << "digest " << hex64(rr.merged.findings.digest) << ' ';
      out << hex64(rr.merged.timeline.digest) << ' ';
      out << hex64(rr.merged.metrics.digest) << ' '
          << rr.merged.timeline.bytes << '\n';
    }
    for (const std::string& e : rr.errors) out << "error " << e << '\n';
    fs::remove_all(dir);
  }
  out << "end\n";
  return out ? 0 : 1;
}

// Re-executes this binary in child mode; returns its exit status and fills
// *ru with the child's resource usage (ru_maxrss = its own peak RSS).
int run_measured_child(const Options& opt, const std::string& result_file,
                       rusage* ru) {
  const std::string seed = std::to_string(opt.seed);
  char secs[32];
  std::snprintf(secs, sizeof secs, "%.17g", opt.seconds);
  std::vector<std::string> args = {"qoed_e2ebench", "--workload",
                                   opt.workload,    "--seed",
                                   seed,            "--seconds",
                                   secs,            "--child",
                                   result_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return -1;
  }
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    std::perror("execv");
    _exit(127);
  }
  int status = 0;
  if (wait4(pid, &status, 0, ru) < 0) {
    std::perror("wait4");
    return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int run_measure(const Options& opt) {
  const std::string result_file = kWorkDir + "/measure.txt";
  rusage ru{};
  const int status = run_measured_child(opt, result_file, &ru);
  if (status != 0) {
    std::fprintf(stderr, "e2ebench: measured child exited with %d\n", status);
    return 1;
  }
  std::vector<double> setup, merge, dhps, call_ms;
  double device_s = 0, wall_s = 0;
  std::size_t sessions = 0, failed = 0, rescheduled = 0, rounds = 0;
  std::vector<std::string> errors;
  std::string digest;
  bool ended = false;
  std::ifstream in(result_file);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "setup") {
      double su = 0;
      ls >> su;
      setup.push_back(su);
    } else if (tag == "round") {
      double cs = 0, ms = 0, dev = 0;
      std::size_t n = 0, q = 0, rs = 0;
      ls >> cs >> ms >> dev >> n >> q >> rs;
      ++rounds;
      merge.push_back(ms);
      dhps.push_back(dev / 3600.0 / (cs + ms));
      device_s += dev;
      wall_s += cs + ms;
      sessions += n;
      failed += q;
      rescheduled += rs;
    } else if (tag == "call") {
      double ms = 0;
      ls >> ms;
      call_ms.push_back(ms);
    } else if (tag == "digest") {
      std::getline(ls, digest);
    } else if (tag == "error") {
      std::string rest;
      std::getline(ls, rest);
      errors.push_back(rest);
    } else if (tag == "end") {
      ended = true;
    }
  }
  if (!ended || rounds == 0) {
    std::fprintf(stderr, "e2ebench: truncated result file %s\n",
                 result_file.c_str());
    return 1;
  }
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(sessions);
  if (failed != 0) errors.push_back("failed_run_ratio is not 0");

  std::printf("workload %s seed %" PRIu64 ": %zu rounds, %zu sessions "
              "(%zu factory calls, %zu rescheduled) on %zu workers\n",
              opt.workload.c_str(), opt.seed, rounds, sessions,
              call_ms.size(), rescheduled, worker_count());
  std::printf("filesystem of %s: %s\n", kWorkDir.c_str(),
              fs_name(kWorkDir).c_str());
  std::printf("total: %.4f device-hours in %.3f s of round wall time "
              "(%.4f dh/s pooled)\n",
              device_s / 3600.0, wall_s, device_s / 3600.0 / wall_s);
  std::printf("round-0 merged digests (findings timeline metrics, FNV-1a):"
              "%s\n",
              digest.c_str());
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED:%s\n", e.c_str());
  }

  const std::string nr = std::to_string(rounds) + " rounds";
  const std::string nc = std::to_string(call_ms.size()) + " sessions";
  const std::vector<Metric> metrics = {
      {"device_hours_per_s", median(dhps), "dh/s", nr + " (median)"},
      {"run_ms_p50", quantile(call_ms, 0.50), "ms", nc},
      {"run_ms_p95", quantile(call_ms, 0.95), "ms", nc},
      {"merge_s", median(merge), "s", nr + " (median)"},
      {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB",
       "1 process"},
      {"setup_s", median(setup), "s",
       std::to_string(setup.size()) + " set-ups (median)"},
      // Always 0 when the checks pass, so no run-to-run comparison can use
      // it; the JSON carries it as "failed" over "attempted".
      {"failed_run_ratio", failed_ratio, "ratio", nc, false},
  };
  print_result(errors.empty(), sessions, failed, metrics);
  return errors.empty() ? 0 : 1;
}

// ---------------------------------------------------------- traced mode

// Wall-clock spans recorded from the benchmark around public calls. A span
// opened while a "session" span is open is that session's child; the rest
// (shard submits, merges) belong to the traced pass itself.
class Spans {
 public:
  struct Span {
    std::string name;
    bool in_session = false;
    double ms = 0;
  };

  template <typename F>
  auto time(const char* name, F&& f) {
    struct Record {
      Spans* self;
      const char* name;
      bool in_session;
      Clock::time_point t0;
      ~Record() {
        self->spans_.push_back({name, in_session, since(t0) * 1e3});
        if (std::string_view(name) == "session") self->in_session_ = false;
      }
    } rec{this, name, in_session_, Clock::now()};
    if (std::string_view(name) == "session") in_session_ = true;
    return f();
  }

  double total_ms(std::string_view name) const {
    double t = 0;
    for (const Span& s : spans_) {
      if (s.name == name) t += s.ms;
    }
    return t;
  }

  // Session self time: session spans minus their children.
  double session_self_ms() const {
    double t = 0;
    for (const Span& s : spans_) {
      if (s.name == "session") t += s.ms;
      if (s.in_session) t -= s.ms;
    }
    return t;
  }

 private:
  std::vector<Span> spans_;
  bool in_session_ = false;
};

// Counts the traced replay gathers from each factory call.
struct Ledger {
  double events = 0;
  double collector_dispatch_us = 0, flow_sync_us = 0;
  double timeline_bytes = 0;
  double timeouts = 0;
  obs::MetricsRegistry counts;  // run registries, merged
  double cell_gate_dropped = 0, cell_gate_max_queue = 0,
         cell_queue_delay_s = 0, cell_delayed_promotions = 0;
};

double hist_sum_us(const obs::MetricsRegistry& reg, std::string_view name) {
  const auto* h = reg.find_histogram(name);
  return h == nullptr ? 0 : static_cast<double>(h->sum);
}

// --- traced replicas of svc::run_scenario's three scenarios. They make the
// same public calls in the same order, each inside a span; the benchmark
// checks that their artifacts are byte-identical to run_scenario's.

void attach_network(device::Device& dev, const svc::ScenarioSpec& spec) {
  if (spec.network == "wifi") {
    dev.attach_wifi();
    return;
  }
  radio::CellularConfig cfg = spec.network == "lte"
                                  ? radio::CellularConfig::lte()
                              : spec.network == "3g-simplified"
                                  ? radio::CellularConfig::umts_simplified()
                                  : radio::CellularConfig::umts();
  if (spec.throttle_kbps > 0) {
    const bool policing = spec.mechanism == "policing";
    cfg.throttle =
        policing ? net::ThrottleKind::kPolicing : net::ThrottleKind::kShaping;
    cfg.throttle_rate_bps = static_cast<double>(spec.throttle_kbps) * 1000;
    cfg.throttle_burst_bytes = policing ? 8 * 1024 : 24 * 1024;
  }
  dev.attach_cellular(cfg);
}

// Everything one traced session owns, declared in run_scenario's order so
// construction and destruction match it.
struct Session {
  explicit Session(std::uint64_t seed) : bed(seed) {}
  core::Testbed bed;
  std::unique_ptr<apps::WebServer> web;
  std::unique_ptr<apps::SocialServer> social_srv;
  std::unique_ptr<apps::VideoServer> video_srv;
  std::vector<apps::PageSpec> pages;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<apps::BrowserApp> browser;
  std::unique_ptr<apps::SocialApp> social;
  std::unique_ptr<apps::VideoApp> video;
  std::unique_ptr<core::QoeDoctor> doctor;
  std::unique_ptr<fault::FaultInjector> injector;
  diag::DiagnosisEngine* engine = nullptr;
  std::unique_ptr<ctrl::PolicyEngine> policy;
  std::unique_ptr<core::BrowserDriver> browser_driver;
  std::unique_ptr<core::FacebookDriver> social_driver;
  std::unique_ptr<core::YouTubeDriver> video_driver;
};

class TracedRunner {
 public:
  TracedRunner(Spans* spans, Ledger* ledger) : spans_(spans), ledger_(ledger) {}

  core::RunResult run(const svc::ScenarioSpec& in, const core::RunSpec& rs) {
    svc::ScenarioSpec spec = in;
    if (rs.reschedule > 0) {
      spec.seed = sim::Rng(in.seed)
                      .fork("ctrl/" + std::to_string(rs.reschedule))
                      .seed();
    }
    return spans_->time("session", [&] {
      return run_session(spec);
    });
  }

 private:
  core::RunResult run_session(const svc::ScenarioSpec& spec) {
    auto s = spans_->time("build", [&] { return build(spec); });
    core::RunResult out;
    spans_->time("sim.advance", [&] {
      if (spec.arrival_s > 0) s->bed.advance(sim::sec_f(spec.arrival_s));
    });
    if (spec.scenario == "post") {
      spans_->time("sim.advance", [&] {
        s->social->login("svc-user");
        s->bed.advance(sim::sec(10));
      });
    }
    spans_->time("sim.loop", [&] {
      start_actions(spec, *s, &out);
      s->bed.loop().run();
      if (s->policy != nullptr) {
        while (!s->bed.loop().stop_requested() &&
               s->policy->extend_until() > s->bed.loop().now()) {
          s->bed.loop().run_until(s->policy->extend_until());
        }
      }
    });
    if (spec.scenario == "pageload") {
      for (const auto& rec : s->doctor->log().for_action("page_load")) {
        out.add_sample("latency_s",
                       sim::to_seconds(core::AppLayerAnalyzer::calibrate(rec)));
      }
    }
    finish(*s, &out);
    ledger_->events += static_cast<double>(s->bed.loop().dispatched_events());
    const obs::MetricsRegistry& prof = s->doctor->obs().profile;
    ledger_->collector_dispatch_us +=
        hist_sum_us(prof, "prof.collector.dispatch");
    ledger_->flow_sync_us += hist_sum_us(prof, "prof.flow.sync");
    spans_->time("teardown", [&] { s.reset(); });
    return out;
  }

  std::unique_ptr<Session> build(const svc::ScenarioSpec& spec) {
    auto s = std::make_unique<Session>(spec.seed);
    core::Testbed& bed = s->bed;
    apps::AndroidApp* app = nullptr;
    if (spec.scenario == "pageload") {
      s->web = std::make_unique<apps::WebServer>(bed.network(),
                                                 bed.next_server_ip());
      sim::Rng rng = bed.fork_rng("pages");
      s->pages = apps::make_page_dataset(rng,
                                         static_cast<std::size_t>(spec.pages));
      for (const auto& p : s->pages) s->web->add_page(p);
      s->dev = bed.make_device("phone");
      attach_network(*s->dev, spec);
      s->browser = std::make_unique<apps::BrowserApp>(*s->dev);
      s->browser->launch();
      app = s->browser.get();
    } else if (spec.scenario == "post") {
      s->social_srv = std::make_unique<apps::SocialServer>(
          bed.network(), bed.next_server_ip());
      s->dev = bed.make_device("phone");
      attach_network(*s->dev, spec);
      apps::SocialAppConfig app_cfg;
      app_cfg.refresh_interval = sim::Duration::zero();
      s->social = std::make_unique<apps::SocialApp>(*s->dev, app_cfg);
      s->social->launch();
      app = s->social.get();
    } else {
      s->video_srv = std::make_unique<apps::VideoServer>(
          bed.network(), bed.next_server_ip());
      sim::Rng vid_rng = bed.fork_rng("videos");
      for (auto& v : apps::make_video_dataset(vid_rng, 500e3, sim::sec(20),
                                              sim::sec(60))) {
        s->video_srv->add_video(v);
      }
      s->dev = bed.make_device("phone");
      attach_network(*s->dev, spec);
      s->video = std::make_unique<apps::VideoApp>(*s->dev);
      s->video->launch();
      s->video->connect();
      bed.advance(sim::sec(5));
      app = s->video.get();
    }
    s->doctor = std::make_unique<core::QoeDoctor>(*s->dev, *app);
    s->doctor->obs().profiling = true;
    if (!spec.fault_plan.empty()) {
      s->injector = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse(spec.fault_plan), spec.fault_seed);
      s->injector->install(*s->doctor);
    }
    diag::DiagnosisConfig dcfg;
    if (s->injector != nullptr) {
      dcfg.watermark_slack = s->injector->plan().max_lateness();
    }
    s->engine = &s->doctor->enable_diagnosis(dcfg);
    if (!spec.policy.empty()) {
      ctrl::PolicyEngineConfig pcfg;
      pcfg.policy = ctrl::Policy::parse(spec.policy);
      s->policy = std::make_unique<ctrl::PolicyEngine>(std::move(pcfg));
      s->policy->set_observability(s->doctor->collector().observability());
      s->policy->attach(s->doctor->collector(), bed.loop());
      s->policy->watch(*s->engine);
      s->policy->watch_flows(&s->doctor->flow_stats());
    }
    if (s->browser) {
      s->browser_driver = std::make_unique<core::BrowserDriver>(
          s->doctor->controller(), *s->browser);
    } else if (s->social) {
      s->social_driver = std::make_unique<core::FacebookDriver>(
          s->doctor->controller(), *s->social);
    } else {
      s->video_driver = std::make_unique<core::YouTubeDriver>(
          s->doctor->controller(), *s->video);
    }
    return s;
  }

  static void start_actions(const svc::ScenarioSpec& spec, Session& s,
                            core::RunResult* out) {
    core::Testbed& bed = s.bed;
    if (spec.scenario == "pageload") {
      std::vector<std::string> urls;
      urls.reserve(s.pages.size());
      for (const auto& p : s.pages) urls.push_back("www.page.sim" + p.path);
      s.browser_driver->load_pages(
          urls, sim::sec(spec.think_s),
          [](const std::vector<core::BehaviorRecord>&) {});
    } else if (spec.scenario == "post") {
      const apps::PostKind kind = spec.kind == "photos"
                                      ? apps::PostKind::kPhotos
                                  : spec.kind == "checkin"
                                      ? apps::PostKind::kCheckin
                                      : apps::PostKind::kStatus;
      core::repeat_async(
          bed.loop(), static_cast<std::size_t>(spec.reps), sim::sec(2),
          [&s, kind, out](std::size_t, std::function<void()> next) {
            s.social_driver->upload_post(
                kind, [out, next](const core::BehaviorRecord& rec) {
                  if (!rec.timed_out) {
                    const sim::Duration d =
                        core::AppLayerAnalyzer::calibrate(rec);
                    out->add_sample("latency_s", sim::to_seconds(d));
                  }
                  next();
                });
          },
          [] {});
    } else {
      auto pick = std::make_shared<sim::Rng>(bed.fork_rng("pick"));
      core::repeat_async(
          bed.loop(), static_cast<std::size_t>(spec.videos), sim::sec(5),
          [&s, pick, out](std::size_t, std::function<void()> next) {
            const char kw = static_cast<char>('a' + pick->uniform_int(0, 25));
            const std::string id =
                std::string(1, kw) + std::to_string(pick->uniform_int(0, 9));
            s.video_driver->watch_video(
                std::string(1, kw) + " video", id,
                [out, next](const core::VideoWatchResult& r) {
                  if (!r.initial_loading.timed_out) {
                    out->add_sample(
                        "loading_s",
                        sim::to_seconds(core::AppLayerAnalyzer::calibrate(
                            r.initial_loading)));
                  }
                  out->add_counter("video.stalls",
                                   static_cast<double>(r.stalls.size()));
                  next();
                });
          },
          [] {});
    }
  }

  void finish(Session& s, core::RunResult* out) {
    spans_->time("diag.finalize", [&] {
      if (s.injector != nullptr) s.injector->flush();
      s.engine->finalize_all();
    });
    spans_->time("obs.export", [&] {
      s.engine->add_counters(*out);
      if (s.injector != nullptr) s.injector->add_counters(*out);
      s.doctor->collector().add_counters(*out);
      obs::MetricsRegistry flow_reg;
      s.doctor->flow_stats().export_metrics(flow_reg);
      for (const auto& [name, value] : flow_reg.counters()) {
        out->counters[name] += value;
      }
      out->registry.merge_from(flow_reg);
      if (s.policy != nullptr) {
        s.policy->add_counters(*out);
        out->reschedule_requested = s.policy->reschedule_requested();
        out->reschedule_reason = s.policy->reschedule_reason();
        out->artifacts.captures_jsonl = s.policy->captures_jsonl();
      }
      out->virtual_seconds = s.bed.loop().now().seconds();
    });
    out->artifacts.findings_jsonl = spans_->time("export.findings", [&] {
      return diag::FindingsJsonlSink(*s.engine).to_string();
    });
    out->artifacts.timeline_jsonl = spans_->time("export.timeline", [&] {
      return core::TimelineJsonlSink(s.doctor->collector()).to_string();
    });
  }

  Spans* spans_;
  Ledger* ledger_;
};

void tally(const core::RunResult& r, Ledger* ledger) {
  ledger->counts.merge_from(r.registry);
  ledger->timeline_bytes +=
      static_cast<double>(r.artifacts.timeline_jsonl.size());
  ledger->timeouts += static_cast<double>(
      count_substr(r.artifacts.findings_jsonl, "\"timed_out\":true"));
  const auto c = [&r](const char* k) {
    const auto it = r.counters.find(k);
    return it == r.counters.end() ? 0.0 : it->second;
  };
  ledger->cell_gate_dropped += c("cell.gate.dropped_packets");
  ledger->cell_gate_max_queue =
      std::max(ledger->cell_gate_max_queue, c("cell.gate.max_queue_bytes"));
  ledger->cell_queue_delay_s += c("cell.sched.queue_delay_s");
  ledger->cell_delayed_promotions += c("cell.rrc.delayed_promotions");
}

// What a pass over the traced subset produced.
struct PassResult {
  Merged merged;
  std::size_t failed = 0;  // sessions that failed or were quarantined
  std::size_t rescheduled = 0;
  double wall_s = 0;
};

// The traced single-threaded pass over `subset` of a round's specs: every
// session through execute_run_with_policy (so retries and reschedules match
// the campaign's), a span around each public call, its own sharded sink and
// merge.
PassResult traced_pass(const RoundSpecs& specs,
                       const std::vector<std::size_t>& subset,
                       const std::string& name, const std::string& dir,
                       Spans* spans, Ledger* ledger) {
  PassResult out;
  prepare_dir(dir);
  const auto t0 = Clock::now();
  const core::CampaignConfig cfg =
      campaign_config(name, subset.size(), 1, dir);
  core::ShardedCampaignSink sink(cfg.shard, cfg.name, cfg.master_seed,
                                 subset.size());
  TracedRunner runner(spans, ledger);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    core::RunSpec base;
    base.run_index = i;
    base.seed = core::Campaign::run_seed(cfg.master_seed, i);
    base.master_seed = cfg.master_seed;
    base.campaign = cfg.name;
    const std::size_t idx = subset[i];
    core::RunExecution ex = core::execute_run_with_policy(
        cfg,
        [&](std::uint64_t, const core::RunSpec& rs) {
          core::RunResult r =
              specs.fleet.empty()
                  ? spans->time("cell.run",
                                [&] {
                                  return cell::run_cell_scenario(
                                      specs.cells[idx]);
                                })
                  : runner.run(specs.fleet[idx], rs);
          tally(r, ledger);
          return r;
        },
        base);
    out.rescheduled += ex.reschedules;
    if (!ex.result.ok) ++out.failed;
    spans->time("shard.submit", [&] { sink.submit(i, std::move(ex)); });
  }
  sink.finalize();
  const auto merge = [&](const char* span, const core::ExportSink& sink_,
                         const char* file) {
    if (!spans->time(span, [&] { return sink_.write_file(dir + file); })) {
      throw std::runtime_error(std::string("merge: write failed: ") + file);
    }
  };
  merge("merge.findings", core::ShardFindingsMergeSink(dir), "/findings.jsonl");
  merge("merge.timeline", core::ShardTimelineMergeSink(dir), "/timeline.jsonl");
  merge("merge.metrics", core::ShardMetricsMergeSink(dir), "/metrics.json");
  out.wall_s = since(t0);
  out.merged = merge_stats(dir);
  return out;
}

// The same subset untraced: a one-worker sharded campaign over
// svc::run_scenario / cell::run_cell_scenario, then the merge.
PassResult untraced_pass(const RoundSpecs& specs,
                         const std::vector<std::size_t>& subset,
                         const std::string& name, const std::string& dir) {
  PassResult out;
  prepare_dir(dir);
  const auto t0 = Clock::now();
  core::Campaign campaign(campaign_config(name, subset.size(), 1, dir));
  const core::CampaignResult res =
      campaign.run([&](std::uint64_t, const core::RunSpec& rs) {
        core::RunSpec at = rs;
        at.run_index = subset[rs.run_index];
        return run_spec(specs, at);
      });
  RoundResult scratch;
  merge_round(dir, &scratch);
  out.wall_s = since(t0);
  out.failed = res.quarantined.size();
  for (const std::size_t n : res.run_reschedules) out.rescheduled += n;
  out.merged = merge_stats(dir);
  return out;
}

int run_traced(const Options& opt) {
  const std::size_t jobs = worker_count();
  Workload wl(opt);
  const std::string round_dir = kWorkDir + "/round";
  std::vector<std::string> errors;

  // 1. One untraced closed-loop round for the campaign, shard and merge
  //    figures under load.
  const RoundResult rr = run_round(wl, round_dir, jobs);
  fs::remove_all(round_dir);
  errors.insert(errors.end(), rr.errors.begin(), rr.errors.end());

  // 2. The traced subset of round 0 -- every 5th fleet session plus the
  //    first one with a fault plan and policy, or the whole cell deck --
  //    replayed single-threaded with spans, and the same subset untraced
  //    through the library entry points.
  Workload wl0(opt);
  RoundResult scratch;
  const RoundSpecs specs = wl0.setup(&scratch);
  std::vector<std::size_t> subset;
  bool faulted = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!is_fleet(opt.workload)) {
      subset.push_back(i);
    } else if (i % 5 == 0 ||
               (!faulted && !specs.fleet[i].fault_plan.empty())) {
      faulted = faulted || !specs.fleet[i].fault_plan.empty();
      subset.push_back(i);
    }
  }
  // The untraced pass runs before and after the traced one, so a drift in
  // machine speed does not read as tracing overhead.
  const PassResult plain =
      untraced_pass(specs, subset, opt.workload, kWorkDir + "/plain");
  Spans spans;
  Ledger ledger;
  const PassResult traced = traced_pass(
      specs, subset, opt.workload, kWorkDir + "/traced", &spans, &ledger);
  const PassResult plain_after =
      untraced_pass(specs, subset, opt.workload, kWorkDir + "/plain");
  const double untraced_s = (plain.wall_s + plain_after.wall_s) / 2;
  fs::remove_all(kWorkDir + "/plain");
  fs::remove_all(kWorkDir + "/traced");

  const auto same = [&](const char* what, const FileStats& a,
                        const FileStats& b) {
    std::printf("  %-15s traced %s  untraced %s  (%zu bytes)\n", what,
                hex64(a.digest).c_str(), hex64(b.digest).c_str(), a.bytes);
    if (a.digest != b.digest || a.bytes != b.bytes) {
      errors.push_back(std::string("traced replay ") + what +
                       " differs from the library path");
    }
  };
  std::printf("workload %s seed %" PRIu64 ": traced replay of %zu sessions "
              "(%s) vs the library path, merged artifacts:\n",
              opt.workload.c_str(), opt.seed, subset.size(),
              is_fleet(opt.workload) ? "svc::run_scenario"
                                     : "cell::run_cell_scenario");
  same("findings.jsonl", traced.merged.findings, plain.merged.findings);
  same("timeline.jsonl", traced.merged.timeline, plain.merged.timeline);
  same("metrics.json", traced.merged.metrics, plain.merged.metrics);
  for (const auto& [a, b] : {std::pair{plain.merged.findings,
                                       plain_after.merged.findings},
                             std::pair{plain.merged.timeline,
                                       plain_after.merged.timeline},
                             std::pair{plain.merged.metrics,
                                       plain_after.merged.metrics}}) {
    if (a.digest != b.digest || a.bytes != b.bytes) {
      errors.push_back("two untraced passes wrote different artifacts");
    }
  }
  const double overhead = (traced.wall_s - untraced_s) / untraced_s;
  std::printf("tracing overhead: traced %.3f s vs untraced %.3f s "
              "(mean of %.3f s before and %.3f s after, %+.1f%%)\n",
              traced.wall_s, untraced_s, plain.wall_s, plain_after.wall_s,
              overhead * 100);

  // Span table: total and share of the traced sessions' wall time.
  const double session_ms = spans.total_ms("session") +
                            spans.total_ms("cell.run");
  std::printf("\n%-16s %12s %8s  (spans over %zu traced sessions)\n", "span",
              "total_ms", "share", subset.size());
  for (const char* name :
       {"build", "sim.advance", "sim.loop", "diag.finalize", "obs.export",
        "export.findings", "export.timeline", "teardown", "cell.run",
        "shard.submit",
        "merge.findings", "merge.timeline", "merge.metrics"}) {
    const double ms = spans.total_ms(name);
    if (ms == 0) continue;  // not on this workload's path
    std::printf("%-16s %12.3f %7.1f%%\n", name, ms,
                session_ms > 0 ? 100 * ms / session_ms : 0);
  }
  if (is_fleet(opt.workload)) {
    const double self = spans.session_self_ms();
    std::printf("%-16s %12.3f %7.1f%%\n", "session (self)", self,
                100 * self / session_ms);
  }

  const obs::MetricsRegistry& c = ledger.counts;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double loop_ms = spans.total_ms("sim.loop") +
                         spans.total_ms("sim.advance");
  const double jobs_wall = static_cast<double>(rr.jobs) * rr.campaign_s;
  const double busy_s = hist_sum_us(rr.profile, "prof.campaign.run_wall") / 1e6;
  const std::string ns = std::to_string(subset.size()) + " traced sessions";
  const std::string nr = "1 round, " + std::to_string(rr.sessions) +
                         " sessions";
  const std::vector<Metric> metrics = {
      {"sim.events", ledger.events, "count", ns},
      {"sim.ns_per_event", ratio(loop_ms * 1e6, ledger.events), "ns", ns},
      {"sim.arrival_ms", spans.total_ms("sim.advance"), "ms", ns},
      {"net.packets", c.counter("collector.packet.events"), "count", ns},
      {"net.segments", c.counter("flow.segments"), "count", ns},
      {"net.retx_segments", c.counter("flow.retx_segments"), "count", ns},
      {"net.rto_events", c.counter("flow.rto_events"), "count", ns},
      {"radio.records", c.counter("collector.radio.events"), "count", ns},
      {"radio.records_dropped", c.counter("collector.radio.dropped"), "count",
       ns},
      {"rlc.ul_map_ratio",
       ratio(c.counter("rlc.ul.mapped"), c.counter("rlc.ul.packets")), "ratio",
       ns},
      {"rlc.dl_map_ratio",
       ratio(c.counter("rlc.dl.mapped"), c.counter("rlc.dl.packets")), "ratio",
       ns},
      {"cell.gate_dropped_packets", ledger.cell_gate_dropped, "count", ns},
      {"cell.gate_max_queue_bytes", ledger.cell_gate_max_queue, "bytes", ns},
      {"cell.sched_queue_delay_s", ledger.cell_queue_delay_s, "s", ns},
      {"cell.delayed_promotions", ledger.cell_delayed_promotions, "count", ns},
      {"ui.actions", c.counter("collector.ui.events"), "count", ns},
      {"ui.timeouts", ledger.timeouts, "count", ns},
      {"collector.events",
       c.counter("collector.ui.events") + c.counter("collector.packet.events") +
           c.counter("collector.radio.events"),
       "count", ns},
      {"collector.dispatch_ms", ledger.collector_dispatch_us / 1e3, "ms", ns},
      {"flow.sync_ms", ledger.flow_sync_us / 1e3, "ms", ns},
      {"diag.findings", c.counter("diag.findings"), "count", ns},
      {"diag.finalize_ms", spans.total_ms("diag.finalize"), "ms", ns},
      {"ctrl.decisions", c.counter("ctrl.decisions"), "count", ns},
      {"campaign.rescheduled", static_cast<double>(traced.rescheduled),
       "count", ns},
      {"obs.export_ms", spans.total_ms("obs.export"), "ms", ns},
      {"export.timeline_ms", spans.total_ms("export.timeline"), "ms", ns},
      {"export.findings_ms", spans.total_ms("export.findings"), "ms", ns},
      {"export.timeline_mib", ledger.timeline_bytes / (1 << 20), "MiB", ns},
      {"shard.submit_ms", spans.total_ms("shard.submit"), "ms", ns},
      {"trace.overhead_ratio", overhead, "ratio", ns},
      {"campaign.busy_s", busy_s, "s", nr},
      {"campaign.queue_wait_s",
       hist_sum_us(rr.profile, "prof.campaign.queue_wait") / 1e6, "s", nr},
      {"campaign.worker_util", ratio(busy_s, jobs_wall), "ratio", nr},
      {"shard.bytes_mib", static_cast<double>(rr.shard_bytes) / (1 << 20),
       "MiB", nr},
      {"merge.timeline_s", rr.merge_timeline_s, "s", nr},
      {"merge.findings_s", rr.merge_findings_s, "s", nr},
      {"merge.metrics_s", rr.merge_metrics_s, "s", nr},
      {"pop.gen_us", rr.gen_us, "us", nr},
      {"svc.parse_us", rr.parse_us, "us", nr},
  };
  const std::size_t failed =
      rr.quarantined + plain.failed + traced.failed + plain_after.failed;
  if (failed != 0) {
    errors.push_back(std::to_string(failed) + " sessions failed");
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  print_result(errors.empty(), rr.sessions + 3 * subset.size(), failed,
               metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  // Cell runs honour a QOED_FAULT_PLAN fallback; the benchmark's inputs
  // come from --seed alone.
  unsetenv("QOED_FAULT_PLAN");
  unsetenv("QOED_FAULT_SEED");
  if (opt.child) {
    try {
      return run_child(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: %s\n", e.what());
      return 1;
    }
  }
  int rc = 1;
  try {
    fs::create_directories(kWorkDir);
    rc = opt.trace ? run_traced(opt) : run_measure(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
  }
  std::error_code ec;
  fs::remove_all(kWorkDir, ec);
  return rc;
}
