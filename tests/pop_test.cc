// Population-scale scenario generation: per-user determinism, chunked
// generation byte-equality, diurnal-curve edge cases, and golden-stable
// JSONL output.
//
// The contract under test (DESIGN.md §5h): user_spec(i) is a pure function
// of (config, i); the emitted JSONL is therefore byte-identical whether the
// population is written in one pass, in chunks, or regenerated later — the
// property that lets fleet shards split a population file arbitrarily.
#include "pop/population.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "svc/run_spec.h"

namespace qoed::pop {
namespace {

PopulationConfig small_config() {
  PopulationConfig cfg;
  cfg.seed = 42;
  cfg.users = 50;
  return cfg;
}

TEST(Population, UserSpecIsPureInConfigAndIndex) {
  const PopulationGenerator gen(small_config());
  const PopulationGenerator again(small_config());
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{49}}) {
    // Independent generators and out-of-order access agree exactly.
    EXPECT_EQ(gen.user_spec(i).to_json(), again.user_spec(i).to_json());
  }
  EXPECT_EQ(gen.user_spec(49).to_json(), gen.user_spec(49).to_json());

  PopulationConfig other = small_config();
  other.seed = 43;
  EXPECT_NE(PopulationGenerator(other).user_spec(0).to_json(),
            gen.user_spec(0).to_json());
}

TEST(Population, ChunkedWritesMatchOnePassByteForByte) {
  const PopulationGenerator gen(small_config());
  std::ostringstream whole;
  EXPECT_EQ(gen.write_jsonl(whole), 50u);

  std::ostringstream chunked;
  std::size_t lines = 0;
  for (std::size_t begin = 0; begin < 50; begin += 7) {
    lines += gen.write_jsonl(chunked, begin, begin + 7);  // end clamps
  }
  EXPECT_EQ(lines, 50u);
  EXPECT_EQ(chunked.str(), whole.str());
}

// Golden stability: the exact bytes for a fixed config must not drift
// between builds — fleet result archives key on them. Structure is checked
// field-by-field; stability by regenerating and comparing bytes.
TEST(Population, GoldenSpecFileIsStableAndWellFormed) {
  PopulationConfig cfg = small_config();
  cfg.users = 8;
  cfg.throttle_kbps = 250;
  cfg.mechanism = "policing";
  const PopulationGenerator gen(cfg);

  std::ostringstream out;
  gen.write_jsonl(out);
  const std::string first = out.str();
  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 8);

  // Every line parses back as a valid ScenarioSpec that round-trips.
  std::istringstream lines(first);
  std::string line;
  std::set<std::uint64_t> seeds;
  while (std::getline(lines, line)) {
    svc::ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(svc::ScenarioSpec::parse_json(line, &spec, &error)) << error;
    EXPECT_EQ(spec.to_json(), line);
    EXPECT_EQ(spec.network, "3g");
    EXPECT_EQ(spec.throttle_kbps, 250);
    EXPECT_EQ(spec.mechanism, "policing");
    EXPECT_GE(spec.arrival_s, 0);
    EXPECT_LT(spec.arrival_s, 86400);
    seeds.insert(spec.seed);
  }
  // Per-user seeds are distinct (forked, not sequential).
  EXPECT_EQ(seeds.size(), 8u);

  std::ostringstream second;
  PopulationGenerator(cfg).write_jsonl(second);
  EXPECT_EQ(second.str(), first);
}

TEST(Population, MixWeightsSelectAppClasses) {
  PopulationConfig cfg = small_config();
  cfg.users = 200;
  const PopulationGenerator gen(cfg);
  int social = 0, video = 0, browser = 0;
  for (std::size_t i = 0; i < cfg.users; ++i) {
    const std::string scenario = gen.user_spec(i).scenario;
    if (scenario == "post") ++social;
    else if (scenario == "video") ++video;
    else if (scenario == "pageload") ++browser;
  }
  EXPECT_EQ(social + video + browser, 200);
  // Default mix 0.4/0.3/0.3: every class well represented.
  EXPECT_GT(social, 40);
  EXPECT_GT(video, 20);
  EXPECT_GT(browser, 20);

  // Zeroed classes never appear; all-zero falls back to browser-only.
  cfg.mix = {0, 0, 1};
  const PopulationGenerator browsers(cfg);
  cfg.mix = {0, 0, 0};
  const PopulationGenerator fallback(cfg);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(browsers.user_spec(i).scenario, "pageload");
    EXPECT_EQ(fallback.user_spec(i).scenario, "pageload");
  }
}

TEST(Population, ZeroRateHoursNeverReceiveArrivals) {
  PopulationConfig cfg = small_config();
  cfg.users = 300;
  // Only hours 9 and 17 are active.
  cfg.diurnal.weights.fill(0);
  cfg.diurnal.weights[9] = 1;
  cfg.diurnal.weights[17] = 3;
  const PopulationGenerator gen(cfg);
  int nine = 0, seventeen = 0;
  for (std::size_t i = 0; i < cfg.users; ++i) {
    const double arrival = gen.user_spec(i).arrival_s;
    const int hour = static_cast<int>(arrival / 3600) % 24;
    ASSERT_TRUE(hour == 9 || hour == 17) << "arrival in dead hour " << hour;
    (hour == 9 ? nine : seventeen)++;
  }
  // 3x weight shows up as roughly 3x the arrivals.
  EXPECT_GT(seventeen, nine);
}

TEST(Population, AllZeroCurveFallsBackToFlat) {
  PopulationConfig cfg = small_config();
  cfg.users = 300;
  cfg.diurnal.weights.fill(0);
  const PopulationGenerator gen(cfg);
  std::set<int> hours;
  for (std::size_t i = 0; i < cfg.users; ++i) {
    const double arrival = gen.user_spec(i).arrival_s;
    ASSERT_GE(arrival, 0);
    ASSERT_LT(arrival, 86400);
    hours.insert(static_cast<int>(arrival / 3600));
  }
  // Uniform over the day: with 300 draws, most hours are hit.
  EXPECT_GT(hours.size(), 12u);
}

TEST(Population, SingleUserPopulation) {
  PopulationConfig cfg = small_config();
  cfg.users = 1;
  const PopulationGenerator gen(cfg);
  std::ostringstream out;
  EXPECT_EQ(gen.write_jsonl(out), 1u);
  svc::ScenarioSpec spec;
  std::string error;
  const std::string line = out.str().substr(0, out.str().size() - 1);
  ASSERT_TRUE(svc::ScenarioSpec::parse_json(line, &spec, &error)) << error;

  // Degenerate ranges stay in bounds.
  EXPECT_EQ(gen.write_jsonl(out, 5, 9), 0u);  // begin past the population
}

TEST(Population, MultiDaySpreadsArrivals) {
  PopulationConfig cfg = small_config();
  cfg.users = 200;
  cfg.days = 3;
  cfg.diurnal = DiurnalCurve::flat();
  const PopulationGenerator gen(cfg);
  std::set<int> days_hit;
  for (std::size_t i = 0; i < cfg.users; ++i) {
    const double arrival = gen.user_spec(i).arrival_s;
    ASSERT_GE(arrival, 0);
    ASSERT_LT(arrival, 3 * 86400.0);
    days_hit.insert(static_cast<int>(arrival / 86400));
  }
  EXPECT_EQ(days_hit.size(), 3u);
}

TEST(Population, ArrivalFieldRoundTripsThroughScenarioSpec) {
  svc::ScenarioSpec spec;
  spec.arrival_s = 12345.625;
  svc::ScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(svc::ScenarioSpec::parse_json(spec.to_json(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.arrival_s, 12345.625);
  // Default stays zero when the key is absent (backward compatibility).
  ASSERT_TRUE(svc::ScenarioSpec::parse_json("{\"scenario\":\"pageload\"}",
                                            &parsed, &error))
      << error;
  EXPECT_EQ(parsed.arrival_s, 0);

  // The latest arrival the generator can emit (the last second of the
  // longest span `qoed_cli pop --days` allows) is inside the spec's bound.
  PopulationConfig cfg = small_config();
  cfg.users = 50;
  cfg.days = static_cast<int>(svc::ScenarioSpec::kMaxArrivalS / 86400);
  const PopulationGenerator gen(cfg);
  for (std::size_t i = 0; i < cfg.users; ++i) {
    ASSERT_TRUE(svc::ScenarioSpec::parse_json(gen.user_spec(i).to_json(),
                                              &parsed, &error))
        << error;
  }
  spec.arrival_s = (cfg.days - 1) * 86400.0 + 86399.999;
  EXPECT_TRUE(svc::ScenarioSpec::parse_json(spec.to_json(), &parsed, &error))
      << error;
}

}  // namespace
}  // namespace qoed::pop
