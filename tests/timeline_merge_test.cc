// Tests of core::merge_timelines: the (t, device, seq) interleaving order,
// the device stamp, and the input-order determinism guarantee.
#include "core/timeline_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/social_server.h"
#include "core/export_sink.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"

namespace qoed::core {
namespace {

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(TimelineMergeTest, InterleavesByTimestampAndStampsDevice) {
  const DeviceTimeline a{
      "phone-a",
      "{\"t\":1,\"seq\":0,\"layer\":\"ui\"}\n"
      "{\"t\":3,\"seq\":1,\"layer\":\"packet\"}\n"};
  const DeviceTimeline b{"phone-b", "{\"t\":2,\"seq\":0,\"layer\":\"radio\"}\n"};
  const auto merged = lines_of(merge_timelines({a, b}));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0],
            "{\"device\":\"phone-a\",\"t\":1,\"seq\":0,\"layer\":\"ui\"}");
  EXPECT_EQ(merged[1],
            "{\"device\":\"phone-b\",\"t\":2,\"seq\":0,\"layer\":\"radio\"}");
  EXPECT_EQ(merged[2],
            "{\"device\":\"phone-a\",\"t\":3,\"seq\":1,\"layer\":\"packet\"}");
}

TEST(TimelineMergeTest, TimestampTiesBreakByDeviceThenSeq) {
  // Both devices log at t=5; within a device, seq keeps capture order even
  // though the records tie on time.
  const DeviceTimeline b{"b", "{\"t\":5,\"seq\":0,\"k\":\"b0\"}\n"};
  const DeviceTimeline a{
      "a",
      "{\"t\":5,\"seq\":2,\"k\":\"a2\"}\n"
      "{\"t\":5,\"seq\":10,\"k\":\"a10\"}\n"};
  const auto merged = lines_of(merge_timelines({b, a}));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_NE(merged[0].find("\"k\":\"a2\""), std::string::npos);
  EXPECT_NE(merged[1].find("\"k\":\"a10\""), std::string::npos);
  EXPECT_NE(merged[2].find("\"k\":\"b0\""), std::string::npos);
}

TEST(TimelineMergeTest, EmptyAndBlankInputsAreDropped) {
  const DeviceTimeline empty{"empty", ""};
  const DeviceTimeline blanks{"blanks", "\n\nnot-json\n"};
  const DeviceTimeline real{"real", "{\"t\":1,\"seq\":0}\n"};
  const auto merged = lines_of(merge_timelines({empty, blanks, real}));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], "{\"device\":\"real\",\"t\":1,\"seq\":0}");
  EXPECT_TRUE(merge_timelines({}).empty());
}

TEST(TimelineMergeTest, MergeIsAPureFunctionOfTheInputSet) {
  // Distinct device labels make (t, device, seq) a total order, so feeding
  // the same timelines in any order yields byte-identical output.
  const DeviceTimeline a{
      "a",
      "{\"t\":0.5,\"seq\":0}\n{\"t\":2,\"seq\":1}\n{\"t\":2,\"seq\":2}\n"};
  const DeviceTimeline b{"b", "{\"t\":0.5,\"seq\":0}\n{\"t\":1.75,\"seq\":1}\n"};
  const DeviceTimeline c{"c", "{\"t\":2,\"seq\":0}\n"};
  const std::string abc = merge_timelines({a, b, c});
  EXPECT_EQ(abc, merge_timelines({c, b, a}));
  EXPECT_EQ(abc, merge_timelines({b, a, c}));
}

// End-to-end: merge two real spine exports and check the result is globally
// time-ordered with every line stamped.
TEST(TimelineMergeTest, MergesRealSpineExports) {
  auto capture = [](std::uint64_t seed) {
    Testbed bed(seed);
    apps::SocialServer server(bed.network(), bed.next_server_ip());
    auto dev = bed.make_device("phone");
    dev->attach_cellular(radio::CellularConfig::umts());
    apps::SocialApp app(*dev);
    app.launch();
    QoeDoctor doctor(*dev, app);
    FacebookDriver driver(doctor.controller(), app);
    app.login("dana");
    bed.advance(sim::sec(10));
    driver.upload_post(apps::PostKind::kStatus, [](const BehaviorRecord&) {});
    bed.advance(sim::sec(20));
    return TimelineJsonlSink(doctor.collector()).to_string();
  };
  const DeviceTimeline d1{"phone-1", capture(3)};
  const DeviceTimeline d2{"phone-2", capture(4)};
  const auto merged = lines_of(merge_timelines({d1, d2}));
  ASSERT_EQ(merged.size(),
            lines_of(d1.jsonl).size() + lines_of(d2.jsonl).size());

  double last_t = -1;
  std::size_t stamped = 0;
  for (const std::string& line : merged) {
    ASSERT_EQ(line.rfind("{\"device\":\"phone-", 0), 0u);
    ++stamped;
    const auto tpos = line.find("\"t\":");
    ASSERT_NE(tpos, std::string::npos);
    const double t = std::strtod(line.c_str() + tpos + 4, nullptr);
    EXPECT_GE(t, last_t);
    last_t = t;
  }
  EXPECT_EQ(stamped, merged.size());
}

// --- corrupted-input robustness (merge_timelines_checked) ---

TEST(TimelineMergeCheckedTest, QuarantinesCorruptedLinesWithCounts) {
  // A fixture shaped like a crash-truncated + bit-flipped export: a good
  // line, a line cut mid-object, garbage, a line with no usable timestamp,
  // and a non-finite timestamp.
  const DeviceTimeline bad{
      "bad",
      "{\"t\":1,\"seq\":0,\"layer\":\"ui\"}\n"
      "{\"t\":2,\"seq\":1,\"lay\n"
      "####binary@@@garbage\n"
      "{\"seq\":3,\"layer\":\"packet\"}\n"
      "{\"t\":nan,\"seq\":4}\n"
      "{\"t\":5,\"seq\":5,\"layer\":\"radio\"}\n"};
  const DeviceTimeline good{"good", "{\"t\":3,\"seq\":0}\n"};

  const TimelineMergeResult result = merge_timelines_checked({bad, good});
  ASSERT_EQ(result.inputs.size(), 2u);
  EXPECT_EQ(result.inputs[0].device, "bad");
  EXPECT_EQ(result.inputs[0].lines, 6u);
  EXPECT_EQ(result.inputs[0].malformed, 4u);
  EXPECT_EQ(result.inputs[1].malformed, 0u);
  EXPECT_EQ(result.total_malformed(), 4u);

  // Only the well-formed lines survive, still globally ordered.
  const auto merged = lines_of(result.jsonl);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_NE(merged[0].find("\"t\":1"), std::string::npos);
  EXPECT_NE(merged[1].find("\"device\":\"good\""), std::string::npos);
  EXPECT_NE(merged[2].find("\"t\":5"), std::string::npos);
}

TEST(TimelineMergeCheckedTest, CountsOutOfOrderTimestampsButStillMerges) {
  const DeviceTimeline shuffled{
      "shuffled",
      "{\"t\":2,\"seq\":0}\n"
      "{\"t\":1,\"seq\":1}\n"   // behind the previous good line
      "{\"t\":3,\"seq\":2}\n"
      "{\"t\":0.5,\"seq\":3}\n"};
  const TimelineMergeResult result = merge_timelines_checked({shuffled});
  ASSERT_EQ(result.inputs.size(), 1u);
  EXPECT_EQ(result.inputs[0].malformed, 0u);
  EXPECT_EQ(result.inputs[0].out_of_order, 2u);
  // All four lines merge — the sort repairs the order.
  const auto merged = lines_of(result.jsonl);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_NE(merged[0].find("\"t\":0.5"), std::string::npos);
  EXPECT_NE(merged[3].find("\"t\":3"), std::string::npos);
}

TEST(TimelineMergeCheckedTest, BlankLinesAreNotCountedAsCorruption) {
  const TimelineMergeResult result =
      merge_timelines_checked({{"d", "\n\n{\"t\":1,\"seq\":0}\n\n"}});
  EXPECT_EQ(result.inputs[0].lines, 1u);
  EXPECT_EQ(result.inputs[0].malformed, 0u);
  EXPECT_EQ(lines_of(result.jsonl).size(), 1u);
}

TEST(TimelineMergeCheckedTest, PlainWrapperMatchesCheckedJsonl) {
  const DeviceTimeline a{"a", "{\"t\":1,\"seq\":0}\nnot-json\n"};
  const DeviceTimeline b{"b", "{\"t\":0.5,\"seq\":0}\n"};
  EXPECT_EQ(merge_timelines({a, b}), merge_timelines_checked({a, b}).jsonl);
}

// --- what the key parse accepts ---

// Tag of each merged line ("k" field), in merged order.
std::vector<std::string> tags_of(const std::string& merged) {
  std::vector<std::string> out;
  for (const std::string& line : lines_of(merged)) {
    const auto k = line.find("\"k\":\"");
    out.push_back(k == std::string::npos
                      ? "?"
                      : line.substr(k + 5, line.find('"', k + 5) - k - 5));
  }
  return out;
}

TEST(TimelineMergeTest, WithinAnInputLinesSortStablyByTThenSeq) {
  // t and seq come from small sets, so ties on t and on (t, seq) are common
  // and the input is far from sorted; enough lines that the sort cannot
  // fall back to a stable insertion sort by accident.
  struct Rec {
    double t;
    int seq;
    std::string tag;
  };
  std::vector<Rec> recs;
  std::string jsonl;
  for (int i = 0; i < 60; ++i) {
    recs.push_back({0.5 * ((i * 7) % 5), (i * 11) % 4, "x" + std::to_string(i)});
    std::ostringstream line;
    line << "{\"t\":";
    put_json_number(line, recs.back().t);
    line << ",\"seq\":" << recs.back().seq << ",\"k\":\"" << recs.back().tag
         << "\"}\n";
    jsonl += line.str();
  }
  std::stable_sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  std::vector<std::string> want;
  for (const Rec& r : recs) want.push_back(r.tag);
  EXPECT_EQ(tags_of(merge_timelines({{"d", jsonl}})), want);
}

TEST(TimelineKeyParseTest, AcceptsWhatStrtodAcceptsAndRejectsNonFinite) {
  const DeviceTimeline d{
      "d",
      "{\"t\": 1.5,\"seq\":0,\"k\":\"space\"}\n"       // whitespace after ':'
      "{\"t\":\t2,\"seq\":1,\"k\":\"tab\"}\n"
      "{\"t\":1e-3,\"seq\":2,\"k\":\"exp\"}\n"
      "{\"t\":2.5E+1,\"seq\":3,\"k\":\"EXP\"}\n"
      "{\"t\":-0,\"seq\":4,\"k\":\"negzero\"}\n"
      "{\"t\":0x10,\"seq\":5,\"k\":\"hex\"}\n"         // strtod reads hex: 16
      "{\"t\":1e400,\"seq\":6,\"k\":\"overflow\"}\n"   // inf: quarantined
      "{\"t\":-1e400,\"seq\":7,\"k\":\"-overflow\"}\n"
      "{\"t\":nan,\"seq\":8,\"k\":\"nan\"}\n"
      "{\"t\":inf,\"seq\":9,\"k\":\"inf\"}\n"
      "{\"t\":\"3\",\"seq\":10,\"k\":\"string\"}\n"    // not a number
      "{\"dt\":5,\"seq\":11,\"k\":\"dt-only\"}\n"      // \"dt\" is not \"t\"
      "{\"dt\":5,\"t\":3,\"seq\":12,\"k\":\"dt-then-t\"}\n"};
  const TimelineMergeResult result = merge_timelines_checked({d});
  EXPECT_EQ(result.inputs[0].lines, 13u);
  EXPECT_EQ(result.inputs[0].malformed, 6u);
  EXPECT_EQ(tags_of(result.jsonl),
            (std::vector<std::string>{"negzero", "exp", "space", "tab",
                                      "dt-then-t", "hex", "EXP"}));
}

TEST(TimelineKeyParseTest, NegativeZeroTiesWithZero) {
  // -0 == 0, so the tie falls through to the device label.
  const DeviceTimeline a{"a", "{\"t\":0,\"seq\":0,\"k\":\"a\"}\n"};
  const DeviceTimeline b{"b", "{\"t\":-0,\"seq\":0,\"k\":\"b\"}\n"};
  EXPECT_EQ(tags_of(merge_timelines({b, a})),
            (std::vector<std::string>{"a", "b"}));
}

TEST(TimelineKeyParseTest, BoundedStrtodMatchesStrtod) {
  const std::string long_digits = "0." + std::string(80, '3') + "7";
  const std::string long_ws = std::string(100, ' ') + "7.25";
  const std::string long_nan = "nan(" + std::string(80, 'a') + ")x";
  const char* const tokens[] = {
      "0", "-0", "1", "1.", ".5", "-.5", "+1", " 1", "\t\n 2", "1e", "1e+",
      "1e-3", "1E5", "1e400", "-1e400", "1e-400", "4.9e-324",
      "2.2250738585072014e-308", "0x1p4", "0X10", "-0x1p-2", "00x1", "inf",
      "-Infinity", "nan", "nan(123)", "abc", "", "-", "0.60099999999999998",
      "123456789012345678901234567890", "1.7976931348623157e308",
      "1.7976931348623159e308", "9007199254740993", "1_0", "12abc",
      "7}", "3,\"seq\":1", "nan(1_a)", "nan(x", "-infinityx", "1.5e-3)",
      long_digits.c_str(), long_ws.c_str(), long_nan.c_str()};
  for (const char* token : tokens) {
    char* end = nullptr;
    const double want = std::strtod(token, &end);
    const auto want_used = static_cast<std::size_t>(end - token);
    double got = -1;
    const std::size_t used = bounded_strtod(token, &got);
    EXPECT_EQ(used, want_used) << "'" << token << "'";
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "'" << token << "'";
    } else {
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "'" << token << "': " << got << " vs " << want;
    }
  }
}

// An input that is itself a merged timeline (a cell run's lines lead with
// their device) keeps that device under the input's label as ONE member,
// and is ordered by the merge key (t, device, seq) — not by the
// device-local seq, which would interleave the devices.
TEST(TimelineMergeTest, StampComposesCarriedDeviceLabel) {
  const std::string cell =
      "{\"device\":\"dev-0000\",\"t\":1,\"seq\":9,\"k\":\"a\"}\n"
      "{\"device\":\"dev-0001\",\"t\":1,\"seq\":2,\"k\":\"b\"}\n"
      "{\"device\":\"dev\\\"q\",\"t\":0.5,\"seq\":1}\n"
      "{\"t\":1,\"seq\":4,\"k\":\"bare\"}\n"
      "{\"device\":\"dev-0002\"}\n";
  const StampedTimeline out = stamp_and_sort_timeline("run-7", cell);
  EXPECT_EQ(out.jsonl,
            "{\"device\":\"run-7/dev\\\"q\",\"t\":0.5,\"seq\":1}\n"
            "{\"device\":\"run-7\",\"t\":1,\"seq\":4,\"k\":\"bare\"}\n"
            "{\"device\":\"run-7/dev-0000\",\"t\":1,\"seq\":9,\"k\":\"a\"}\n"
            "{\"device\":\"run-7/dev-0001\",\"t\":1,\"seq\":2,\"k\":\"b\"}\n");
  EXPECT_EQ(out.stats.lines, 5u);
  EXPECT_EQ(out.stats.malformed, 1u);  // the labeled line without "t"
  // Already in merge-key order: the k-way merge leaves it as it is.
  std::string merged;
  merge_stamped_timelines({out.jsonl}, &merged);
  EXPECT_EQ(merged, out.jsonl);

  // The summary groups a sharded cell run's timeline and its findings
  // ({"run":N,"device":...}) under the same composed label.
  const MergedSummary summary = summarize_merged(
      out.jsonl,
      "{\"run\":7,\"device\":\"dev-0000\",\"total_s\":2}\n"
      "{\"run\":7,\"i\":0}\n");
  ASSERT_EQ(summary.groups.size(), 4u);
  EXPECT_EQ(summary.groups[0].label, "run-7");
  EXPECT_EQ(summary.groups[0].timeline_lines, 1u);
  EXPECT_EQ(summary.groups[0].findings, 1u);
  EXPECT_EQ(summary.groups[1].label, "run-7/dev\"q");
  EXPECT_EQ(summary.groups[2].label, "run-7/dev-0000");
  EXPECT_EQ(summary.groups[2].timeline_lines, 1u);
  EXPECT_EQ(summary.groups[2].findings, 1u);
  EXPECT_EQ(summary.groups[3].label, "run-7/dev-0001");
}

TEST(TimelineKeyParseTest, NeverReadsPastTheLine) {
  // A number cut off by the end of its view parses as the bytes in the
  // view; the digits after it are not read.
  const std::string digits = "12345";
  double v = 0;
  EXPECT_EQ(bounded_strtod(std::string_view(digits).substr(0, 2), &v), 2u);
  EXPECT_EQ(v, 12);

  // strtod skips whitespace, newlines included: an unbounded parse of the
  // first line would take its "t" from the second. Bounded, the first line
  // has no number after "t": and both lines are dropped.
  std::string out;
  merge_stamped_timelines(
      {"{\"device\":\"a\",\"t\":\n7,\"seq\":0}\n"}, &out);
  EXPECT_EQ(out, "");

  // A stamped input whose last line has no terminator at all (not even the
  // NUL a std::string carries): the parse stops at the view's end.
  const std::string text = "{\"device\":\"a\",\"t\":12";
  const std::vector<char> exact(text.begin(), text.end());
  out.clear();
  merge_stamped_timelines({std::string_view(exact.data(), exact.size())},
                          &out);
  EXPECT_EQ(out, text + "\n");
}

}  // namespace
}  // namespace qoed::core
