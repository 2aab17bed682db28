#include "core/timeline_merge.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <istream>
#include <map>
#include <sstream>
#include <tuple>

#include "core/json_util.h"

namespace qoed::core {

namespace {

// Offset just past the first `"key":` in the line, or npos. Only a whole
// quoted key matches: "dt": is not a match for "t":.
std::size_t value_offset(std::string_view line, std::string_view key) {
  for (std::size_t p = line.find(key, 1); p != std::string_view::npos;
       p = line.find(key, p + 1)) {
    const std::size_t end = p + key.size();
    if (line[p - 1] == '"' && line.substr(end, 2) == "\":") return end + 2;
  }
  return std::string_view::npos;
}

// Value of a top-level numeric field, parsed from the raw JSON text.
// Sets *ok to whether the key exists and holds a finite number.
double field_number(std::string_view line, std::string_view key, bool* ok) {
  const std::size_t pos = value_offset(line, key);
  double v = 0;
  const bool parsed =
      pos != std::string_view::npos && bounded_strtod(line.substr(pos), &v) > 0;
  if (ok != nullptr) *ok = parsed && std::isfinite(v);
  return (ok == nullptr || *ok) ? v : 0;
}

// Value of a top-level string field (escape-decoded), parsed from the raw
// JSON text. The key must not occur earlier inside a value — true for the
// stamped-line format, where "device" is always the first member.
bool field_string(std::string_view line, std::string_view key,
                  std::string* out) {
  const std::size_t pos = value_offset(line, key);
  if (pos == std::string_view::npos) return false;
  JsonLiteParser p(line.substr(pos));
  return p.read_string(out);
}

// The seq tie-break key: a missing, negative or NaN seq sorts as 0, one
// past 2^64 - 1 as 2^64 - 1.
std::uint64_t seq_key(std::string_view line) {
  const double v = field_number(line, "seq", nullptr);
  if (!(v > 0)) return 0;
  if (v >= 18446744073709551616.0) return UINT64_MAX;
  return static_cast<std::uint64_t>(v);
}

// Merge key and text of the line an input currently offers.
struct Head {
  double t = 0;
  std::string device;  // reused from line to line
  std::uint64_t seq = 0;
  std::string_view line;
};

// Fills *h from a stamped line; false when the line has no finite "t" or
// no "device" string (such lines are dropped).
bool parse_head(std::string_view line, Head* h) {
  if (line.empty()) return false;
  bool t_ok = false;
  h->t = field_number(line, "t", &t_ok);
  if (!t_ok || !field_string(line, "device", &h->device)) return false;
  h->seq = seq_key(line);
  h->line = line;
  return true;
}

// k-way merge of n stamped, sorted inputs by (t, device, seq, input index).
// next(i, &line) yields input i's next line, false at its end; the view must
// stay valid until next is called for input i again. emit(line) writes one
// merged line. Returns the number of lines emitted.
template <typename Next, typename Emit>
std::size_t kway_merge(std::size_t n, Next&& next, Emit&& emit) {
  std::vector<Head> heads(n);
  const auto advance = [&](std::size_t i) {
    std::string_view line;
    while (next(i, &line)) {
      if (parse_head(line, &heads[i])) return true;
    }
    return false;
  };
  // std heap algorithms build a max-heap; ordering by "later" puts the
  // earliest head on top.
  const auto later = [&heads](std::size_t a, std::size_t b) {
    const Head& x = heads[a];
    const Head& y = heads[b];
    return std::tie(x.t, x.device, x.seq, a) >
           std::tie(y.t, y.device, y.seq, b);
  };
  std::vector<std::size_t> heap;
  heap.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (advance(i)) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::size_t written = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t i = heap.back();
    emit(heads[i].line);
    ++written;
    if (advance(i)) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return written;
}

}  // namespace

std::size_t merge_sorted_timeline_streams(
    const std::vector<std::istream*>& inputs, std::ostream& out) {
  std::vector<std::string> buffers(inputs.size());
  return kway_merge(
      inputs.size(),
      [&](std::size_t i, std::string_view* line) {
        if (inputs[i] == nullptr || !std::getline(*inputs[i], buffers[i])) {
          return false;
        }
        *line = buffers[i];
        return true;
      },
      [&out](std::string_view line) {
        out.write(line.data(), static_cast<std::streamsize>(line.size()));
        out.put('\n');
      });
}

void merge_stamped_timelines(const std::vector<std::string_view>& inputs,
                             std::string* out) {
  std::vector<std::string_view> rest = inputs;
  std::size_t bytes = out->size();
  for (const std::string_view in : inputs) bytes += in.size();
  out->reserve(bytes);
  kway_merge(
      rest.size(),
      [&rest](std::size_t i, std::string_view* line) {
        if (rest[i].empty()) return false;
        const auto nl = rest[i].find('\n');
        *line = rest[i].substr(0, nl);
        rest[i] = nl == std::string_view::npos ? std::string_view{}
                                               : rest[i].substr(nl + 1);
        return true;
      },
      [out](std::string_view line) {
        out->append(line);
        out->push_back('\n');
      });
}

StampedTimeline stamp_and_sort_timeline(std::string_view device,
                                        std::string_view jsonl) {
  static constexpr std::string_view kLabeled = "{\"device\":\"";
  struct Line {
    double t = 0;
    std::uint64_t seq = 0;
    std::string_view line;
    // Offset of the closing quote of a label the line already carries
    // (it leads with kLabeled); 0 = none.
    std::uint32_t label_end = 0;

    std::string_view label() const {
      if (label_end == 0) return {};
      return line.substr(kLabeled.size(), label_end - kLabeled.size());
    }
  };
  // The merge key within one input: every composed label starts with the
  // input's, so ordering by the carried label orders by the composed one.
  // Carried labels compare as written; generated labels have no escapes.
  const auto before = [](const Line& a, const Line& b) {
    return std::make_tuple(a.t, a.label(), a.seq) <
           std::make_tuple(b.t, b.label(), b.seq);
  };
  StampedTimeline out;
  TimelineMergeStats& stats = out.stats;
  stats.device = std::string(device);
  std::vector<Line> lines;
  std::size_t line_bytes = 0;
  bool sorted = true;
  double prev_t = 0;
  bool have_prev = false;
  std::string_view rest = jsonl;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;  // blank lines are not corruption
    ++stats.lines;
    // Quarantine rules: a usable line is a JSON object (braces on both
    // ends) carrying a finite "t". Anything else is counted, not merged.
    bool t_ok = false;
    const double t = field_number(line, "t", &t_ok);
    if (line.front() != '{' || line.back() != '}' || !t_ok) {
      ++stats.malformed;
      continue;
    }
    Line m{t, seq_key(line), line, 0};
    // An already-labeled line (a merged cell timeline) keeps its label
    // under the input's: {"device":"dev-0001",...} becomes
    // {"device":"<input>/dev-0001",...}, one member, no duplicate key.
    if (line.substr(0, kLabeled.size()) == kLabeled) {
      std::size_t end = kLabeled.size();
      while (end < line.size() && line[end] != '"') {
        end += line[end] == '\\' ? 2 : 1;
      }
      if (end >= line.size()) {
        ++stats.malformed;
        continue;
      }
      m.label_end = static_cast<std::uint32_t>(end);
    }
    if (have_prev && t < prev_t) ++stats.out_of_order;
    prev_t = std::max(prev_t, t);
    have_prev = true;
    if (!lines.empty() && before(m, lines.back())) sorted = false;
    line_bytes += line.size();
    lines.push_back(m);
  }
  if (!sorted) std::stable_sort(lines.begin(), lines.end(), before);

  std::ostringstream label;
  put_json_string(label, stats.device);
  std::string stamp = "{\"device\":" + label.str();
  stamp.pop_back();  // the closing quote follows any carried label
  out.jsonl.reserve(line_bytes + lines.size() * (stamp.size() + 3));
  for (const Line& m : lines) {
    out.jsonl += stamp;
    if (!m.label().empty()) {
      out.jsonl += '/';
      out.jsonl += m.label();
    }
    out.jsonl += '"';
    const std::string_view body = m.line.substr(m.label_end + 1);
    if (m.label_end == 0 && body != "}") out.jsonl += ',';
    out.jsonl += body;
    out.jsonl += '\n';
  }
  return out;
}

TimelineMergeResult merge_timelines_checked(
    const std::vector<DeviceTimeline>& inputs) {
  std::vector<StampedTimeline> stamped;
  stamped.reserve(inputs.size());
  for (const DeviceTimeline& input : inputs) {
    stamped.push_back(stamp_and_sort_timeline(input.device, input.jsonl));
  }
  std::vector<std::string_view> views;
  views.reserve(stamped.size());
  for (const StampedTimeline& s : stamped) views.push_back(s.jsonl);
  TimelineMergeResult result;
  merge_stamped_timelines(views, &result.jsonl);
  result.inputs.reserve(stamped.size());
  for (StampedTimeline& s : stamped) result.inputs.push_back(std::move(s.stats));
  return result;
}

std::string merge_timelines(const std::vector<DeviceTimeline>& inputs) {
  return merge_timelines_checked(inputs).jsonl;
}

namespace {

// Group label of a stamped line, composed the way the sharded timeline
// composes labels: a findings line stamped {"run":N,...} is "run-N", or
// "run-N/<device>" when it also carries a "device" (a cell run's
// findings); any other line is its "device". False for unlabeled lines.
bool group_label(std::string_view line, std::string* out) {
  const bool has_device = field_string(line, "device", out);
  if (line.substr(0, 7) != "{\"run\":") return has_device;
  bool run_ok = false;
  const double run = field_number(line, "run", &run_ok);
  if (!run_ok) return has_device;
  std::string label = "run-" + std::to_string(static_cast<long long>(run));
  if (has_device) label += "/" + *out;
  *out = std::move(label);
  return true;
}

void for_each_line(std::string_view jsonl,
                   const std::function<void(std::string_view)>& fn) {
  std::string_view rest = jsonl;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty() || line.front() != '{') continue;
    fn(line);
  }
}

double median_of_sorted(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

MergedSummary summarize_merged(std::string_view timeline_jsonl,
                               std::string_view findings_jsonl) {
  struct Acc {
    std::size_t timeline_lines = 0;
    std::size_t findings = 0;
    std::vector<double> total_s;
  };
  std::map<std::string, Acc> groups;

  for_each_line(timeline_jsonl, [&](std::string_view line) {
    std::string label;
    if (!group_label(line, &label)) return;
    ++groups[label].timeline_lines;
  });
  for_each_line(findings_jsonl, [&](std::string_view line) {
    std::string label;
    if (!group_label(line, &label)) return;
    Acc& acc = groups[label];
    ++acc.findings;
    bool ok = false;
    const double total = field_number(line, "total_s", &ok);
    if (ok) acc.total_s.push_back(total);
  });

  MergedSummary out;
  for (auto& [label, acc] : groups) {
    MergedGroupSummary g;
    g.label = label;
    g.timeline_lines = acc.timeline_lines;
    g.findings = acc.findings;
    if (!acc.total_s.empty()) {
      g.has_latency = true;
      g.median_total_s = median_of_sorted(acc.total_s);
    }
    out.timeline_lines += g.timeline_lines;
    out.findings += g.findings;
    out.groups.push_back(std::move(g));
  }
  return out;
}

void print_merged_summary(std::ostream& os, const MergedSummary& summary) {
  char buf[64];
  os << "group              timeline  findings  median_total_s\n";
  const auto row = [&](const std::string& label, std::size_t timeline,
                       std::size_t findings, bool has_latency,
                       double median) {
    if (has_latency) {
      std::snprintf(buf, sizeof buf, "%-18s %8zu  %8zu  %14.6f\n",
                    label.c_str(), timeline, findings, median);
    } else {
      std::snprintf(buf, sizeof buf, "%-18s %8zu  %8zu  %14s\n",
                    label.c_str(), timeline, findings, "-");
    }
    os << buf;
  };
  for (const MergedGroupSummary& g : summary.groups) {
    row(g.label, g.timeline_lines, g.findings, g.has_latency,
        g.median_total_s);
  }
  row("TOTAL", summary.timeline_lines, summary.findings, false, 0);
}

}  // namespace qoed::core
