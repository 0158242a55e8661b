// la1perf — the la1kit benchmark binary (run through perfbench/run.py).
//
//   la1perf --workload abv-sim|campaign|mc-table2 --seed N --seconds S
//           --trace 0|1 [--spans PATH]
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 runs every workload, each first untraced (the
// overhead baseline) and then with spans around each call into a layer,
// and reports every per-layer metric; per-layer metrics are defined on the
// workload that does the layer's work, so a traced run covers all of them.
// Spans are kept in memory and written to PATH as TSV at exit.
//
// Prints one JSON object on stdout: workload, seed, trace, correct,
// attempted, failed, errors, metrics (by manifest name) and detail.
#include <cstdio>
#include <exception>
#include <string>

#include "perf.hpp"
#include "util/cli.hpp"

namespace {

using namespace la1perf;
using la1::util::Json;

/// Per span name and workload: span count, total self time, and the
/// median and tail of single span durations.
Json span_summary(const Tracer& tracer) {
  Json out = Json::object();
  const std::vector<std::int64_t> self = tracer.self_ns();
  for (const char* workload : {"abv-sim", "campaign", "mc-table2"}) {
    const std::string prefix = std::string(workload) + "/";
    Json per_name = Json::object();
    for (std::size_t name = 0; name < tracer.names().size(); ++name) {
      std::vector<double> durations;
      double self_total = 0;
      for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        const SpanRecord& s = tracer.spans()[i];
        if (s.name != static_cast<int>(name) || s.group < 0 ||
            tracer.groups()[static_cast<std::size_t>(s.group)].rfind(prefix, 0) != 0) {
          continue;
        }
        durations.push_back(static_cast<double>(s.end_ns - s.start_ns));
        self_total += static_cast<double>(self[i]);
      }
      if (durations.empty()) continue;
      Json j = summarize(durations, "ns");
      j.set("self_total_ms", self_total / 1e6);
      per_name.set(tracer.names()[name], std::move(j));
    }
    out.set(workload, std::move(per_name));
  }
  return out;
}

/// This process's peak resident set in MB: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss (util::peak_rss_bytes) is not used because Linux
/// carries it across exec, so it would report the launching process's
/// footprint whenever that was larger. Returns 0 when unavailable.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

void merge(Outcome& into, const Outcome& from, const std::string& workload) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& e : from.errors) into.errors.push_back(workload + ": " + e);
  for (const auto& [name, value] : from.metrics) into.metrics[name] = value;
  into.detail.set(workload, from.detail);
}

}  // namespace

int main(int argc, char** argv) {
  const la1::util::Cli cli(argc, argv);
  const std::string workload = cli.get("workload", "");
  RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  opt.seconds = cli.get_double("seconds", 10);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string spans_path = cli.get("spans", "");
  for (const std::string& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }
  if (workload != "abv-sim" && workload != "campaign" &&
      workload != "mc-table2") {
    std::fprintf(stderr, "--workload must be abv-sim, campaign or mc-table2\n");
    return 2;
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Outcome out;
  try {
    if (!trace) {
      if (workload == "abv-sim") out = run_abv_sim(opt);
      if (workload == "campaign") out = run_campaign(opt);
      if (workload == "mc-table2") out = run_mc_table2(opt);
      out.metrics["peak_rss_mb"] = peak_rss_mb();
    } else {
      Tracer tracer;
      RunOptions each = opt;
      each.seconds = opt.seconds / 3;
      merge(out, trace_abv_sim(each, tracer), "abv-sim");
      merge(out, trace_campaign(each, tracer), "campaign");
      merge(out, trace_mc_table2(each, tracer), "mc-table2");
      out.detail.set("spans", span_summary(tracer));
      out.detail.set("span_count", static_cast<std::int64_t>(tracer.spans().size()));
      if (!spans_path.empty() && !tracer.write_tsv(spans_path)) {
        out.errors.push_back("cannot write spans to " + spans_path);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "la1perf: %s\n", e.what());
    return 1;
  }

  Json result = Json::object();
  result.set("workload", workload);
  result.set("seed", static_cast<std::int64_t>(opt.seed));
  result.set("trace", trace);
  result.set("correct", out.errors.empty());
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  Json errors = Json::array();
  for (const std::string& e : out.errors) errors.push(e);
  result.set("errors", std::move(errors));
  Json metrics = Json::object();
  for (const auto& [name, value] : out.metrics) metrics.set(name, value);
  result.set("metrics", std::move(metrics));
  result.set("detail", std::move(out.detail));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
