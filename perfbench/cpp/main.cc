// geabench: runs one benchmark workload and writes its raw run record.
//
//   geabench --workload <paper_campaign|sparse_20k|service_live>
//            --seed <n> --seconds <s> --trace <0|1> --out <file> --tmp <dir>
//
// perfbench/run.py builds this binary, launches it once per workload (so
// every workload's peak RSS is its own) and derives the metrics from the
// record.  Exit status: 0 when every correctness check passed, 1 when one
// failed, 2 on a usage error.

#include <sched.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

int HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

void WriteSpans(perfbench::JsonWriter* json) {
  json->Key("spans");
  json->BeginArray();
  for (const perfbench::SpanRecord& s : perfbench::Tracer::Get().Spans()) {
    json->BeginArray();
    json->Value(s.id);
    json->Value(s.parent);
    json->Value(s.name);
    json->Value(s.start_us);
    json->Value(s.end_us);
    json->Value(s.request);
    json->Value(s.thread);
    json->EndArray();
  }
  json->EndArray();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace",
                               "--out", "--tmp"}) {
    if (args.count(required) == 0) {
      std::cerr << "geabench: missing " << required << "\n";
      return 2;
    }
  }
  perfbench::Run run;
  run.options.workload = args["--workload"];
  run.options.seed = std::stoull(args["--seed"]);
  run.options.seconds = std::stod(args["--seconds"]);
  run.options.trace = args["--trace"] == "1";
  run.options.tmp_dir = args["--tmp"];
  run.options.nproc = HostCores();

  const std::map<std::string, int (*)(perfbench::Run*)> workloads = {
      {"paper_campaign", perfbench::RunPaperCampaign},
      {"sparse_20k", perfbench::RunSparse20k},
      {"service_live", perfbench::RunServiceLive}};
  const auto it = workloads.find(run.options.workload);
  if (it == workloads.end()) {
    std::cerr << "geabench: unknown workload " << run.options.workload << "\n";
    return 2;
  }
  if (run.options.trace) perfbench::Tracer::Get().Enable();

  std::ofstream out(args["--out"], std::ios::trunc);
  if (!out) {
    std::cerr << "geabench: cannot write " << args["--out"] << "\n";
    return 2;
  }
  perfbench::JsonWriter json(&out);
  run.json = &json;
  json.BeginObject();
  json.Field("workload", run.options.workload);
  json.Field("seed", static_cast<uint64_t>(run.options.seed));
  json.Field("seconds", run.options.seconds);
  json.Field("trace", run.options.trace);
  json.Field("nproc", run.options.nproc);
  json.Key("build");
  json.BeginObject();
  json.Field("compiler", GEABENCH_COMPILER);
  json.Field("cxx_flags", GEABENCH_CXX_FLAGS);
  json.Field("build_type", GEABENCH_BUILD_TYPE);
#ifdef _OPENMP
  json.Field("openmp", true);
#else
  json.Field("openmp", false);
#endif
  json.EndObject();

  const int status = it->second(&run);
  run.Expect("workload_completed", status == 0, "workload body returned");

  json.Key("checks");
  json.BeginArray();
  bool all_ok = true;
  for (const perfbench::Run::Check& c : run.checks) {
    all_ok = all_ok && c.ok;
    json.BeginObject();
    json.Field("name", c.name);
    json.Field("ok", c.ok);
    json.Field("detail", c.detail);
    json.EndObject();
  }
  json.EndArray();
  json.Field("vmhwm_kb", perfbench::PeakRssKb());
  WriteSpans(&json);
  json.EndObject();
  out << "\n";
  out.close();
  if (!out) {
    std::cerr << "geabench: write failed\n";
    return 2;
  }
  return all_ok ? 0 : 1;
}
