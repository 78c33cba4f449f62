// cwbench — the compiled half of the benchmark (run.py is the other half).
// Subcommands:
//
//   fixture --seed=S --out=PATH   build the R-MAT fixture, index it on
//                                 nproc threads, write the snapshot
//   pins                          hash the canary graph and streams
//   run --workload=W --seed=S --snapshot=PATH --out-dir=DIR
//       --seconds=X --trace=0|1   the measured run of one workload
//   worker --snapshot=PATH --port-file=PATH
//                                 one shard worker (the net probe)
//
// Each prints one JSON object on stdout; errors go to stderr with a
// non-zero exit.

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "core/cloudwalker.h"
#include "inputs.h"
#include "net/shard_worker.h"
#include "report.h"
#include "run.h"

using namespace cloudwalker;
using namespace perfbench;

namespace {

// Canary inputs: small enough to hash on every run, made by the same
// code paths as the full-size fixture and streams.
constexpr uint64_t kCanarySeed = 1;
constexpr NodeId kCanaryNodes = 20'000;
constexpr uint64_t kCanaryDraws = 300'000;
constexpr uint64_t kCanaryRequests = 4096;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    flags[arg.substr(0, eq)] = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
  return flags;
}

uint64_t GraphSeed(uint64_t run_seed) {
  return Mix(run_seed, NameHash("graph"));
}

int Fixture(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = std::stoull(flags.at("seed"));
  const std::string out = flags.at("out");
  JsonOut json;
  Clock::time_point t = Clock::now();
  const Graph graph = MakeRmatGraph(kFixtureNodes, kFixtureDraws,
                                    GraphSeed(seed));
  json.Num("graph_s", SecondsBetween(t, Clock::now()));
  json.Str("graph_hash", Hex(GraphHash(graph)));
  json.Num("nodes", graph.num_nodes());
  json.Num("edges", static_cast<double>(graph.num_edges()));

  ThreadPool pool(static_cast<int>(std::thread::hardware_concurrency()));
  json.Num("index_threads", pool.num_threads());
  t = Clock::now();
  auto built = CloudWalker::Build(&graph, IndexingOptions{}, &pool);
  if (!built.ok()) {
    std::cerr << "build failed: " << built.status().ToString() << "\n";
    return 1;
  }
  const double build_s = SecondsBetween(t, Clock::now());
  t = Clock::now();
  const Status written = built->WriteSnapshot(out);
  if (!written.ok()) {
    std::cerr << "write failed: " << written.ToString() << "\n";
    return 1;
  }
  const double write_s = SecondsBetween(t, Clock::now());
  struct stat st {};
  if (stat(out.c_str(), &st) != 0) {
    std::cerr << "cannot stat " << out << "\n";
    return 1;
  }
  const IndexingStats& stats = built->indexing_stats();
  json.Num("index_s", build_s + write_s);
  json.Num("indexer.build_s", build_s);
  json.Num("indexer.msteps_per_s",
           Ratio(static_cast<double>(stats.walk_steps), build_s) / 1e6);
  json.Num("snapshot.write_s", write_s);
  json.Num("artifact_bytes", static_cast<double>(st.st_size));
  json.Num("artifact_bytes_per_edge",
           Ratio(static_cast<double>(st.st_size),
                 static_cast<double>(graph.num_edges())));
  std::cout << json.Render() << std::endl;
  return 0;
}

int Pins() {
  JsonOut json;
  const Graph graph =
      MakeRmatGraph(kCanaryNodes, kCanaryDraws, GraphSeed(kCanarySeed));
  json.Str("graph", Hex(GraphHash(graph)));
  for (const std::string& w : WorkloadNames()) {
    StreamSpec spec;
    StreamSpecFor(w, &spec);
    const RequestStream stream(spec, QueryableNodes(graph),
                               StreamSeed(kCanarySeed, w));
    json.Str(w, Hex(stream.Hash(kCanaryRequests)));
  }
  std::cout << json.Render() << std::endl;
  return 0;
}

ShardWorker* g_worker = nullptr;

void StopOnSignal(int /*sig*/) {
  if (g_worker != nullptr) g_worker->Stop();
}

int Worker(const std::map<std::string, std::string>& flags) {
  ShardWorkerOptions options;
  options.snapshot_path = flags.at("snapshot");
  auto worker = ShardWorker::Create(options);
  if (!worker.ok()) {
    std::cerr << "worker: " << worker.status().ToString() << "\n";
    return 1;
  }
  // Publish the port atomically: the run polls for the file.
  const std::string port_file = flags.at("port-file");
  const std::string tmp = port_file + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "%u\n", (*worker)->port());
  if (std::fclose(f) != 0 || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
    return 1;
  }
  g_worker = worker->get();
  signal(SIGTERM, StopOnSignal);
  signal(SIGINT, StopOnSignal);
  const Status served = (*worker)->Serve();
  g_worker = nullptr;
  return served.ok() ? 0 : 1;
}

int Run(const std::map<std::string, std::string>& flags, const char* argv0) {
  RunArgs args;
  args.workload = flags.at("workload");
  args.seed = std::stoull(flags.at("seed"));
  args.snapshot = flags.at("snapshot");
  args.out_dir = flags.at("out-dir");
  args.seconds = std::stod(flags.at("seconds"));
  args.trace = flags.at("trace") == "1";
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  args.self_exe = n > 0 ? std::string(exe, n) : std::string(argv0);
  return RunWorkload(args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: cwbench fixture|pins|run|worker [--flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  try {
    if (command == "fixture") return Fixture(flags);
    if (command == "pins") return Pins();
    if (command == "worker") return Worker(flags);
    if (command == "run") return Run(flags, argv[0]);
  } catch (const std::exception& e) {  // a missing or malformed flag
    std::cerr << command << ": bad flags (" << e.what() << ")\n";
    return 2;
  }
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
