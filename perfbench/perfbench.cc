// perfbench: the repository benchmark (see README.md beside this file).
//
// Runs one named workload against the simulator's public API in a closed
// loop for a host-time budget, checks the outputs, and prints every metric
// by name with its unit. The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, taken from a run that alternates untraced and traced
// passes so the difference between the two is the tracing overhead.
//
// Times are host times, reported in reference seconds (see RefClock) with
// host seconds beside them. Cycles, IPC and miss ratios are simulated counts
// of a model that is not validated against hardware (the kernels are
// synthetic stand-ins for SPEC2000), so no error figure is given.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/emulator.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "harness/campaign.h"
#include "harness/campaign_store.h"
#include "pipeline/core.h"
#include "workload/profile.h"

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using bj::Mode;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::array<Mode, 3> kModes = {Mode::kSingle, Mode::kSrt,
                                        Mode::kBlackjack};
int mode_slot(Mode mode) {
  return mode == Mode::kSingle ? 0 : mode == Mode::kSrt ? 1 : 2;
}

// ---------------------------------------------------------------------------
// Reference time. On a shared machine the host runs the same code up to 2x
// slower for stretches of a second to minutes, which no statistic over one
// run removes. So every timed unit is bracketed by a fixed calibration loop
// (branchy integer work over an L2-sized table, like the simulator's own
// mix), and its host time is rescaled to reference seconds: the time it
// would take on a machine that runs one calibration loop in exactly
// kCalibrationNominalS. Host seconds are reported beside them.
// ---------------------------------------------------------------------------
constexpr double kCalibrationNominalS = 3e-3;
constexpr int kCalibrationIterations = 300000;

std::uint64_t calibration_loop() {
  static std::vector<std::uint32_t> table(1u << 16, 1u);
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  std::uint32_t idx = 0;
  for (int i = 0; i < kCalibrationIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    idx = (idx * 31u + static_cast<std::uint32_t>(x)) & 0xffffu;
    const std::uint32_t v = table[idx];
    if (v & 1u) {
      acc += v;
      table[idx] = v + 3u;
    } else {
      acc ^= x;
      table[idx] = v * 5u + 1u;
    }
  }
  return acc;
}

struct Timing {
  double host = 0.0;  // host seconds
  double ref = 0.0;   // reference seconds
  Timing& operator+=(const Timing& o) {
    host += o.host;
    ref += o.ref;
    return *this;
  }
};

class RefClock {
 public:
  // Times f(), bracketed by a calibration loop on either side; the loop
  // after one unit is the loop before the next.
  template <typename F>
  Timing time(F&& f) {
    if (last_ <= 0.0) last_ = calibrate();
    const double before = last_;
    const auto t0 = Clock::now();
    f();
    const double host = since(t0);
    last_ = calibrate();
    return {host, host * kCalibrationNominalS / (0.5 * (before + last_))};
  }
  // Forget the last calibration (after untimed work of unknown length).
  void restart() { last_ = 0.0; }

 private:
  double calibrate() {
    const auto t0 = Clock::now();
    sink_ += calibration_loop();
    return since(t0);
  }
  double last_ = 0.0;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads. Every workload runs fault-free simulations of each listed
// profile in all three modes; `campaign` adds a BlackJack hard-fault
// campaign per profile through the persistent campaign service.
// ---------------------------------------------------------------------------
struct Workload {
  std::string name;
  std::vector<std::string> profiles;
  // Untimed commits simulated during set-up (0 = start timing at cycle 0
  // with empty caches).
  std::uint64_t warmup_commits = 0;
  // Timed commits per simulation.
  std::uint64_t window_commits = 0;
  bool campaign = false;
};

// The 7 profiles whose first 12k commits are all cache-warming prologue.
const std::vector<std::string> kPrologueProfiles = {
    "mgrid", "applu", "fma3d", "gcc", "facerec", "wupwise", "bzip"};

// Campaign shape: bjsim's default 12k-commit budget, enough faults per
// profile that the p95 of per-run time has well over ten samples beyond it.
constexpr int kCampaignFaults = 128;
constexpr std::uint64_t kCampaignBudget = 12000;
constexpr std::uint64_t kCampaignDefaultSeed = 1234;  // bjsim's default
// Timed chunks per simulation window.
constexpr std::uint64_t kChunks = 12;
// Untraced runs make at least this many passes, so that setup_s is a
// median of several set-ups.
constexpr std::size_t kMinPasses = 5;
constexpr int kPrimingSetups = 2;
// Instructions per Emulator::run probe (traced passes).
constexpr std::uint64_t kEmulatorSteps = 200000;

std::vector<Workload> workloads() {
  return {
      {"cold_start", kPrologueProfiles, 0, 12000, false},
      {"steady_state", {"gzip", "eon", "equake"}, 20000, 60000, false},
      {"campaign", {"gcc", "eon"}, 0, kCampaignBudget, true},
  };
}

// ---------------------------------------------------------------------------
// Seeding. Seed 0 keeps the repository's canonical kernels (profile seed
// derived from the name) and bjsim's campaign seed; any other seed perturbs
// both. The simulator only ever sees the generated programs and configs.
// ---------------------------------------------------------------------------
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 14695981039346656037ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bj::WorkloadProfile seeded_profile(const std::string& name,
                                   std::uint64_t seed) {
  bj::WorkloadProfile profile = bj::profile_by_name(name);
  if (seed != 0) profile.seed = mix64(fnv1a(name) ^ mix64(seed)) | 1u;
  return profile;
}

// Each pass of the campaign workload injects a fresh fault sample, so a
// run's figures average over several samples instead of riding on one.
std::uint64_t campaign_seed(std::uint64_t seed, int pass) {
  if (seed == 0 && pass == 0) return kCampaignDefaultSeed;
  return mix64(mix64(seed) ^ static_cast<std::uint64_t>(pass));
}

// ---------------------------------------------------------------------------
// Spans: recorded from this file around each call into a layer, kept in
// memory, written out when the run ends.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;  // seconds since the log's origin
    double end = 0.0;
    int parent = -1;
    int op = 0;    // operation id: spans of one simulation or campaign
    int lane = 0;  // campaign worker lane for spans recorded by the engine
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Runs `f` inside a span when enabled; otherwise just runs it.
  template <typename F>
  decltype(auto) span(std::string name, const char* layer, int op, F&& f) {
    if (!enabled_) return f();
    const int id = open(std::move(name), layer, op);
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->close(id); }
    } closer{this, id};
    return f();
  }

  int current() const { return current_; }
  double now() const { return since(origin_); }

  int add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per (pass, layer): each span's duration minus the part of its
  // interval covered by the union of its children. Operation ids carry the
  // pass index in their thousands.
  std::map<std::pair<int, std::string>, double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
      }
    }
    std::map<std::pair<int, std::string>, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double lo = 0.0;
      double hi = -1.0;
      for (auto [a, b] : kids) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      out[{s.op / 1000, s.layer}] += std::max(0.0, (s.end - s.start) - covered);
    }
    return out;
  }

  void write_json(std::ostream& os) const {
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,\"op\":%d,"
                    "\"lane\":%d}",
                    s.start, s.end, s.parent, s.op, s.lane);
      os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"layer\":\"" << s.layer << "\"," << buf;
    }
    os << "\n]}\n";
  }

 private:
  int open(std::string name, const char* layer, int op) {
    const int id = add(Span{std::move(name), layer, now(), 0.0, current_, op});
    current_ = id;
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

// Parses the complete ("ph":"X") events of CampaignTraceLog::write_chrome,
// one per line: name, lane, start and duration in microseconds.
struct ChromeEvent {
  std::string name;
  int lane = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

std::string json_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return {};
  std::size_t b = at + pat.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    return e == std::string::npos ? std::string{} : line.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

std::vector<ChromeEvent> parse_chrome(const std::string& text) {
  std::vector<ChromeEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    ChromeEvent ev;
    ev.name = json_field(line, "name");
    ev.lane = std::stoi(json_field(line, "tid"));
    ev.ts_us = std::stod(json_field(line, "ts"));
    ev.dur_us = std::stod(json_field(line, "dur"));
    events.push_back(std::move(ev));
  }
  return events;
}

// ---------------------------------------------------------------------------
// Results of one pass.
// ---------------------------------------------------------------------------
struct SimRun {
  std::string profile;
  Mode mode = Mode::kSingle;
  std::vector<Timing> chunks;  // each window chunk
  bj::CoreStats stats;  // timed window only
  std::uint64_t stores_released = 0;
  std::uint64_t l1d_accesses = 0, l1d_misses = 0;
  std::uint64_t l2_accesses = 0, l2_misses = 0;
  bj::StageProfiler stages;  // traced passes only
};

struct CampaignRun {
  std::string profile;
  int runs = 0;
  int jobs = 0;
  Timing service;  // run_campaign_service, store written and closed
  double engine_s = 0.0;
  double serial_s = 0.0;
  std::uint64_t golden_steps = 0;
  double golden_fill_s = 0.0;  // traced passes only
  double reload_s = 0.0;
  double fsck_s = 0.0;
  std::uint64_t store_bytes = 0;
  std::uint64_t runs_jsonl_hash = 0;
  std::vector<double> run_ms;  // streamed JSONL "seconds", by fault index
  std::map<std::string, std::vector<double>> run_ms_by_outcome;
  std::map<bj::FaultOutcome, int> totals;
  int activated = 0;
  std::vector<double> first_activation_cycles;
};

struct Pass {
  int index = 0;
  bool traced = false;
  Timing setup;
  Timing work;  // simulation windows and campaign service calls
  std::vector<double> generate_s;
  std::vector<SimRun> sims;
  std::vector<CampaignRun> campaigns;
  std::uint64_t emulator_steps = 0;  // traced passes only
  Timing emulator;
  std::uint64_t fingerprint = 0;
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

// Digest of the simulated behaviour of one pass: per profile x mode the
// CoreStats cycle, commit, issue and shuffle counters, plus (with
// `campaigns`) each campaign's canonical runs.jsonl. A speed-only change
// must leave it unchanged.
std::uint64_t fingerprint(const Pass& pass, bool campaigns) {
  std::ostringstream os;
  for (const SimRun& r : pass.sims) {
    const bj::CoreStats& s = r.stats;
    os << r.profile << '/' << bj::mode_name(r.mode) << ':' << s.cycles << ','
       << s.leading_commits << ',' << s.trailing_commits << ','
       << s.issue_cycles << ',' << s.instructions_issued << ','
       << s.packets_shuffled << ',' << s.shuffle_nops << ','
       << s.packet_splits << ';';
  }
  for (const CampaignRun& c : pass.campaigns) {
    if (campaigns) os << c.profile << ":runs.jsonl=" << c.runs_jsonl_hash << ';';
  }
  return fnv1a(os.str());
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::vector<std::string> profiles;  // overrides the workload's list
};

class Runner {
 public:
  Runner(const Workload& workload, const Options& opts, Checks& checks,
         SpanLog& spans)
      : w_(workload), opts_(opts), checks_(checks), spans_(spans) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = static_cast<int>(std::clamp(hw, 1u, 4u));
  }

  int jobs() const { return jobs_; }
  // Chrome trace of each profile's last traced campaign.
  const std::map<std::string, std::string>& campaign_traces() const {
    return last_campaign_trace_;
  }

  // Untimed set-ups before the first pass: the first set-ups of a process
  // also pay for growing the heap, which later ones reuse.
  void prime() {
    for (int i = 0; i < kPrimingSetups; ++i) (void)set_up(-1);
  }

  Pass run_pass(int index, bool traced) {
    Pass pass;
    pass.index = index;
    pass.traced = traced;
    spans_.set_enabled(traced);
    clock_.restart();
    const int op_base = index * 1000;

    Setup setup;
    pass.setup = clock_.time([&] { setup = set_up(op_base); });
    pass.generate_s = setup.generate_s;
    std::vector<bj::Program>& programs = setup.programs;
    std::vector<Sim>& sims = setup.sims;

    // --- timed work ------------------------------------------------------
    for (Sim& sim : sims) {
      SimRun r;
      r.profile = w_.profiles[sim.program];
      r.mode = sim.mode;
      bj::Core& core = *sim.core;
      if (traced) core.set_profiler(&r.stages);
      const auto& mem = core.memory_hierarchy();
      const std::uint64_t l1d_hits = mem.l1d().hits();
      const std::uint64_t l1d_misses = mem.l1d().misses();
      const std::uint64_t l2_hits = mem.l2().hits();
      const std::uint64_t l2_misses = mem.l2().misses();
      const std::size_t stores = core.released_stores().size();
      // The window runs in equal chunks, each timed on its own. Chunk ends
      // are absolute commit counts, so the machine stops on the same cycle
      // as one run() over the whole window would.
      const std::uint64_t begin = core.leading_commits();
      bj::RunOutcome out;
      for (std::uint64_t k = 1; k <= kChunks; ++k) {
        const std::uint64_t goal = begin + w_.window_commits * k / kChunks;
        r.chunks.push_back(clock_.time([&] {
          out = spans_.span("Core::run window chunk", "pipeline", sim.op, [&] {
            return core.run(goal - std::min(goal, core.leading_commits()));
          });
        }));
        pass.work += r.chunks.back();
        if (out.wedged || out.detected || out.program_finished) break;
      }
      out.leading_commits -= begin;
      core.set_profiler(nullptr);
      check_fault_free(core, out, w_.window_commits, r.profile, r.mode,
                       "window");
      r.stats = core.stats();
      r.stores_released = core.released_stores().size() - stores;
      r.l1d_misses = mem.l1d().misses() - l1d_misses;
      r.l1d_accesses = mem.l1d().hits() - l1d_hits + r.l1d_misses;
      r.l2_misses = mem.l2().misses() - l2_misses;
      r.l2_accesses = mem.l2().hits() - l2_hits + r.l2_misses;
      pass.sims.push_back(std::move(r));
      sim.core.reset();
    }
    if (w_.campaign) {
      for (std::size_t p = 0; p < programs.size(); ++p) {
        pass.campaigns.push_back(run_campaign(programs[p], w_.profiles[p],
                                              index, op_base + 500 +
                                                         static_cast<int>(p),
                                              traced));
        pass.work += pass.campaigns.back().service;
      }
    }

    // --- arch probe (traced passes): Emulator::run timed from outside ----
    if (traced) {
      for (std::size_t p = 0; p < programs.size(); ++p) {
        bj::Emulator emu(programs[p]);
        pass.emulator += clock_.time([&] {
          spans_.span("Emulator::run " + w_.profiles[p], "arch",
                      op_base + 900 + static_cast<int>(p),
                      [&] { emu.run(kEmulatorSteps); });
        });
        pass.emulator_steps += emu.retired();
      }
    }
    spans_.set_enabled(false);
    pass.fingerprint = fingerprint(pass, true);
    return pass;
  }

 private:
  struct Sim {
    std::size_t program;
    Mode mode;
    std::unique_ptr<bj::Core> core;
    int op;
  };
  struct Setup {
    std::vector<bj::Program> programs;
    std::vector<Sim> sims;
    std::vector<double> generate_s;
  };

  // Program generation, Core construction and the untimed warm-up.
  Setup set_up(int op_base) {
    Setup su;
    for (std::size_t p = 0; p < w_.profiles.size(); ++p) {
      const bj::WorkloadProfile profile =
          seeded_profile(w_.profiles[p], opts_.seed);
      const auto t0 = Clock::now();
      su.programs.push_back(spans_.span(
          "generate_workload " + profile.name, "workload",
          op_base + static_cast<int>(p),
          [&] { return bj::generate_workload(profile); }));
      su.generate_s.push_back(since(t0));
    }
    for (std::size_t p = 0; p < su.programs.size(); ++p) {
      for (const Mode mode : kModes) {
        const int op = op_base + 100 + static_cast<int>(su.sims.size());
        auto core = spans_.span(
            "Core " + w_.profiles[p] + "/" + bj::mode_name(mode), "pipeline",
            op, [&] { return std::make_unique<bj::Core>(su.programs[p], mode); });
        su.sims.push_back(Sim{p, mode, std::move(core), op});
      }
    }
    for (Sim& sim : su.sims) {
      if (w_.warmup_commits == 0) break;
      const bj::RunOutcome out =
          spans_.span("Core::run warmup", "pipeline", sim.op,
                      [&] { return sim.core->run(w_.warmup_commits); });
      check_fault_free(*sim.core, out, w_.warmup_commits,
                       w_.profiles[sim.program], sim.mode, "warm-up");
      sim.core->reset_stats();
    }
    return su;
  }

  void check_fault_free(const bj::Core& core, const bj::RunOutcome& out,
                        std::uint64_t target, const std::string& profile,
                        Mode mode, const char* phase) {
    const std::string what =
        profile + "/" + bj::mode_name(mode) + " " + phase;
    checks_.expect(out.leading_commits >= target && !out.wedged &&
                       !out.detected && !core.oracle_violated(),
                   what + ": reach " + std::to_string(target) +
                       " commits with no detection, wedge or oracle "
                       "violation (" +
                       core.oracle_violation_detail() + ")");
  }

  CampaignRun run_campaign(const bj::Program& program,
                           const std::string& profile, int pass_index, int op,
                           bool traced) {
    CampaignRun c;
    c.profile = profile;
    bj::CampaignConfig config;
    config.mode = Mode::kBlackjack;
    config.num_faults = kCampaignFaults;
    config.seed = campaign_seed(opts_.seed, pass_index);
    config.budget_commits = kCampaignBudget;

    const fs::path store = fs::path(opts_.out_dir) /
                           ("store-" + std::to_string(::getpid()) + "-" +
                            std::to_string(pass_index) + "-" + profile);
    fs::remove_all(store);
    std::ostringstream stream;
    bj::CampaignTraceLog trace_log;
    bj::CampaignServiceOptions options;
    options.store_root = store.string();
    options.jobs = jobs_;
    options.jsonl = &stream;
    if (traced) options.trace = &trace_log;

    // The fault layer's list of injections: one run per label.
    const std::size_t labels = spans_.span(
        "campaign_fault_labels " + profile, "fault", op,
        [&] { return bj::campaign_fault_labels(config).size(); });

    double service_start = 0.0;
    int service_span = -1;
    bj::CampaignServiceReport report;
    c.service = clock_.time([&] {
      report = spans_.span("run_campaign_service " + profile, "harness", op,
                           [&] {
                             service_start = spans_.now();
                             service_span = spans_.current();
                             return bj::run_campaign_service(program, config,
                                                             options);
                           });
    });
    c.runs = static_cast<int>(report.result.runs.size());
    c.jobs = report.stats.jobs;
    c.engine_s = report.stats.wall_seconds;
    c.serial_s = report.stats.serial_estimate_seconds;
    c.golden_steps = report.stats.golden_steps;
    c.totals = report.result.totals();
    for (const bj::FaultRun& run : report.result.runs) {
      if (!run.activated) continue;
      ++c.activated;
      c.first_activation_cycles.push_back(
          static_cast<double>(run.first_activation_cycle));
    }

    // One streamed record per fault index, carrying its host time.
    std::vector<int> seen(static_cast<std::size_t>(c.runs), 0);
    c.run_ms.assign(seen.size(), 0.0);
    bool records_ok = true;
    std::istringstream lines(stream.str());
    std::string line;
    while (std::getline(lines, line)) {
      const std::string index = json_field(line, "index");
      if (index.empty()) continue;  // header
      const long i = std::stol(index);
      if (i < 0 || i >= c.runs) {
        records_ok = false;
        continue;
      }
      ++seen[static_cast<std::size_t>(i)];
      const double ms = std::stod(json_field(line, "seconds")) * 1e3;
      c.run_ms[static_cast<std::size_t>(i)] = ms;
      c.run_ms_by_outcome[json_field(line, "outcome")].push_back(ms);
    }
    for (const int n : seen) records_ok = records_ok && n == 1;
    checks_.expect(static_cast<std::size_t>(c.runs) == labels && records_ok,
                   profile + " campaign: exactly one record per fault index");

    const fs::path runs_jsonl = fs::path(report.store_dir) / "runs.jsonl";
    c.runs_jsonl_hash = fnv1a(read_file(runs_jsonl));
    c.store_bytes = dir_bytes(store);

    bj::CampaignServiceOptions reopen_options;
    reopen_options.store_root = store.string();
    reopen_options.jobs = jobs_;
    const auto t1 = Clock::now();
    const bj::CampaignServiceReport reopened =
        spans_.span("reopen store " + profile, "harness", op, [&] {
          return bj::run_campaign_service(program, config, reopen_options);
        });
    c.reload_s = since(t1);
    checks_.expect(reopened.complete_on_entry &&
                       reopened.result.totals() == c.totals,
                   profile + " campaign: reopened store is complete with "
                             "identical outcome totals");

    std::ostringstream fsck_report;
    const auto t2 = Clock::now();
    const bool clean = spans_.span("fsck_campaign_store " + profile,
                                   "harness", op, [&] {
      return bj::fsck_campaign_store(store.string(), fsck_report);
    });
    c.fsck_s = since(t2);
    checks_.expect(clean, profile + " campaign: store fsck clean (" +
                              fsck_report.str() + ")");
    fs::remove_all(store);

    if (traced) {
      std::ostringstream chrome;
      trace_log.write_chrome(chrome);
      last_campaign_trace_[profile] = chrome.str();
      add_engine_spans(parse_chrome(chrome.str()), service_span,
                       service_start, op, &c);
    }
    return c;
  }

  // Places the engine's own spans (fault runs on worker lanes, golden-trace
  // fills on the shared lane) under the service span. The engine's clock
  // starts after the store is opened, a few ms after the service call; its
  // events are anchored at the service start.
  void add_engine_spans(const std::vector<ChromeEvent>& events, int parent,
                        double origin, int op, CampaignRun* c) {
    std::vector<int> runs;
    for (const ChromeEvent& ev : events) {
      if (ev.name.rfind("run ", 0) != 0) continue;
      runs.push_back(spans_.add({ev.name, "pipeline", origin + ev.ts_us * 1e-6,
                                 origin + (ev.ts_us + ev.dur_us) * 1e-6,
                                 parent, op, ev.lane}));
    }
    for (const ChromeEvent& ev : events) {
      if (ev.name != "golden-fill") continue;
      const double start = origin + ev.ts_us * 1e-6;
      const double end = start + ev.dur_us * 1e-6;
      // A fill runs inside the fault run that asked for it.
      int owner = parent;
      for (const int r : runs) {
        const SpanLog::Span& s = spans_.spans()[static_cast<std::size_t>(r)];
        if (s.start <= start && end <= s.end) {
          owner = r;
          break;
        }
      }
      spans_.add({ev.name, "arch", start, end, owner, op, ev.lane});
      c->golden_fill_s += ev.dur_us * 1e-6;
    }
  }

  const Workload& w_;
  const Options& opts_;
  Checks& checks_;
  SpanLog& spans_;
  RefClock clock_;
  int jobs_ = 1;
  std::map<std::string, std::string> last_campaign_trace_;
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count or base, for the human-readable table
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void put(Metrics& m, std::string name, double value, std::string unit,
         std::string note = {}) {
  m.emplace_back(std::move(name), Metric{value, std::move(unit), std::move(note)});
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double pick(const Timing& t, bool ref) { return ref ? t.ref : t.host; }

// Reference-over-host factor of a timed unit: converts host times measured
// inside it (StageProfiler, campaign records, spans) to reference time.
double ref_factor(const Timing& t) { return ratio(t.ref, t.host); }

Timing window(const SimRun& r) {
  Timing sum;
  for (const Timing& t : r.chunks) sum += t;
  return sum;
}

// End-to-end metrics from untraced passes: medians over passes, run-time
// percentiles pooled over passes. `ref` selects reference seconds (the
// reported figures) or host seconds (printed beside them).
Metrics end_to_end(const std::vector<const Pass*>& passes, bool ref) {
  Metrics m;
  const std::string n = "median of " + std::to_string(passes.size()) +
                        " passes";
  std::vector<double> setup, rps, run_ms;
  std::array<std::vector<double>, 3> cps;
  for (const Pass* p : passes) {
    setup.push_back(pick(p->setup, ref));
    std::array<double, 3> commits{}, secs{};
    double runs = 0.0, wall = 0.0;
    for (const SimRun& r : p->sims) {
      const double s = pick(window(r), ref);
      commits[mode_slot(r.mode)] += static_cast<double>(r.stats.leading_commits);
      secs[mode_slot(r.mode)] += s;
      if (p->campaigns.empty()) {
        runs += 1.0;
        wall += s;
        run_ms.push_back(s * 1e3);
      }
    }
    for (int k = 0; k < 3; ++k) cps[k].push_back(ratio(commits[k], secs[k]));
    // On the campaign workload the runs are the fault runs; their streamed
    // host times are rescaled by their service call's factor.
    for (const CampaignRun& c : p->campaigns) {
      runs += c.runs;
      wall += pick(c.service, ref);
      const double f = ref ? ref_factor(c.service) : 1.0;
      for (const double ms : c.run_ms) run_ms.push_back(ms * f);
    }
    rps.push_back(ratio(runs, wall));
  }
  put(m, "setup_s", median(setup), "s", n);
  for (const Mode mode : kModes) {
    put(m, std::string("commits_per_s.") + bj::mode_name(mode),
        median(cps[mode_slot(mode)]), "1/s", n);
  }
  put(m, "runs_per_s", median(rps), "1/s", n);
  const std::string samples = std::to_string(run_ms.size()) + " runs over " +
                              std::to_string(passes.size()) + " passes";
  // The median run is not an end-to-end metric: on the campaign it falls
  // between the clusters of early and late detections and moves by a third
  // from one seed's programs to the next (it is reported per layer).
  put(m, "run_ms.p95", percentile(run_ms, 0.95), "ms", samples);
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

constexpr std::array<bj::SimStage, bj::kNumSimStages> kStages = {
    bj::SimStage::kWriteback, bj::SimStage::kCommit, bj::SimStage::kShuffle,
    bj::SimStage::kIssue,     bj::SimStage::kDispatch, bj::SimStage::kFetch};

const std::array<bj::FaultOutcome, 6> kOutcomes = {
    bj::FaultOutcome::kDetected, bj::FaultOutcome::kDetectedLate,
    bj::FaultOutcome::kWedged,   bj::FaultOutcome::kSdc,
    bj::FaultOutcome::kBenign,   bj::FaultOutcome::kOracleDivergence};

// Per-layer metrics. Simulated counts come from the first traced pass (the
// fault-free ones repeat exactly; campaign counts are that pass's fault
// sample); times, in reference seconds, from all traced passes, except ns
// per cycle, which comes from the untraced passes so the profiler's own cost
// is not in it.
Metrics per_layer(const std::vector<const Pass*>& untraced,
                  const std::vector<const Pass*>& traced,
                  const SpanLog& spans) {
  Metrics m;
  const Pass& first = *traced.front();
  const std::string nt = std::to_string(traced.size()) + " traced passes";

  std::vector<double> gen;
  std::map<std::string, std::vector<double>> self;
  const auto self_by_pass = spans.self_seconds();
  for (const Pass* p : traced) {
    double g = 0.0;
    for (const double s : p->generate_s) g += s;
    gen.push_back(g * ref_factor(p->setup));
    for (const char* layer :
         {"workload", "pipeline", "arch", "fault", "harness"}) {
      const auto it = self_by_pass.find({p->index, layer});
      self[layer].push_back(
          (it == self_by_pass.end() ? 0.0 : it->second) *
          ref_factor(p->work));
    }
  }
  put(m, "workload.generate_s", median(gen), "s", nt);
  for (const auto& [layer, v] : self) {
    put(m, layer + ".self_s", median(v), "s", "per traced pass, " + nt);
  }

  for (const Mode mode : kModes) {
    const std::string mn = bj::mode_name(mode);
    const int k = mode_slot(mode);
    std::vector<double> nspc;
    for (const Pass* p : untraced) {
      double secs = 0.0, sim_cycles = 0.0;
      for (const SimRun& r : p->sims) {
        if (mode_slot(r.mode) != k) continue;
        secs += window(r).ref;
        sim_cycles += static_cast<double>(r.stats.cycles);
      }
      nspc.push_back(ratio(secs * 1e9, sim_cycles));
    }
    put(m, "pipeline.ns_per_cycle." + mn, median(nspc), "ns",
        "median of " + std::to_string(untraced.size()) + " untraced passes");
    std::array<double, bj::kNumSimStages> stage_ns{};
    double prof_cycles = 0.0;
    for (const Pass* p : traced) {
      for (const SimRun& r : p->sims) {
        if (mode_slot(r.mode) != k) continue;
        for (const bj::SimStage st : kStages) {
          stage_ns[static_cast<int>(st)] +=
              static_cast<double>(r.stages.ns(st)) * ref_factor(window(r));
        }
        prof_cycles += static_cast<double>(r.stages.cycles());
      }
    }
    for (const bj::SimStage st : kStages) {
      put(m,
          std::string("pipeline.stage.") + bj::sim_stage_name(st) +
              ".ns_per_cycle." + mn,
          ratio(stage_ns[static_cast<int>(st)], prof_cycles), "ns", nt);
    }
    double cycles = 0.0, issue_cycles = 0.0, commits = 0.0, wakeups = 0.0;
    double pool_peak = 0.0, high_water = 0.0, iq_full = 0.0, lsq_full = 0.0;
    for (const SimRun& r : first.sims) {
      if (mode_slot(r.mode) != k) continue;
      cycles += static_cast<double>(r.stats.cycles);
      iq_full += static_cast<double>(r.stats.events.get("dispatch.iq_full"));
      lsq_full += static_cast<double>(r.stats.events.get("dispatch.lsq_full"));
      issue_cycles += static_cast<double>(r.stats.issue_cycles);
      commits += static_cast<double>(r.stats.leading_commits);
      wakeups += static_cast<double>(r.stats.wakeup_events);
      pool_peak = std::max(pool_peak,
                           static_cast<double>(r.stats.select_pool_peak));
      high_water = std::max(high_water,
                            static_cast<double>(r.stats.pool_high_water));
    }
    put(m, "pipeline.sim_cycles." + mn, cycles, "cycles", "simulated");
    put(m, "pipeline.ipc." + mn, ratio(commits, cycles), "1/cycle",
        "simulated");
    put(m, "pipeline.idle_cycle_frac." + mn, 1.0 - ratio(issue_cycles, cycles),
        "frac", "base: pipeline.sim_cycles." + mn);
    put(m, "pipeline.wakeup_events." + mn, wakeups, "count");
    put(m, "pipeline.select_pool_peak." + mn, pool_peak, "count", "max");
    put(m, "pipeline.pool_high_water." + mn, high_water, "count", "max");
    // Dispatch stalls per cycle (summed over contexts): a full issue queue
    // means every blocked entry is re-polled by issue each cycle.
    put(m, "pipeline.dispatch_iq_full_per_cycle." + mn, ratio(iq_full, cycles),
        "1/cycle", "base: pipeline.sim_cycles." + mn);
    put(m, "pipeline.dispatch_lsq_full_per_cycle." + mn,
        ratio(lsq_full, cycles), "1/cycle", "base: pipeline.sim_cycles." + mn);
  }

  double stores = 0.0, lookups = 0.0, hits = 0.0, shuffled = 0.0, nops = 0.0;
  double splits = 0.0, l1d = 0.0, l1d_miss = 0.0, l2 = 0.0, l2_miss = 0.0;
  double br = 0.0, br_miss = 0.0;
  for (const SimRun& r : first.sims) {
    const bj::CoreStats& s = r.stats;
    stores += static_cast<double>(r.stores_released);
    hits += static_cast<double>(s.shuffle_cache_hits);
    lookups += static_cast<double>(s.shuffle_cache_hits + s.shuffle_cache_misses);
    shuffled += static_cast<double>(s.packets_shuffled);
    nops += static_cast<double>(s.shuffle_nops);
    splits += static_cast<double>(s.packet_splits);
    l1d += static_cast<double>(r.l1d_accesses);
    l1d_miss += static_cast<double>(r.l1d_misses);
    l2 += static_cast<double>(r.l2_accesses);
    l2_miss += static_cast<double>(r.l2_misses);
    br += static_cast<double>(s.branch_lookups);
    br_miss += static_cast<double>(s.branch_mispredicts);
  }
  put(m, "pipeline.stores_released", stores, "count", "simulated");
  put(m, "blackjack.shuffle_cache_lookups", lookups, "count");
  put(m, "blackjack.shuffle_cache_hit_ratio", ratio(hits, lookups), "frac",
      "base: blackjack.shuffle_cache_lookups");
  put(m, "blackjack.packets_shuffled", shuffled, "count");
  put(m, "blackjack.shuffle_nops", nops, "count");
  put(m, "blackjack.packet_splits", splits, "count");

  double steps = 0.0, emu_s = 0.0;
  for (const Pass* p : traced) {
    steps += static_cast<double>(p->emulator_steps);
    emu_s += p->emulator.ref;
  }
  put(m, "arch.emulator_steps_per_s", ratio(steps, emu_s), "1/s", nt);

  put(m, "mem.l1d_accesses", l1d, "count", "simulated");
  put(m, "mem.l1d_miss_ratio", ratio(l1d_miss, l1d), "frac",
      "base: mem.l1d_accesses");
  put(m, "mem.l2_miss_ratio", ratio(l2_miss, l2), "frac", "simulated");
  put(m, "branch.lookups", br, "count", "simulated");
  put(m, "branch.mispredict_ratio", ratio(br_miss, br), "frac",
      "base: branch.lookups");

  // Harness: host times as medians over traced passes; outcome counts from
  // the first (they repeat exactly).
  std::vector<double> engine, overhead, busy, fill, reload, fsck;
  std::map<std::string, std::vector<double>> by_outcome;
  for (const Pass* p : traced) {
    double e = 0.0, svc = 0.0, serial = 0.0, capacity = 0.0, f = 0.0;
    double rl = 0.0, fk = 0.0;
    for (const CampaignRun& c : p->campaigns) {
      const double x = ref_factor(c.service);
      e += c.engine_s * x;
      svc += c.service.ref;
      serial += c.serial_s;
      capacity += c.engine_s * c.jobs;
      f += c.golden_fill_s * x;
      rl += c.reload_s * x;
      fk += c.fsck_s * x;
      for (const auto& [name, ms] : c.run_ms_by_outcome) {
        for (const double v : ms) by_outcome[name].push_back(v * x);
      }
    }
    engine.push_back(e);
    overhead.push_back(svc - e);
    busy.push_back(ratio(serial, capacity));
    fill.push_back(f);
    reload.push_back(rl);
    fsck.push_back(fk);
  }
  double runs = 0.0, activated = 0.0, golden_steps = 0.0, bytes = 0.0;
  std::vector<double> first_act;
  std::map<bj::FaultOutcome, double> totals;
  for (const CampaignRun& c : first.campaigns) {
    runs += c.runs;
    activated += c.activated;
    golden_steps += static_cast<double>(c.golden_steps);
    bytes += static_cast<double>(c.store_bytes);
    first_act.insert(first_act.end(), c.first_activation_cycles.begin(),
                     c.first_activation_cycles.end());
    for (const auto& [outcome, n] : c.totals) totals[outcome] += n;
  }
  put(m, "harness.fault_runs", runs, "count");
  put(m, "harness.engine_s", median(engine), "s", nt);
  put(m, "harness.store_overhead_s", median(overhead), "s", nt);
  put(m, "harness.worker_busy_frac", median(busy), "frac",
      "serial estimate / (engine wall x jobs)");
  std::vector<double> all_ms;
  for (const auto& [name, ms] : by_outcome) {
    all_ms.insert(all_ms.end(), ms.begin(), ms.end());
  }
  put(m, "harness.fault_run_ms.p50", percentile(all_ms, 0.5), "ms",
      std::to_string(all_ms.size()) + " runs");
  for (const char* outcome : {"detected", "benign", "wedged"}) {
    const auto it = by_outcome.find(outcome);
    const std::vector<double> ms =
        it == by_outcome.end() ? std::vector<double>{} : it->second;
    put(m, std::string("harness.fault_run_ms.") + outcome + ".p50",
        percentile(ms, 0.5), "ms", std::to_string(ms.size()) + " runs");
  }
  put(m, "harness.golden_steps", golden_steps, "count");
  put(m, "harness.golden_fill_s", median(fill), "s", nt);
  put(m, "harness.store_reload_s", median(reload), "s", nt);
  put(m, "harness.store_fsck_s", median(fsck), "s", nt);
  put(m, "harness.store_bytes", bytes, "bytes");
  for (const bj::FaultOutcome outcome : kOutcomes) {
    put(m, std::string("harness.outcome.") + bj::fault_outcome_name(outcome),
        totals[outcome], "count", "base: harness.fault_runs");
  }
  put(m, "fault.activated_frac", ratio(activated, runs), "frac",
      "base: harness.fault_runs");
  put(m, "fault.first_activation_cycle.p50", percentile(first_act, 0.5),
      "cycles", std::to_string(first_act.size()) + " activated runs");

  std::vector<double> plain, with_trace;
  for (const Pass* p : untraced) plain.push_back(p->work.ref);
  for (const Pass* p : traced) with_trace.push_back(p->work.ref);
  put(m, "trace.overhead_frac",
      ratio(median(with_trace) - median(plain), median(plain)), "frac",
      "traced minus untraced pass work time");
  return m;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
// `host`, when given, holds the same metrics in host seconds.
void print_table(const Metrics& metrics, const Metrics& host) {
  std::printf("%-44s %14s  %-8s %14s  %s\n", "metric", "value", "unit",
              host.empty() ? "" : "host value", "note");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, mt] = metrics[i];
    char host_value[32] = "";
    if (i < host.size()) {
      std::snprintf(host_value, sizeof host_value, "%.6g", host[i].second.value);
    }
    std::printf("%-44s %14.6g  %-8s %14s  %s\n", name.c_str(), mt.value,
                mt.unit.c_str(), host_value, mt.note.c_str());
  }
}

void print_runs(const Pass& pass) {
  std::printf("\n%-8s %-9s %9s %8s %6s %6s %7s %9s %9s %6s\n", "profile",
              "mode", "cycles", "commits", "ipc", "idle", "stores", "ns/cyc",
              "issue", "share");
  for (const SimRun& r : pass.sims) {
    const double cycles = static_cast<double>(r.stats.cycles);
    const double prof = static_cast<double>(r.stages.cycles());
    const double issue = ratio(
        static_cast<double>(r.stages.ns(bj::SimStage::kIssue)), prof);
    std::printf("%-8s %-9s %9llu %8llu %6.3f %6.3f %7llu %9.1f %9.1f %6.3f\n",
                r.profile.c_str(), bj::mode_name(r.mode),
                static_cast<unsigned long long>(r.stats.cycles),
                static_cast<unsigned long long>(r.stats.leading_commits),
                r.stats.ipc(),
                1.0 - ratio(static_cast<double>(r.stats.issue_cycles), cycles),
                static_cast<unsigned long long>(r.stores_released),
                ratio(static_cast<double>(r.stages.total_ns()), prof), issue,
                ratio(issue * prof,
                      static_cast<double>(r.stages.total_ns())));
  }
}

std::string json_result(const Checks& checks, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, mt] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(mt.value) ? mt.value : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << mt.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload cold_start|steady_state|campaign "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
               "[--profiles a,b,...]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace takes 0 or 1");
      opts.trace = t == 1;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else if (flag == "--profiles") {
      std::istringstream in(value);
      std::string name;
      while (std::getline(in, name, ',')) opts.profiles.push_back(name);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  Workload workload;
  bool found = false;
  for (const Workload& w : workloads()) {
    if (w.name == opts.workload) {
      workload = w;
      found = true;
    }
  }
  if (!found) usage("unknown workload " + opts.workload);
  if (!opts.profiles.empty()) workload.profiles = opts.profiles;
  try {
    for (const std::string& name : workload.profiles) {
      (void)bj::profile_by_name(name);
    }
  } catch (const std::out_of_range& e) {
    usage(e.what());
  }
  fs::create_directories(opts.out_dir);

  const auto start = Clock::now();
  Checks checks;
  SpanLog spans(start);
  Runner runner(workload, opts, checks, spans);
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d jobs=%d "
      "(closed loop, one process)\n"
      "times are reference seconds (host seconds rescaled by the "
      "calibration loop; host figures printed beside them); cycles, IPC "
      "and miss ratios are simulated by a model not validated against "
      "hardware\n",
      workload.name.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0,
      workload.campaign ? runner.jobs() : 1);

  // Whole passes until the budget is spent. The traced run alternates
  // untraced and traced passes, starting untraced, and needs one of each.
  runner.prime();
  std::vector<Pass> passes;
  while (passes.size() < (opts.trace ? 2u : kMinPasses) ||
         since(start) < opts.seconds) {
    const bool traced = opts.trace && passes.size() % 2 == 1;
    passes.push_back(runner.run_pass(static_cast<int>(passes.size()), traced));
    const Pass& p = passes.back();
    std::printf(
        "pass %zu%s: setup %.4f s (host %.4f), work %.4f s (host %.4f), "
        "fingerprint %016llx\n",
        passes.size(), traced ? " (traced)" : "", p.setup.ref, p.setup.host,
        p.work.ref, p.work.host,
        static_cast<unsigned long long>(p.fingerprint));
    // Fault-free simulations repeat exactly; campaign passes draw fresh
    // fault samples.
    checks.expect(fingerprint(p, false) == fingerprint(passes.front(), false),
                  "pass " + std::to_string(passes.size()) +
                      " repeats the fault-free simulations of pass 1");
  }

  std::vector<const Pass*> untraced, traced;
  for (const Pass& p : passes) (p.traced ? traced : untraced).push_back(&p);
  const Metrics e2e = end_to_end(untraced, true);
  std::printf("\nend-to-end (untraced passes)\n");
  print_table(e2e, end_to_end(untraced, false));
  std::printf("failed_frac %.6g (%d failed of %d checked operations)\n",
              ratio(checks.failed(), checks.attempted()), checks.failed(),
              checks.attempted());
  std::printf("fingerprint %s seed=%llu: %016llx\n", workload.name.c_str(),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(passes.front().fingerprint));

  Metrics result = e2e;
  if (opts.trace) {
    const Metrics layers = per_layer(untraced, traced, spans);
    std::printf("\nper layer\n");
    print_table(layers, {});
    print_runs(*traced.front());
    const std::string stem = (fs::path(opts.out_dir) /
                              (workload.name + "-seed" +
                               std::to_string(opts.seed)))
                                 .string();
    std::ofstream span_file(stem + "-spans.json");
    spans.write_json(span_file);
    for (const auto& [profile, chrome] : runner.campaign_traces()) {
      std::ofstream(stem + "-campaign-" + profile + ".json") << chrome;
    }
    std::printf("spans written to %s-spans.json\n", stem.c_str());
    result = layers;
  }
  std::printf("%s\n", json_result(checks, result).c_str());
  return checks.failed() == 0 ? 0 : 1;
}
