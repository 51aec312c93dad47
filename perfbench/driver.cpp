// In-process workloads of the repository benchmark (see README.md).
//
//   stages_epoch  the Fig. 14 stage grid at the epoch tier, one job after
//                 another on the calling thread (no ThreadPool)
//   trace_mix     zipf / hotspot / uniform / sequential read+write traces
//                 replayed through MemoryController against four schemes,
//                 then the PARSEC + SPEC IPC suite
//   ledger        only the per-layer ledger (used by the paper_figs
//                 traced run, whose figures run in child processes)
//
// usage: perfbench_driver --workload W [--seed N] [--seconds S]
//                         [--trace 0|1] [--inject-fault translate]
//        perfbench_driver --launch PROG [ARGS...]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
// pass, one traced pass (per-call timers, a telemetry Recorder) and the
// per-layer ledger, and exits 1 when the two passes' digests differ.
// --inject-fault translate corrupts one logical line's translation for
// reads in trace_mix (the benchmark's own negative test). The last
// stdout line is one JSON object; run.py wraps it in the final result.
//
// --launch runs PROG, waits for it, prints
// "perfbench-rusage <wall s> <cpu s> <peak RSS KiB>" to stderr and exits
// with PROG's status: run.py spawns the figure binaries through it so
// their ru_maxrss starts from this small process, not from Python.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "attack/harness.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "controller/memory_controller.hpp"
#include "mapping/feistel.hpp"
#include "perf/ipc_experiment.hpp"
#include "sim/arena.hpp"
#include "sim/lifetime.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/generators.hpp"
#include "trace/profiles.hpp"
#include "wl/factory.hpp"

namespace {

using namespace srbsg;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds in `ru`.
double cpu_of(const rusage& ru) {
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_of(ru);
}

/// Peak resident set of this process image. Not ru_maxrss: after fork +
/// exec that also counts the parent's resident set at the fork.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw CheckFailure("peak_rss_mb: no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  check(!v.empty(), "median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over the 8 bytes of each added value.
struct Fnv {
  u64 h{0xcbf29ce484222325ULL};
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    u64 bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

std::string hex(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Output metrics in insertion order, serialized as run.py expects them.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void put(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      os << (i ? ", " : "") << "\"" << entries[i].name << "\": {\"value\": " << entries[i].value
         << ", \"unit\": \"" << entries[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }
};

// --- Forwarding decorator --------------------------------------------

/// Forwards every WearLeveler call to the wrapped scheme, like
/// audit::AuditingWearLeveler. With `bulk_s` set it adds the host time of
/// each write entry point to it (the scheme's self time including the
/// PCM bank updates it drives); with `corrupt` set, translate() of that
/// one logical line answers the next line's physical address, so reads of
/// it return the wrong data while the scheme's own writes stay intact.
class ProbeLeveler final : public wl::WearLeveler {
  // Ahead of the overrides so its return type is deduced before they use it.
  template <class F>
  auto timed(F&& f) {
    if (bulk_s_ == nullptr) return f();
    const auto t0 = Clock::now();
    auto out = f();
    *bulk_s_ += since(t0);
    return out;
  }

 public:
  ProbeLeveler(std::unique_ptr<wl::WearLeveler> inner, double* bulk_s, std::optional<La> corrupt)
      : inner_(std::move(inner)), bulk_s_(bulk_s), corrupt_(corrupt) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] u64 logical_lines() const override { return inner_->logical_lines(); }
  [[nodiscard]] u64 physical_lines() const override { return inner_->physical_lines(); }
  [[nodiscard]] Pa translate(La la) const override {
    if (corrupt_ && la == *corrupt_) {
      return inner_->translate(La{(la.value() + 1) % inner_->logical_lines()});
    }
    return inner_->translate(la);
  }

  wl::WriteOutcome write(La la, const pcm::LineData& data, pcm::PcmBank& bank) override {
    return timed([&] { return inner_->write(la, data, bank); });
  }
  wl::BulkOutcome write_repeated(La la, const pcm::LineData& data, u64 count,
                                 pcm::PcmBank& bank) override {
    return timed([&] { return inner_->write_repeated(la, data, count, bank); });
  }
  wl::BulkOutcome write_batch(std::span<const La> las, const pcm::LineData& data,
                              pcm::PcmBank& bank) override {
    return timed([&] { return inner_->write_batch(las, data, bank); });
  }
  wl::BulkOutcome write_cycle(std::span<const La> pattern, const pcm::LineData& data, u64 count,
                              pcm::PcmBank& bank) override {
    return timed([&] { return inner_->write_cycle(pattern, data, count, bank); });
  }

  void set_rate_boost(u32 log2_divisor) override { inner_->set_rate_boost(log2_divisor); }
  void validate_state() const override { inner_->validate_state(); }
  [[nodiscard]] u32 writes_per_movement() const override { return inner_->writes_per_movement(); }
  void set_engine_tier(wl::EngineTier tier) override {
    wl::WearLeveler::set_engine_tier(tier);
    inner_->set_engine_tier(tier);
  }
  void attach_telemetry(telemetry::Recorder* recorder) override {
    wl::WearLeveler::attach_telemetry(recorder);
    inner_->attach_telemetry(recorder);
  }

 private:
  std::unique_ptr<wl::WearLeveler> inner_;
  double* bulk_s_;
  std::optional<La> corrupt_;
};

/// One timed pass of a workload: its checked operations and the digest
/// of every outcome it produced.
struct Pass {
  u64 attempted{0};
  u64 failed{0};
  u64 sim_ops{0};  ///< simulated writes + reads
  u64 digest{0};
};

// --- stages_epoch ----------------------------------------------------

constexpr u64 kStageLines = u64{1} << 11;
constexpr u32 kStageCounts[] = {3, 5, 7, 10, 14, 20};
constexpr u64 kStageReplicas = 2;

/// The Fig. 14 grid: Security RBSG, 2^11 lines, E = 65536, M = 64,
/// ψ_in 8, ψ_out 16, pinned to the epoch tier; `replicas` jobs per
/// (stages, attack) cell, their seeds drawn from the run seed. Lifetimes
/// to first failure vary by seed, so each cell averages over replicas.
std::vector<sim::LifetimeConfig> stage_grid(u64 seed, std::span<const u32> stage_counts,
                                            u64 replicas) {
  std::vector<sim::LifetimeConfig> grid;
  u64 sm = seed;
  for (const u32 stages : stage_counts) {
    for (const auto attack : {sim::AttackKind::kRaa, sim::AttackKind::kBpa}) {
      for (u64 r = 0; r < replicas; ++r) {
        sim::LifetimeConfig c;
        c.pcm = pcm::PcmConfig::scaled(kStageLines, 65536);
        c.scheme.kind = wl::SchemeKind::kSecurityRbsg;
        c.scheme.lines = kStageLines;
        c.scheme.regions = kStageLines / 64;
        c.scheme.inner_interval = 8;
        c.scheme.outer_interval = 16;
        c.scheme.stages = stages;
        c.scheme.seed = splitmix64(sm);
        c.seed = splitmix64(sm);
        c.attack = attack;
        c.write_budget = u64{1} << 38;
        c.engine = wl::EngineTier::kEpoch;
        grid.push_back(c);
      }
    }
  }
  return grid;
}

void add_outcome(Fnv& f, const sim::LifetimeOutcome& out) {
  f.add(u64{out.result.succeeded});
  f.add(out.result.lifetime.value());
  f.add(out.result.writes);
  f.add(out.result.elapsed.value());
  f.add(out.wear.mean);
  f.add(out.wear.coefficient_of_variation);
  f.add(out.wear.gini);
  f.add(out.wear.max);
  f.add(out.wear.min);
}

void tally(Pass& p, Fnv& f, const sim::LifetimeOutcome& out) {
  add_outcome(f, out);
  ++p.attempted;
  if (!out.result.succeeded) ++p.failed;
  p.sim_ops += out.result.writes;
}

Pass stages_pass(std::span<const sim::LifetimeConfig> grid, sim::WorkerArena& arena) {
  Pass p;
  Fnv f;
  for (const auto& cfg : grid) tally(p, f, sim::run_lifetime(cfg, arena));
  p.digest = f.h;
  return p;
}

/// The controller run_lifetime builds for a job: the scheme (behind a
/// timing ProbeLeveler when `bulk_s` is set), a bank from `arena`, the
/// job's engine tier.
ctl::MemoryController job_controller(const sim::LifetimeConfig& cfg, sim::WorkerArena& arena,
                                     double* bulk_s) {
  std::unique_ptr<wl::WearLeveler> scheme = wl::make_scheme(cfg.scheme);
  if (bulk_s != nullptr) {
    scheme = std::make_unique<ProbeLeveler>(std::move(scheme), bulk_s, std::nullopt);
  }
  const u64 physical = scheme->physical_lines();
  ctl::MemoryController mc(arena.acquire(cfg.pcm, physical), std::move(scheme));
  mc.set_engine_tier(cfg.engine);
  return mc;
}

/// Everything up to each job's first simulated write: the grid, then per
/// job the controller on a bank from a fresh arena, and the attacker.
void stages_setup(u64 seed) {
  const auto grid = stage_grid(seed, kStageCounts, kStageReplicas);
  sim::WorkerArena arena;
  for (const auto& cfg : grid) {
    auto mc = job_controller(cfg, arena, nullptr);
    const auto attacker = sim::make_attacker(cfg);
    arena.release(mc.release_bank());
  }
}

/// The traced pass: each job rebuilt from run_lifetime's public calls,
/// with the scheme behind a timing ProbeLeveler and a counters-only
/// Recorder passed through HarnessOptions.
Pass stages_traced(std::span<const sim::LifetimeConfig> grid, sim::WorkerArena& arena,
                   Metrics& m) {
  const auto& core = telemetry::CoreCounters::get();
  Pass p;
  Fnv f;
  double bulk_s = 0, attack_s = 0, job_setup_s = 0, wear_s = 0;
  u64 triggers = 0, movements = 0, chunks = 0, jumps = 0, fallbacks = 0;
  for (const auto& cfg : grid) {
    auto t0 = Clock::now();
    auto mc = job_controller(cfg, arena, &bulk_s);
    const auto attacker = sim::make_attacker(cfg);
    telemetry::TelemetryConfig tcfg;
    tcfg.ring_capacity = 0;
    telemetry::Recorder rec(tcfg);
    attack::HarnessOptions opts;
    opts.recorder = &rec;
    job_setup_s += since(t0);

    t0 = Clock::now();
    sim::LifetimeOutcome out;
    out.result = attack::run_attack(mc, *attacker, cfg.write_budget, opts);
    attack_s += since(t0);

    t0 = Clock::now();
    out.wear = compute_wear_metrics(mc.bank().wear_counts());
    wear_s += since(t0);
    arena.release(mc.release_bank());

    tally(p, f, out);
    triggers += rec.counter(core.remap_triggers);
    movements += rec.counter(core.movements);
    chunks += rec.counter(core.batch_chunks);
    jumps += rec.counter(core.epoch_jumps);
    fallbacks += rec.counter(core.epoch_fallbacks);
  }
  p.digest = f.h;
  m.put("wl.bulk_s", bulk_s, "s");
  m.put("wl.ns_per_sim_write", 1e9 * bulk_s / static_cast<double>(std::max<u64>(p.sim_ops, 1)),
        "ns");
  m.put("wl.remap_triggers", static_cast<double>(triggers), "count");
  m.put("wl.movements", static_cast<double>(movements), "count");
  m.put("wl.batch_chunks", static_cast<double>(chunks), "count");
  m.put("wl.epoch_jumps", static_cast<double>(jumps), "count");
  m.put("wl.epoch_fallbacks", static_cast<double>(fallbacks), "count");
  m.put("attack.self_s", attack_s - bulk_s, "s");
  m.put("sim.job_setup_s", job_setup_s, "s");
  m.put("sim.wear_metrics_s", wear_s, "s");
  return p;
}

// --- trace_mix -------------------------------------------------------

constexpr u64 kMixLines = u64{1} << 16;
constexpr std::size_t kMixWindow = 64;  ///< trace records per write block
constexpr wl::SchemeKind kMixSchemes[] = {wl::SchemeKind::kNone, wl::SchemeKind::kRbsg,
                                          wl::SchemeKind::kSr2, wl::SchemeKind::kSecurityRbsg};

constexpr u64 kMixAccesses = u64{1} << 16;  ///< records per trace
struct MixSize {
  u64 laps;  ///< replays of the trace set per scheme
  u64 ipc_instructions;
};
// Short traces replayed many times keep set-up and the memory streamed
// per pass small.
constexpr MixSize kMixFull{16, 200'000};
constexpr MixSize kMixLedger{2, 50'000};

/// A trace in replay form: one `addr << 1 | is_write` word per record.
using Ops = std::vector<u32>;

std::vector<Ops> mix_traces(u64 seed) {
  trace::GeneratorOptions g;
  g.lines = kMixLines;
  g.accesses = kMixAccesses;
  g.write_ratio = 0.3;
  u64 sm = seed;
  auto compact = [](const trace::Trace& trc) {
    Ops ops;
    ops.reserve(trc.size());
    for (const auto& r : trc) ops.push_back(static_cast<u32>(r.addr << 1) | (r.is_write ? 1u : 0u));
    return ops;
  };
  std::vector<Ops> out;
  g.seed = splitmix64(sm);
  out.push_back(compact(trace::make_zipf(g, 0.99)));
  g.seed = splitmix64(sm);
  out.push_back(compact(trace::make_hotspot(g, 0.05, 0.9)));
  g.seed = splitmix64(sm);
  out.push_back(compact(trace::make_uniform(g)));
  g.seed = splitmix64(sm);
  out.push_back(compact(trace::make_sequential(g)));
  return out;
}

wl::SchemeSpec mix_spec(wl::SchemeKind kind, u64 seed) {
  wl::SchemeSpec s;
  s.kind = kind;
  s.lines = kMixLines;
  s.regions = kMixLines / 128;
  s.inner_interval = 64;
  s.outer_interval = 128;
  s.stages = 7;
  s.seed = seed;
  return s;
}

pcm::PcmConfig mix_pcm() { return pcm::PcmConfig::scaled(kMixLines, u64{1} << 40); }

/// The first read (in replay order) of a line an earlier block wrote:
/// corrupting its translation must surface as a token mismatch.
La first_checked_read(const Ops& ops) {
  std::vector<bool> written(kMixLines, false);
  for (std::size_t w = 0; w < ops.size(); w += kMixWindow) {
    const std::size_t end = std::min(ops.size(), w + kMixWindow);
    for (std::size_t i = w; i < end; ++i) {
      if ((ops[i] & 1) == 0 && written[ops[i] >> 1]) return La{ops[i] >> 1};
    }
    for (std::size_t i = w; i < end; ++i) {
      if (ops[i] & 1) written[ops[i] >> 1] = true;
    }
  }
  throw CheckFailure("trace_mix: no read follows a write");
}

struct MixTimers {
  double write_s{0}, read_s{0};
  u64 writes{0}, reads{0};
};

/// Replays the traces against one fresh controller. Each window of
/// kMixWindow records issues its writes as one write_batch block with
/// its own token, then its reads; every read is checked against the
/// shadow map of the last token written to that logical line.
void replay(ctl::MemoryController& mc, std::span<const Ops> traces, u64 laps, u64 token_seed,
            Pass& p, Fnv& f, MixTimers* timers) {
  std::vector<u32> shadow(kMixLines, 0);  // 32-bit tokens keep the map small
  std::vector<La> block;
  block.reserve(kMixWindow);
  u64 sm = token_seed;
  for (u64 lap = 0; lap < laps; ++lap) {
    for (const auto& ops : traces) {
      for (std::size_t w = 0; w < ops.size(); w += kMixWindow) {
        const std::size_t end = std::min(ops.size(), w + kMixWindow);
        block.clear();
        for (std::size_t i = w; i < end; ++i) {
          if (ops[i] & 1) block.push_back(La{ops[i] >> 1});
        }
        if (!block.empty()) {
          const u32 token = static_cast<u32>(splitmix64(sm)) | 1;
          const auto t0 = timers ? Clock::now() : Clock::time_point{};
          const auto out = mc.write_batch(block, pcm::LineData::mixed(token));
          if (timers) {
            timers->write_s += since(t0);
            timers->writes += block.size();
          }
          check(out.writes_applied == block.size(), "trace_mix: a write block failed");
          for (const La la : block) shadow[la.value()] = token;
          p.sim_ops += block.size();
        }
        const auto t0 = timers ? Clock::now() : Clock::time_point{};
        u64 reads = 0;
        for (std::size_t i = w; i < end; ++i) {
          if (ops[i] & 1) continue;
          const u32 addr = ops[i] >> 1;
          const auto [data, ns] = mc.read(La{addr});
          ++reads;
          ++p.attempted;
          if (data.token != shadow[addr]) ++p.failed;
        }
        if (timers) {
          timers->read_s += since(t0);
          timers->reads += reads;
        }
        p.sim_ops += reads;
      }
    }
  }
  f.add(mc.now().value());
  f.add(mc.bank().total_writes());
  const auto wear = compute_wear_metrics(mc.bank().wear_counts());
  f.add(wear.gini);
  f.add(wear.max);
}

void add_ipc(Fnv& f, const std::vector<perf::IpcComparison>& results) {
  for (const auto& r : results) {
    f.add(r.ipc_baseline);
    f.add(r.ipc_scheme);
  }
}

std::vector<perf::IpcComparison> ipc_suite(u64 seed, u64 instructions) {
  const auto spec = mix_spec(wl::SchemeKind::kSecurityRbsg, seed);
  const perf::CoreParams core;
  auto out = perf::run_ipc_suite(trace::parsec_profiles(), spec, mix_pcm(), core, Ns{10},
                                 instructions, seed);
  const auto spec2006 = perf::run_ipc_suite(trace::spec2006_profiles(), spec, mix_pcm(), core,
                                            Ns{10}, instructions, seed);
  out.insert(out.end(), spec2006.begin(), spec2006.end());
  return out;
}

/// One trace_mix pass over pre-generated traces. With `m` set the pass is
/// the traced one: per-scheme controller timings, trace generation and
/// IPC-suite time land in the ledger.
Pass mix_pass(u64 seed, std::span<const Ops> traces, const MixSize& size,
              std::optional<La> corrupt, Metrics* m) {
  Pass p;
  Fnv f;
  for (const auto kind : kMixSchemes) {
    auto scheme = wl::make_scheme(mix_spec(kind, seed));
    if (corrupt) {
      scheme = std::make_unique<ProbeLeveler>(std::move(scheme), nullptr, corrupt);
      corrupt.reset();  // one translation, in the first scheme only
    }
    ctl::MemoryController mc(mix_pcm(), std::move(scheme));
    MixTimers timers;
    replay(mc, traces, size.laps, seed ^ static_cast<u64>(kind), p, f, m ? &timers : nullptr);
    if (m) {
      const std::string name(wl::to_string(kind));
      m->put("controller.write_batch_ns." + name,
             1e9 * timers.write_s / static_cast<double>(std::max<u64>(timers.writes, 1)), "ns");
      m->put("controller.read_ns." + name,
             1e9 * timers.read_s / static_cast<double>(std::max<u64>(timers.reads, 1)), "ns");
    }
  }
  const auto t0 = Clock::now();
  add_ipc(f, ipc_suite(seed, size.ipc_instructions));
  if (m) m->put("perf.ipc_suite_s", since(t0), "s");
  p.digest = f.h;
  return p;
}

// --- per-layer microbenchmarks ----------------------------------------

volatile u64 g_sink = 0;  // keeps benchmarked results observable

/// Median ns per call of `op` over `reps` sweeps of `n` calls.
template <class Op>
double ns_per_op(u64 n, int reps, Op&& op) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    u64 acc = 0;
    const auto t0 = Clock::now();
    for (u64 i = 0; i < n; ++i) acc += op(i);
    per.push_back(1e9 * since(t0) / static_cast<double>(n));
    g_sink = g_sink + acc;
  }
  return median(per);
}

/// FeistelNetwork::map/unmap over a fixed input stream (a Weyl sequence
/// folded into the domain): w11 is odd and cycle-walks, w12 is even, w16
/// is trace_mix's width.
void mapping_ledger(u64 seed, Metrics& m) {
  auto network = [&](u32 width, u32 stages) {
    Rng rng(seed ^ (u64{width} << 8) ^ stages);
    return mapping::FeistelNetwork(width, mapping::FeistelNetwork::random_keys(width, stages, rng));
  };
  constexpr u64 kCalls = u64{1} << 18;
  auto input = [](u64 i, u32 width) { return (i * 0x9e3779b97f4a7c15ULL) >> (64 - width); };
  auto map_ns = [&](u32 width, u32 stages) {
    const auto net = network(width, stages);
    return ns_per_op(kCalls, 5, [&](u64 i) { return net.map(input(i, width)); });
  };
  m.put("mapping.map_ns.w11_s3", map_ns(11, 3), "ns");
  m.put("mapping.map_ns.w11_s7", map_ns(11, 7), "ns");
  m.put("mapping.map_ns.w11_s20", map_ns(11, 20), "ns");
  const auto net = network(11, 7);
  m.put("mapping.unmap_ns.w11_s7",
        ns_per_op(kCalls, 5, [&](u64 i) { return net.unmap(input(i, 11)); }), "ns");
  m.put("mapping.map_ns.w12_s7", map_ns(12, 7), "ns");
  m.put("mapping.map_ns.w16_s7", map_ns(16, 7), "ns");
}

/// PcmBank write/read/bulk_write at trace_mix's bank size over a
/// pseudo-random physical-line stream.
void pcm_ledger(Metrics& m) {
  pcm::PcmBank bank(mix_pcm(), kMixLines);
  constexpr u64 kCalls = u64{1} << 20;
  auto line = [](u64 i) { return Pa{(i * 0x9e3779b97f4a7c15ULL) >> 48}; };
  m.put("pcm.write_ns", ns_per_op(kCalls, 5, [&](u64 i) {
          return bank.write(line(i), pcm::LineData::mixed(i)).value();
        }), "ns");
  m.put("pcm.read_ns", ns_per_op(kCalls, 5, [&](u64 i) {
          return bank.read(line(i)).first.token;
        }), "ns");
  m.put("pcm.bulk_write_ns", ns_per_op(kCalls, 5, [&](u64 i) {
          return bank.bulk_write(line(i), pcm::LineData::mixed(i), 64).value();
        }), "ns");
}

/// Reduced traced stages grid for runs whose own workload does not drive
/// the scheme/attack layers: stages {3, 7, 20} × {RAA, BPA}.
void stages_ledger(u64 seed, Metrics& m) {
  constexpr u32 kCounts[] = {3, 7, 20};
  const auto grid = stage_grid(seed, kCounts, 1);
  sim::WorkerArena arena;
  (void)stages_traced(grid, arena, m);
}

/// mix_traces, timed as trace.gen_s.
std::vector<Ops> timed_mix_traces(u64 seed, Metrics& m) {
  const auto t0 = Clock::now();
  auto traces = mix_traces(seed);
  m.put("trace.gen_s", since(t0), "s");
  return traces;
}

/// Reduced traced trace_mix for runs that do not replay traces.
void mix_ledger(u64 seed, Metrics& m) {
  (void)mix_pass(seed, timed_mix_traces(seed, m), kMixLedger, std::nullopt, &m);
}

// --- driver ------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed{1};
  double seconds{10};
  bool trace{false};
  bool inject_translate{false};
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload stages_epoch|trace_mix|ledger [--seed N]\n"
            << "                        [--seconds S] [--trace 0|1] [--inject-fault translate]\n"
            << "       perfbench_driver --launch PROG [ARGS...]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || o.seconds <= 0) usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
    } else if (a == "--inject-fault") {
      if (v != "translate") usage("bad --inject-fault");
      o.inject_translate = true;
    } else {
      usage("unknown flag");
    }
  }
  if (o.workload != "stages_epoch" && o.workload != "trace_mix" && o.workload != "ledger") {
    usage("unknown workload");
  }
  return o;
}

/// An in-process workload: `setup` does everything up to the first
/// simulated write, `pass` runs one timed pass, `traced` runs the traced
/// pass and fills its part of the ledger.
struct Workload {
  std::function<void()> setup;
  std::function<Pass()> pass;
  std::function<Pass(Metrics&)> traced;
  std::function<void(Metrics&)> rest_of_ledger;
};

void print_result(bool correct, const Pass& total, u64 digest, const Metrics& m) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << total.attempted << ", \"failed\": " << total.failed << ", \"digest\": \""
            << hex(digest) << "\", \"metrics\": " << m.json() << "}\n";
}

/// Median host seconds of one set-up, repeated for at least a second and
/// 21 times: host speed shifts between modes within seconds, and a short
/// burst of repetitions would sample only one of them.
double median_setup(const Workload& w) {
  std::vector<double> reps;
  const auto t_all = Clock::now();
  while (reps.size() < 21 || since(t_all) < 1.0) {
    const auto t0 = Clock::now();
    w.setup();
    reps.push_back(since(t0));
  }
  return median(reps);
}

int run_untraced(const Options& o, const Workload& w) {
  const double setup_s = median_setup(w);
  std::vector<double> walls, cpus;
  Pass total;
  u64 digest = 0;
  bool consistent = true;
  const auto t_run = Clock::now();
  for (;;) {
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const Pass p = w.pass();
    walls.push_back(since(t0));
    cpus.push_back(cpu_seconds() - c0);
    if (walls.size() == 1) digest = p.digest;
    consistent = consistent && p.digest == digest;
    total.attempted += p.attempted;
    total.failed += p.failed;
    total.sim_ops += p.sim_ops;
    // Start another pass only if it would end near --seconds.
    const double elapsed = since(t_run);
    if (elapsed + 0.5 * elapsed / static_cast<double>(walls.size()) >= o.seconds) break;
  }

  std::cerr << "perfbench_driver: pass walls";
  for (const double wall : walls) std::cerr << " " << wall;
  std::cerr << "\n";
  const double passes = static_cast<double>(walls.size());
  Metrics m;
  m.put("wall_s", median(walls), "s");
  m.put("cpu_s", median(cpus), "s");
  m.put("setup_s", setup_s, "s");
  m.put("peak_rss_mb", peak_rss_mb(), "MB");
  m.put("sim_ops_per_s", static_cast<double>(total.sim_ops) / passes / median(walls), "1/s");
  m.put("ok_frac",
        static_cast<double>(total.attempted - total.failed) /
            static_cast<double>(std::max<u64>(total.attempted, 1)),
        "fraction");
  print_result(consistent && total.failed == 0, total, digest, m);
  return 0;
}

int run_traced(const Workload& w) {
  auto t0 = Clock::now();
  const Pass untraced = w.pass();
  const double wall_untraced = since(t0);

  Metrics m;
  t0 = Clock::now();
  const Pass traced = w.traced(m);
  const double wall_traced = since(t0);
  m.put("telemetry.overhead_frac", wall_traced / wall_untraced - 1.0, "fraction");
  w.rest_of_ledger(m);

  const bool identical = traced.digest == untraced.digest;
  print_result(identical && traced.failed == 0, traced, traced.digest, m);
  if (!identical) {
    std::cerr << "perfbench_driver: traced digest " << hex(traced.digest)
              << " differs from untraced " << hex(untraced.digest) << "\n";
    return 1;
  }
  return 0;
}

int launch(char** argv) {
  const auto t0 = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv, environ) != 0) {
    std::cerr << "perfbench_driver: cannot spawn " << argv[0] << "\n";
    return 127;
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return 127;
  std::fprintf(stderr, "perfbench-rusage %.9f %.6f %ld\n", since(t0), cpu_of(ru), ru.ru_maxrss);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc > 2 && std::string_view(argv[1]) == "--launch") return launch(argv + 2);
  const Options o = parse(argc, argv);
  const u64 seed = o.seed;
  if (o.workload == "ledger") {
    Metrics m;
    mapping_ledger(seed, m);
    pcm_ledger(m);
    stages_ledger(seed, m);
    mix_ledger(seed, m);
    print_result(true, Pass{1, 0, 0, 0}, 0, m);
    return 0;
  }

  Workload w;
  sim::WorkerArena arena;
  std::vector<sim::LifetimeConfig> grid;
  std::vector<Ops> traces;
  std::optional<La> corrupt;
  if (o.workload == "stages_epoch") {
    w.setup = [&] { stages_setup(seed); };
    grid = stage_grid(seed, kStageCounts, kStageReplicas);
    w.pass = [&] { return stages_pass(grid, arena); };
    w.traced = [&](Metrics& m) { return stages_traced(grid, arena, m); };
    w.rest_of_ledger = [&](Metrics& m) {
      mapping_ledger(seed, m);
      pcm_ledger(m);
      mix_ledger(seed, m);
    };
  } else {
    w.setup = [&] {
      traces = mix_traces(seed);
      for (const auto kind : kMixSchemes) {
        ctl::MemoryController mc(mix_pcm(), wl::make_scheme(mix_spec(kind, seed)));
      }
    };
    w.setup();
    if (o.inject_translate) corrupt = first_checked_read(traces.front());
    w.pass = [&] { return mix_pass(seed, traces, kMixFull, corrupt, nullptr); };
    w.traced = [&](Metrics& m) { return mix_pass(seed, traces, kMixFull, corrupt, &m); };
    w.rest_of_ledger = [&](Metrics& m) {
      (void)timed_mix_traces(seed, m);
      mapping_ledger(seed, m);
      pcm_ledger(m);
      stages_ledger(seed, m);
    };
  }
  return o.trace ? run_traced(w) : run_untraced(o, w);
} catch (const std::exception& e) {
  std::cerr << "perfbench_driver: " << e.what() << "\n";
  return 1;
}
