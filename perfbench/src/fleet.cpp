// Workload `fleet`: the fleet serving drill on a hand-built library.
//
// simulate_fleet over 8 devices in 2 correlated failure domains, two
// tenants (a latency-SLO interactive tenant and a diurnal batch tenant),
// capacity-safe staggered reconfiguration, and device + domain faults on —
// the drill of bench/bench_fleet.cpp, offered ~70% of warm capacity, run for
// 900 simulated seconds (~2.5M requests, longer than bench_fleet's
// 1M-request episode), on four episode seeds derived from the run seed. The library is the same two-bitstream table
// bench_fleet builds by hand, so no training numerics reach this workload.

#include "common/rng.hpp"
#include "edge/fleet.hpp"
#include "edge/workload.hpp"
#include "harness.hpp"
#include "runtime/manager.hpp"

namespace perfbench {

namespace {

using namespace adapex;

constexpr double kDurationS = 900.0;
constexpr int kDevices = 8;
constexpr int kEpisodes = 4;

LibraryEntry entry(int accel, int rate, int ct, double acc, double ips,
                   double lat_ms, double power_w, double e_j) {
  LibraryEntry e;
  e.accel_id = accel;
  e.variant = ModelVariant::kNotPrunedExits;
  e.prune_rate_pct = rate;
  e.conf_threshold_pct = ct;
  e.accuracy = acc;
  e.exit_fractions = {0.5, 0.5};
  e.ips = ips;
  e.latency_ms = lat_ms;
  e.peak_power_w = power_w;
  e.energy_per_inf_j = e_j;
  return e;
}

/// bench_fleet's library: two bitstreams with a 4x throughput spread
/// between the accurate point and the pruned + CT-adapted one.
Library fleet_library() {
  Library lib;
  lib.dataset = "fleet-bench";
  lib.reference_accuracy = 0.90;
  lib.static_power_w = 0.7;
  for (int id = 0; id < 2; ++id) {
    AcceleratorRecord a;
    a.id = id;
    a.variant = ModelVariant::kNotPrunedExits;
    a.prune_rate_pct = id * 50;
    a.reconfig_ms = 145.0;
    lib.accelerators.push_back(a);
  }
  lib.entries = {entry(0, 0, 50, 0.88, 120, 5.0, 1.35, 0.005),
                 entry(0, 0, 5, 0.84, 200, 3.0, 1.30, 0.004),
                 entry(1, 50, 50, 0.82, 350, 1.8, 1.20, 0.002),
                 entry(1, 50, 5, 0.78, 500, 1.2, 1.18, 0.0015)};
  return lib;
}

FleetScenario drill(std::uint64_t seed) {
  FleetScenario f;
  f.base.seed = seed;
  f.base.duration_s = kDurationS;
  f.base.faults.stall_prob = 0.02;
  f.base.faults.stall_duration_s = 0.5;
  f.base.faults.reconfig_fail_prob = 0.02;
  f.base.faults.seu_weight_prob = 0.005;
  for (int i = 0; i < kDevices; ++i) {
    FleetDeviceSpec d;
    d.name = "dev" + std::to_string(i);
    d.domain = i % 2;
    f.devices.push_back(std::move(d));
  }
  for (const char* name : {"rack0", "rack1"}) {
    FailureDomain dom;
    dom.name = name;
    dom.spike_prob = 0.25;
    dom.spike_duration_s = 3.0;
    dom.transient_mult = 6.0;
    dom.seu_mult = 4.0;
    f.fleet_faults.domains.push_back(dom);
  }
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.workload.base_ips = kDevices * 350.0 * 0.6;
  interactive.workload.duration_s = kDurationS;
  interactive.workload.deviation = 0.4;
  interactive.slo_latency_ms = 250.0;
  interactive.priority = 1;
  TenantSpec batch;
  batch.name = "batch";
  batch.workload.base_ips = kDevices * 350.0 * 0.4;
  batch.workload.duration_s = kDurationS;
  batch.workload.pattern = WorkloadPattern::kDiurnal;
  batch.priority = 0;
  f.tenants = {interactive, batch};
  f.breaker.open_after_failures = 3;
  f.stagger.enabled = true;
  f.stagger.min_capacity_fraction = 0.70;
  f.stagger.max_defer_s = 1e9;
  return f;
}

const RuntimePolicy kPolicy{AdaptPolicy::kAdaPEx, 0.10};

struct FleetInputs {
  Library lib;
  /// One drill per episode seed (derived from the run seed).
  std::vector<FleetScenario> scenarios;
};

std::vector<WorkloadSpec> tenant_workloads(const FleetScenario& f) {
  std::vector<WorkloadSpec> out;
  for (const TenantSpec& t : f.tenants) {
    WorkloadSpec w = t.workload;
    w.duration_s = f.base.duration_s;  // simulate_fleet forces this too
    out.push_back(w);
  }
  return out;
}

/// Library and validated scenarios, plus a 60-simulated-second warm-up
/// episode so allocator and cache state are settled before timing.
FleetInputs make_inputs(std::uint64_t seed) {
  FleetInputs in;
  in.lib = fleet_library();
  for (int k = 0; k < kEpisodes; ++k) {
    in.scenarios.push_back(drill(derive_seed(seed, 0xF1EE7, k)));
    require_valid_fleet_scenario(in.scenarios.back(), in.lib);
  }
  FleetScenario warm = in.scenarios.front();
  warm.base.duration_s = 60.0;
  for (TenantSpec& t : warm.tenants) t.workload.duration_s = 60.0;
  (void)simulate_fleet(in.lib, kPolicy, warm);
  return in;
}

struct Episode {
  std::string json;
  FleetMetrics metrics;
};

}  // namespace

Result run_fleet(const Options& opt) {
  Result r;
  FleetInputs in;
  // Set-up takes tens of milliseconds, so it is repeated for >= 1 s and
  // reported as a median.
  r.add_samples("setup_s", "s", timed_setups(5, 1.0, in, [&] {
                  return make_inputs(opt.seed);
                }));

  // Episodes cycle over the run's drills until the window closes, each
  // followed by its arrival trace generated alone (the episode's input
  // half, whose length is the offered load the conservation check
  // expects). The simulated metrics pool the first pass over all drills
  // (the seed-to-seed spread of one 900 s episode is a few percent).
  std::vector<double> eps, wall, wall_first_drill, arrivals_s;
  std::vector<Episode> first(in.scenarios.size());
  bool identical = true, offered_matches = true;
  const double window = opt.trace ? std::min(opt.seconds, 2.0) : opt.seconds;
  const double start = now_s();
  for (std::size_t i = 0; i < first.size() || elapsed_since(start) < window;
       ++i) {
    const std::size_t k = i % first.size();
    const FleetScenario& sc = in.scenarios[k];
    double t0 = now_s();
    FleetMetrics run = simulate_fleet(in.lib, kPolicy, sc);
    const double dt = elapsed_since(t0);
    wall.push_back(dt);
    if (k == 0) wall_first_drill.push_back(dt);
    eps.push_back(static_cast<double>(run.events) / dt);
    t0 = now_s();
    const std::size_t arrivals =
        generate_fleet_arrivals(tenant_workloads(sc), sc.base.seed).size();
    arrivals_s.push_back(elapsed_since(t0));
    offered_matches =
        offered_matches && static_cast<std::size_t>(run.offered) == arrivals;
    std::string json = run.to_json().dump();
    if (first[k].json.empty()) {
      first[k] = {std::move(json), std::move(run)};
    } else {
      identical = identical && json == first[k].json;
    }
  }
  r.check("metrics_json_identical_across_runs", identical);
  r.check("offered_equals_arrival_trace", offered_matches);

  bool conserved = true;
  long offered = 0, served = 0, dropped = 0, shed = 0, events = 0;
  long slo_offered = 0, slo_missed = 0;
  double p50 = 0.0, p999 = 0.0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    const FleetMetrics& m = first[k].metrics;
    conserved = conserved && m.offered == m.served + m.dropped + m.shed;
    offered += m.offered;
    served += m.served;
    dropped += m.dropped;
    shed += m.shed;
    events += m.events;
    p50 += m.p50_latency_ms / static_cast<double>(first.size());
    p999 += m.p999_latency_ms / static_cast<double>(first.size());
    for (std::size_t t = 0; t < m.tenants.size(); ++t) {
      const TenantSpec& spec = in.scenarios[k].tenants[t];
      if (spec.slo_latency_ms <= 0.0 && spec.min_accuracy <= 0.0) continue;
      const TenantMetrics& tm = m.tenants[t];
      slo_offered += tm.offered;
      // A dropped or shed request misses its SLO too.
      slo_missed += tm.slo_latency_violations + tm.slo_accuracy_violations +
                    tm.dropped + tm.shed;
    }
  }
  r.check("offered_equals_served_dropped_shed", conserved);
  // Each episode is one operation; its dropped and shed requests are
  // modelled outcomes of the fault drill, reported as fleet_loss_pct.
  r.attempt(static_cast<long>(eps.size()), 0);

  Json& ctx = r.context();
  ctx["episodes"] = static_cast<std::int64_t>(first.size());
  ctx["offered"] = static_cast<std::int64_t>(offered);
  ctx["served"] = static_cast<std::int64_t>(served);
  ctx["dropped"] = static_cast<std::int64_t>(dropped);
  ctx["shed"] = static_cast<std::int64_t>(shed);
  ctx["events"] = static_cast<std::int64_t>(events);

  if (!opt.trace) {
    r.add_samples("op_s", "s", wall);
    r.add_samples("op2_s", "s", arrivals_s);
    r.add("quality_pct", "%",
          100.0 * static_cast<double>(served) / static_cast<double>(offered));
    r.add_samples("fleet_events_per_s", "events/s", eps);
    // Mean over the run's episodes of each episode's latency quantile.
    r.add("fleet_p50_latency_ms", "ms", p50);
    r.add("fleet_p999_latency_ms", "ms", p999);
    r.add("fleet_loss_pct", "%",
          100.0 * static_cast<double>(dropped + shed) /
              static_cast<double>(offered));
    r.add("fleet_slo_violation_pct", "%",
          100.0 * static_cast<double>(slo_missed) /
              static_cast<double>(slo_offered));
    return r;
  }

  // ---- traced run ----------------------------------------------------------
  r.add_samples("edge.arrivals_s", "s", arrivals_s);
  Tracer::set_enabled(true);

  // RuntimeManager::select over a sweep of offered rates spanning the
  // library's throughput range, reporting each proposal as completed.
  {
    ScopedSpan s("runtime.select");
    RuntimeManager manager(in.lib, kPolicy, opt.seed);
    const int calls = 200000;
    const double t0 = now_s();
    for (int i = 0; i < calls; ++i) {
      const double ips = 50.0 + (i % 100) * 5.0;
      const Decision d = manager.select(ips, i * 0.5);
      if (d.reconfigure) manager.complete_reconfig(true, i * 0.5);
    }
    r.add("runtime.select_ns", "ns", elapsed_since(t0) / calls * 1e9);
  }

  FleetMetrics traced;
  std::vector<double> traced_s;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan s("edge.simulate_fleet");
    const double t0 = now_s();
    traced = simulate_fleet(in.lib, kPolicy, in.scenarios.front());
    traced_s.push_back(elapsed_since(t0));
  }
  Tracer::set_enabled(false);
  Tracer::write_chrome_trace(opt.trace_path);
  r.add("edge.ns_per_event", "ns",
        median(traced_s) / static_cast<double>(traced.events) * 1e9);
  const bool replica_identical = traced.to_json().dump() == first.front().json;
  r.check("trace_replica_identical", replica_identical);
  r.add("trace.replica_identical", "bool", replica_identical ? 1.0 : 0.0);
  const double untraced_s = median(wall_first_drill);
  r.add("trace.overhead_pct", "%",
        (median(traced_s) - untraced_s) / untraced_s * 100.0);
  r.add("fleet.events", "count", static_cast<double>(traced.events));
  r.add("fleet.requests", "count", static_cast<double>(traced.offered));
  r.add("fleet.failovers", "count", static_cast<double>(traced.failovers));
  r.add("fleet.stagger_deferrals", "count",
        static_cast<double>(traced.stagger_deferrals));
  r.add("fleet.breaker_opens", "count", static_cast<double>(traced.breaker_opens));
  r.add("fleet.domain_spikes", "count", static_cast<double>(traced.domain_spikes));
  return r;
}

}  // namespace perfbench
