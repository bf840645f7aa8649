/**
 * @file
 * sfbench: the layered host-performance benchmark of the String
 * Figure simulator (perfbench/README.md has the workload rationales
 * and the layer -> metric -> workload table).
 *
 * One invocation runs one workload for a host-time budget. Set-up
 * (topology, reconfiguration-schedule and trace builds) is repeated
 * and timed on its own. Then whole passes of the workload's
 * simulations run back to back, a closed loop with one client, until
 * the budget is spent. Every simulated statistic is checked against
 * the recorded reference for the seed, or against the first pass.
 * The last stdout line is one JSON object holding the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1).
 *
 * The benchmark reaches the simulator only through its public
 * functions and times those calls from outside. Every timing is host
 * time; simulated quantities are work counts and checks, never speed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/route_cache.hpp"
#include "core/routing_policy.hpp"
#include "core/string_figure.hpp"
#include "exp/json.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/scheduler.hpp"
#include "net/rng.hpp"
#include "sim/reconfig_schedule.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "topos/factory.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace sf;
using exp::Json;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Host seconds since program start. */
double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/** Linear-interpolated quantile (numpy's default); 0 for no data. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a 64 of @p text as 16 hex digits. */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Keeps timed loops from being optimised away. */
volatile std::uint64_t g_sink = 0;

/**
 * Generation seed of the simulated String Figure networks. The
 * network is the system under test, so it stays fixed; the workload
 * seed draws the traffic and the reconfiguration victims.
 */
constexpr std::uint64_t kNetworkSeed = exp::kBaseSeed;

// ------------------------------------------------------------ spans

/** One traced interval around a public call the benchmark made. */
struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/**
 * In-memory span recorder; every call is a no-op while `on` is
 * false. Spans opened on the main thread nest through a stack. Sweep
 * runs finish on scheduler workers and arrive through add() with an
 * explicit parent. Spans are written out once, when the run ends.
 */
class Tracer
{
  public:
    bool on = false;

    int
    open(std::string name, std::string layer)
    {
        if (!on)
            return -1;
        std::lock_guard lock(mutex_);
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({std::move(name), std::move(layer), nowS(),
                          0.0, stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        std::lock_guard lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = nowS();
        stack_.pop_back();
    }

    void
    add(Span span)
    {
        if (!on)
            return;
        std::lock_guard lock(mutex_);
        spans_.push_back(std::move(span));
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name, std::string layer)
        : tracer_(tracer),
          id_(tracer.open(std::move(name), std::move(layer)))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * Self time by layer: each span's duration minus the part of its
 * interval that its direct children cover (children of a parallel
 * sweep overlap, so coverage is an interval union, not a sum).
 */
std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &k = kids[i];
        std::sort(k.begin(), k.end());
        double covered = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        bool open = false;
        for (auto [a, b] : k) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[s.layer] += (s.end - s.start) - covered;
    }
    return self;
}

void
writeSpans(const std::vector<Span> &spans, const std::string &dir,
           const std::string &traceId, const std::string &file)
{
    Json doc = Json::object();
    doc.set("trace_id", traceId);
    Json arr = Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Json s = Json::object();
        s.set("id", static_cast<std::int64_t>(i));
        s.set("parent", spans[i].parent);
        s.set("name", spans[i].name);
        s.set("layer", spans[i].layer);
        s.set("start_s", spans[i].start);
        s.set("end_s", spans[i].end);
        arr.push(std::move(s));
    }
    doc.set("spans", std::move(arr));
    std::filesystem::create_directories(dir);
    exp::writeFile(dir + "/" + file, doc.dump(1) + "\n");
}

// ----------------------------------------------------- pass records

/** Simulated work: the denominators of the rates. */
struct Work {
    std::uint64_t cycles = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t packets = 0;
    std::uint64_t escapes = 0;
    std::uint64_t drops = 0;
    std::uint64_t epochs = 0;

    void
    add(const sim::RunResult &r)
    {
        cycles += r.simulatedCycles;
        flitHops += r.flitHops;
        packets += r.measuredPackets;
        escapes += r.escapeTransfers;
        drops += r.droppedUnroutable;
        epochs += r.topologyEpochs;
    }
    void
    add(const Work &w)
    {
        cycles += w.cycles;
        flitHops += w.flitHops;
        packets += w.packets;
        escapes += w.escapes;
        drops += w.drops;
        epochs += w.epochs;
    }
};

/** Engine phase profile (SimConfig::profilePhases), summed. */
struct PhaseSums {
    double cycles = 0.0;
    double land = 0.0;
    double snapshot = 0.0;
    double route = 0.0;
    double decide = 0.0;
    double commit = 0.0;

    void
    add(const sim::RunResult &r)
    {
        cycles += static_cast<double>(r.phaseProfiledCycles);
        land += static_cast<double>(r.phaseLandNs);
        snapshot += static_cast<double>(r.phaseSnapshotNs);
        route += static_cast<double>(r.phaseRouteNs);
        decide += static_cast<double>(r.phaseDecideNs);
        commit += static_cast<double>(r.phaseCommitNs);
    }
    void
    add(const PhaseSums &p)
    {
        cycles += p.cycles;
        land += p.land;
        snapshot += p.snapshot;
        route += p.route;
        decide += p.decide;
        commit += p.commit;
    }
    double total() const
    {
        return land + snapshot + route + decide + commit;
    }
};

/** One simulation call, or one scheduled sweep run. */
struct Call {
    double ms = 0.0;
    bool countsWork = false;  ///< its work is in Pass::work
};

/** Simulated statistics checked as one unit. */
struct Check {
    Json stats = Json::object();
    std::size_t calls = 1;   ///< calls this entry vouches for
    std::size_t thrown = 0;  ///< of those, calls that threw
};

struct Pass {
    double wallS = 0.0;
    std::vector<Call> calls;
    std::vector<Check> checks;
    Work work;
    /** Wall of the part of the pass whose work is counted. */
    double workWallS = 0.0;
    PhaseSums phases;
    std::size_t jobs = 1;
    double reportMs = 0.0;
    std::vector<double> replayMs;
    std::uint64_t topoHits = 0;
    std::uint64_t topoMisses = 0;
};

struct SetupSample {
    double s = 0.0;
    double buildMs = 0.0;
    double planMs = 0.0;
    double traceMs = 0.0;
};

Json
statsOf(const sim::RunResult &r)
{
    Cycle blip = 0;
    for (const auto &ev : r.reconfigEvents)
        blip = std::max(blip, ev.blipP99);
    Json m = Json::object();
    m.set("cycles", static_cast<std::uint64_t>(r.simulatedCycles));
    m.set("packets", static_cast<std::uint64_t>(r.measuredPackets));
    m.set("flit_hops", static_cast<std::uint64_t>(r.flitHops));
    m.set("p50", static_cast<std::uint64_t>(r.p50Latency));
    m.set("p99", static_cast<std::uint64_t>(r.p99Latency));
    m.set("escapes", static_cast<std::uint64_t>(r.escapeTransfers));
    m.set("drops", static_cast<std::uint64_t>(r.droppedUnroutable));
    m.set("epochs", static_cast<std::uint64_t>(r.topologyEpochs));
    m.set("blip_p99", static_cast<std::uint64_t>(blip));
    m.set("saturated", r.saturated);
    return m;
}

/** Run one timed simulation call and record it in @p pass. */
template <typename Simulate>
void
timedCall(Pass &pass, Tracer &tracer, const std::string &span,
          Simulate &&simulate)
{
    Call call;
    Check check;
    const double t0 = nowS();
    try {
        Scope scope(tracer, span, "sim");
        const sim::RunResult r = simulate();
        check.stats = statsOf(r);
        pass.work.add(r);
        pass.phases.add(r);
        call.countsWork = true;
    } catch (const std::exception &e) {
        check.stats.set("error", e.what());
        check.thrown = 1;
    }
    call.ms = 1e3 * (nowS() - t0);
    pass.calls.push_back(call);
    pass.checks.push_back(std::move(check));
}

// -------------------------------------------------------- workloads

/** One benchmark workload: its set-up and one closed-loop pass. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs of the next pass (timed as set-up). */
    virtual SetupSample setup(Tracer &tracer) = 0;

    /** Run every simulation of the workload once. */
    virtual Pass pass(Tracer &tracer, bool profilePhases) = 0;

    /** True when a pass mutates its inputs, so every pass needs a
     *  fresh set-up (elastic runs gate their topology in place). */
    virtual bool consumesSetup() const { return false; }

    /** An unmodified topology for the route-layer probes. */
    virtual std::shared_ptr<const net::Topology> probeTopology() = 0;

    /** The traffic pattern of the route-layer probes. */
    virtual sim::TrafficPattern
    probePattern() const
    {
        return sim::TrafficPattern::UniformRandom;
    }

    /** Checks after the timed passes: (runs compared, bad). */
    virtual std::pair<std::size_t, std::size_t>
    offlineChecks()
    {
        return {0, 0};
    }
};

/** runSynthetic cells on one String Figure. */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(std::string name, std::size_t n,
                      std::uint64_t seed, sim::TrafficPattern pattern,
                      core::RoutingPolicyKind policy,
                      std::vector<double> rates)
        : name_(std::move(name)), n_(n), seed_(seed), pattern_(pattern),
          policy_(policy), rates_(std::move(rates))
    {
    }

    SetupSample
    setup(Tracer &tracer) override
    {
        const double t0 = nowS();
        {
            Scope scope(tracer, "topos.makeTopology", "topos");
            topo_ = topos::makeTopology(topos::TopoKind::SF, n_,
                                        kNetworkSeed);
        }
        SetupSample s;
        s.s = nowS() - t0;
        s.buildMs = 1e3 * s.s;
        return s;
    }

    Pass
    pass(Tracer &tracer, bool profilePhases) override
    {
        Pass p;
        Scope scope(tracer, "bench.pass", "bench");
        const double t0 = nowS();
        for (const double rate : rates_) {
            char id[32];
            std::snprintf(id, sizeof id, "r%.3f", rate);
            sim::SimConfig cfg;
            cfg.seed = exp::deriveSeed(name_, id, seed_);
            cfg.policy = policy_;
            cfg.profilePhases = profilePhases;
            timedCall(p, tracer, std::string("sim.runSynthetic/") + id,
                      [&] {
                          return sim::runSynthetic(
                              *topo_, pattern_, rate, cfg,
                              sim::RunPhases::latencyCurve());
                      });
        }
        p.wallS = nowS() - t0;
        p.workWallS = p.wallS;
        return p;
    }

    std::shared_ptr<const net::Topology>
    probeTopology() override
    {
        return topo_;
    }

    sim::TrafficPattern probePattern() const override { return pattern_; }

  private:
    std::string name_;
    std::size_t n_;
    std::uint64_t seed_;
    sim::TrafficPattern pattern_;
    core::RoutingPolicyKind policy_;
    std::vector<double> rates_;
    std::shared_ptr<const net::Topology> topo_;
};

/** runElastic under the cascade and fail schedules. */
class ElasticWorkload : public Workload
{
  public:
    ElasticWorkload(std::string name, std::size_t n, std::uint64_t seed,
                    bool tiny)
        : name_(std::move(name)), seed_(seed),
          phases_(tiny ? sim::RunPhases::openLoopQuick()
                       : sim::RunPhases::openLoop())
    {
        params_.numNodes = n;
        params_.routerPorts = topos::randomTopologyPorts(n);
        params_.seed = kNetworkSeed;
        arrivals_.process = sim::ArrivalProcess::SelfSimilar;
    }

    SetupSample
    setup(Tracer &tracer) override
    {
        SetupSample s;
        const double t0 = nowS();
        cells_.clear();
        for (const char *severity : {"cascade", "fail"}) {
            Cell cell;
            cell.severity = severity;
            cell.seed = exp::deriveSeed(name_, severity, seed_);
            const double b0 = nowS();
            {
                Scope scope(tracer, "core.StringFigure", "core");
                cell.topo = std::make_unique<core::StringFigure>(params_);
            }
            const double p0 = nowS();
            {
                Scope scope(tracer, "sim.planReconfigSchedule", "sim");
                cell.schedule = sim::planReconfigSchedule(
                    severity, params_, phases_.warmup, phases_.measure,
                    cell.seed);
            }
            s.buildMs += 1e3 * (p0 - b0);
            s.planMs += 1e3 * (nowS() - p0);
            cells_.push_back(std::move(cell));
        }
        s.s = nowS() - t0;
        return s;
    }

    Pass
    pass(Tracer &tracer, bool profilePhases) override
    {
        Pass p;
        Scope scope(tracer, "bench.pass", "bench");
        const double t0 = nowS();
        for (Cell &cell : cells_) {
            sim::SimConfig cfg;
            cfg.seed = cell.seed;
            cfg.profilePhases = profilePhases;
            timedCall(p, tracer, "sim.runElastic/" + cell.severity, [&] {
                return sim::runElastic(*cell.topo,
                                       sim::TrafficPattern::UniformRandom,
                                       arrivals_, kRate, cell.schedule,
                                       cfg, phases_);
            });
        }
        p.wallS = nowS() - t0;
        p.workWallS = p.wallS;
        return p;
    }

    bool consumesSetup() const override { return true; }

    std::shared_ptr<const net::Topology>
    probeTopology() override
    {
        return std::make_shared<core::StringFigure>(params_);
    }

  private:
    static constexpr double kRate = 0.03;

    struct Cell {
        std::string severity;
        std::uint64_t seed = 0;
        std::unique_ptr<core::StringFigure> topo;
        sim::ReconfigSchedule schedule;
    };

    std::string name_;
    std::uint64_t seed_;
    sim::RunPhases phases_;
    core::SFParams params_;
    sim::ArrivalConfig arrivals_;
    std::vector<Cell> cells_;
};

/**
 * The quick `fig1*` grid (Fig 10 saturation searches, Fig 11 curves,
 * Fig 12 trace replays) through exp::runExperiment. The Fig 11 run
 * bodies are the registry's bodies re-stated so that they also keep
 * the RunResult's work counts; their report bytes are unchanged,
 * which the golden check proves on the n64 slice.
 *
 * The grid always runs at the paper seed (exp::kBaseSeed), which the
 * committed golden pins. The sweep's base seed regenerates every
 * topology, and across base seeds the slow tail of the grid, and so
 * run_ms_p90, moved by up to 40%.
 */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(bool tiny, int jobs, std::string goldenPath)
        : jobs_(jobs), goldenPath_(std::move(goldenPath))
    {
        for (const char *name : {"fig10_saturation",
                                 "fig11_latency_curves",
                                 "fig12_workloads"}) {
            const exp::ExperimentSpec *spec = exp::registry().find(name);
            if (!spec)
                throw std::runtime_error(
                    std::string("experiment not registered: ") + name);
            Experiment e;
            e.spec = *spec;
            exp::PlanContext ctx;
            ctx.effort = exp::Effort::Quick;
            ctx.baseSeed = exp::kBaseSeed;
            e.runs = spec->plan(ctx);
            if (tiny)
                std::erase_if(e.runs, [&](const exp::RunSpec &run) {
                    return !exp::globMatch(tinyFilter(e.spec.name),
                                           run.id);
                });
            if (e.spec.name == "fig11_latency_curves")
                instrumentCurves(e);
            e.layer =
                e.spec.name == "fig12_workloads" ? "workloads" : "sim";
            for (const exp::RunSpec &run : e.runs)
                collectInputs(run.params);
            exps_.push_back(std::move(e));
        }
    }

    SetupSample
    setup(Tracer &tracer) override
    {
        SetupSample s;
        const double t0 = nowS();
        topos::topologyCache().clear();
        for (const auto &[kind, n] : topoKeys_) {
            Scope scope(tracer, "topos.cachedTopology", "topos");
            topos::cachedTopology(kind, n, exp::kBaseSeed);
        }
        const double t1 = nowS();
        // The sweep's bodies take traces from wl::sharedTrace's
        // process-wide memo, which cannot be cleared: the first
        // set-up fills it, later ones time the same generation
        // without it.
        const bool fill = traces_.empty();
        for (const auto &[w, ops] : traceKeys_) {
            Scope scope(tracer, "workloads.generateTrace", "workloads");
            if (fill)
                traces_.push_back(wl::sharedTrace(w, exp::kBaseSeed, ops));
            else
                g_sink = g_sink +
                         wl::generateTrace(w, exp::kBaseSeed, ops).ops.size();
        }
        s.s = nowS() - t0;
        s.buildMs = 1e3 * (t1 - t0);
        s.traceMs = 1e3 * (nowS() - t1);
        return s;
    }

    Pass
    pass(Tracer &tracer, bool) override
    {
        Pass p;
        p.jobs = static_cast<std::size_t>(jobs_);
        Scope passScope(tracer, "bench.pass", "bench");
        const auto cacheBefore = topos::topologyCache().stats();
        const double t0 = nowS();
        std::vector<exp::ExperimentResults> results;
        for (Experiment &e : exps_) {
            exp::ExperimentResults er;
            er.spec = &e.spec;
            const double e0 = nowS();
            {
                Scope scope(tracer, "exp.runExperiment/" + e.spec.name,
                            "exp");
                er.runs = schedule(tracer, e, scope.id());
            }
            er.wallMs = 1e3 * (nowS() - e0);
            const bool curves = e.work != nullptr;
            for (const exp::RunResult &r : er.runs) {
                p.calls.push_back({r.wallMs, curves});
                if (e.layer == "workloads")
                    p.replayMs.push_back(r.wallMs);
            }
            if (curves) {
                p.workWallS = er.wallMs / 1e3;
                for (const Work &w : *e.work)
                    p.work.add(w);
            }
            results.push_back(std::move(er));
        }
        p.wallS = nowS() - t0;
        if (firstRuns_.empty())
            for (const exp::ExperimentResults &er : results)
                firstRuns_[er.spec->name] = er.runs;
        const auto cacheAfter = topos::topologyCache().stats();
        p.topoHits = cacheAfter.hits - cacheBefore.hits;
        p.topoMisses = cacheAfter.misses - cacheBefore.misses;

        // The checked statistics of a sweep: a digest of the report
        // each experiment would write.
        const double r0 = nowS();
        for (const exp::ExperimentResults &er : results) {
            Check check;
            check.calls = er.runs.size();
            for (const exp::RunResult &r : er.runs)
                check.thrown += r.failed ? 1 : 0;
            std::string text;
            {
                Scope scope(tracer, "exp.buildReport", "exp");
                exp::ReportOptions ropts;
                ropts.effort = exp::Effort::Quick;
                ropts.baseSeed = exp::kBaseSeed;
                text = exp::buildReport({er}, ropts).dump(2);
            }
            check.stats.set("experiment", er.spec->name);
            check.stats.set("runs",
                            static_cast<std::uint64_t>(er.runs.size()));
            check.stats.set("digest", digest(text));
            p.checks.push_back(std::move(check));
        }
        p.reportMs = 1e3 * (nowS() - r0);
        Check work;
        work.calls = 0;
        work.stats.set("curve_cycles", p.work.cycles);
        work.stats.set("curve_flit_hops", p.work.flitHops);
        work.stats.set("curve_packets", p.work.packets);
        p.checks.push_back(std::move(work));
        return p;
    }

    std::shared_ptr<const net::Topology>
    probeTopology() override
    {
        return topos::cachedTopology(topos::TopoKind::SF, 256, exp::kBaseSeed);
    }

    /**
     * Compare the first pass's runs that the committed golden report
     * holds (the n64 slice of the quick grid) against it, run by run.
     * Read-only on the golden file.
     */
    std::pair<std::size_t, std::size_t>
    offlineChecks() override
    {
        if (goldenPath_.empty())
            return {0, 0};
        const Json golden = Json::parse(exp::readFile(goldenPath_));
        std::size_t compared = 0;
        std::size_t bad = 0;
        for (const Json &g : golden.at("experiments").asArray()) {
            std::map<std::string, const Json *> want;
            for (const Json &run : g.at("runs").asArray())
                want[run.at("id").asString()] = &run;
            for (const exp::RunResult &r :
                 firstRuns_[g.at("name").asString()]) {
                if (!want.count(r.id))
                    continue;
                const Json &w = *want.at(r.id);
                ++compared;
                if (r.failed || r.seed != w.at("seed").asUint() ||
                    r.params.dump() != w.at("params").dump() ||
                    r.metrics.dump() != w.at("metrics").dump()) {
                    ++bad;
                    std::fprintf(stderr,
                                 "sfbench: golden mismatch %s/%s: %s\n",
                                 g.at("name").asString().c_str(),
                                 r.id.c_str(),
                                 r.failed ? r.error.c_str()
                                          : r.metrics.dump().c_str());
                }
            }
        }
        return {compared, bad};
    }

  private:
    struct Experiment {
        exp::ExperimentSpec spec;
        std::vector<exp::RunSpec> runs;
        std::string layer;
        /** Per-run work slots of the instrumented Fig 11 bodies;
         *  each body writes only its own slot. */
        std::shared_ptr<std::vector<Work>> work;
    };

    static std::string
    tinyFilter(const std::string &name)
    {
        if (name == "fig10_saturation")
            return "*/n16/*";
        if (name == "fig11_latency_curves")
            return "n64/uniform/SF/*";
        return "redis/SF";
    }

    static topos::TopoKind
    kindOf(const std::string &name)
    {
        for (const topos::TopoKind k : topos::kAllKinds)
            if (topos::kindName(k) == name)
                return k;
        throw std::runtime_error("unknown design " + name);
    }

    static sim::TrafficPattern
    patternOf(const std::string &name)
    {
        for (const sim::TrafficPattern p : sim::kAllPatterns)
            if (sim::patternName(p) == name)
                return p;
        throw std::runtime_error("unknown pattern " + name);
    }

    void
    collectInputs(const Json &params)
    {
        const auto key = std::make_pair(
            kindOf(params.at("design").asString()),
            static_cast<std::size_t>(params.at("nodes").asUint()));
        if (std::find(topoKeys_.begin(), topoKeys_.end(), key) ==
            topoKeys_.end())
            topoKeys_.push_back(key);
        const Json *w = params.find("workload");
        if (!w)
            return;
        for (const wl::Workload kind : wl::kAllWorkloads) {
            if (wl::workloadName(kind) != w->asString())
                continue;
            const auto tk = std::make_pair(
                kind, static_cast<std::size_t>(
                          params.at("trace_ops").asUint()));
            if (std::find(traceKeys_.begin(), traceKeys_.end(), tk) ==
                traceKeys_.end())
                traceKeys_.push_back(tk);
        }
    }

    /** Swap each Fig 11 body for the registry's body
     *  (exp/experiments/traffic.cpp) that also keeps its work. */
    static void
    instrumentCurves(Experiment &e)
    {
        e.work = std::make_shared<std::vector<Work>>(e.runs.size());
        for (std::size_t i = 0; i < e.runs.size(); ++i) {
            const Json &pr = e.runs[i].params;
            const auto n = static_cast<std::size_t>(pr.at("nodes").asUint());
            const topos::TopoKind kind = kindOf(pr.at("design").asString());
            const sim::TrafficPattern pattern =
                patternOf(pr.at("pattern").asString());
            const double rate = pr.at("rate").asDouble();
            e.runs[i].body = [slots = e.work, i, n, kind, pattern,
                              rate](const exp::RunContext &rc) -> Json {
                const auto topo =
                    topos::cachedTopology(kind, n, rc.baseSeed);
                sim::SimConfig cfg;
                cfg.seed = rc.seed;
                cfg.shards = rc.shards;
                cfg.routeCache = rc.routeCache;
                cfg.wavefront = rc.wavefront;
                cfg.policy = rc.policy;
                const auto r = sim::runSynthetic(
                    *topo, pattern, rate, cfg,
                    sim::RunPhases::latencyCurve(), rc.executor);
                Work w;
                w.add(r);
                (*slots)[i] = w;
                Json m = Json::object();
                m.set("saturated", r.saturated);
                m.set("avg_latency", r.avgTotalLatency);
                m.set("network_latency", r.avgNetworkLatency);
                m.set("p50", static_cast<std::int64_t>(r.p50Latency));
                m.set("p99", static_cast<std::int64_t>(r.p99Latency));
                m.set("avg_hops", r.avgHops);
                m.set("accepted_load", r.acceptedLoad);
                return m;
            };
        }
    }

    std::vector<exp::RunResult>
    schedule(Tracer &tracer, Experiment &e, int parent)
    {
        exp::SchedulerOptions so;
        so.jobs = jobs_;
        so.effort = exp::Effort::Quick;
        if (tracer.on) {
            so.onRunDone = [&tracer, &e,
                            parent](std::size_t, std::size_t,
                                    const exp::RunResult &r) {
                const double end = nowS();
                tracer.add({"exp.run/" + e.spec.name + "/" + r.id,
                            e.layer, end - r.wallMs / 1e3, end, parent});
            };
        }
        return exp::runExperiment(e.spec, e.runs, so);
    }

    int jobs_;
    std::string goldenPath_;
    std::vector<Experiment> exps_;
    /** Runs of the first pass, by experiment (the golden check). */
    std::map<std::string, std::vector<exp::RunResult>> firstRuns_;
    std::vector<std::pair<topos::TopoKind, std::size_t>> topoKeys_;
    std::vector<std::pair<wl::Workload, std::size_t>> traceKeys_;
    std::vector<std::shared_ptr<const wl::Trace>> traces_;
};

// ------------------------------------------------ per-layer probes

/** One route decision: (current node, destination, first hop). */
struct Decision {
    NodeId at;
    NodeId dst;
    bool first;
};

/**
 * The decisions of @p packets packets drawn from @p pattern,
 * replayed along their routed paths (top candidate at every hop).
 */
std::vector<Decision>
routedDecisions(const net::Topology &topo, sim::TrafficPattern pattern,
                std::size_t packets, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t n = topo.numNodes();
    LinkId out[net::kMaxRouteCandidates];
    std::vector<Decision> d;
    for (std::size_t i = 0; i < packets; ++i) {
        const auto src = static_cast<NodeId>(rng.below(n));
        const NodeId dst = sim::trafficDestination(pattern, src, n, rng);
        NodeId at = src;
        for (std::size_t hop = 0; at != dst && hop < 4 * n; ++hop) {
            if (topo.routeCandidates(at, dst, hop == 0, out) == 0)
                break;  // the escape path, not a route decision
            d.push_back({at, dst, hop == 0});
            at = topo.graph().link(out[0]).dst;
        }
    }
    return d;
}

constexpr int kProbeReps = 5;

/** Median over repetitions of host ns per item of @p body. */
template <typename Body>
double
nsPerItem(std::size_t items, Body &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < kProbeReps; ++r) {
        const double t0 = nowS();
        g_sink = g_sink + body();
        ns.push_back(1e9 * (nowS() - t0) / static_cast<double>(items));
    }
    return median(std::move(ns));
}

struct RouteProbe {
    double greedyNs = 0.0;
    double ugalNs = 0.0;
    double cacheHitNs = 0.0;
    double cacheFillNs = 0.0;
    double cacheHitFrac = 0.0;
};

RouteProbe
probeRoutes(Tracer &tracer, const net::Topology &topo,
            sim::TrafficPattern pattern, std::size_t packets,
            std::uint64_t seed)
{
    RouteProbe out;
    const auto decisions = routedDecisions(topo, pattern, packets, seed);
    if (decisions.empty())
        return out;
    const std::size_t n = topo.numNodes();
    std::vector<Decision> distinct;
    {
        std::unordered_set<std::uint64_t> seen;
        for (const Decision &d : decisions)
            if (seen.insert((std::uint64_t{d.at} * n + d.dst) * 2 +
                            (d.first ? 1 : 0))
                    .second)
                distinct.push_back(d);
    }
    // The share of one call's decisions that a cache starting empty
    // serves from an already filled entry.
    out.cacheHitFrac = 1.0 - static_cast<double>(distinct.size()) /
                                 static_cast<double>(decisions.size());

    LinkId buf[net::kMaxRouteCandidates];
    {
        Scope scope(tracer, "net.Topology.routeCandidates", "net");
        out.greedyNs = nsPerItem(decisions.size(), [&] {
            std::uint64_t s = 0;
            for (const Decision &d : decisions)
                s += topo.routeCandidates(d.at, d.dst, d.first, buf);
            return s;
        });
    }
    {
        const auto policy =
            core::makeRoutingPolicy(core::RoutingPolicyKind::Ugal, topo);
        Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
        std::vector<std::uint32_t> queued(topo.graph().numLinks());
        for (auto &q : queued)
            q = static_cast<std::uint32_t>(rng.below(48));
        const core::CongestionSnapshot snapshot(queued);
        Scope scope(tracer, "core.RoutingPolicy.route", "core");
        out.ugalNs = nsPerItem(decisions.size(), [&] {
            std::uint64_t s = 0;
            for (const Decision &d : decisions)
                s += policy->route(d.at, d.dst, d.first, snapshot, buf);
            return s;
        });
    }
    {
        // Every key once into an empty cache (cold fills), then the
        // same keys again (warm hits).
        Scope scope(tracer, "core.RouteCache.candidates", "core");
        std::vector<double> fill;
        std::vector<double> hit;
        for (int r = 0; r < kProbeReps; ++r) {
            core::RouteCache cache(topo);
            for (std::vector<double> *v : {&fill, &hit}) {
                const double t0 = nowS();
                std::uint64_t s = 0;
                for (const Decision &d : distinct)
                    s += cache.candidates(d.at, d.dst, d.first, buf);
                g_sink = g_sink + s;
                v->push_back(1e9 * (nowS() - t0) /
                             static_cast<double>(distinct.size()));
            }
        }
        out.cacheFillNs = median(std::move(fill));
        out.cacheHitNs = median(std::move(hit));
    }
    return out;
}

struct ReconfigProbe {
    double planMs = 0.0;
    double gateUs = 0.0;
    double ungateUs = 0.0;
};

/** Replay a planned cascade schedule's gates and ungates. */
ReconfigProbe
probeReconfig(Tracer &tracer, std::size_t n, std::uint64_t seed)
{
    core::SFParams params;
    params.numNodes = n;
    params.routerPorts = topos::randomTopologyPorts(n);
    params.seed = kNetworkSeed;
    const sim::RunPhases phases = sim::RunPhases::openLoop();
    std::unique_ptr<core::StringFigure> topo;
    {
        Scope scope(tracer, "core.StringFigure", "core");
        topo = std::make_unique<core::StringFigure>(params);
    }
    ReconfigProbe out;
    sim::ReconfigSchedule schedule;
    {
        Scope scope(tracer, "sim.planReconfigSchedule", "sim");
        const double t0 = nowS();
        schedule = sim::planReconfigSchedule(
            "cascade", params, phases.warmup, phases.measure, seed);
        out.planMs = 1e3 * (nowS() - t0);
    }
    std::vector<double> gate;
    std::vector<double> ungate;
    Scope scope(tracer, "core.StringFigure.gate+ungate", "core");
    for (const sim::ReconfigEvent &ev : schedule.events) {
        if (ev.action == sim::ReconfigAction::Leave &&
            !topo->reconfig().canGate(ev.node))
            continue;
        const double t0 = nowS();
        if (ev.action == sim::ReconfigAction::Join) {
            topo->ungate(ev.node);
            ungate.push_back(1e6 * (nowS() - t0));
        } else {
            topo->gate(ev.node);
            gate.push_back(1e6 * (nowS() - t0));
        }
    }
    out.gateUs = median(std::move(gate));
    out.ungateUs = median(std::move(ungate));
    return out;
}

/** Host ns per OpenLoopSource::next() of the self-similar source. */
double
probeArrivals(Tracer &tracer, std::uint64_t seed)
{
    constexpr std::size_t kDraws = 200000;
    sim::ArrivalConfig cfg;
    cfg.process = sim::ArrivalProcess::SelfSimilar;
    Scope scope(tracer, "sim.OpenLoopSource.next", "sim");
    return nsPerItem(kDraws, [&] {
        sim::OpenLoopSource src(cfg, 0.03, seed);
        std::uint64_t s = 0;
        for (std::size_t i = 0; i < kDraws; ++i)
            s += src.next();
        return s;
    });
}

// ------------------------------------------------------------ main

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string reference;
    std::string record;
    std::string golden;
    std::string traceOut = ".bench_build/traces";
};

constexpr const char *kWorkloads[] = {
    "sf1024_latency_curve",
    "sf1024_ugal_tornado",
    "sf1024_elastic_selfsim",
    "fig1_quick_sweep",
};

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "sfbench: %s\n"
                 "usage: sfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "               [--scale full|tiny] [--reference FILE] "
                 "[--record FILE]\n"
                 "               [--golden FILE] [--trace-out DIR]\n"
                 "workloads:",
                 why.c_str());
    for (const char *w : kWorkloads)
        std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, "\n");
    return 2;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    const std::size_t n = o.tiny ? 64 : 1024;
    const std::string &w = o.workload;
    if (w == "sf1024_latency_curve")
        return std::make_unique<SyntheticWorkload>(
            w, n, o.seed, sim::TrafficPattern::UniformRandom,
            core::RoutingPolicyKind::Greedy,
            std::vector<double>{0.005, 0.01, 0.02, 0.03, 0.045, 0.06,
                                0.08, 0.10});
    // The UGAL ladder stops below the tornado knee: at 0.06 the drain
    // tail, and so the work per pass, varied ~20% with the seed.
    if (w == "sf1024_ugal_tornado")
        return std::make_unique<SyntheticWorkload>(
            w, n, o.seed, sim::TrafficPattern::Tornado,
            core::RoutingPolicyKind::Ugal,
            std::vector<double>{0.02, 0.04, 0.05});
    if (w == "sf1024_elastic_selfsim")
        return std::make_unique<ElasticWorkload>(w, n, o.seed, o.tiny);
    if (w == "fig1_quick_sweep") {
        const int hw = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
        return std::make_unique<SweepWorkload>(o.tiny, std::min(4, hw),
                                               o.golden);
    }
    return nullptr;
}

/** Parse a JSON file, or return null when there is none. */
Json
loadJsonIfPresent(const std::string &path)
{
    if (path.empty() || !std::filesystem::exists(path))
        return Json();
    return Json::parse(exp::readFile(path));
}

int
runBenchmark(const Options &o)
{
    std::unique_ptr<Workload> workload = makeWorkload(o);
    if (!workload)
        return usage("unknown workload '" + o.workload + "'");
    const std::string refKey =
        (o.tiny ? "tiny/" : "") + std::to_string(o.seed);
    const Json reference = loadJsonIfPresent(o.reference);
    const Json *expected = nullptr;
    if (reference.isObject())
        if (const Json *ws = reference.find("workloads"))
            if (const Json *w = ws->find(o.workload))
                expected = w->find(refKey);

    Tracer tracer;
    tracer.on = o.trace;

    // Set-up, repeated (at least 3 times and 0.25 s) so that its
    // median is steady; the last build feeds the first pass.
    std::vector<SetupSample> setups;
    const double s0 = nowS();
    do {
        setups.push_back(workload->setup(tracer));
    } while (setups.size() < 3 ||
             (nowS() - s0 < 0.25 && setups.size() < 50));

    // Closed loop: whole passes until the budget is spent. A traced
    // run spends the first half untraced (the overhead baseline) and
    // the second half traced, with the engine's phase profiler on.
    std::vector<Pass> plain;
    std::vector<Pass> traced;
    const double t0 = nowS();
    const double plainEnd = t0 + (o.trace ? o.seconds / 2 : o.seconds);
    bool fresh = true;
    auto nextPass = [&](bool withTrace) {
        if (!fresh)
            setups.push_back(workload->setup(tracer));
        fresh = !workload->consumesSetup();
        tracer.on = withTrace;
        Pass p = workload->pass(tracer, withTrace);
        std::fprintf(stderr, "sfbench: pass wall %.4f s\n", p.wallS);
        tracer.on = o.trace;
        return p;
    };
    // Start another pass only when a typical pass still fits the
    // budget, so every run ends close to it.
    auto fits = [&](const std::vector<Pass> &done, double end) {
        std::vector<double> w;
        for (const Pass &p : done)
            w.push_back(p.wallS);
        return nowS() + median(std::move(w)) <= end;
    };
    do {
        plain.push_back(nextPass(false));
    } while (fits(plain, plainEnd));
    if (o.trace) {
        do {
            traced.push_back(nextPass(true));
        } while (fits(traced, t0 + o.seconds));
    }

    // Correctness: every pass against the recorded reference or, for
    // a seed without one, against the first pass.
    Json firstStats = Json::array();
    for (const Check &c : plain.front().checks)
        firstStats.push(c.stats);
    const Json &want = expected ? *expected : firstStats;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatched = 0;
    for (const std::vector<Pass> *set : {&plain, &traced}) {
        for (const Pass &p : *set) {
            const bool shapeOk = want.isArray() &&
                                 want.asArray().size() == p.checks.size();
            for (std::size_t j = 0; j < p.checks.size(); ++j) {
                const Check &c = p.checks[j];
                const bool same =
                    shapeOk && want.asArray()[j].dump() == c.stats.dump();
                attempted += c.calls;
                failed += same ? c.thrown : c.calls;
                mismatched += same ? 0 : 1;
            }
        }
    }
    const auto [goldenRuns, goldenBad] = workload->offlineChecks();
    attempted += goldenRuns;
    failed += goldenBad;

    std::fprintf(stderr,
                 "sfbench: %s seed %llu: %zu set-ups, %zu passes (+%zu "
                 "traced), %zu calls, %zu failed; reference %s, %zu "
                 "entries differ; golden %zu/%zu runs match\n",
                 o.workload.c_str(),
                 static_cast<unsigned long long>(o.seed), setups.size(),
                 plain.size(), traced.size(), attempted, failed,
                 expected ? "recorded"
                          : "absent (checked against the first pass)",
                 mismatched, goldenRuns - goldenBad, goldenRuns);

    if (!o.record.empty()) {
        if (failed > 0)
            throw std::runtime_error(
                "refusing to record a reference from a failing run");
        Json doc = loadJsonIfPresent(o.record);
        if (!doc.isObject()) {
            doc = Json::object();
            doc.set("schema", "sfbench-reference-v1");
            doc.set("workloads", Json::object());
        }
        Json ws = doc.at("workloads");
        Json w = ws.find(o.workload) ? ws.at(o.workload) : Json::object();
        w.set(refKey, firstStats);
        ws.set(o.workload, std::move(w));
        doc.set("workloads", std::move(ws));
        exp::writeFile(o.record, doc.dump(1) + "\n");
    }

    // Each call's host time is its median across passes (every pass
    // makes the same calls in the same order), so the percentiles
    // rank the workload's calls, not one pass's noise.
    std::vector<double> callMs;
    for (std::size_t i = 0; i < plain.front().calls.size(); ++i) {
        std::vector<double> samples;
        for (const Pass &p : plain)
            if (i < p.calls.size())
                samples.push_back(p.calls[i].ms);
        callMs.push_back(median(std::move(samples)));
    }
    std::vector<double> walls;
    std::vector<double> cycleRates;
    std::vector<double> hopRates;
    std::vector<double> busy;
    std::vector<double> reportMs;
    std::vector<double> replayMs;
    double workCallMs = 0.0;
    double runMsMax = 0.0;
    Work totalWork;
    for (const Pass &p : plain) {
        walls.push_back(p.wallS);
        cycleRates.push_back(
            ratio(static_cast<double>(p.work.cycles), p.workWallS));
        hopRates.push_back(
            ratio(static_cast<double>(p.work.flitHops), p.workWallS));
        double sumMs = 0.0;
        for (const Call &c : p.calls) {
            sumMs += c.ms;
            runMsMax = std::max(runMsMax, c.ms);
            if (c.countsWork)
                workCallMs += c.ms;
        }
        busy.push_back(
            ratio(sumMs / 1e3, p.wallS * static_cast<double>(p.jobs)));
        reportMs.push_back(p.reportMs);
        replayMs.insert(replayMs.end(), p.replayMs.begin(),
                        p.replayMs.end());
        totalWork.add(p.work);
    }
    std::vector<double> setupS;
    std::vector<double> buildMs;
    std::vector<double> planMs;
    std::vector<double> traceMs;
    for (const SetupSample &s : setups) {
        setupS.push_back(s.s);
        buildMs.push_back(s.buildMs);
        planMs.push_back(s.planMs);
        traceMs.push_back(s.traceMs);
    }

    Json metrics = Json::object();
    auto put = [&](const std::string &name, double value,
                   const char *unit) {
        Json v = Json::object();
        v.set("value", value);
        v.set("unit", unit);
        metrics.set(name, std::move(v));
    };
    if (!o.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        put("wall_s", median(walls), "s");
        put("setup_s", median(setupS), "s");
        put("cycles_per_s", median(cycleRates), "1/s");
        put("flit_hops_per_s", median(hopRates), "1/s");
        put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
            "MB");
        put("run_ms_p50", quantile(callMs, 0.5), "ms");
        put("run_ms_p90", quantile(callMs, 0.9), "ms");
        put("ok_frac",
            ratio(static_cast<double>(attempted - failed),
                  static_cast<double>(attempted)),
            "frac");
    } else {
        PhaseSums ph;
        for (const Pass &p : traced)
            ph.add(p.phases);
        const auto topo = workload->probeTopology();
        if (ph.cycles == 0.0) {
            // The sweep cannot switch the profiler on inside its run
            // bodies: profile one mid-load Fig 11 cell instead.
            Scope scope(tracer, "sim.runSynthetic/phase-probe", "sim");
            sim::SimConfig cfg;
            cfg.seed = o.seed;
            cfg.profilePhases = true;
            ph.add(sim::runSynthetic(*topo,
                                     sim::TrafficPattern::UniformRandom,
                                     0.045, cfg,
                                     sim::RunPhases::latencyCurve()));
        }
        const Pass &first = plain.front();
        std::size_t workCalls = 0;
        for (const Call &c : first.calls)
            workCalls += c.countsWork ? 1 : 0;
        const std::size_t packetsPerCall = std::clamp<std::size_t>(
            workCalls ? first.work.packets / workCalls : 0, 2000, 50000);
        const RouteProbe rp =
            probeRoutes(tracer, *topo, workload->probePattern(),
                        packetsPerCall, o.seed);
        const ReconfigProbe rc =
            probeReconfig(tracer, topo->numNodes(), o.seed);
        const double arrivalNs = probeArrivals(tracer, o.seed);
        const double setupPlanMs = median(planMs);
        std::vector<double> tracedWalls;
        for (const Pass &p : traced)
            tracedWalls.push_back(p.wallS);

        const double cyc = ph.cycles;
        put("sim.engine.ns_per_cycle",
            ratio(1e6 * workCallMs, static_cast<double>(totalWork.cycles)),
            "ns");
        put("sim.engine.ns_per_flit_hop",
            ratio(1e6 * workCallMs,
                  static_cast<double>(totalWork.flitHops)),
            "ns");
        put("sim.phase.land_ns", ratio(ph.land, cyc), "ns");
        put("sim.phase.snapshot_ns", ratio(ph.snapshot, cyc), "ns");
        put("sim.phase.route_ns", ratio(ph.route, cyc), "ns");
        put("sim.phase.decide_ns", ratio(ph.decide, cyc), "ns");
        put("sim.phase.commit_ns", ratio(ph.commit, cyc), "ns");
        put("sim.phase.decide_frac", ratio(ph.decide, ph.total()), "frac");
        put("sim.phase.snapshot_route_frac",
            ratio(ph.snapshot + ph.route, ph.total()), "frac");
        put("core.route.greedy_ns", rp.greedyNs, "ns");
        put("core.route.ugal_ns", rp.ugalNs, "ns");
        put("core.route.cache_hit_ns", rp.cacheHitNs, "ns");
        put("core.route.cache_fill_ns", rp.cacheFillNs, "ns");
        put("core.route.cache_hit_frac", rp.cacheHitFrac, "frac");
        put("core.reconfig.gate_us", rc.gateUs, "us");
        put("core.reconfig.ungate_us", rc.ungateUs, "us");
        put("sim.traffic.arrival_ns", arrivalNs, "ns");
        put("sim.reconfig.plan_ms",
            setupPlanMs > 0.0 ? setupPlanMs : rc.planMs, "ms");
        put("topos.build_ms", median(buildMs), "ms");
        put("workloads.trace_gen_ms", median(traceMs), "ms");
        put("net.topo_cache.hits", static_cast<double>(first.topoHits),
            "count");
        put("net.topo_cache.misses",
            static_cast<double>(first.topoMisses), "count");
        put("workloads.replay_ms", median(replayMs), "ms");
        put("exp.busy_frac", median(busy), "frac");
        put("exp.run_ms_max", runMsMax, "ms");
        put("exp.report_ms", median(reportMs), "ms");
        put("sim.cycles", static_cast<double>(first.work.cycles), "count");
        put("sim.flit_hops", static_cast<double>(first.work.flitHops),
            "count");
        put("sim.packets", static_cast<double>(first.work.packets),
            "count");
        put("sim.escapes", static_cast<double>(first.work.escapes),
            "count");
        put("sim.drops", static_cast<double>(first.work.drops), "count");
        put("sim.epochs", static_cast<double>(first.work.epochs),
            "count");
        put("trace.overhead_s", median(tracedWalls) - median(walls), "s");
        put("trace.spans", static_cast<double>(tracer.spans().size()),
            "count");
        const auto self = selfTimeByLayer(tracer.spans());
        for (const char *layer :
             {"bench", "core", "exp", "net", "sim", "topos", "workloads"}) {
            const auto it = self.find(layer);
            put(std::string("trace.self_s.") + layer,
                it == self.end() ? 0.0 : it->second, "s");
        }
        std::fprintf(stderr,
                     "sfbench: phase shares: decide %.1f%%, commit "
                     "%.1f%%, land %.1f%%, snapshot+route %.1f%%\n",
                     100.0 * ratio(ph.decide, ph.total()),
                     100.0 * ratio(ph.commit, ph.total()),
                     100.0 * ratio(ph.land, ph.total()),
                     100.0 * ratio(ph.snapshot + ph.route, ph.total()));
        const std::string tag =
            o.workload + "-seed" + std::to_string(o.seed);
        writeSpans(tracer.spans(), o.traceOut,
                   tag + "-pid" + std::to_string(getpid()),
                   tag + ".spans.json");
    }

    Json out = Json::object();
    out.set("correct", failed == 0);
    out.set("attempted", static_cast<std::uint64_t>(attempted));
    out.set("failed", static_cast<std::uint64_t>(failed));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = v;
            } else if (flag == "--seed") {
                o.seed = std::stoull(v);
                haveSeed = true;
            } else if (flag == "--seconds") {
                o.seconds = std::stod(v);
                haveSeconds = o.seconds > 0.0;
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                o.trace = v == "1";
                haveTrace = true;
            } else if (flag == "--scale") {
                if (v != "full" && v != "tiny")
                    return usage("--scale takes full or tiny");
                o.tiny = v == "tiny";
            } else if (flag == "--reference") {
                o.reference = v;
            } else if (flag == "--record") {
                o.record = v;
            } else if (flag == "--golden") {
                o.golden = v;
            } else if (flag == "--trace-out") {
                o.traceOut = v;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            return usage("bad value for " + flag);
        }
    }
    if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        return usage(
            "--workload, --seed, --seconds and --trace are required");
    try {
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfbench: %s\n", e.what());
        return 1;
    }
}
