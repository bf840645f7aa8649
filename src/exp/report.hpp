/**
 * @file
 * JSON report assembly and human-readable table rendering for
 * experiment results.
 *
 * The report schema ("sf-exp-report-v1") is what the perf-tracking
 * tooling consumes (BENCH_*.json): one object per experiment with
 * its ordered runs, each carrying the grid cell parameters, the
 * derived seed, and the measured metrics. Wall-clock metadata is
 * opt-in (`includeTiming`) because the default report must be
 * byte-identical across job counts and machines.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scheduler.hpp"
#include "exp/spec.hpp"

namespace sf::exp {

/** Results of one experiment's full sweep. */
struct ExperimentResults {
    const ExperimentSpec *spec = nullptr;
    std::vector<RunResult> runs;
    double wallMs = 0.0;
};

/** Report-level options. */
struct ReportOptions {
    Effort effort = Effort::Default;
    std::uint64_t baseSeed = kBaseSeed;
    int jobs = 1;
    /**
     * Routing policy the sweep ran with. Unlike jobs it CAN affect
     * results, so a non-greedy value is always recorded in the
     * report; the greedy default is omitted so reports from before
     * the policy seam (and all committed goldens) keep their exact
     * bytes.
     */
    core::RoutingPolicyKind policy =
        core::RoutingPolicyKind::Greedy;
    /**
     * Include per-run / per-experiment wall-clock and scheduler
     * metadata. Off by default: timing varies run to run, and the
     * default report is required to be reproducible byte-for-byte.
     */
    bool includeTiming = false;
};

/** Current schema identifier. */
inline constexpr const char *kReportSchema = "sf-exp-report-v1";

/** Assemble the full report document. */
Json buildReport(const std::vector<ExperimentResults> &experiments,
                 const ReportOptions &opts);

/**
 * Render one experiment's runs as an aligned text table (columns:
 * run id, then every metric key in first-appearance order).
 */
std::string renderTable(const ExperimentResults &results);

/** Write @p text to @p path (0644); throws std::runtime_error. */
void writeFile(const std::string &path, const std::string &text);

/** Read @p path entirely; throws std::runtime_error. */
std::string readFile(const std::string &path);

} // namespace sf::exp
