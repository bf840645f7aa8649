#include "exp/report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sf::exp {

Json
buildReport(const std::vector<ExperimentResults> &experiments,
            const ReportOptions &opts)
{
    Json report = Json::object();
    report.set("schema", kReportSchema);
    report.set("suite", "string-figure");
    report.set("effort", std::string(effortName(opts.effort)));
    report.set("base_seed", opts.baseSeed);
    // Result-affecting, so never hidden behind includeTiming; the
    // greedy default is omitted to keep pre-seam report bytes (and
    // the committed goldens) unchanged.
    if (opts.policy != core::RoutingPolicyKind::Greedy)
        report.set("policy",
                   core::routingPolicyName(opts.policy));
    if (opts.includeTiming)
        report.set("jobs", static_cast<std::int64_t>(opts.jobs));

    Json exps = Json::array();
    for (const ExperimentResults &er : experiments) {
        Json e = Json::object();
        e.set("name", er.spec->name);
        e.set("artefact", er.spec->artefact);
        e.set("title", er.spec->title);
        e.set("deterministic", er.spec->deterministic);
        if (opts.includeTiming)
            e.set("wall_ms", er.wallMs);
        Json runs = Json::array();
        for (const RunResult &r : er.runs) {
            Json run = Json::object();
            run.set("id", r.id);
            run.set("seed", r.seed);
            run.set("params", r.params);
            if (r.failed) {
                run.set("failed", true);
                run.set("error", r.error);
            }
            run.set("metrics", r.metrics);
            if (opts.includeTiming)
                run.set("wall_ms", r.wallMs);
            runs.push(std::move(run));
        }
        e.set("runs", std::move(runs));
        exps.push(std::move(e));
    }
    report.set("experiments", std::move(exps));
    return report;
}

namespace {

std::string
cellText(const Json &v)
{
    if (v.isString())
        return v.asString();
    if (v.isDouble()) {
        // Fixed, low-noise table formatting; the JSON report keeps
        // full precision. Very large and very small magnitudes fall
        // back to compact %.4g so columns stay narrow.
        char buf[32];
        const double d = v.asDouble();
        if (d == 0.0 ||
            (std::fabs(d) >= 0.01 && std::fabs(d) < 1e6))
            std::snprintf(buf, sizeof buf, "%.2f", d);
        else
            std::snprintf(buf, sizeof buf, "%.4g", d);
        return buf;
    }
    return v.dump();
}

} // namespace

std::string
renderTable(const ExperimentResults &results)
{
    // Column set: run id + metric keys in first-appearance order.
    std::vector<std::string> columns{"run"};
    for (const RunResult &r : results.runs) {
        if (!r.metrics.isObject())
            continue;
        for (const Json::Member &m : r.metrics.asObject()) {
            bool known = false;
            for (std::size_t c = 1; c < columns.size(); ++c)
                known = known || columns[c] == m.first;
            if (!known)
                columns.push_back(m.first);
        }
    }

    std::vector<std::vector<std::string>> rows;
    rows.push_back(columns);
    for (const RunResult &r : results.runs) {
        std::vector<std::string> row{r.id};
        for (std::size_t c = 1; c < columns.size(); ++c) {
            const Json *v = r.metrics.isObject()
                                ? r.metrics.find(columns[c])
                                : nullptr;
            row.push_back(v ? cellText(*v)
                            : (r.failed ? "ERR" : "-"));
        }
        rows.push_back(std::move(row));
    }

    std::vector<std::size_t> widths(columns.size(), 0);
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::string out;
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            if (c + 1 < row.size())
                out.append(widths[c] - row[c].size() + 2, ' ');
        }
        out.push_back('\n');
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw std::runtime_error("cannot open for writing: " +
                                 path);
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    const int rc = std::fclose(f);
    if (written != text.size() || rc != 0)
        throw std::runtime_error("short write: " + path);
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw std::runtime_error("cannot open for reading: " +
                                 path);
    std::string text;
    char buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0)
        text.append(buffer, got);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        throw std::runtime_error("read error: " + path);
    return text;
}

} // namespace sf::exp
