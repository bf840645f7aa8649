#include "exp/run_store.hpp"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "exp/report.hpp"
#include "net/rng.hpp"

namespace fs = std::filesystem;

namespace sf::exp {

namespace {

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/**
 * Filesystem-safe rendering of a name. Run ids contain '/' and
 * other grid punctuation; the readable part keeps [A-Za-z0-9._-]
 * and the appended id hash guarantees distinct ids never share a
 * file even when sanitisation collides them.
 */
std::string
sanitize(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '_' || c == '-';
        out.push_back(safe ? c : '_');
    }
    if (out.size() > 80)
        out.resize(80);
    return out;
}

std::string
entryFileName(const std::string &experiment,
              const std::string &runId)
{
    // The hash chains experiment into run id so even two
    // experiments whose *names* sanitise to the same directory
    // keep distinct entry files.
    return sanitize(runId) + "-" +
           hex16(fnv1a64(runId, fnv1a64(experiment))) + ".json";
}

/**
 * Checksum of an entry, its own "check" member excluded: the hex
 * fnv64 of the compact dump of everything else, so truncation or a
 * flipped byte anywhere in the stored values fails verification on
 * load.
 */
std::string
checksumOf(const Json &entry)
{
    Json payload = Json::object();
    for (const Json::Member &m : entry.asObject())
        if (m.first != "check")
            payload.set(m.first, m.second);
    return hex16(fnv1a64(payload.dump()));
}

/** Best-effort fsync of a directory's entry list (some
 *  filesystems refuse directory handles; rename atomicity does not
 *  depend on it, only rename *durability* does). */
void
fsyncDirBestEffort(const fs::path &dir)
{
    const int dir_fd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
    }
}

/**
 * Atomic *and durable* replacement of @p path: write a temp file,
 * fsync it, rename over the target, then (when @p sync_dir) fsync
 * the directory. The entry appears fully written or not at all —
 * and once this returns with @p sync_dir, it survives a power
 * loss. Rename-without-fsync is not enough: the journaled rename
 * can reach disk before the payload blocks do, and after a crash
 * the entry then exists with missing bytes — the checksum
 * quarantines it and a run that had actually completed is silently
 * re-executed (or, for meta.json, the whole checkpoint is
 * rejected). Callers that pass sync_dir=false keep per-entry
 * atomicity (the payload is fsynced *before* the rename, so a
 * crash leaves either the complete file or none) but must issue
 * the parent-directory fsync themselves to make the rename
 * durable — RunStore::store batches exactly that. Throws
 * std::runtime_error on any failure, leaving no temp file behind.
 */
void
writeFileAtomic(const fs::path &path, const std::string &text,
                bool sync_dir = true)
{
    const fs::path tmp = path.string() + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        throw std::runtime_error("cannot open for writing: " +
                                 tmp.string());
    std::size_t off = 0;
    bool ok = true;
    while (ok && off < text.size()) {
        const ssize_t put =
            ::write(fd, text.data() + off, text.size() - off);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
        } else {
            off += static_cast<std::size_t>(put);
        }
    }
    ok = ok && ::fsync(fd) == 0;
    ok = (::close(fd) == 0) && ok;
    if (!ok) {
        std::error_code ec;
        fs::remove(tmp, ec);
        throw std::runtime_error("short write: " + tmp.string());
    }
    try {
        fs::rename(tmp, path);
    } catch (...) {
        std::error_code ec;
        fs::remove(tmp, ec);
        throw;
    }
    // The rename itself is only durable once the directory's
    // entry list is.
    if (sync_dir)
        fsyncDirBestEffort(path.parent_path());
}

} // namespace

std::string
specHash(const ExperimentSpec &exp, const std::vector<RunSpec> &runs,
         Effort effort, std::uint64_t baseSeed)
{
    Json doc = Json::object();
    doc.set("experiment", exp.name);
    doc.set("artefact", exp.artefact);
    doc.set("title", exp.title);
    doc.set("deterministic", exp.deterministic);
    doc.set("effort", std::string(effortName(effort)));
    doc.set("base_seed", baseSeed);
    Json grid = Json::array();
    for (const RunSpec &run : runs) {
        Json cell = Json::object();
        cell.set("id", run.id);
        cell.set("seed", deriveSeed(exp.name, run.id, baseSeed));
        cell.set("params", run.params);
        grid.push(std::move(cell));
    }
    doc.set("runs", std::move(grid));
    return hex16(fnv1a64(doc.dump()));
}

RunStore::RunStore(std::string dir) : root_(std::move(dir))
{
    fs::create_directories(root_);
}

void
RunStore::bindInvocation(const Json &meta)
{
    const fs::path path = fs::path(root_) / "meta.json";
    if (!fs::exists(path)) {
        writeFileAtomic(path, meta.dump(2) + "\n");
        return;
    }
    Json existing;
    try {
        existing = Json::parse(readFile(path.string()));
    } catch (const std::exception &e) {
        throw std::runtime_error("corrupt checkpoint meta " +
                                 path.string() + ": " + e.what());
    }
    for (const Json::Member &m : meta.asObject()) {
        const Json *have = existing.find(m.first);
        if (!have || !(*have == m.second))
            throw std::runtime_error(
                "checkpoint " + root_ +
                " belongs to a different invocation (" + m.first +
                ": " + (have ? have->dump() : "absent") +
                ", this run needs " + m.second.dump() + ")");
    }
}

Json
RunStore::readInvocationMeta(const std::string &dir)
{
    const fs::path path = fs::path(dir) / "meta.json";
    if (!fs::exists(path))
        throw std::runtime_error(
            "not a checkpoint directory (no meta.json): " + dir);
    Json meta = Json::parse(readFile(path.string()));
    const Json *schema = meta.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kSchema)
        throw std::runtime_error("not an " + std::string(kSchema) +
                                 " checkpoint: " + dir);
    // The fields resume, status and gc re-plan the sweep from. A
    // wrong type must fail here, naming the field: read on, a
    // negative seed would wrap to a huge one, gc would then judge
    // every valid entry stale and delete it, and a double or a
    // string would surface only as a bare std::get error.
    const auto reject = [&](const char *field, const char *want) {
        throw std::runtime_error("corrupt checkpoint meta " +
                                 path.string() + ": " + field +
                                 " must be " + want);
    };
    for (const char *field : {"patterns", "effort", "run_filter"}) {
        const Json *v = meta.find(field);
        if (!v || !v->isString())
            reject(field, "a string");
    }
    const Json *seed = meta.find("base_seed");
    if (!seed ||
        !(seed->isUint() || (seed->isInt() && seed->asInt() >= 0)))
        reject("base_seed", "a non-negative integer");
    // Absent in checkpoints taken before these fields existed.
    for (const char *field : {"policy", "reconfig_schedule"}) {
        const Json *v = meta.find(field);
        if (v && !v->isString())
            reject(field, "a string");
    }
    return meta;
}

std::string
RunStore::entryPath(const std::string &experiment,
                    const std::string &runId) const
{
    return (fs::path(root_) / sanitize(experiment) / "runs" /
            entryFileName(experiment, runId))
        .string();
}

void
RunStore::logEvent(const char *event, const Key &key)
{
    // Caller holds mutex_ (appends must serialise so journal lines
    // never interleave).
    Json line = Json::object();
    line.set("event", event);
    line.set("experiment", key.experiment);
    line.set("run", key.runId);
    line.set("spec_hash", key.specHash);
    try {
        appendJsonLine(
            (fs::path(root_) / "journal.jsonl").string(), line);
    } catch (const std::exception &) {
        // The journal is diagnostic only; never fail an operation
        // over it.
    }
}

void
RunStore::quarantine(const std::string &path, const Key &key)
{
    const fs::path dir = fs::path(root_) / "quarantine";
    std::error_code ec;
    fs::create_directories(dir, ec);
    // Uniquify the target: the same entry can be quarantined once
    // per resume (corrupted again, or never successfully re-run),
    // and a colliding name would overwrite — or, where rename onto
    // an existing file fails, fall through to remove — the earlier
    // corpse; either way post-mortem evidence is lost.
    const std::string base = sanitize(key.experiment) + "__" +
                             fs::path(path).filename().string();
    fs::path target = dir / base;
    for (int n = 2; fs::exists(target, ec); ++n)
        target = dir / (base + "." + std::to_string(n));
    fs::rename(path, target, ec);
    if (ec)
        fs::remove(path, ec); // at minimum get it out of runs/
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.quarantined;
    logEvent("quarantine", key);
}

RunStore::EntryState
RunStore::classify(const Key &key, Json *entry_out) const
{
    const std::string path = entryPath(key.experiment, key.runId);
    if (!fs::exists(path))
        return EntryState::Missing;
    Json entry;
    try {
        entry = Json::parse(readFile(path));
        // Structural validation: every field the report needs, plus
        // a checksum that catches in-place corruption.
        const Json *schema = entry.find("schema");
        if (!schema || !schema->isString() ||
            schema->asString() != kSchema)
            throw JsonError("bad schema");
        (void)entry.at("experiment").asString();
        (void)entry.at("id").asString();
        (void)entry.at("seed").asUint();
        (void)entry.at("spec_hash").asString();
        (void)entry.at("metrics");
        if (entry.at("check").asString() != checksumOf(entry))
            throw JsonError("checksum mismatch");
    } catch (const std::exception &) {
        return EntryState::Corrupt;
    }
    if (entry.at("experiment").asString() != key.experiment ||
        entry.at("id").asString() != key.runId ||
        entry.at("seed").asUint() != key.seed ||
        entry.at("spec_hash").asString() != key.specHash)
        return EntryState::Stale;
    if (entry_out)
        *entry_out = std::move(entry);
    return EntryState::Valid;
}

bool
RunStore::load(const Key &key, RunResult &out)
{
    Json entry;
    switch (classify(key, &entry)) {
    case EntryState::Missing: {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return false;
    }
    case EntryState::Corrupt:
        quarantine(entryPath(key.experiment, key.runId), key);
        return false;
    case EntryState::Stale: {
        // Valid entry from an older registry / other invocation:
        // stale, not corrupt. Leave it in place — a fresh result
        // under the current key overwrites it via store().
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stale;
        logEvent("stale", key);
        return false;
    }
    case EntryState::Valid:
        break;
    }
    out.metrics = entry.at("metrics");
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return true;
}

RunStore::EntryState
RunStore::inspect(const Key &key) const
{
    return classify(key, nullptr);
}

void
RunStore::store(const Key &key, const RunResult &result)
{
    const std::size_t attempt =
        writeAttempts_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (writeFilter && !writeFilter(attempt)) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.dropped;
        return;
    }
    Json entry = Json::object();
    entry.set("schema", kSchema);
    entry.set("experiment", key.experiment);
    entry.set("id", key.runId);
    entry.set("seed", key.seed);
    entry.set("spec_hash", key.specHash);
    entry.set("params", result.params);
    entry.set("metrics", result.metrics);
    entry.set("check", checksumOf(entry));
    const std::string path = entryPath(key.experiment, key.runId);
    try {
        fs::create_directories(fs::path(path).parent_path());
        // sync_dir=false: the entry is atomic on its own (payload
        // fsynced before the rename); the parent-directory fsync
        // that makes the rename *durable* is batched below, one
        // directory pass per kDirSyncInterval entries instead of
        // one fsync per entry.
        writeFileAtomic(path, entry.dump(2) + "\n",
                        /*sync_dir=*/false);
    } catch (const std::exception &) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.writeErrors;
        return;
    }
    std::vector<std::string> to_sync;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.writes;
        logEvent("store", key);
        const std::string parent =
            fs::path(path).parent_path().string();
        if (std::find(dirtyDirs_.begin(), dirtyDirs_.end(),
                      parent) == dirtyDirs_.end())
            dirtyDirs_.push_back(parent);
        if (++pendingDirSync_ >= kDirSyncInterval) {
            to_sync.swap(dirtyDirs_);
            pendingDirSync_ = 0;
            stats_.dirSyncs += to_sync.size();
        }
    }
    // fsync outside the lock: other workers keep checkpointing
    // while this batch's directories flush.
    for (const std::string &dir : to_sync)
        fsyncDirBestEffort(dir);
}

void
RunStore::flushDurability()
{
    std::vector<std::string> to_sync;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        to_sync.swap(dirtyDirs_);
        pendingDirSync_ = 0;
        stats_.dirSyncs += to_sync.size();
    }
    for (const std::string &dir : to_sync)
        fsyncDirBestEffort(dir);
}

RunStore::~RunStore() { flushDurability(); }

RunStore::Stats
RunStore::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace sf::exp
